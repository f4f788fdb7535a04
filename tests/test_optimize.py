import itertools
from dataclasses import replace
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import nbqc.optimize
from nbqc.cli import EXIT_CONSTRAINT, main
from nbqc.gf import Field
from nbqc.lift import (
    AceConstraint,
    INF,
    QcCode,
    _canceled,
    _check_collisions,
    binary_ace_spectrum,
    lift_cycle,
    lift_shifts,
    lift_walks,
    lifts_minimal,
    nb_ace_spectrum,
    walk_table,
)
from nbqc.optimize import (
    ConstructionFailure,
    OptimizerConfig,
    _LabelTracker,
    _ShiftTracker,
    _divisors,
    _order_violations,
    assign_labels,
    assign_shifts,
    construct,
    find_problematic_binary,
    spectrum_search,
)
from nbqc.protograph import enumerate_closed_walks, from_base_matrix, span_sums

from conftest import FIXTURES
from oracles import (assign_labels_by_edge, assign_shifts_by_edge,
                     ring_protograph)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(rng_seed=1, max_sweeps=0)
    with pytest.raises(ValueError):
        OptimizerConfig(rng_seed=1, max_restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(rng_seed=1, edge_order_policy="sorted")


def test_problem_set_empty_for_zero_constraint(square22):
    ps = find_problematic_binary(square22, 3, AceConstraint.all_zero(4))
    assert ps.cycles == []


def test_problem_set_contains_low_ace_cycle(square22):
    ps = find_problematic_binary(square22, 3, AceConstraint(4, {4: 1}))
    assert len(ps.cycles) == 1
    assert ps.cycles[0].length == 4


def test_problem_set_divisor_analysis(square22):
    # depth 4 with an infinite constraint: only the O=1 realization fits
    ps = find_problematic_binary(square22, 3, AceConstraint.parse("inf,inf"))
    assert len(ps.cycles) == 1
    # at depth 12 the same constraint also flags nothing new (single cycle)
    ps12 = find_problematic_binary(
        square22, 3, AceConstraint.parse("inf,inf,inf,inf,inf,inf")
    )
    assert len(ps12.cycles) == 1


def test_divisors_are_the_cycle_orders():
    for Z in list(range(1, 200)) + [65536, 2 * 3 * 5 * 7 * 11 * 13]:
        assert _divisors(Z).tolist() == [o for o in range(1, Z + 1) if Z % o == 0]


@pytest.mark.parametrize("Z", [0, 10**12, True, 2.0])
def test_find_problematic_binary_rejects_bad_Z_at_once(theta23, Z):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="lifting order Z"):
        find_problematic_binary(theta23, Z, AceConstraint.parse("inf,inf"))
    assert time.perf_counter() - start < 1.0


def test_problem_set_or_over_cycle_orders_bounds_its_memory(ensemble2_matrix):
    # the walks are judged one cycle order at a time, in place: 2 972 172
    # bytes traced when a column per order (1, 3, 7 and 21) was stacked
    # first (CPython 3.11.7, numpy 2.4.6)
    proto = from_base_matrix(ensemble2_matrix)
    constraint = AceConstraint.parse("inf,inf,inf,6,2,1,1")
    table = walk_table(proto, constraint.depth)
    assert len(table) == 82_499
    tracemalloc.start()
    try:
        problem = find_problematic_binary(proto, 21, constraint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * len(table)
    orders = _order_violations(table, _divisors(21), constraint)
    assert problem.cycles == table.subset(orders.any(axis=1))


def test_assign_shifts_trivial_constraint_zero_sweeps(square22):
    cfg = OptimizerConfig(rng_seed=5)
    res = assign_shifts(square22, 3, AceConstraint.all_zero(4), cfg)
    assert res.success
    assert res.sweeps_used == 0
    assert res.restarts_used == 1
    # matches the raw seeded draw: nothing was modified
    rng = np.random.default_rng(5)
    expected = rng.integers(0, 3, size=4, dtype=np.int64)
    assert [res.assignment[e] for e in range(4)] == list(expected)


def test_assign_shifts_toy_4cycle(square22):
    cfg = OptimizerConfig(rng_seed=0)
    res = assign_shifts(square22, 3, AceConstraint.parse("inf,inf"), cfg)
    assert res.success
    rec = enumerate_closed_walks(square22, 4)[0]
    d = sum(
        (1 if p % 2 == 0 else -1) * res.assignment[e]
        for p, e in enumerate(rec.edge_seq)
    )
    assert d % 3 != 0


def test_toy_4cycle_success_fraction_is_54_of_81(square22):
    # exhaustive oracle: d != 0 mod 3 for 54 of the 81 assignments
    rec = enumerate_closed_walks(square22, 4)[0]
    good = 0
    for shifts in itertools.product(range(3), repeat=4):
        d = sum(
            (1 if p % 2 == 0 else -1) * shifts[e]
            for p, e in enumerate(rec.edge_seq)
        )
        good += d % 3 != 0
    assert good == 54


def test_assign_shifts_failure_reports(square22):
    # Z=1 leaves no freedom: the 4-cycle lifts to itself and violates inf@4
    proto = from_base_matrix([[2]])
    cfg = OptimizerConfig(rng_seed=1)
    res = assign_shifts(proto, 1, AceConstraint.parse("inf"), cfg)
    assert not res.success
    assert res.residual == 1
    assert res.restarts_used == cfg.max_restarts
    assert res.worst_cycle == {"length": 2, "ace": 0, "total_shift": 0}
    j = res.to_json_dict()
    assert j["success"] is False and j["worst_cycle"]["length"] == 2


@pytest.mark.parametrize("seed", range(10))
def test_assign_shifts_never_collides_parallel_edges(seed):
    # ACE 0 allows every lifted cycle, but an order-1 lift of two parallel
    # edges is a collision, not a cycle: the search must not pick one
    proto = from_base_matrix([[2, 1], [1, 1]])
    res = assign_shifts(proto, 3, AceConstraint.parse("0,0"),
                        OptimizerConfig(rng_seed=seed))
    assert res.success
    _check_collisions(QcCode(proto, 3, Field(1), res.assignment))


def test_spectrum_search_rejects_more_parallel_edges_than_z(gf4):
    proto = from_base_matrix([[3, 1], [1, 1]])
    with pytest.raises(ValueError, match="3 parallel edges"):
        spectrum_search(proto, 2, gf4, OptimizerConfig(rng_seed=1), max_depth=4)
    res = spectrum_search(proto, 3, gf4, OptimizerConfig(rng_seed=1),
                          max_depth=4)
    _check_collisions(res.code)


def test_large_z_failure_report_and_memory(tmp_path, capsys, monkeypatch):
    # the shift tracker holds no Z x Z table and no int64 (rows, Z)
    # temporary, so at Z=4096 its peak stays far below the per-edge
    # tracker's; the same command at Z=65536 reports the same failure
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return assign_shifts(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(nbqc.optimize, "assign_shifts", traced)
    proto = tmp_path / "parallel.txt"
    proto.write_text("2 2\n1 1\n")
    argv = ["construct", "--proto", str(proto), "--Z", "4096", "--q", "4",
            "--ace-b", "9,9,9,9", "--ace-nb", "9,9,9,9", "--seed", "1",
            "--max-restarts", "2", "--max-sweeps", "3",
            "--out", str(tmp_path / "code.json")]
    assert main(argv) == EXIT_CONSTRAINT
    assert capsys.readouterr().err == (
        "error: shift-assignment constraint not achieved\n"
        '{"residual": 1, "restarts_used": 2, "stage": "shift-assignment", '
        '"success": false, "sweeps_used": 4, "worst_cycle": '
        '{"ace": 1, "length": 2, "total_shift": 0}}\n')
    # 35 741 771 bytes: the tracemalloc peak of this assign_shifts call with
    # the per-edge evaluating tracker (oracles.EdgeShiftTracker), traced
    # the same way after the walks were enumerated, on CPython 3.11.7 with
    # numpy 2.4.6
    assert len(peaks) == 1 and peaks[0] <= 35_741_771


def test_worst_violated_is_least_by_length_ace_and_edges():
    # the 2-walks on edges (0, 1), (2, 3) and (5, 6) have ACE 2, 0 and 0,
    # and every 2-walk violates: the least ACE, then the least edges decide
    proto = from_base_matrix([[2, 2, 0], [1, 0, 2], [1, 0, 0]])
    Z, constraint = 4, AceConstraint(8, dict.fromkeys((2, 4, 6, 8), 9))
    tracker = _ShiftTracker(find_problematic_binary(proto, Z, constraint).cycles,
                            Z, constraint)
    rng = np.random.default_rng(7)
    for _ in range(6):
        tracker.reset(rng.integers(0, Z, proto.n_edges))
        walks = tracker.table
        i = min(np.flatnonzero(tracker.violated), key=lambda i: (
            walks[i].length, walks[i].ace, walks[i].edge_seq))
        assert tracker.worst_violated() == {
            "length": walks[i].length, "ace": walks[i].ace,
            "total_shift": int(tracker.total_shift[i])}


def test_monotone_sweeps(ensemble1_matrix):
    proto = from_base_matrix(ensemble1_matrix)
    history = []
    cfg = OptimizerConfig(rng_seed=3, max_restarts=1)
    assign_shifts(proto, 9, AceConstraint.parse("inf,inf,inf,4"), cfg,
                  history=history)
    assert history
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_assign_shifts_determinism(ensemble1_matrix):
    proto = from_base_matrix(ensemble1_matrix)
    cfg = OptimizerConfig(rng_seed=11)
    cons = AceConstraint.parse("inf,inf,inf,4")
    r1 = assign_shifts(proto, 9, cons, cfg)
    r2 = assign_shifts(proto, 9, cons, cfg)
    assert r1.to_json_dict() == r2.to_json_dict()
    assert r1.achieved == r2.achieved
    assert np.array_equal(r1.assignment, r2.assignment)


def test_success_postcondition_spectrum_recheck(ensemble1_matrix, gf16):
    proto = from_base_matrix(ensemble1_matrix)
    cons = AceConstraint.parse("inf,inf,inf,4")
    res = assign_shifts(proto, 9, cons, OptimizerConfig(rng_seed=2))
    assert res.success
    code = QcCode(proto, 9, gf16, res.assignment)
    assert binary_ace_spectrum(code, 8).achieves(cons)


def test_assign_labels_gf2_degenerate(gf2, square22):
    # q=2 has a single label; success iff the binary lift already conforms
    cfg = OptimizerConfig(rng_seed=4)
    shifts = assign_shifts(square22, 3, AceConstraint.parse("inf,inf"), cfg)
    code = QcCode(square22, 3, gf2, shifts.assignment)
    ok = assign_labels(code, AceConstraint.parse("inf,inf"), cfg)
    assert ok.success
    hard = assign_labels(
        code, AceConstraint.parse("inf,inf,inf,inf,inf,0"), cfg
    )
    # the order-3 lift of the 4-cycle lives at length 12 with ACE 0 and
    # GF(2) cannot cancel it when the constraint asks for more
    harder = assign_labels(
        code, AceConstraint.parse("inf,inf,inf,inf,inf,1"), cfg
    )
    assert hard.success
    assert not harder.success and harder.restarts_used == 1


# the shifts of the greedy search's call 44 in tests/golden/optimize_runs.json
# (GF(16)/Z=9, seed 1); call 45 labels them for (inf,inf,inf,inf,inf,5)
SEARCH_CALL_44_SHIFTS = [1, 6, 0, 7, 0, 2, 7, 4, 5, 1, 8, 2, 5, 0, 0, 2, 0, 3,
                         2, 5, 6, 7, 5, 3, 3, 3, 3, 0, 0, 3, 8, 8, 4, 1]


def test_label_tracker_counts_walks_no_labeling_moves(ensemble1_matrix, gf16):
    # two problematic 12-walks have label coefficients that m divides
    # (all zero), so call 45 runs one restart and its residual is 4
    proto = from_base_matrix(ensemble1_matrix)
    code = QcCode(proto, 9, gf16, SEARCH_CALL_44_SHIFTS)
    constraint = AceConstraint.parse("inf,inf,inf,inf,inf,5")
    tracker = _LabelTracker(code, constraint)
    assert tracker.n_permanent == 2
    res = assign_labels(code, constraint, OptimizerConfig(rng_seed=1))
    assert not res.success and res.restarts_used == 1
    assert res.n_permanent == 2 and "n_permanent" not in res.to_json_dict()


def test_label_failure_names_its_permanent_cycles(tmp_path, capsys):
    # GF(2) cancels nothing: every problematic cycle is permanent
    argv = ["construct", "--proto", str(FIXTURES / "proto_gf16_z9.txt"),
            "--Z", "9", "--q", "2", "--ace-b", "inf,inf,inf,4",
            "--ace-nb", "inf,inf,inf,inf,inf,4", "--seed", "1",
            "--out", str(tmp_path / "code.json")]
    assert main(argv) == EXIT_CONSTRAINT
    assert capsys.readouterr().err == (
        "error: label-assignment constraint not achieved: 212 problematic "
        "cycles are uncanceled under every labeling\n"
        '{"residual": 212, "restarts_used": 1, "stage": "label-assignment", '
        '"success": false, "sweeps_used": 0, "worst_cycle": '
        '{"ace": 1, "length": 4, "total_shift": 3}}\n')


def test_assign_labels_single_4cycle_matches_bruteforce(gf16, square22):
    shifts = [0, 0, 0, 0]
    code = QcCode(square22, 3, gf16, shifts)
    rec = enumerate_closed_walks(square22, 4)[0]
    cfg = OptimizerConfig(rng_seed=9)
    res = assign_labels(code, AceConstraint.parse("inf,inf"), cfg)
    assert res.success
    labeled = code.with_labels(res.assignment)
    assert nb_ace_spectrum(labeled, 4).values[4] == INF
    # brute force: O=1, so a label set works iff the alternating sum is
    # nonzero mod 15; count agreement on a subsample of the 16^4 space
    good = total = 0
    for labs in itertools.product(range(0, 15, 2), repeat=4):
        s = sum(
            (1 if p % 2 == 0 else -1) * labs[e]
            for p, e in enumerate(rec.edge_seq)
        )
        decided = nb_ace_spectrum(code.with_labels(labs), 4).values[4] == INF
        assert decided == (s % 15 != 0)
        good += decided
        total += 1
    assert 0 < good < total


def test_assign_labels_never_touches_shifts(ensemble1_matrix, gf16):
    proto = from_base_matrix(ensemble1_matrix)
    cfg = OptimizerConfig(rng_seed=6)
    cons_b = AceConstraint.parse("inf,inf,inf,4")
    shifts = assign_shifts(proto, 9, cons_b, cfg)
    assert shifts.success
    code = QcCode(proto, 9, gf16, shifts.assignment)
    before = binary_ace_spectrum(code, 12)
    labels = assign_labels(
        code, AceConstraint.parse("inf,inf,inf,inf,inf,4"), cfg
    )
    assert labels.success
    labeled = code.with_labels(labels.assignment)
    assert binary_ace_spectrum(labeled, 12) == before
    nb = nb_ace_spectrum(labeled, 12)
    assert nb.achieves(AceConstraint.parse("inf,inf,inf,inf,inf,4"))
    # canceled cycles only ever leave the minimum
    binary = binary_ace_spectrum(labeled, 12)
    assert all(nb.values[i] >= binary.values[i] for i in nb.lengths())


def test_optimize_result_carries_verified_spectrum(gf4):
    rows = [[1, 1, 1], [1, 1, 1]]
    proto = from_base_matrix(rows)
    cfg = OptimizerConfig(rng_seed=4)
    shifts = assign_shifts(proto, 4, AceConstraint.all_zero(6), cfg)
    code = QcCode(proto, 4, gf4, shifts.assignment)
    labels = assign_labels(code, AceConstraint.all_zero(8), cfg)
    assert shifts.success and labels.success
    # recomputed on a protograph that has never enumerated its walks
    fresh = QcCode(from_base_matrix(rows), 4, gf4, shifts.assignment,
                   labels.assignment)
    assert shifts.achieved == binary_ace_spectrum(fresh, 6)
    assert labels.achieved == nb_ace_spectrum(fresh, 8)
    assert any(v != INF for v in labels.achieved.to_list())
    # a failure carries no spectrum
    parallel = from_base_matrix([[2]])
    failed = assign_shifts(parallel, 1, AceConstraint.parse("inf"), cfg)
    assert not failed.success and failed.achieved is None


def test_label_history_monotone(ensemble1_matrix, gf16):
    proto = from_base_matrix(ensemble1_matrix)
    cfg = OptimizerConfig(rng_seed=8, max_restarts=1)
    shifts = assign_shifts(proto, 9, AceConstraint.parse("inf,inf,inf,4"), cfg)
    code = QcCode(proto, 9, gf16, shifts.assignment)
    history = []
    assign_labels(code, AceConstraint.parse("inf,inf,inf,inf,inf,4"), cfg,
                  history=history)
    assert history
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_spectrum_search_acyclic_all_inf(gf16):
    ring = ring_protograph(4)  # girth 8: nothing up to depth 4
    cfg = OptimizerConfig(rng_seed=1)
    res = spectrum_search(ring, 3, gf16, cfg, max_depth=4)
    assert res.binary.to_list() == [INF, INF]
    assert res.nb.to_list() == [INF, INF]


def test_spectrum_search_toy_dominates_baseline(gf16):
    proto = from_base_matrix([[1, 1, 1], [1, 1, 1]])
    cfg = OptimizerConfig(rng_seed=12)
    res = spectrum_search(proto, 4, gf16, cfg, max_depth=8)
    # the search's first attempt: unconstrained at depth 4, under its seed
    first = construct(proto, 4, gf16, AceConstraint.all_zero(4),
                      AceConstraint.all_zero(4),
                      replace(cfg, rng_seed=(12 * 1_000_003 + 1) % 2**63))
    assert res.binary.depth == 8 > first.binary.depth
    assert res.binary.dominates(first.binary)
    assert res.nb.dominates(first.nb)
    # exhaustive oracle at depth 4: some assignment avoids lifted 4-cycles,
    # so the search must have found tau_4 = inf on the binary side
    achievable_inf4 = False
    for shifts in itertools.product(range(4), repeat=6):
        code = QcCode(proto, 4, gf16, shifts)
        if binary_ace_spectrum(code, 4).values[4] == INF:
            achievable_inf4 = True
            break
    assert achievable_inf4
    assert res.binary.values[4] == INF
    # the returned candidate re-verifies
    assert binary_ace_spectrum(res.code, res.binary.depth) == res.binary
    assert nb_ace_spectrum(res.code, res.nb.depth) == res.nb


def test_spectrum_search_deterministic(gf16):
    proto = from_base_matrix([[1, 1, 1], [1, 1, 1]])
    cfg = OptimizerConfig(rng_seed=12)
    r1 = spectrum_search(proto, 4, gf16, cfg, max_depth=6)
    r2 = spectrum_search(proto, 4, gf16, cfg, max_depth=6)
    assert r1.binary == r2.binary
    assert r1.nb == r2.nb
    assert r1.code.to_json_dict() == r2.code.to_json_dict()


def test_spectrum_search_reaches_reference_pair(ensemble1_matrix, gf16):
    proto = from_base_matrix(ensemble1_matrix)
    res = spectrum_search(proto, 9, gf16, OptimizerConfig(rng_seed=2),
                          max_depth=12)
    target_b = AceConstraint.parse("inf,inf,inf,4")
    target_nb = AceConstraint.parse("inf,inf,inf,inf,inf,4")
    assert res.binary.achieves(target_b)
    assert res.nb.achieves(target_nb)


def _random_protograph(rng, most: int = 2):
    """Small base graph, up to ``most`` parallel edges a cell, every
    variable degree >= 2, at most 12 edges so a recount over every walk
    stays quick."""
    while True:
        m = rng.integers(0, most + 1, size=(int(rng.integers(2, 4)),
                                            int(rng.integers(2, 5))))
        if (m.sum(axis=0).min() >= 2 and m.sum(axis=1).min() >= 1
                and m.sum() <= 12):
            return from_base_matrix(m.tolist())


def _violating(lc, constraint):
    # lifted length 2 is two parallel edges with equal shifts: a collision
    return (lc.realized and lc.lifted_len <= constraint.depth
            and (lc.lifted_len == 2
                 or lc.lifted_ace < constraint.values[lc.lifted_len]))


def _check_tracker(tracker, values, recount, rng, n_values, count_steps,
                   n_steps=20):
    """total matches a from-scratch recount after reset and every apply,
    and eval_edge predicts the total each apply leaves.  After reset and
    the first ``count_steps`` applies (each check costs a recount per edge
    and value), every edge's kept count row moves the total as a recount
    with the edge at each value does."""

    def check_counts():
        for e in range(len(values)):
            ev = tracker.eval_edge(e)
            moved = values.copy()
            for v in range(n_values):
                moved[e] = v
                expect = recount(moved)
                if ev is None:
                    assert expect == tracker.total
                else:
                    x, counts = ev
                    assert x == values[e]
                    assert tracker.total - counts[x] + counts[v] == expect

    tracker.reset(values.copy())
    assert tracker.total == recount(values)
    check_counts()
    for step in range(n_steps):
        e = int(rng.integers(len(values)))
        y = int(rng.integers(n_values))
        ev = tracker.eval_edge(e)
        before = tracker.total
        tracker.apply(e, y)
        values[e] = y
        assert tracker.total == recount(values)
        if ev is None:
            assert tracker.total == before
        else:
            x, counts = ev
            assert tracker.total == before - counts[x] + counts[y]
        if step < count_steps:
            check_counts()


def _memo_recount(walks, code_of, violates):
    """Walks of ``walks`` whose lift_cycle ``violates`` in ``code_of(values)``.

    Each walk's verdict is kept per values on its own edges, so a recount
    lifts only the walks whose edges changed."""
    walks = list(walks)
    seen = {}

    def recount(values):
        code = None
        total = 0
        for i, rec in enumerate(walks):
            key = (i, *values[list(rec.edge_seq)].tolist())
            if key not in seen:
                if code is None:
                    code = code_of(values)
                seen[key] = bool(violates(lift_cycle(rec, code)))
            total += seen[key]
        return total
    return recount


def _divisible_walks(tracker, n_edges, Z, q1):
    """Walks of the label tracker whose lift order's m > 1 divides every
    label coefficient: no labeling cancels them."""
    d = tracker.total_shift
    m = q1 // np.gcd(q1, Z // np.gcd(d, Z))
    coef = np.stack([tracker.table.prefix_sums(np.arange(n_edges) == e)[-1]
                     for e in range(n_edges)])
    return int(((m > 1) & (coef % m == 0).all(axis=0)).sum())


# cells of up to three parallel edges: each of these seeds draws a code
# with a walk that m divides, which 300 draws of cells of two never gave
_DIVISIBLE_SEEDS = (45, 152)


@pytest.mark.parametrize("seed", [*range(16), *_DIVISIBLE_SEEDS])
def test_trackers_match_lift_cycle_recount(seed):
    rng = np.random.default_rng(seed)
    # the fixed graph reaches walks that cross one edge both ways around
    # a revisited node, so that edge moves only a partial-sum difference
    # the count rows are recounted after reset and the first count_steps
    # applies; each recount of the depth-10 graph lifts many more walks
    if seed < 12 or seed in _DIVISIBLE_SEEDS:
        most = 3 if seed in _DIVISIBLE_SEEDS else 2
        proto, depth, count_steps = _random_protograph(rng, most), 6, 5
    else:
        proto, depth, count_steps = from_base_matrix([[2, 2], [1, 1]]), 10, 2
    Z = int(rng.integers(1, 9))
    field = Field(int(rng.integers(1, 5)))
    constraint = AceConstraint(depth, {
        ll: INF if v > 3 else int(v)
        for ll, v in zip(range(2, depth + 1, 2),
                         rng.integers(0, 5, size=depth // 2))
    })
    walks = enumerate_closed_walks(proto, depth)

    problem = find_problematic_binary(proto, Z, constraint)

    shift_count = _memo_recount(
        problem.cycles, lambda shifts: QcCode(proto, Z, Field(1), shifts),
        lambda lc: _violating(lc, constraint))
    _check_tracker(_ShiftTracker(problem.cycles, Z, constraint),
                   rng.integers(0, Z, proto.n_edges), shift_count, rng, Z,
                   count_steps=count_steps)

    code = QcCode(proto, Z, field, rng.integers(0, Z, proto.n_edges))
    tracker = _LabelTracker(code, constraint)
    assert tracker.table == [
        rec for rec in walks if _violating(lift_cycle(rec, code), constraint)
    ]
    q1 = field.q - 1
    if seed in _DIVISIBLE_SEEDS:
        assert _divisible_walks(tracker, proto.n_edges, Z, q1) > 0

    label_count = _memo_recount(tracker.table, code.with_labels,
                                lambda lc: not lc.canceled)
    _check_tracker(tracker, rng.integers(0, q1, proto.n_edges), label_count,
                   rng, q1, count_steps=count_steps)


def _check_coefficients(tracker, n_edges, live, with_pairs):
    """Each (walk, edge) row's coefficients are the walk's prefix sums of
    the edge's one-hot values: the last column for the walk's total and,
    with pairs, the difference at each pair's two visits for its terms.
    A live walk has a row on exactly the edges that move one of them."""
    table, n, V = tracker.table, tracker.n, tracker.n_values
    row_of = {(w, e): r for r, (w, e)
              in enumerate(tracker.rows[:, :2].tolist())}
    assert len(row_of) == len(tracker.rows)  # one row per (walk, edge)
    pairs_of = [np.flatnonzero(table.pair_walk == w) if with_pairs
                else np.empty(0, np.intp) for w in range(n)]
    for e in range(n_edges):
        sums = table.prefix_sums(np.arange(n_edges) == e)
        diff = (sums[table.p2, table.pair_walk]
                - sums[table.p1, table.pair_walk])
        moved = [live[w] and (sums[-1, w] != 0 or diff[pairs_of[w]].any())
                 for w in range(n)]
        assert {w for w, e2 in row_of if e2 == e} == set(np.flatnonzero(moved))
        for w in np.flatnonzero(moved).tolist():
            _, _, coef, ring, per, first = tracker.rows[row_of[w, e]].tolist()
            assert coef == sums[-1, w]
            terms = tracker.terms[first:first + per]
            assert terms[:, 0].tolist() == (n + pairs_of[w]).tolist()
            assert terms[:, 1].tolist() == diff[pairs_of[w]].tolist()
            for c, k in [(coef, ring), *terms[:, 1:].tolist()]:
                assert (tracker.ring[k] == c * np.arange(V) % V).all()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tracker_coefficients_are_one_hot_prefix_sums(data):
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    proto = _random_protograph(rng, most=draw(st.sampled_from([2, 3])))
    depth = draw(st.sampled_from([2, 4, 6]))
    Z = draw(st.integers(1, 12))
    # every realized lift within the depth is problematic
    constraint = AceConstraint(depth, dict.fromkeys(range(2, depth + 1, 2),
                                                    INF))
    table = enumerate_closed_walks(proto, depth)
    _check_coefficients(_ShiftTracker(table, Z, constraint), proto.n_edges,
                        np.ones(len(table), bool), with_pairs=True)
    shifts = draw(st.lists(st.integers(0, Z - 1), min_size=proto.n_edges,
                           max_size=proto.n_edges))
    code = QcCode(proto, Z, Field(draw(st.integers(1, 4))), shifts)
    tracker = _LabelTracker(code, constraint)
    # a walk that violates at every gcd is permanent; only the others,
    # the cancelable walks, keep rows
    permanent = tracker.bad.all(axis=1)
    assert tracker.n_permanent == int(permanent.sum())
    _check_coefficients(tracker, proto.n_edges, ~permanent, with_pairs=False)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tracker_start_equals_lift_layer_values(data):
    # reset sums each functional over the tracker's own coefficient rows;
    # the lift layer reads the same numbers off prefix sums of the values.
    # They agree after reset and after moves.
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    # cells of three parallel edges give walks that m divides
    proto = _random_protograph(rng, most=draw(st.sampled_from([2, 3])))
    depth = draw(st.sampled_from([2, 4, 6]))
    Z = draw(st.integers(1, 12))
    constraint = AceConstraint(depth, dict.fromkeys(range(2, depth + 1, 2),
                                                    INF))
    table = enumerate_closed_walks(proto, depth)
    shifts = rng.integers(0, Z, proto.n_edges)
    tracker = _ShiftTracker(table, Z, constraint)
    for step in range(4):
        if step == 0:
            tracker.reset(shifts.copy())
        else:
            e, y = int(rng.integers(proto.n_edges)), int(rng.integers(Z))
            tracker.apply(e, y)
            shifts[e] = y
        d, _ = lift_shifts(table, shifts, Z)
        pairs = span_sums(table.prefix_sums(shifts), table.pair_walk,
                          table.p1, table.p2) % Z
        assert np.array_equal(tracker.cur, np.concatenate([d, pairs]))
        assert np.array_equal(tracker.total_shift, d)
    field = Field(draw(st.integers(1, 4)))
    q1 = field.q - 1
    tracker = _LabelTracker(QcCode(proto, Z, field, shifts), constraint)
    labels = rng.integers(0, q1, proto.n_edges)
    tracker.reset(labels.copy())
    has_rows = np.zeros(tracker.n, bool)
    has_rows[tracker.rows[:, 0]] = True
    want = tracker.table.prefix_sums(labels)[-1] % q1
    assert np.array_equal(tracker.cur[has_rows], want[has_rows])
    # a walk without rows keeps 0: no edge moves its sum, or it cannot
    # cancel and violates at every gcd
    assert not tracker.cur[~has_rows].any()
    assert (tracker.bad[~has_rows].all(axis=1) | (want[~has_rows] == 0)).all()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_permanent_label_walks_never_cancel_and_the_others_can(data):
    # a permanent walk stays uncanceled under random labelings; a kept
    # walk is canceled by 1 on one edge whose coefficient m does not
    # divide and 0 on every other edge.  Cells of three parallel edges
    # give walks such as (a, b, c, a, b, c), whose coefficients are all 0
    # (in about one draw in eight)
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    proto = _random_protograph(rng, most=3)
    depth = draw(st.sampled_from([4, 6]))
    Z = draw(st.integers(1, 12))
    constraint = AceConstraint(depth, dict.fromkeys(range(2, depth + 1, 2),
                                                    INF))
    field = Field(draw(st.integers(2, 4)))
    code = QcCode(proto, Z, field, rng.integers(0, Z, proto.n_edges))
    tracker = _LabelTracker(code, constraint)
    table, d = tracker.table, tracker.total_shift
    permanent = np.flatnonzero(tracker.bad.all(axis=1))
    for _ in range(8):
        labels = rng.integers(0, field.q - 1, proto.n_edges)
        assert not _canceled(table, code.with_labels(labels), permanent,
                             d).any()
    q1 = field.q - 1
    m = q1 // np.gcd(q1, Z // np.gcd(d, Z))
    coef = np.stack([table.prefix_sums(np.arange(proto.n_edges) == e)[-1]
                     for e in range(proto.n_edges)])
    for w in np.setdiff1d(np.arange(tracker.n), permanent).tolist():
        e = np.flatnonzero(coef[:, w] % m[w])[0]
        labels = (np.arange(proto.n_edges) == e).astype(np.int64)
        assert _canceled(table, code.with_labels(labels), [w], d)[0]


def _constraint(draw, depth):
    return AceConstraint(depth, {
        ll: draw(st.sampled_from([0, 1, 2, 3, 4, INF]))
        for ll in range(2, depth + 1, 2)})


def _same_run(run, oracle, *args):
    """The kept-count and the per-edge evaluating optimizer agree on the
    result, the assignment and every sweep step's total."""
    history, expected = [], []
    res = run(*args, history=history)
    ref = oracle(*args, history=expected)
    assert res.to_json_dict() == ref.to_json_dict()
    assert np.array_equal(res.assignment, ref.assignment)
    assert history == expected


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_optimizers_match_per_edge_oracle(data):
    draw = data.draw
    n_rows, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    matrix = np.array(draw(st.lists(st.integers(0, 3),
                                    min_size=n_rows * n_cols,
                                    max_size=n_rows * n_cols)))
    matrix = matrix.reshape(n_rows, n_cols)
    # every variable needs degree >= 2 to be lifted
    assume(matrix.sum(axis=1).min() >= 1 and matrix.sum(axis=0).min() >= 2)
    proto = from_base_matrix(matrix.tolist())
    # keep the walk tables small: depth 6 only on sparse matrices
    depth = draw(st.sampled_from([2, 4, 6] if matrix.sum() <= 10 else [2, 4]))
    Z = draw(st.integers(1, 12))
    cfg = OptimizerConfig(
        rng_seed=draw(st.integers(0, 2**32)),
        max_sweeps=draw(st.integers(1, 5)),
        max_restarts=draw(st.integers(1, 4)),
        edge_order_policy=draw(st.sampled_from(["fixed", "shuffled"])))
    # blocks of a few candidates split every fill and re-evaluation, as a
    # large Z does
    block = draw(st.sampled_from([nbqc.optimize._BLOCK, 7]))
    with mock.patch.object(nbqc.optimize, "_BLOCK", block):
        _same_run(assign_shifts, assign_shifts_by_edge, proto, Z,
                  _constraint(draw, depth), cfg)
        field = Field(draw(st.integers(1, 4)))
        shifts = draw(st.lists(st.integers(0, Z - 1), min_size=proto.n_edges,
                               max_size=proto.n_edges))
        code = QcCode(proto, Z, field, shifts)
        _same_run(assign_labels, assign_labels_by_edge, code,
                  _constraint(draw, depth), cfg)


def test_label_oracle_agrees_where_m_divides_every_coefficient():
    # all six problematic lifts are minimal with m = 7, but one walk,
    # (5, 6, 7, 5, 6, 7), crosses each edge once at an even position and
    # once at an odd one: no labeling moves its sum, so both optimizers
    # run one restart
    proto = from_base_matrix([[1, 1], [1, 2], [3, 0]])
    code = QcCode(proto, 8, Field(3), [2, 4, 4, 5, 4, 5, 1, 0])
    constraint = AceConstraint(6, dict.fromkeys((2, 4, 6), INF))
    table, d, order, realized = lift_walks(code, 6)
    ids = np.flatnonzero(realized & (table.length * order <= 6))
    assert len(ids) == 6 and lifts_minimal(table, code, ids, d).all()
    assert _LabelTracker(code, constraint).n_permanent == 1
    for seed in range(4):
        cfg = OptimizerConfig(rng_seed=seed, max_restarts=4)
        _same_run(assign_labels, assign_labels_by_edge, code, constraint, cfg)
        res = assign_labels(code, constraint, cfg)
        assert res.restarts_used == 1
    assert str(ConstructionFailure("label-assignment", res)) == (
        "label-assignment constraint not achieved: 1 problematic cycle is "
        "uncanceled under every labeling")
