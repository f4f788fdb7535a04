import itertools

import numpy as np
import pytest

from nbqc.gf import Field
from nbqc.lift import (
    AceConstraint,
    INF,
    QcCode,
    WalkTable,
    binary_ace_spectrum,
    lift_cycle,
    nb_ace_spectrum,
)
from nbqc.optimize import (
    OptimizerConfig,
    _LabelTracker,
    _ShiftTracker,
    assign_labels,
    assign_shifts,
    find_problematic_binary,
    spectrum_search,
)
from nbqc.protograph import enumerate_closed_walks, from_base_matrix

from oracles import ring_protograph


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
        asg = dict(enumerate(shifts))
        d = sum(
            (1 if p % 2 == 0 else -1) * asg[e]
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
    assert r1 == r2


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


def test_assign_labels_single_4cycle_matches_bruteforce(gf16, square22):
    shifts = {0: 0, 1: 0, 2: 0, 3: 0}
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
        asg = dict(enumerate(labs))
        s = sum(
            (1 if p % 2 == 0 else -1) * asg[e]
            for p, e in enumerate(rec.edge_seq)
        )
        decided = nb_ace_spectrum(code.with_labels(asg), 4).values[4] == INF
        assert decided == (s % 15 != 0)
        good += decided
        total += 1
    assert 0 < good < total


def test_assign_labels_never_touches_shifts(ensemble1_matrix, gf16):
    proto = from_base_matrix(ensemble1_matrix)
    cfg = OptimizerConfig(rng_seed=6)
    walks = enumerate_closed_walks(proto, 12)
    walks_b = [w for w in walks if w.length <= 8]
    cons_b = AceConstraint.parse("inf,inf,inf,4")
    shifts = assign_shifts(proto, 9, cons_b, cfg, walks=walks_b)
    assert shifts.success
    code = QcCode(proto, 9, gf16, shifts.assignment)
    before = binary_ace_spectrum(code, 12, walks=walks)
    labels = assign_labels(
        code, AceConstraint.parse("inf,inf,inf,inf,inf,4"), cfg, walks=walks
    )
    assert labels.success
    labeled = code.with_labels(labels.assignment)
    assert binary_ace_spectrum(labeled, 12, walks=walks) == before
    nb = nb_ace_spectrum(labeled, 12, walks=walks)
    assert nb.achieves(AceConstraint.parse("inf,inf,inf,inf,inf,4"))
    # canceled cycles only ever leave the minimum
    binary = binary_ace_spectrum(labeled, 12, walks=walks)
    assert all(nb.values[i] >= binary.values[i] for i in nb.lengths())


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
    assert res.best.binary.to_list() == [INF, INF]
    assert res.best.nb.to_list() == [INF, INF]


def test_spectrum_search_toy_dominates_baseline(gf16):
    proto = from_base_matrix([[1, 1, 1], [1, 1, 1]])
    cfg = OptimizerConfig(rng_seed=12)
    res = spectrum_search(proto, 4, gf16, cfg, max_depth=8)
    first = res.candidates[0]
    assert res.best.binary.dominates(first.binary) or res.best.binary == first.binary
    assert res.best.nb.dominates(first.nb) or res.best.nb == first.nb
    # exhaustive oracle at depth 4: some assignment avoids lifted 4-cycles,
    # so the search must have found tau_4 = inf on the binary side
    achievable_inf4 = False
    walks = enumerate_closed_walks(proto, 4)
    for shifts in itertools.product(range(4), repeat=6):
        code = QcCode(proto, 4, gf16, dict(enumerate(shifts)))
        if binary_ace_spectrum(code, 4, walks=walks).values[4] == INF:
            achievable_inf4 = True
            break
    assert achievable_inf4
    assert res.best.binary.values[4] == INF
    # every reported candidate re-verifies
    for cand in res.candidates:
        assert binary_ace_spectrum(cand.code, cand.binary.depth) == cand.binary
        assert nb_ace_spectrum(cand.code, cand.nb.depth) == cand.nb
    # pareto set contains no dominated pairs
    for a in res.candidates:
        for b in res.candidates:
            if a is b:
                continue
            assert not (
                a.binary.dominates(b.binary)
                and a.nb.dominates(b.nb)
                and not (
                    b.binary.dominates(a.binary) and b.nb.dominates(a.nb)
                )
            )


def test_spectrum_search_deterministic(gf16):
    proto = from_base_matrix([[1, 1, 1], [1, 1, 1]])
    cfg = OptimizerConfig(rng_seed=12)
    r1 = spectrum_search(proto, 4, gf16, cfg, max_depth=6)
    r2 = spectrum_search(proto, 4, gf16, cfg, max_depth=6)
    assert r1.best.binary == r2.best.binary
    assert r1.best.nb == r2.best.nb
    assert r1.best.code.to_json_dict() == r2.best.code.to_json_dict()


def test_spectrum_search_reaches_reference_pair(ensemble1_matrix, gf16):
    proto = from_base_matrix(ensemble1_matrix)
    res = spectrum_search(proto, 9, gf16, OptimizerConfig(rng_seed=2),
                          max_depth=12)
    target_b = AceConstraint.parse("inf,inf,inf,4")
    target_nb = AceConstraint.parse("inf,inf,inf,inf,inf,4")
    assert res.best.binary.achieves(target_b)
    assert res.best.nb.achieves(target_nb)


def _random_protograph(rng):
    """Small base graph, parallel edges allowed, every variable degree >= 2,
    at most 12 edges so a recount over every walk stays quick."""
    while True:
        m = rng.integers(0, 3, size=(int(rng.integers(2, 4)),
                                     int(rng.integers(2, 5))))
        if (m.sum(axis=0).min() >= 2 and m.sum(axis=1).min() >= 1
                and m.sum() <= 12):
            return from_base_matrix(m.tolist())


def _violating(lc, constraint):
    return (lc.realized and lc.lifted_len <= constraint.depth
            and lc.lifted_ace < constraint.values[lc.lifted_len])


def _check_tracker(tracker, values, recount, rng, n_values, n_steps=20):
    """total matches a from-scratch recount after reset and every apply,
    and eval_edge predicts the total each apply leaves."""
    tracker.reset(values.copy())
    assert tracker.total == recount(values)
    for _ in range(n_steps):
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


@pytest.mark.parametrize("seed", range(16))
def test_trackers_match_lift_cycle_recount(seed):
    rng = np.random.default_rng(seed)
    # the fixed graph reaches walks that cross one edge both ways around
    # a revisited node, so that edge moves only a partial-sum difference
    if seed < 12:
        proto, depth = _random_protograph(rng), 6
    else:
        proto, depth = from_base_matrix([[2, 2], [1, 1]]), 10
    Z = int(rng.integers(1, 9))
    field = Field(int(rng.integers(1, 5)))
    constraint = AceConstraint(depth, {
        ll: INF if v > 3 else int(v)
        for ll, v in zip(range(2, depth + 1, 2),
                         rng.integers(0, 5, size=depth // 2))
    })
    walks = enumerate_closed_walks(proto, depth)

    problem = find_problematic_binary(proto, Z, constraint, walks)

    def shift_count(shifts):
        code = QcCode(proto, Z, Field(1), dict(enumerate(shifts.tolist())))
        return sum(_violating(lift_cycle(rec, code), constraint)
                   for rec in problem.cycles)

    _check_tracker(_ShiftTracker(problem.table, Z, constraint),
                   rng.integers(0, Z, proto.n_edges), shift_count, rng, Z)

    shifts = dict(enumerate(rng.integers(0, Z, proto.n_edges).tolist()))
    code = QcCode(proto, Z, field, shifts)
    tracker = _LabelTracker(code, WalkTable(proto, walks), constraint)
    assert tracker.table.records == [
        rec for rec in walks if _violating(lift_cycle(rec, code), constraint)
    ]

    def label_count(labels):
        labeled = code.with_labels(dict(enumerate(labels.tolist())))
        return sum(not lift_cycle(rec, labeled).canceled
                   for rec in tracker.table.records)

    q1 = field.q - 1
    _check_tracker(tracker, rng.integers(0, q1, proto.n_edges), label_count,
                   rng, q1)
