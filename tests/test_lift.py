import json
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import nbqc.lift

from nbqc.codec import rank
from nbqc.gf import Field, min_lambda
from nbqc.lift import (
    INF,
    AceSpectrum,
    CanonicalCycleMatrix,
    QcCode,
    ShiftCollisionError,
    UnsupportedStructureError,
    binary_ace_spectrum,
    expand,
    expand_binary,
    frc_canonical,
    frc_lifted,
    lift_cycle,
    lift_shifts,
    lift_walks,
    lifts_minimal,
    nb_ace_spectrum,
    realized_lifts,
    walk_table,
)
from nbqc.optimize import _edge_counts, _ShiftTracker
from nbqc.protograph import (
    Protograph,
    WalkTable,
    enumerate_closed_walks,
    from_base_matrix,
)

from oracles import (
    LiftedGraph,
    chords_of_every_walk,
    coefficient_rows,
    lift_chordless,
    lifted_cycle_matrix,
    lifted_walk_is_simple,
    nnz,
    permuted_protograph,
    picked_chords,
    ring_protograph,
    support,
    to_dense,
    traverse_lifted_cycle_set,
    walk_major_prefix_sums,
    walk_major_signed_sums,
)


def ring_code(half, Z, field, shifts_by_pos, rhos_by_pos=None, lam=None):
    proto = ring_protograph(half)
    return QcCode(proto, Z, field, shifts_by_pos, rhos_by_pos, lam)


# ---------------------------------------------------------------- spectra


def test_spectrum_parse_format_roundtrip():
    s = AceSpectrum.parse("(inf,inf,inf,4)")
    assert s.depth == 8
    assert s.format() == "(inf,inf,inf,4)"
    assert s.to_list() == [INF, INF, INF, 4]
    assert AceSpectrum.from_json_list(s.to_json_list()) == s


def test_spectrum_achieves_componentwise():
    s = AceSpectrum.parse("inf,3,2")
    assert s.achieves(AceSpectrum.parse("inf,3,2"))
    assert s.achieves(AceSpectrum.parse("inf,2"))
    assert not s.achieves(AceSpectrum.parse("inf,4,0"))
    with pytest.raises(ValueError):
        s.achieves(AceSpectrum.parse("inf,inf,inf,4"))


def test_spectrum_validation():
    with pytest.raises(ValueError):
        AceSpectrum(5)
    with pytest.raises(ValueError):
        AceSpectrum(4, {3: 1})
    with pytest.raises(ValueError):
        AceSpectrum(4, {2: -1})
    # integral floats are not integers: a descriptor never holds one
    with pytest.raises(ValueError, match="spectrum value"):
        AceSpectrum(4, {2: 1.0})
    with pytest.raises(ValueError, match="depth"):
        AceSpectrum(4.0)


# ---------------------------------------------------------------- QcCode


def test_qccode_validation(gf16, square22):
    shifts = [0] * 4
    code = QcCode(square22, 9, gf16, shifts)
    assert code.lambda_mult == 5  # (q-1)/gcd(15, 9)
    with pytest.raises(ValueError):
        QcCode(square22, 9, gf16, shifts, lambda_mult=2)
    for bad in ({e: 0 for e in range(4)}, np.zeros(4), np.zeros(4, bool),
                np.zeros((1, 4), np.int64), [0], [0] * 5):
        with pytest.raises(ValueError, match="one integer per edge"):
            QcCode(square22, 9, gf16, bad)
        with pytest.raises(ValueError, match="one integer per edge"):
            QcCode(square22, 9, gf16, shifts, bad)
    # a value out of range is named by its first edge, as checked_int does
    with pytest.raises(ValueError,
                       match=r"^shift of edge 2 -1 is not an integer in \[0, 8\]$"):
        QcCode(square22, 9, gf16, [0, 0, -1, 9])
    with pytest.raises(ValueError, match=r"^shift of edge 0 9 is not an "):
        QcCode(square22, 9, gf16, [9] * 4)
    with pytest.raises(ValueError,
                       match=r"^label exponent rho of edge 3 15 is not an "):
        QcCode(square22, 9, gf16, shifts, [0, 14, 0, 15])
    # read-only copies: the caller's arrays stay the caller's
    shifts, labels = np.array([3, 1, 4, 2]), np.array([7, 0, 14, 3], np.uint8)
    code = QcCode(square22, 9, gf16, shifts, labels)
    digest = code.digest()
    for values in (code.shifts, code.labels):
        assert values.dtype == np.int64
        with pytest.raises(ValueError):
            values[0] = 1
    shifts[0] = labels[0] = 5
    assert code.digest() == digest
    assert code.with_labels(code.labels).digest() == digest


def test_qccode_rejects_degree_one_variables(gf4):
    proto = from_base_matrix([[1, 1], [1, 0]])
    with pytest.raises(ValueError):
        QcCode(proto, 3, gf4, [0] * 3)


def test_qccode_json_roundtrip(gf16, square22):
    code = QcCode(square22, 9, gf16, [3, 1, 4, 2], [7, 0, 14, 3])
    d = code.to_json_dict()
    back = QcCode.from_json_dict(json.loads(json.dumps(d)))
    assert back.to_json_dict() == d
    assert back.digest() == code.digest()


# ---------------------------------------------------------------- lifting


def test_lift_cycle_order_and_count(gf16, square22):
    rec = enumerate_closed_walks(square22, 4)[0]
    shifts = np.zeros(4, np.int64)
    shifts[list(rec.edge_seq)] = [3, 1, 4, 2]
    code = QcCode(square22, 9, gf16, shifts)
    lc = lift_cycle(rec, code)
    assert lc.total_shift == 4
    assert lc.order == 9 and lc.count == 1
    assert lc.lifted_len == 36 and lc.realized
    assert lc.count * lc.lifted_len == code.Z * rec.length


def test_lift_cycle_zero_total_shift(gf16, square22):
    rec = enumerate_closed_walks(square22, 4)[0]
    shifts = np.zeros(4, np.int64)
    shifts[list(rec.edge_seq)] = [5, 5, 8, 8]
    code = QcCode(square22, 9, gf16, shifts)
    lc = lift_cycle(rec, code)
    assert lc.total_shift == 0
    assert lc.order == 1 and lc.count == 9
    assert lc.lifted_len == 4


def test_lift_cycle_ace_scales_with_order(gf16):
    proto = from_base_matrix([[1, 1], [1, 1], [1, 0]])
    rec = [w for w in enumerate_closed_walks(proto, 4) if w.length == 4][0]
    assert rec.ace == 1
    shifts = [0] * proto.n_edges
    shifts[rec.edge_seq[0]] = 1  # total shift 1, gcd(9,1)=1, order 9
    code = QcCode(proto, 9, gf16, shifts)
    lc = lift_cycle(rec, code)
    assert lc.order == 9 and lc.lifted_ace == 9


def test_lift_partition_matches_explicit_traversal(gf16):
    rng = np.random.default_rng(8)
    for _ in range(60):
        half = int(rng.integers(2, 5))
        Z = int(rng.integers(1, 13))
        proto = ring_protograph(half)
        shifts = [int(rng.integers(0, Z)) for _ in range(2 * half)]
        code = QcCode(proto, Z, gf16, shifts, lambda_mult=15)
        rec = [w for w in enumerate_closed_walks(proto, 2 * half)
               if w.length == 2 * half][0]
        lc = lift_cycle(rec, code)
        base_edges = list(rec.edge_seq)
        found = traverse_lifted_cycle_set(code, base_edges)
        assert len(found) == lc.count
        assert all(L == lc.lifted_len for L, _ in found)
        assert all(a == lc.lifted_ace for _, a in found)


def test_sign_convention_invariance(gf16):
    # any even rotation or reversal of the traversal flips/rotates the
    # alternating sums but never changes gcd(Z, d) or the mod test
    rng = np.random.default_rng(21)
    proto = ring_protograph(3)
    for _ in range(30):
        Z = int(rng.integers(2, 12))
        shifts = [int(rng.integers(0, Z)) for _ in range(6)]
        labels = [int(rng.integers(0, 15)) for _ in range(6)]
        code = QcCode(proto, Z, gf16, shifts, labels)
        rec = [w for w in enumerate_closed_walks(proto, 6)
               if w.length == 6][0]
        lc = lift_cycle(rec, code)
        seq = rec.edge_seq
        verdicts = set()
        gcds = set()
        for base in (seq, tuple(reversed(seq))):
            for i in range(0, 6, 2):
                rot = base[i:] + base[:i]
                d = sum((1 if p % 2 == 0 else -1) * shifts[e]
                        for p, e in enumerate(rot))
                s = sum((1 if p % 2 == 0 else -1) * labels[e]
                        for p, e in enumerate(rot))
                gcds.add(math.gcd(Z, d % Z))
                verdicts.add((lc.order * s) % 15 != 0)
        assert gcds == {math.gcd(Z, lc.total_shift)}
        assert verdicts == {lc.canceled}


# ---------------------------------------------------------------- FRC


def test_frc_canonical_examples(gf16):
    a = gf16.pow_alpha(1)
    assert not frc_canonical([1, 1, 1, 1], gf16)
    assert frc_canonical([1, a, a, gf16.mul(a, a)], gf16)


def test_frc_canonical_perturbation_flips_equality(gf16):
    rng = np.random.default_rng(4)
    a = gf16.pow_alpha(1)
    for _ in range(50):
        betas = [int(rng.integers(1, 16)) for _ in range(6)]
        before = frc_canonical(betas, gf16)
        perturbed = list(betas)
        perturbed[1] = gf16.mul(perturbed[1], a)
        after = frc_canonical(perturbed, gf16)
        if not before:
            assert after


def test_frc_canonical_rejects_zero_and_odd(gf16):
    with pytest.raises(ValueError):
        frc_canonical([1, 0, 1, 1], gf16)
    with pytest.raises(ValueError):
        frc_canonical([1, 1, 1], gf16)
    with pytest.raises(ValueError):
        frc_canonical([1, 1], gf16)


@pytest.mark.parametrize("q", [4, 8, 16])
@pytest.mark.parametrize("half", [2, 3, 4, 5])
def test_frc_canonical_equals_rank_condition(q, half):
    f = Field(q.bit_length() - 1)
    rng = np.random.default_rng(q * half)
    for _ in range(30):
        betas = tuple(int(rng.integers(1, q)) for _ in range(2 * half))
        cm = CanonicalCycleMatrix(betas)
        full = rank(cm.to_sparse(f)) == half
        assert frc_canonical(betas, f) == full


def test_frc_lifted_examples(gf16):
    # order 3 with Z=3 needs lambda=5; alternating sum 1-2+3-4 = -2
    code = ring_code(2, 3, gf16, [1, 0, 0, 0], [1, 2, 3, 4], lam=5)
    rec = [w for w in enumerate_closed_walks(code.proto, 4)][0]
    lc = lift_cycle(rec, code)
    assert lc.order == 3
    assert frc_lifted(rec, code)  # 3 * (-2) = -6 != 0 mod 15

    code2 = ring_code(2, 5, gf16, [1, 0, 0, 0], [0, 3, 0, 0], lam=3)
    rec2 = [w for w in enumerate_closed_walks(code2.proto, 4)][0]
    lc2 = lift_cycle(rec2, code2)
    assert lc2.order == 5
    assert not frc_lifted(rec2, code2)  # 5 * (-3) = -15 = 0 mod 15


def test_frc_lifted_equal_labels_never_cancels(gf16):
    for Z in (2, 3, 6):
        code = ring_code(3, Z, gf16, [s % Z for s in (1, 2, 0, 1, 2, 0)],
                         [7, 7, 7, 7, 7, 7])
        rec = [w for w in enumerate_closed_walks(code.proto, 6)
               if w.length == 6][0]
        assert not frc_lifted(rec, code)


def test_frc_lifted_rejects_non_simple_minimal(gf4):
    proto = from_base_matrix([[2]])
    rec = enumerate_closed_walks(proto, 2)[0]
    code = QcCode(proto, 3, gf4, [0, 1], [0, 1])
    with pytest.raises(UnsupportedStructureError):
        frc_lifted(rec, code)


def test_frc_lifted_agrees_with_expanded_rank(gf16):
    rng = np.random.default_rng(1234)
    for _ in range(60):
        half = int(rng.integers(2, 5))
        Z = int(rng.integers(1, 9))
        lam_min = min_lambda(16, Z)
        lam = lam_min * int(rng.integers(1, 3))
        if (lam * Z) % 15 != 0:
            continue
        shifts = [int(rng.integers(0, Z)) for _ in range(2 * half)]
        rhos = [int(rng.integers(0, 15)) for _ in range(2 * half)]
        code = ring_code(half, Z, gf16, shifts, rhos, lam=lam)
        rec = [w for w in enumerate_closed_walks(code.proto, 2 * half)
               if w.length == 2 * half][0]
        # map per-position parameters through the record's edge ids
        btilde = lifted_cycle_matrix(half, Z, gf16, lam, shifts, rhos)
        assert frc_lifted(rec, code) == (rank(btilde) == half * Z)


# ---------------------------------------------------------------- spectra of lifts


def test_binary_spectrum_zero_shift(gf16, square22):
    code = QcCode(square22, 3, gf16, [0] * 4)
    spec = binary_ace_spectrum(code, 4)
    assert spec.values[4] == 0


def test_binary_spectrum_shifted(gf16, square22):
    shifts = [0] * 4
    shifts[0] = 1
    code = QcCode(square22, 3, gf16, shifts)
    spec = binary_ace_spectrum(code, 12)
    assert spec.values[4] == INF
    assert spec.values[12] == 0


def test_nb_spectrum_trivial_labels_equals_binary(gf16, theta23):
    rng = np.random.default_rng(6)
    shifts = [int(rng.integers(0, 5)) for _ in range(6)]
    code = QcCode(theta23, 5, gf16, shifts, [0] * 6)
    assert nb_ace_spectrum(code, 8) == binary_ace_spectrum(code, 8)


def test_nb_spectrum_all_canceled_is_inf(gf16, square22):
    # single 4-cycle lift; pick labels violating the equal-products case
    shifts = [0, 0, 0, 0]
    code = QcCode(square22, 3, gf16, shifts, [1, 0, 0, 0])
    spec = nb_ace_spectrum(code, 4)
    assert spec.values[4] == INF
    assert binary_ace_spectrum(code, 4).values[4] == 0


def test_nb_spectrum_requires_labels(gf16, square22):
    code = QcCode(square22, 3, gf16, [0] * 4)
    with pytest.raises(ValueError):
        nb_ace_spectrum(code, 4)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_spectra_match_lifted_graph_oracle(seed, gf8):
    rng = np.random.default_rng(seed)
    base = [[1, 1, 1, 0], [1, 1, 0, 1], [0, 1, 1, 1]]
    proto = from_base_matrix(base)
    Z = int(rng.integers(2, 6))
    shifts = [int(rng.integers(0, Z)) for _ in range(proto.n_edges)]
    labels = [int(rng.integers(0, 7)) for _ in range(proto.n_edges)]
    code = QcCode(proto, Z, gf8, shifts, labels)
    g = LiftedGraph(code)
    depth = 8
    assert binary_ace_spectrum(code, depth).values == g.spectrum(depth, False)
    assert nb_ace_spectrum(code, depth).values == g.spectrum(depth, True)


def test_walk_lift_realizability_matches_oracle(gf4):
    # parallel edges make non-simple walks whose lifts sometimes collide
    proto = from_base_matrix([[2, 1], [1, 1]])
    rng = np.random.default_rng(17)
    for _ in range(12):
        Z = int(rng.integers(2, 5))
        while True:
            shifts = [int(rng.integers(0, Z)) for _ in range(proto.n_edges)]
            if shifts[0] != shifts[1]:
                break
        labels = [int(rng.integers(0, 3)) for _ in range(proto.n_edges)]
        code = QcCode(proto, Z, gf4, shifts, labels)
        g = LiftedGraph(code)
        depth = 8
        assert binary_ace_spectrum(code, depth).values == g.spectrum(depth, False)
        assert nb_ace_spectrum(code, depth).values == g.spectrum(depth, True)


@pytest.mark.parametrize("base, depth", [
    ([[2, 2], [1, 1]], 10),
    ([[2, 1], [1, 1]], 8),
    ([[1, 1, 1], [1, 1, 1]], 8),
])
def test_walk_realized_flags_match_lifted_copy_oracle(base, depth, gf2):
    # per walk, not through spectrum minima: a wrong flag on a walk whose
    # lift is never the shortest would not show in any spectrum.
    # lift_shifts tests every walk; lift_walks tests the walks whose lift
    # fits the depth and reads False for the rest
    proto = from_base_matrix(base)
    table = walk_table(proto, depth).upto(depth)
    rng = np.random.default_rng(depth * 10 + len(base[0]))
    flags = set()
    for _ in range(12):
        Z = int(rng.integers(1, 13))
        code = QcCode(proto, Z, gf2,
                      [int(rng.integers(0, Z)) for _ in range(proto.n_edges)])
        want = [lifted_walk_is_simple(code, rec.edge_seq) for rec in table]
        assert lift_shifts(table, code.shifts, Z)[1].tolist() == want
        _, _, order, within = lift_walks(code, depth)
        fits = table.length * order <= depth
        assert within.tolist() == (fits & want).tolist()
        flags.update(want[i] for i in np.flatnonzero(fits).tolist())
    assert flags == {False, True}


@pytest.mark.parametrize("block", [nbqc.lift._BLOCK, 7])
def test_lift_shifts_blocks_match_whole_table_prefix_sums(ensemble2_matrix,
                                                          block):
    # lift_shifts reads prefix sums a block of walks at a time; 7-walk
    # blocks split the pairs of many walks across block boundaries
    proto = from_base_matrix(ensemble2_matrix)
    table = walk_table(proto, 10)
    shifts = np.random.default_rng(block).integers(0, 21, proto.n_edges)
    sums = table.prefix_sums(shifts)
    pairs = (sums[table.p2, table.pair_walk] - sums[table.p1, table.pair_walk]) % 21
    with mock.patch.object(nbqc.lift, "_BLOCK", block):
        d, realized = lift_shifts(table, shifts, 21)
        # a lift from walk ``start`` on is the tail of the whole lift
        for start in (1, 10, len(table) - 3, len(table)):
            tail = lift_shifts(table, shifts, 21, start)
            for part, whole in zip(tail, (d[start:], realized[start:])):
                assert np.array_equal(part, whole)
    assert len(table) > nbqc.lift._BLOCK
    assert np.array_equal(d, sums[-1] % 21)
    assert np.array_equal(realized, realized_lifts(np.gcd(d, 21), table.pair_walk,
                                                   pairs))


def test_prefix_sum_offsets_past_int16_match_walk_major_sums(ensemble2_matrix):
    # position-major prefix sums are read at flat offsets position x walks
    # + walk, and positions are int16: each read below passes 32 767,
    # where an offset formed in int16 would wrap
    proto = from_base_matrix(ensemble2_matrix)
    table = walk_table(proto, 12)
    width = table.rows.shape[1] + 1
    shifts = np.random.default_rng(12).integers(0, 21, proto.n_edges)
    sums = walk_major_prefix_sums(table, shifts)
    pairs = (sums[table.pair_walk, table.p2] - sums[table.pair_walk, table.p1])
    # lift_shifts, a block of 4096 walks at a time
    assert width * 4096 > 32767
    with mock.patch.object(nbqc.lift, "_BLOCK", 4096):
        d, realized = lift_shifts(table, shifts, 21)
    assert np.array_equal(d, sums[:, -1] % 21)
    assert np.array_equal(realized, realized_lifts(
        np.gcd(d, 21), table.pair_walk, pairs % 21))
    # lifts_minimal on every realized walk
    code = QcCode(proto, 21, Field(3), shifts)
    ids = np.flatnonzero(realized)
    assert len(ids) > 2600 and width * len(ids) > 32767
    k, a, b, edge = table.chords(proto, ids)
    at = walk_major_prefix_sums(table, shifts, ids)
    assert np.array_equal(lifts_minimal(table, code, ids, d), realized_lifts(
        np.gcd(d[ids], 21), k, at[k, b] - at[k, a] - shifts[edge]))
    # the shift tracker's coefficients, read at (walk, edge) rows x width
    # past 32 767 but with fewer rows than that, so int16 would wrap
    # silently rather than refuse the row count
    head = table.upto(10)
    walk, edge, _ = _edge_counts(head)
    assert width * len(walk) > 32767 > len(walk)
    tracker = _ShiftTracker(head, 21, AceSpectrum.all_zero(10))
    walk, edge, factor, _, per, _ = tracker.rows.T
    counted = walk_major_signed_sums(head.rows[walk] == edge[:, None],
                                     np.int64)
    assert np.array_equal(factor, counted[:, -1])
    owner = np.repeat(np.arange(len(walk)), per)
    pair = tracker.terms[:, 0] - tracker.n
    assert len(pair) and np.array_equal(
        tracker.terms[:, 1],
        counted[owner, head.p2[pair]] - counted[owner, head.p1[pair]])


def _assert_minimality_matches_oracle(table: WalkTable, code: QcCode):
    d, realized = lift_shifts(table, code.shifts, code.Z)
    ids = np.flatnonzero(realized)
    assert lifts_minimal(table, code, ids, d).tolist() == [
        lift_chordless(table[i], code, int(d[i])) for i in ids]


def _chord_protograph(draw, least_column: int) -> Protograph:
    """A base graph for the chord tests, of one of three kinds: a small
    base matrix with cells up to 3 (no column summing below
    ``least_column``); the same with cells of 2 or 3 edges under permuted
    edge ids, so a cell's edge ids are neither consecutive nor in cell
    order; or a wide diagonal of 2-edge cells (no variable of degree 1)
    with one thick cell, so most cells are empty and one is long."""
    kind = draw(st.sampled_from(["matrix", "permuted", "thick"]))
    if kind == "thick":
        n = draw(st.integers(3, 12))
        matrix = 2 * np.eye(n, dtype=int)
        matrix[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = \
            draw(st.integers(4, 8))
        return from_base_matrix(matrix.tolist())
    n_rows, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cell = st.integers(0, 3) if kind == "matrix" else st.sampled_from([0, 2, 3])
    matrix = np.array(draw(st.lists(cell, min_size=n_rows * n_cols,
                                    max_size=n_rows * n_cols)))
    matrix = matrix.reshape(n_rows, n_cols)
    assume(matrix.sum(axis=1).min() >= 1
           and matrix.sum(axis=0).min() >= least_column)
    proto = from_base_matrix(matrix.tolist())
    if kind == "permuted":
        ids = draw(st.permutations(range(proto.n_edges)))
        proto = Protograph(n_rows, n_cols, [
            (c, v, ids[e]) for e, (c, v) in enumerate(zip(proto.edge_check,
                                                          proto.edge_var))])
    return proto


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compiled_minimality_matches_chordless_oracle(data):
    # cells up to 3 (or one thick cell): a parallel twin of a walk edge is
    # a chord of the lift when its shift agrees with the walk's copy offset
    # mod gcd(Z, d)
    draw = data.draw
    proto = _chord_protograph(draw, 2)
    depth = draw(st.sampled_from([4, 6, 8] if proto.n_edges <= 8 else [4]))
    Z = draw(st.integers(1, 12))
    shifts = draw(st.lists(st.integers(0, Z - 1), min_size=proto.n_edges,
                           max_size=proto.n_edges))
    code = QcCode(proto, Z, Field(1), shifts)
    table = enumerate_closed_walks(proto, depth)
    _assert_minimality_matches_oracle(table, code)
    # a subset table compiles the chords its own walks ask for, under the
    # new walk ids, as the whole-table compile of the subset's rows does
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    keep = rng.random(len(table)) < 0.5
    for sub in (table.upto(depth - 2), table.subset(keep)):
        _assert_minimality_matches_oracle(sub, code)
        ids = rng.permutation(len(sub))[:rng.integers(0, len(sub) + 1)]
        _assert_chords_match_oracle(sub, proto, ids)


def _assert_chords_match_oracle(table: WalkTable, proto, ids):
    want = picked_chords(chords_of_every_walk(table, proto), ids)
    got = table.chords(proto, ids)
    assert len(got) == len(want) == 4
    for column, oracle in zip(got, want):
        assert np.array_equal(column, oracle)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_chords_of_asked_walks_match_whole_table_compile(data):
    # every kind of ids: empty, unsorted with repeats, only simple-minimal
    # walks (which have no chords), and every walk
    draw = data.draw
    proto = _chord_protograph(draw, 1)
    depth = draw(st.sampled_from([2, 4, 6, 8] if proto.n_edges <= 8 else [2, 4]))
    table = enumerate_closed_walks(proto, depth)
    n = len(table)
    ids = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=3 * n)
               if n else st.just([]))
    for asked in ([], ids, np.flatnonzero(table.simple_minimal),
                  np.arange(n)[::-1], np.arange(n)):
        _assert_chords_match_oracle(table, proto, asked)


# ---------------------------------------------------------------- expansion


def test_expand_degenerate_unit_lift(gf16, square22):
    code = QcCode(square22, 1, gf16, [0] * 4, [3, 0, 1, 0], lambda_mult=15)
    dense = to_dense(expand(code))
    assert dense.shape == (2, 2)
    assert dense[0, 0] == gf16.pow_alpha(3)
    assert dense[1, 1] == 1


def test_expand_row_rule(gf8):
    # each MCPM row is the alpha^lambda multiple of the row above, shifted
    proto = from_base_matrix([[1, 1], [1, 1]])
    code = QcCode(proto, 7, gf8, [2] * 4, [3, 0, 0, 0], lambda_mult=3)
    dense = to_dense(expand(code))
    block = dense[:7, :7]
    for i in range(7):
        prev = block[(i - 1) % 7]
        shifted = np.roll(prev, 1)
        expected = np.array(
            [gf8.mul(int(x), gf8.pow_alpha(3)) for x in shifted]
        )
        assert (block[i] == expected).all()


def test_expand_matches_per_entry_rule(gf8):
    # every entry of every edge's block, written out one at a time, on a
    # code with parallel edges; a lambda past int64 expands as its residue
    proto = from_base_matrix([[2, 1, 0], [1, 1, 3]])
    shifts, labels = [0, 4, 1, 2, 5, 0, 3, 6], [3, 0, 6, 1, 2, 5, 4, 0]
    for lam in (1, 3, 7 * 10**30 + 3):
        code = QcCode(proto, 7, gf8, shifts, labels, lambda_mult=lam)
        want = np.zeros((2 * 7, 3 * 7), np.int64)
        for e in range(proto.n_edges):
            c, v = int(proto.edge_check[e]), int(proto.edge_var[e])
            for i in range(7):
                want[c * 7 + i, v * 7 + (i + shifts[e]) % 7] = gf8.pow_alpha(
                    labels[e] + i * lam)
        H = expand(code)
        assert np.array_equal(to_dense(H), want)
        assert (H.row.tolist(), H.col.tolist()) == tuple(
            a.tolist() for a in np.nonzero(want))


def test_expand_requires_labels(gf16, square22):
    code = QcCode(square22, 3, gf16, [0] * 4)
    with pytest.raises(ValueError):
        expand(code)
    assert nnz(expand_binary(code)) == 12


def test_expand_collision_error(gf4):
    # the permuted 3 x 3 code's cells: (0, 0) holds edges 0, 6, 8, (1, 1)
    # 1, 10, (1, 2) 3, 12 and (2, 2) 5, 9, 11
    permuted = permuted_protograph([[3, 1, 0], [1, 2, 2], [0, 1, 3]], 7)
    for proto, shifts, message in [
        (from_base_matrix([[2]]), [2, 2],
         "edges 0 and 1 share cell (0, 0) with equal shift 2"),
        # collisions in (0, 0), (1, 1), (1, 2) and (2, 2): the first repeat
        # in edge-id order is named, beside the first edge of its cell and
        # shift
        (permuted, [1, 4, 0, 3, 0, 2, 0, 0, 0, 2, 4, 3, 3],
         "edges 6 and 8 share cell (0, 0) with equal shift 0"),
        (permuted, [4, 0, 0, 1, 0, 3, 2, 0, 4, 3, 1, 1, 1],
         "edges 0 and 8 share cell (0, 0) with equal shift 4"),
        # the higher cell is named when its repeat has the lower id
        (permuted, [0, 2, 0, 0, 0, 1, 3, 0, 4, 1, 2, 0, 2],
         "edges 5 and 9 share cell (2, 2) with equal shift 1"),
    ]:
        labels = [e % 3 for e in range(proto.n_edges)]
        code = QcCode(proto, 5, gf4, shifts, labels)
        for build in (expand, expand_binary):
            with pytest.raises(ShiftCollisionError) as info:
                build(code)
            assert str(info.value) == message


def test_expand_binary_support_matches_expand(gf16, theta23):
    rng = np.random.default_rng(31)
    shifts = [int(rng.integers(0, 6)) for _ in range(6)]
    labels = [int(rng.integers(0, 15)) for _ in range(6)]
    code = QcCode(theta23, 6, gf16, shifts, labels)
    assert support(expand(code)) == support(expand_binary(code))


def test_mcpm_lambda_multiple_of_group_order_collapses_rows(gf8):
    # (Z=3, lambda=7, rho=0, d=1) over GF(8): every exponent is 0 mod 7
    proto = from_base_matrix([[1, 1], [1, 1]])
    code = QcCode(proto, 3, gf8, [1, 0, 0, 0], [0] * 4)
    assert code.lambda_mult == 7
    block = to_dense(expand(code))[:3, :3]
    assert sorted(v for v in block.flatten() if v) == [1, 1, 1]
    for i in range(3):
        assert block[i, (i + 1) % 3] == 1


def test_triple_parallel_cell_spectra_match_oracle(gf4):
    # a multiplicity-3 cell produces odd-period walk words, e.g. three
    # parallel edges traversed cyclically; the lifted spectra must still
    # match the expanded-graph ground truth
    proto = from_base_matrix([[3, 1], [0, 1]])
    rng = np.random.default_rng(3)
    for _ in range(8):
        Z = int(rng.integers(3, 6))
        while True:
            shifts = [int(rng.integers(0, Z)) for _ in range(proto.n_edges)]
            if len({shifts[0], shifts[1], shifts[2]}) == 3:
                break
        labels = [int(rng.integers(0, 3)) for _ in range(proto.n_edges)]
        code = QcCode(proto, Z, gf4, shifts, labels)
        g = LiftedGraph(code)
        assert binary_ace_spectrum(code, 8).values == g.spectrum(8, False)
        assert nb_ace_spectrum(code, 8).values == g.spectrum(8, True)


def _base_matrices():
    """Small base matrices, parallel edges allowed, no empty row or column."""
    shape = st.tuples(st.integers(1, 3), st.integers(2, 3))
    return shape.flatmap(lambda mn: st.lists(
        st.lists(st.integers(0, 2), min_size=mn[1], max_size=mn[1]),
        min_size=mn[0], max_size=mn[0],
    )).filter(lambda m: all(any(r) for r in m)
              and all(any(c) for c in zip(*m)) and sum(map(sum, m)) <= 8)


def _assert_same_walks(got: WalkTable, want: WalkTable, proto):
    """Equal records, rows and pairs; ``got`` may pad wider with the edge
    count of ``proto``.  Totals and pair values read from prefix sums of
    random values equal the position-by-position coefficient rows."""
    width = want.rows.shape[1]
    assert got == want
    assert np.array_equal(got.rows[:, :width], want.rows)
    assert (got.rows[:, width:] == proto.n_edges).all()
    for name in ("pair_walk", "p1", "p2"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    values = np.random.default_rng(len(got)).integers(-9, 10, proto.n_edges)
    on_rows = np.append(values, 0)[got.rows]
    coef, pair_coef = coefficient_rows(got)
    sums = got.prefix_sums(values)
    assert np.array_equal(sums[-1], (coef * on_rows).sum(axis=1))
    assert np.array_equal(
        sums[got.p2, got.pair_walk] - sums[got.p1, got.pair_walk],
        (pair_coef * on_rows[got.pair_walk]).sum(axis=1))


@settings(max_examples=60, deadline=None)
@given(rows=_base_matrices(), depth=st.sampled_from([2, 4, 6, 8]))
def test_upto_is_the_leading_slice_of_the_length_subset(rows, depth):
    # walks are ordered by length and pairs by walk, so each depth's table
    # is a view of the leading walks, equal to the masked copy
    table = enumerate_closed_walks(from_base_matrix(rows), depth)
    for d in range(0, depth + 3):
        got, want = table.upto(d), table.subset(table.length <= d)
        for name in ("rows", "length", "ace", "simple_minimal", "pair_walk",
                     "p1", "p2"):
            view, copy = getattr(got, name), getattr(want, name)
            assert view.dtype == copy.dtype and np.array_equal(view, copy)
        # pairs and flags are gathered from the root's memo on each table
        for name in ("rows", "length", "ace"):
            view = getattr(got, name)
            assert np.shares_memory(view, getattr(table, name)) or not len(view)
        assert got == want


@settings(max_examples=40, deadline=None)
@given(rows=_base_matrices(), shallow=st.sampled_from([2, 4, 6]),
       extra=st.sampled_from([2, 4]))
def test_walk_table_memo_matches_fresh_enumeration(rows, shallow, extra):
    deep = shallow + extra
    fresh = from_base_matrix(rows)
    with mock.patch.object(nbqc.lift, "enumerate_closed_walks",
                           wraps=enumerate_closed_walks) as counted:
        table = walk_table(fresh, deep)
        # a shallower request is answered from the deeper table
        assert walk_table(fresh, shallow) is table
        assert counted.call_count == 1
        # derived data stays out of pickles sent to simulation workers
        assert "edge_runs" in vars(fresh)
        shipped = pickle.loads(pickle.dumps(fresh))
        assert shipped._walks == (0, None)
        assert "edge_runs" not in vars(shipped)
        _assert_same_walks(table.upto(shallow),
                           enumerate_closed_walks(fresh, shallow), fresh)
        # a deeper request after a shallower one enumerates again
        grown = from_base_matrix(rows)
        first = walk_table(grown, shallow)
        assert walk_table(grown, deep) is not first
        assert counted.call_count == 3
        _assert_same_walks(walk_table(grown, deep),
                           enumerate_closed_walks(grown, deep), grown)


@settings(max_examples=40, deadline=None)
@given(rows=_base_matrices().filter(
           lambda m: all(sum(c) >= 2 for c in zip(*m))),
       Z=st.integers(1, 6), data=st.data())
def test_lift_and_spectrum_memos_match_fresh_protographs(rows, Z, data, gf4):
    # codes with other shifts, or only other labels, take turns on one
    # protograph, and depths rise past its table, which enumerates again;
    # every answer equals the one a fresh protograph gives
    proto = from_base_matrix(rows)
    values = st.lists(st.integers(0, Z - 1), min_size=proto.n_edges,
                      max_size=proto.n_edges)
    labels = st.lists(st.integers(0, 2), min_size=proto.n_edges,
                      max_size=proto.n_edges)
    first = QcCode(proto, Z, gf4, data.draw(values), data.draw(labels))
    codes = [first, first.with_labels(data.draw(labels)),
             QcCode(proto, Z, gf4, data.draw(values), data.draw(labels))]
    steps = data.draw(st.lists(st.tuples(
        st.sampled_from(codes), st.sampled_from([2, 4, 6, 8]),
        st.sampled_from(["walks", "binary", "nb"])), min_size=1, max_size=8))
    for code, depth, kind in [(first, 2, "walks")] + steps:
        fresh = QcCode(from_base_matrix(rows), Z, gf4, code.shifts, code.labels)
        if kind == "walks":
            got, want = (lift_walks(c, depth)[1:] for c in (code, fresh))
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        else:
            spectrum = {"binary": binary_ace_spectrum, "nb": nb_ace_spectrum}[kind]
            assert spectrum(code, depth) == spectrum(fresh, depth)
        # the kept totals and realizability flags (the minimality memo
        # beside them fills as walks are asked for)
        assert not any(a.flags.writeable for a in proto._lifted[3:5])
