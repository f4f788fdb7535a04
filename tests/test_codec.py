import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nbqc.codec import (
    Encoder,
    QspaDecoder,
    RankDeficiencyError,
    SparseGfMatrix,
    _leave_one_out,
    _normalize,
    _row_sums,
    fwht,
    rank,
)
from nbqc.gf import Field
from nbqc.lift import QcCode, expand
from nbqc.simulate import _frame_rng, channel_priors

from oracles import (
    DenseEncoder,
    _reference_normalize,
    dense_rank,
    map_decode,
    mul_vec,
    nnz,
    node_major_leave_one_out,
    node_major_qspa,
    stacked_fwht,
    to_dense,
)

GOLDEN = Path(__file__).parent / "golden"


def random_sparse(rng, m, n, field, density=0.4):
    entries = []
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                entries.append((i, j, int(rng.integers(1, field.q))))
    return SparseGfMatrix(m, n, entries, field)


def test_identity_rank(gf16):
    I = SparseGfMatrix(5, 5, [(i, i, 1) for i in range(5)], gf16)
    assert rank(I) == 5
    assert rank(I) == min(I.n_rows, I.n_cols)


def test_duplicate_entries_accumulate(gf4):
    M = SparseGfMatrix(1, 1, [(0, 0, 3), (0, 0, 3)], gf4)
    assert nnz(M) == 0
    # 1 ^ 2 ^ 1 = 2 in cell (1, 0); cell (0, 1) keeps its one entry
    M = SparseGfMatrix(2, 2, [(1, 0, 1), (0, 1, 3), (1, 0, 2), (1, 0, 1)],
                       gf4)
    assert (M.row.tolist(), M.col.tolist(), M.value.tolist()) == (
        [0, 1], [1, 0], [3, 2])
    assert M.row_ptr.tolist() == [0, 1, 2]


@pytest.mark.parametrize("entry", [(-1, 0, 1), (2, 0, 1), (0, -1, 1),
                                   (0, 3, 1), (0, 0, -1), (0, 0, 4)])
def test_entry_out_of_range_is_refused(gf4, entry):
    # a negative row would index the last row, and row n_rows past it
    with pytest.raises(ValueError, match="out of range"):
        SparseGfMatrix(2, 3, [(1, 1, 1), entry], gf4)


@pytest.mark.parametrize("entries", [[(0, 0)], [(0, 0, 1.0)], [[(0, 0, 1)]],
                                     [("0", 0, 1)]])
def test_entries_must_be_integer_triplets(gf4, entries):
    with pytest.raises(ValueError, match="triplets"):
        SparseGfMatrix(2, 3, entries, gf4)


def test_rank_matches_dense_oracle_random(gf16):
    rng = np.random.default_rng(11)
    for _ in range(40):
        M = random_sparse(rng, 8, 8, gf16)
        assert rank(M) == dense_rank(to_dense(M).tolist(), gf16)


@pytest.mark.parametrize("q", [2, 4, 8, 64])
def test_rank_matches_dense_oracle_other_fields(q):
    f = Field(q.bit_length() - 1)
    rng = np.random.default_rng(q)
    for _ in range(15):
        M = random_sparse(rng, 6, 9, f)
        assert rank(M) == dense_rank(to_dense(M).tolist(), f)


def test_encoder_zero_message_gives_zero_codeword(gf4):
    H = SparseGfMatrix(
        2, 4,
        [(0, 0, 1), (0, 1, 2), (0, 2, 1), (1, 1, 3), (1, 2, 1), (1, 3, 2)],
        gf4,
    )
    cw = Encoder(H).encode([0, 0])
    assert not cw.any()


def test_encoder_outputs_satisfy_syndrome(gf8):
    rng = np.random.default_rng(3)
    H = random_sparse(rng, 3, 7, gf8, density=0.5)
    while rank(H) < 3:
        H = random_sparse(rng, 3, 7, gf8, density=0.5)
    enc = Encoder(H)
    for _ in range(25):
        msg = rng.integers(0, 8, size=enc.message_length)
        cw = enc.encode(msg)
        assert not mul_vec(H, cw).any()
        assert list(cw[enc.info_positions]) == list(msg)


def test_encoder_matches_bruteforce_codeword_set(gf4):
    H = SparseGfMatrix(
        2, 4,
        [(0, 0, 1), (0, 1, 2), (0, 2, 1), (1, 1, 3), (1, 2, 1), (1, 3, 2)],
        gf4,
    )
    enc = Encoder(H)
    words = {tuple(enc.encode([a, b])) for a in range(4) for b in range(4)}
    brute = set()
    for w in range(4**4):
        v = [(w >> (2 * i)) & 3 for i in range(4)]
        if not mul_vec(H, v).any():
            brute.add(tuple(v))
    assert words == brute


def test_rank_deficient_encode_reports_rank(gf4):
    H = SparseGfMatrix(
        2, 4, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)], gf4
    )
    with pytest.raises(RankDeficiencyError) as info:
        Encoder(H)
    assert info.value.rank == 1


def test_fwht_matches_character_matrix():
    for q in (2, 4, 8, 16):
        W = np.array(
            [[(-1) ** bin(a & b).count("1") for b in range(q)] for a in range(q)],
            dtype=float,
        )
        rng = np.random.default_rng(q)
        x = rng.random((3, q))
        assert np.allclose(fwht(x), x @ W.T)
        assert np.allclose(fwht(fwht(x)) / q, x)


def test_fwht_diagonalizes_xor_convolution(gf8):
    rng = np.random.default_rng(5)
    a, b = rng.random(8), rng.random(8)
    conv = np.zeros(8)
    for x in range(8):
        for y in range(8):
            conv[x ^ y] += a[x] * b[y]
    assert np.allclose(fwht(fwht(a) * fwht(b)) / 8, conv)


@pytest.mark.parametrize("q", [2, 4, 8, 16, 256])
def test_fwht_bitwise_equals_stacked_butterflies(q):
    rng = np.random.default_rng(q)
    for shape in [(q,), (7, q), (3, 5, q)]:
        x = rng.standard_normal(shape)
        out = fwht(x)
        assert out.shape == x.shape
        assert out.tobytes() == stacked_fwht(x).tobytes()
        # a symbol-major input is read in place, never written
        sym = np.ascontiguousarray(x.T).T
        assert fwht(sym).tobytes() == out.tobytes()
        assert sym.tobytes() == x.tobytes()


@pytest.mark.parametrize("deg", range(1, 8))
def test_leave_one_out_bitwise_equals_node_major(deg):
    rng = np.random.default_rng(deg)
    stack = rng.random((deg, 11, 8))
    stack[rng.random(stack.shape) < 0.15] = 0.0  # exact zeros: no division
    head = rng.random((11, 8))
    pref, suf = np.ones_like(stack), np.ones_like(stack)
    ext = _leave_one_out(stack.copy(), pref, suf)
    # the boundary planes stay 1.0, so the buffers can be used again
    assert (pref[0] == 1.0).all() and (suf[-1] == 1.0).all()
    assert _leave_one_out(stack.copy(), pref, suf).tobytes() == ext.tobytes()
    node_major = stack.transpose(1, 0, 2)
    ref = node_major_leave_one_out(node_major)
    assert ext.transpose(1, 0, 2).tobytes() == ref.tobytes()
    ref_head = node_major_leave_one_out(node_major, head[:, None, :])
    assert (ext * head).transpose(1, 0, 2).tobytes() == ref_head.tobytes()
    # the last output times the last slot is the sequential product
    assert (ext[-1] * stack[-1]).tobytes() == node_major.prod(axis=1).tobytes()


def _assert_normalized_like_node_major(decoder, frames, monkeypatch):
    import nbqc.codec as codec_mod

    seen = []
    orig = codec_mod._normalize

    def spy(msgs):
        dead = orig(msgs)
        seen.append(msgs.copy())
        return dead

    monkeypatch.setattr(codec_mod, "_normalize", spy)
    for priors, max_iters in frames:
        seen.clear()
        ref = []
        want = node_major_qspa(decoder.H, priors, max_iters, ref)
        got = decoder.decode(priors, max_iters)
        assert got.iterations_used == want.iterations_used
        assert got.converged == want.converged
        assert got.hard_decision.tobytes() == want.hard_decision.tobytes()
        assert len(seen) == len(ref)
        # per iteration: variable-to-check messages and check-to-variable
        # messages, one row per edge in the decoder's numbering, and the
        # posterior, one row per variable in its sorted order; each goes
        # back to H's entry order (row-major) or node order before comparing
        for k, (a, b) in enumerate(zip(seen, ref)):
            order = decoder.var_order if k % 3 == 1 else decoder.edge_order
            back = np.empty_like(a)
            back[order] = a
            assert back.tobytes() == b.tobytes()


@pytest.mark.parametrize("desc", ["gf16_z9_seed1.json", "gf8_z21_seed1.json"])
def test_decoder_bitwise_equals_node_major_loop(desc, monkeypatch):
    # every normalized message and posterior, iteration by iteration
    code = QcCode.from_json_dict(json.loads((GOLDEN / desc).read_text()))
    H = expand(code)
    rate = (H.n_cols - H.n_rows) / H.n_cols
    zero = np.zeros(H.n_cols, dtype=np.int64)
    frames = [
        (channel_priors(zero, snr, rate, code.field, _frame_rng(3, snr, f)), 80)
        for snr in (0.6, 1.4, 2.0) for f in range(4)
    ]
    _assert_normalized_like_node_major(QspaDecoder(H), frames, monkeypatch)


def _toy_H(field):
    return SparseGfMatrix(
        2, 4,
        [(0, 0, 1), (0, 1, 2), (0, 2, 1), (1, 1, 3), (1, 2, 1), (1, 3, 2)],
        field,
    )


def test_decoder_point_mass_converges_first_iteration(gf4):
    H = _toy_H(gf4)
    cw = Encoder(H).encode([2, 3])
    priors = np.zeros((4, 4))
    priors[np.arange(4), cw] = 1.0
    res = QspaDecoder(H).decode(priors, max_iters=10)
    assert res.converged
    assert res.iterations_used == 1
    assert (res.hard_decision == cw).all()


def test_decoder_rejects_bad_priors(gf4):
    H = _toy_H(gf4)
    with pytest.raises(ValueError):
        QspaDecoder(H).decode(np.full((4, 4), 0.3), 5)
    with pytest.raises(ValueError):
        QspaDecoder(H).decode(np.full((3, 4), 0.25), 5)
    bad = np.full((4, 4), 0.25)
    bad[0] = [1.5, -0.5, 0.0, 0.0]
    with pytest.raises(ValueError):
        QspaDecoder(H).decode(bad, 5)


def test_decoder_rejects_non_finite_priors(gf4):
    H = _toy_H(gf4)
    for value in (np.nan, np.inf):
        bad = np.full((4, 4), 0.25)
        bad[1, 2] = value
        with pytest.raises(ValueError):
            QspaDecoder(H).decode(bad, 5)


def test_decoder_uniform_priors_deterministic(gf4):
    H = _toy_H(gf4)
    priors = np.full((4, 4), 0.25)
    r1 = QspaDecoder(H).decode(priors, 5)
    r2 = QspaDecoder(H).decode(priors, 5)
    assert (r1.hard_decision == r2.hard_decision).all()
    assert r1.converged == r2.converged
    assert r1.iterations_used == r2.iterations_used
    if r1.converged:
        # converged flags are trusted only alongside a zero syndrome
        assert not mul_vec(H, r1.hard_decision).any()


def test_decoder_copes_with_noisy_point_masses(gf4):
    rng = np.random.default_rng(7)
    H = _toy_H(gf4)
    enc = Encoder(H)
    hits = 0
    for trial in range(60):
        msg = rng.integers(0, 4, size=2)
        cw = enc.encode(msg)
        priors = np.full((4, 4), 0.03)
        priors[np.arange(4), cw] = 0.91
        priors /= priors.sum(axis=1, keepdims=True)
        res = QspaDecoder(H).decode(priors, 20)
        hits += res.converged and (res.hard_decision == cw).all()
    assert hits >= 55


def test_decoder_matches_map_mostly(gf4):
    # mild noise: QSPA hard decisions should track exhaustive MAP closely
    rng = np.random.default_rng(13)
    H = _toy_H(gf4)
    dense = to_dense(H)
    decoder = QspaDecoder(H)
    agree = 0
    trials = 200
    for _ in range(trials):
        cw = Encoder(H).encode(rng.integers(0, 4, size=2))
        logits = rng.normal(0, 1.2, size=(4, 4))
        logits[np.arange(4), cw] += 2.2
        priors = np.exp(logits)
        priors /= priors.sum(axis=1, keepdims=True)
        res = decoder.decode(priors, 40)
        best = map_decode(dense, gf4, priors)
        agree += (res.hard_decision == best).all()
    assert agree / trials >= 0.9


def test_decode_result_invariant_converged_means_zero_syndrome(gf4):
    rng = np.random.default_rng(23)
    H = _toy_H(gf4)
    decoder = QspaDecoder(H)
    for _ in range(40):
        priors = rng.random((4, 4))
        priors /= priors.sum(axis=1, keepdims=True)
        res = decoder.decode(priors, 8)
        if res.converged:
            assert not mul_vec(H, res.hard_decision).any()


def test_message_normalization_contract(gf4, monkeypatch):
    # every message written during decoding sums to one
    import nbqc.codec as codec_mod

    H = _toy_H(gf4)
    decoder = QspaDecoder(H)
    seen = []
    orig = codec_mod._normalize

    def spy(msgs):
        dead = orig(msgs)
        seen.append(float(np.abs(msgs.sum(axis=-1) - 1.0).max()))
        return dead

    monkeypatch.setattr(codec_mod, "_normalize", spy)
    rng = np.random.default_rng(99)
    priors = rng.random((4, 4))
    priors /= priors.sum(axis=1, keepdims=True)
    decoder.decode(priors, 6)
    assert seen and max(seen) < 1e-9


def _spread_rows(rng, rows, q):
    """Rows over many binades, down into the subnormals, within a few
    binades of each other inside a row so that the order of the adds
    shows, with exact zeros (+0.0, and -0.0 past the first column) among
    the values and one all-zero row."""
    scale = 2.0 ** rng.integers(-1080, 60, size=(rows, 1))
    a = rng.random((rows, q)) * 2.0 ** rng.integers(0, 6, size=(rows, q))
    a *= scale
    a[rng.random(a.shape) < 0.2] = 0.0
    neg = rng.random(a.shape) < 0.1
    neg[:, 0] = False
    a[neg] = -0.0
    a[1] = 0.0
    return a


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64, 128, 256])
def test_row_sums_bitwise_equal_numpy_sum(q):
    rng = np.random.default_rng(q)
    a = _spread_rows(rng, 400, q)
    a[2] = 0.0
    a[2, 0] = -0.0  # -0.0 plus +0.0 is +0.0 in every order
    tiny = np.finfo(np.float64).tiny
    assert ((a > 0.0) & (a < tiny)).any() and np.signbit(a[a == 0.0]).any()
    for v in (a, a.reshape(100, 4, q)):  # the (rows, lanes, q) views
        want = v.sum(axis=-1, keepdims=True)
        assert _row_sums(v).tobytes() == want.tobytes()
        if q >= 8:  # the data tells the orders apart: one by one differs
            assert (np.cumsum(v, axis=-1)[..., -1:] != want).any()
    # a row of only -0.0 is the one difference: numpy starts from +0.0
    neg = np.full((3, q), -0.0)
    assert (_row_sums(neg) == 0.0).all() and (neg.sum(axis=-1) == 0.0).all()


def test_normalize_with_dead_rows_equals_reference(gf8):
    # q = 8: the butterfly sums on both paths of _normalize
    rng = np.random.default_rng(73)
    a = np.abs(_spread_rows(rng, 4 * 300, 8))
    a[rng.integers(0, len(a), 40)] = 0.0
    zero = a.sum(axis=-1) <= 0.0
    assert zero.sum() > 1
    msgs = a.copy().reshape(-1, 4, 8)
    dead = _normalize(msgs)
    assert msgs.tobytes() == _reference_normalize(a).tobytes()
    assert list(dead) == list(np.count_nonzero(zero.reshape(-1, 4), axis=0))
    fine = np.abs(_spread_rows(rng, 4 * 300, 8))
    fine[:, 0] = 1.0
    msgs = fine.copy().reshape(-1, 4, 8)
    assert _normalize(msgs) == 0
    assert msgs.tobytes() == _reference_normalize(fine).tobytes()


def _binary_spa(H01, prior1, max_iters):
    """Independent probability-domain binary sum-product (flooding)."""
    m, n = H01.shape
    checks = [np.flatnonzero(H01[i]) for i in range(m)]
    vars_ = [np.flatnonzero(H01[:, j]) for j in range(n)]
    msg_cv = {(i, j): 0.5 for i in range(m) for j in checks[i]}
    posterior = np.zeros((n, 2))
    for it in range(1, max_iters + 1):
        msg_vc = {}
        for j in range(n):
            inc = [msg_cv[(i, j)] for i in vars_[j]]
            p1_all = prior1[j] * np.prod(inc)
            p0_all = (1 - prior1[j]) * np.prod([1 - x for x in inc])
            total = p0_all + p1_all
            posterior[j] = (p0_all / total, p1_all / total)
            for i in vars_[j]:
                others1 = prior1[j] * np.prod(
                    [msg_cv[(k, j)] for k in vars_[j] if k != i])
                others0 = (1 - prior1[j]) * np.prod(
                    [1 - msg_cv[(k, j)] for k in vars_[j] if k != i])
                msg_vc[(i, j)] = others1 / (others0 + others1)
        hard = (posterior[:, 1] > posterior[:, 0]).astype(np.int64)
        if not np.any(H01 @ hard % 2):
            return hard, posterior, True, it
        if it == max_iters:
            return hard, posterior, False, it
        for i in range(m):
            for j in checks[i]:
                deltas = [1 - 2 * msg_vc[(i, k)] for k in checks[i] if k != j]
                delta = np.prod(deltas)
                msg_cv[(i, j)] = (1 - delta) / 2
    raise AssertionError("unreachable")


def test_qspa_with_unit_labels_equals_binary_spa(gf4):
    # all labels 1 + binary-supported priors: the q-ary decoder must walk
    # in lockstep with plain binary sum-product
    rng = np.random.default_rng(37)
    entries = []
    H01 = np.array([
        [1, 1, 0, 1, 0, 0],
        [0, 1, 1, 0, 1, 0],
        [1, 0, 1, 0, 0, 1],
    ])
    for i in range(3):
        for j in range(6):
            if H01[i, j]:
                entries.append((i, j, 1))
    H = SparseGfMatrix(3, 6, entries, gf4)
    decoder = QspaDecoder(H)
    for _ in range(40):
        prior1 = rng.uniform(0.05, 0.95, size=6)
        priors = np.zeros((6, 4))
        priors[:, 0] = 1 - prior1
        priors[:, 1] = prior1
        res = decoder.decode(priors, 25)
        hard_b, post_b, conv_b, it_b = _binary_spa(H01, prior1, 25)
        assert (res.hard_decision == hard_b).all()
        assert res.converged == conv_b
        assert res.iterations_used == it_b


def _ragged_H(field):
    """5x6 matrix with an empty check (row 2) and variable degrees 1..4."""
    return SparseGfMatrix(
        5, 6,
        [(0, 0, 1), (0, 2, 2), (0, 3, 3), (0, 5, 1),
         (1, 1, 2), (1, 2, 1), (1, 3, 1),
         (3, 2, 3), (3, 3, 2), (3, 4, 1),
         (4, 1, 1), (4, 3, 3), (4, 4, 2), (4, 5, 3)],
        field,
    )


def _codewords(H):
    words = itertools.product(range(H.field.q), repeat=H.n_cols)
    return [np.array(w) for w in words if not mul_vec(H, w).any()]


def test_slot_layout_edge_cases(gf4):
    # padded slots on both sides: an empty check, a degree-1 variable and
    # variable degrees 1 to 4
    H = _ragged_H(gf4)
    decoder = QspaDecoder(H)
    assert sorted(np.diff(H.row_ptr).tolist()) == [0, 3, 3, 4, 4]
    assert sorted(np.bincount(decoder.e_var)) == [1, 2, 2, 2, 3, 4]
    codewords = _codewords(H)
    assert len(codewords) == 16
    for cw in codewords:
        priors = np.zeros((6, 4))
        priors[np.arange(6), cw] = 1.0
        res = decoder.decode(priors, 10)
        assert res.converged and res.iterations_used == 1
        assert (res.hard_decision == cw).all()
        assert decoder.syndrome_is_zero(cw)
    rng = np.random.default_rng(41)
    for _ in range(200):
        w = rng.integers(0, 4, size=6)
        assert decoder.syndrome_is_zero(w) == (not mul_vec(H, w).any())


def test_slot_layout_matches_map_mostly(gf4):
    # the 4-cycles keep QSPA off MAP on some frames: at this noise level
    # they agree on about 95 % of frames (about 90 % at the +2.2 used above)
    H = _ragged_H(gf4)
    dense = to_dense(H)
    decoder = QspaDecoder(H)
    codewords = _codewords(H)
    rng = np.random.default_rng(43)
    agree = 0
    trials = 100
    for _ in range(trials):
        cw = codewords[rng.integers(len(codewords))]
        logits = rng.normal(0, 1.2, size=(6, 4))
        logits[np.arange(6), cw] += 2.4
        priors = np.exp(logits)
        priors /= priors.sum(axis=1, keepdims=True)
        res = decoder.decode(priors, 40)
        agree += (res.hard_decision == map_decode(dense, gf4, priors)).all()
    assert agree / trials >= 0.9


def _noisy_frames(rng, n_vars, q, count, max_iters):
    frames = []
    for _ in range(count):
        priors = np.exp(rng.normal(0, 1.5, size=(n_vars, q)))
        frames.append((priors / priors.sum(axis=1, keepdims=True), max_iters))
    return frames


def test_slot_layout_bitwise_equals_node_major_loop(gf4, monkeypatch):
    frames = _noisy_frames(np.random.default_rng(53), 6, 4, 20, 15)
    _assert_normalized_like_node_major(QspaDecoder(_ragged_H(gf4)), frames,
                                       monkeypatch)


def test_slot_layout_degree_zero_variable(gf4, monkeypatch):
    # an all-zero column: the variable has no slot at all, sorts last and
    # its posterior is its prior
    H = SparseGfMatrix(
        2, 4, [(0, 0, 1), (0, 1, 2), (0, 3, 3), (1, 1, 3), (1, 3, 1)], gf4)
    decoder = QspaDecoder(H)
    assert list(np.bincount(decoder.e_var, minlength=4)) == [1, 2, 0, 2]
    assert decoder.var_order[-1] == 2
    frames = _noisy_frames(np.random.default_rng(59), 4, 4, 20, 15)
    _assert_normalized_like_node_major(decoder, frames, monkeypatch)
    for priors, max_iters in frames:
        res = decoder.decode(priors, max_iters)
        assert res.hard_decision[2] == priors[2].argmax()


def _degree_one_check_H(field):
    """4x6 matrix: check 1 holds one edge, check 3 none, and variable 2
    sits in the degree-1 check and in check 2."""
    return SparseGfMatrix(
        4, 6,
        [(0, 0, 1), (0, 1, 2), (0, 3, 3), (0, 5, 1),
         (1, 2, 3),
         (2, 1, 1), (2, 2, 2), (2, 4, 1), (2, 5, 3)],
        field,
    )


@pytest.mark.parametrize("make_H, check_degrees", [
    (_ragged_H, [0, 3, 3, 4, 4]), (_degree_one_check_H, [0, 1, 4, 4])])
def test_check_slot_edge_cases_bitwise_equal_node_major(
        make_H, check_degrees, gf4, monkeypatch):
    # an all-pad check column, a degree-1 check, and priors holding -0.0
    # (valid input), which must reach the products as +0.0
    H = make_H(gf4)
    assert sorted(np.diff(H.row_ptr).tolist()) == check_degrees
    rng = np.random.default_rng(67)
    frames = []
    for _ in range(20):
        priors = np.exp(rng.normal(0, 1.5, size=(H.n_cols, 4)))
        zero = rng.random(priors.shape) < 0.3
        zero[:, rng.integers(4)] = False  # every row keeps some mass
        priors[zero] = 0.0
        priors /= priors.sum(axis=1, keepdims=True)
        priors[zero & (rng.random(priors.shape) < 0.5)] = -0.0
        frames.append((priors, 15))
    assert any(np.signbit(p[p == 0.0]).any() for p, _ in frames)
    _assert_normalized_like_node_major(QspaDecoder(H), frames, monkeypatch)


def test_binary_ragged_bitwise_equals_node_major(gf2, gf4, monkeypatch):
    # GF(2): rows of 2 symbols, below numpy's 8-accumulator loop
    ragged = _ragged_H(gf4)
    H = SparseGfMatrix(5, 6, [(r, c, 1) for r, c in zip(
        ragged.row.tolist(), ragged.col.tolist())], gf2)
    frames = _noisy_frames(np.random.default_rng(79), 6, 2, 20, 15)
    _assert_normalized_like_node_major(QspaDecoder(H), frames, monkeypatch)


def test_gf256_bitwise_equals_node_major(gf256, monkeypatch):
    # GF(256): rows of 256 symbols, where numpy splits a row in halves
    rng = np.random.default_rng(83)
    H = random_sparse(rng, 3, 6, gf256, density=0.6)
    frames = _noisy_frames(rng, 6, 256, 15, 8)
    _assert_normalized_like_node_major(QspaDecoder(H), frames, monkeypatch)


def test_dead_row_resets_count_the_rows_reset(gf4, monkeypatch):
    # point masses on a word that is no codeword: the check messages
    # contradict the priors, so message and posterior rows sum to zero
    import nbqc.codec as codec_mod

    H = _toy_H(gf4)
    decoder = QspaDecoder(H)
    zero_rows = []
    orig = codec_mod._normalize

    def spy(msgs):
        zero_rows.append(int((msgs.sum(axis=-1) <= 0.0).sum()))
        return orig(msgs)

    monkeypatch.setattr(codec_mod, "_normalize", spy)
    word = np.array([0, 1, 0, 0])
    assert mul_vec(H, word).any()
    res = decoder.decode(np.eye(4)[word], 5)
    assert res.dead_row_resets >= 1
    assert res.dead_row_resets == sum(zero_rows)
    # a clean frame that converges resets nothing
    zero_rows.clear()
    cw = Encoder(H).encode([2, 3])
    res = decoder.decode(np.eye(4)[cw], 10)
    assert res.converged and res.dead_row_resets == 0 == sum(zero_rows)


def test_lanes_equal_serial_decodes_field_for_field(gf4):
    # one stream through four lanes mixes frames that converge at
    # different iterations, frames that run all max_iters and the point
    # mass on a non-codeword, whose lane resets rows; then a stream of
    # fewer frames than lanes on the same decoder
    H = _toy_H(gf4)
    rng = np.random.default_rng(71)
    frames = [p / p.sum(axis=1, keepdims=True)
              for p in np.exp(rng.normal(0, 1.5, size=(12, 4, 4)))]
    frames.insert(5, np.eye(4)[[0, 1, 0, 0]])
    serial = QspaDecoder(H)
    ref = [serial.decode(p, 6) for p in frames]
    assert len({r.iterations_used for r in ref if r.converged}) > 1
    assert sum(not r.converged and r.iterations_used == 6 for r in ref) > 1
    assert ref[5].dead_row_resets >= 1
    decoder = QspaDecoder(H, lanes=4)
    for first, last in ((0, len(frames)), (4, 7)):
        got = dict(decoder.stream(enumerate(frames[first:last], first), 6))
        assert sorted(got) == list(range(first, last))
        for f, res in got.items():
            want = ref[f]
            assert res.hard_decision.tobytes() == want.hard_decision.tobytes()
            assert (res.converged, res.iterations_used, res.dead_row_resets) \
                == (want.converged, want.iterations_used,
                    want.dead_row_resets)


def test_decoder_reuse_is_stateless(gf4):
    # the decoder's buffers carry nothing from one frame to the next, nor
    # from a decode that raised on bad priors
    H = _ragged_H(gf4)
    decoder = QspaDecoder(H)
    rng = np.random.default_rng(61)
    a, b = (p / p.sum(axis=1, keepdims=True)
            for p in np.exp(rng.normal(0, 1.5, size=(2, 6, 4))))

    def run(priors):
        res = decoder.decode(priors, 15)
        return res.hard_decision.tobytes(), res.converged, res.iterations_used

    first = run(a)
    assert first[1:] == (False, 15)  # every iteration runs
    assert run(b) != first
    assert run(a) == first
    with pytest.raises(ValueError):
        decoder.decode(np.full((6, 4), 0.3), 15)
    assert run(a) == first
    fresh = QspaDecoder(H).decode(a, 15)
    assert first == (fresh.hard_decision.tobytes(), fresh.converged,
                     fresh.iterations_used)


@pytest.mark.parametrize("desc", ["gf16_z9_seed1.json", "gf8_z21_seed1.json"])
def test_encoder_on_reference_codes(desc):
    code = QcCode.from_json_dict(json.loads((GOLDEN / desc).read_text()))
    H = expand(code)
    enc = Encoder(H)
    rng = np.random.default_rng(47)
    for _ in range(20):
        msg = rng.integers(0, H.field.q, size=enc.message_length)
        word = enc.encode(msg)
        assert not mul_vec(H, word).any()
        assert (word[enc.info_positions] == msg).all()


def test_encoder_rejects_bad_messages(gf4):
    enc = Encoder(_toy_H(gf4))
    for msg in ([0, -1], [4, 0], [1], [1, 2, 3]):
        with pytest.raises(ValueError):
            enc.encode(msg)


def test_encoder_rejects_non_integer_messages(gf4):
    # a float or bool message is refused by its dtype and shape, not cast
    enc = Encoder(_toy_H(gf4))
    for msg, dtype in (([1.7, 2.2], "float64"), ([True, False], "bool"),
                       (np.array([1.0, 2.0]), "float64")):
        with pytest.raises(ValueError, match=rf"{dtype} array of shape \(2,\)"):
            enc.encode(msg)
    with pytest.raises(ValueError, match=r"shape \(2, 1\)"):
        enc.encode(np.array([[1], [2]]))
    # the dtype is checked before the range
    with pytest.raises(ValueError, match="float64"):
        enc.encode([9.5, -1.0])
    for msg in ([1, 2], np.array([1, 2], dtype=np.uint8),
                np.array([1, 2], dtype=np.int16)):
        assert enc.encode(msg).tobytes() == enc.encode(
            np.array([1, 2])).tobytes()


def _assert_encoder_like_dense(H, rng, n_random):
    # codewords of the zero message, the all-(q-1) one and n_random more
    try:
        want = DenseEncoder(H)
    except RankDeficiencyError as err:
        with pytest.raises(RankDeficiencyError) as info:
            Encoder(H)
        assert str(info.value) == str(err)
        assert (info.value.rank, info.value.n_rows) == (err.rank, err.n_rows)
        return
    enc = Encoder(H)
    assert enc.info_positions == want.info_positions
    assert enc.parity_positions == want.parity_positions
    k, q = enc.message_length, H.field.q
    for msg in [np.zeros(k, dtype=np.int64), np.full(k, q - 1),
                *rng.integers(0, q, size=(n_random, k))]:
        word = enc.encode(msg)
        assert word.dtype == np.int64
        assert word.tobytes() == want.encode(msg).tobytes()


@st.composite
def _sparse_matrices(draw):
    field = Field(draw(st.integers(1, 8)))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(m, m + 10))
    cells = draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                  st.integers(1, field.q - 1)),
        max_size=3 * n))
    # a unit diagonal over a random column set keeps most draws full rank
    if draw(st.booleans()):
        cols = draw(st.permutations(range(n)))[:m]
        cells += [(i, c, 1) for i, c in enumerate(cols)]
    return SparseGfMatrix(m, n, cells, field)


@settings(max_examples=150, deadline=None)
@given(H=_sparse_matrices(), seed=st.integers(0, 2**32 - 1))
@example(H=SparseGfMatrix(
    2, 4, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)], Field(2)), seed=0)
def test_encoder_bitwise_equals_dense_encoder(H, seed):
    _assert_encoder_like_dense(H, np.random.default_rng(seed), 4)


@pytest.mark.parametrize("desc", ["gf16_z9_seed1.json", "gf8_z21_seed1.json"])
def test_encoder_on_reference_codes_equals_dense_encoder(desc):
    code = QcCode.from_json_dict(json.loads((GOLDEN / desc).read_text()))
    _assert_encoder_like_dense(expand(code), np.random.default_rng(71), 20)
