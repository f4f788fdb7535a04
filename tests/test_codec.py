import numpy as np
import pytest

from nbqc.codec import (
    Encoder,
    QspaDecoder,
    RankDeficiencyError,
    SparseGfMatrix,
    encode,
    fwht,
    is_full_rank,
    qspa_decode,
    rank,
)
from nbqc.gf import Field

from oracles import dense_rank, map_decode


def random_sparse(rng, m, n, field, density=0.4):
    entries = []
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                entries.append((i, j, int(rng.integers(1, field.q))))
    return SparseGfMatrix.from_entries(m, n, entries, field)


def test_identity_rank(gf16):
    I = SparseGfMatrix.from_entries(5, 5, [(i, i, 1) for i in range(5)], gf16)
    assert rank(I) == 5
    assert is_full_rank(I)


def test_duplicate_entries_accumulate(gf4):
    M = SparseGfMatrix.from_entries(1, 1, [(0, 0, 3), (0, 0, 3)], gf4)
    assert M.nnz == 0


def test_rank_matches_dense_oracle_random(gf16):
    rng = np.random.default_rng(11)
    for _ in range(40):
        M = random_sparse(rng, 8, 8, gf16)
        assert rank(M) == dense_rank(M.to_dense().tolist(), gf16)


@pytest.mark.parametrize("q", [2, 4, 8, 64])
def test_rank_matches_dense_oracle_other_fields(q):
    f = Field(q.bit_length() - 1)
    rng = np.random.default_rng(q)
    for _ in range(15):
        M = random_sparse(rng, 6, 9, f)
        assert rank(M) == dense_rank(M.to_dense().tolist(), f)


def test_encoder_zero_message_gives_zero_codeword(gf4):
    H = SparseGfMatrix.from_entries(
        2, 4,
        [(0, 0, 1), (0, 1, 2), (0, 2, 1), (1, 1, 3), (1, 2, 1), (1, 3, 2)],
        gf4,
    )
    cw = encode(H, [0, 0])
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
        assert not H.mul_vec(cw).any()
        assert list(cw[enc.info_positions]) == list(msg)


def test_encoder_matches_bruteforce_codeword_set(gf4):
    H = SparseGfMatrix.from_entries(
        2, 4,
        [(0, 0, 1), (0, 1, 2), (0, 2, 1), (1, 1, 3), (1, 2, 1), (1, 3, 2)],
        gf4,
    )
    enc = Encoder(H)
    words = {tuple(enc.encode([a, b])) for a in range(4) for b in range(4)}
    brute = set()
    for w in range(4**4):
        v = [(w >> (2 * i)) & 3 for i in range(4)]
        if not H.mul_vec(v).any():
            brute.add(tuple(v))
    assert words == brute


def test_rank_deficient_encode_reports_rank(gf4):
    H = SparseGfMatrix.from_entries(
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


def _toy_H(field):
    return SparseGfMatrix.from_entries(
        2, 4,
        [(0, 0, 1), (0, 1, 2), (0, 2, 1), (1, 1, 3), (1, 2, 1), (1, 3, 2)],
        field,
    )


def test_decoder_point_mass_converges_first_iteration(gf4):
    H = _toy_H(gf4)
    cw = encode(H, [2, 3])
    priors = np.zeros((4, 4))
    priors[np.arange(4), cw] = 1.0
    res = qspa_decode(H, priors, max_iters=10)
    assert res.converged
    assert res.iterations_used == 1
    assert (res.hard_decision == cw).all()


def test_decoder_rejects_bad_priors(gf4):
    H = _toy_H(gf4)
    with pytest.raises(ValueError):
        qspa_decode(H, np.full((4, 4), 0.3), 5)
    with pytest.raises(ValueError):
        qspa_decode(H, np.full((3, 4), 0.25), 5)
    bad = np.full((4, 4), 0.25)
    bad[0] = [1.5, -0.5, 0.0, 0.0]
    with pytest.raises(ValueError):
        qspa_decode(H, bad, 5)


def test_decoder_rejects_non_finite_priors(gf4):
    H = _toy_H(gf4)
    for value in (np.nan, np.inf):
        bad = np.full((4, 4), 0.25)
        bad[1, 2] = value
        with pytest.raises(ValueError):
            qspa_decode(H, bad, 5)


def test_decoder_uniform_priors_deterministic(gf4):
    H = _toy_H(gf4)
    priors = np.full((4, 4), 0.25)
    r1 = qspa_decode(H, priors, 5)
    r2 = qspa_decode(H, priors, 5)
    assert (r1.hard_decision == r2.hard_decision).all()
    assert r1.converged == r2.converged
    assert r1.iterations_used == r2.iterations_used
    if r1.converged:
        # converged flags are trusted only alongside a zero syndrome
        assert not H.mul_vec(r1.hard_decision).any()


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
        res = qspa_decode(H, priors, 20)
        hits += res.converged and (res.hard_decision == cw).all()
    assert hits >= 55


def test_decoder_matches_map_mostly(gf4):
    # mild noise: QSPA hard decisions should track exhaustive MAP closely
    rng = np.random.default_rng(13)
    H = _toy_H(gf4)
    dense = H.to_dense()
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
            assert not H.mul_vec(res.hard_decision).any()


def test_message_normalization_contract(gf4, monkeypatch):
    # every message written during decoding sums to one
    import nbqc.codec as codec_mod

    H = _toy_H(gf4)
    decoder = QspaDecoder(H)
    seen = []
    orig = codec_mod._normalize

    def spy(msgs):
        out = orig(msgs)
        seen.append(float(np.abs(out.sum(axis=-1) - 1.0).max()))
        return out

    monkeypatch.setattr(codec_mod, "_normalize", spy)
    rng = np.random.default_rng(99)
    priors = rng.random((4, 4))
    priors /= priors.sum(axis=1, keepdims=True)
    decoder.decode(priors, 6)
    assert seen and max(seen) < 1e-9


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
    H = SparseGfMatrix.from_entries(3, 6, entries, gf4)
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
