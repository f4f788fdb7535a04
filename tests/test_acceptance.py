"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Criterion 6 carries the `slow` marker (a Monte-Carlo
batch); deselect with `-m "not slow"` for a quick pass.
"""

import itertools
import math
import time

import numpy as np
import pytest

from nbqc.cli import EXIT_OK, main
from nbqc.codec import QspaDecoder, SparseGfMatrix, rank
from nbqc.gf import Field, min_lambda
from nbqc.io_formats import load_descriptor, read_base_matrix
from nbqc.lift import (
    AceConstraint,
    QcCode,
    binary_ace_spectrum,
    frc_lifted,
    lift_cycle,
    nb_ace_spectrum,
)
from nbqc.optimize import OptimizerConfig, assign_labels, assign_shifts
from nbqc.protograph import enumerate_closed_walks, from_base_matrix
from nbqc.simulate import SimConfig, channel_priors, run_campaign

from conftest import FIXTURES
from oracles import (
    LiftedGraph,
    decorated_ring,
    lifted_cycle_matrix,
    ring_protograph,
    to_dense,
    traverse_lifted_cycle_set,
)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {verdict} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_cancellation_equivalence_vs_rank():
    """frc_lifted agrees with elimination on the expanded cycle matrix."""
    t0 = time.time()
    rng = np.random.default_rng(20240101)
    fields = {q: Field(q.bit_length() - 1) for q in (4, 8, 16, 64)}
    protos = {h: ring_protograph(h) for h in (2, 3, 4)}
    records = {
        h: [w for w in enumerate_closed_walks(p, 2 * h) if w.length == 2 * h][0]
        for h, p in protos.items()
    }
    n = 0
    mismatches = 0
    while n < 1000:
        q = int(rng.choice([4, 8, 16, 64]))
        field = fields[q]
        half = int(rng.integers(2, 5))
        Z = int(rng.integers(1, 17))
        lam = min_lambda(q, Z) * int(rng.integers(1, 4))
        shifts = [int(rng.integers(0, Z)) for _ in range(2 * half)]
        rhos = [int(rng.integers(0, q - 1)) for _ in range(2 * half)]
        code = QcCode(protos[half], Z, field, shifts, rhos, lam)
        btilde = lifted_cycle_matrix(half, Z, field, lam, shifts, rhos)
        fast = frc_lifted(records[half], code)
        ground = rank(btilde) == half * Z
        mismatches += fast != ground
        n += 1
    elapsed = time.time() - t0
    _report(
        1, "cancellation-vs-elimination equivalence",
        mismatches == 0 and elapsed < 60.0,
        f"{n} instances, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_lift_structure_law():
    """Explicit traversal finds gcd(Z,d) cycles of length l*O and ACE tau*O."""
    t0 = time.time()
    rng = np.random.default_rng(20240202)
    fields = [Field(2), Field(3), Field(4)]
    n = 0
    bad = 0
    while n < 500:
        half = int(rng.integers(2, 6))
        extra = rng.integers(0, 3, size=half)
        proto = decorated_ring(half, extra, rng)
        Z = int(rng.integers(1, 13))
        field = fields[int(rng.integers(0, 3))]
        shifts = [int(rng.integers(0, Z)) for _ in range(proto.n_edges)]
        code = QcCode(proto, Z, field, shifts, lambda_mult=field.q - 1)
        rec = [w for w in enumerate_closed_walks(proto, 2 * half)
               if w.length == 2 * half][0]
        lc = lift_cycle(rec, code)
        found = traverse_lifted_cycle_set(code, list(rec.edge_seq))
        ok = (
            len(found) == lc.count
            and all(length == lc.lifted_len for length, _ in found)
            and all(ace == lc.lifted_ace for _, ace in found)
            and lc.count * lc.lifted_len == Z * rec.length
            and lc.realized
        )
        bad += not ok
        n += 1
    elapsed = time.time() - t0
    _report(
        2, "lift-structure law",
        bad == 0 and elapsed < 60.0,
        f"{n} instances, {bad} mismatches, {elapsed:.1f}s",
    )


def _random_small_code(rng):
    qs = [2, 4, 8, 16]
    while True:
        m = int(rng.integers(2, 5))
        nv = int(rng.integers(3, 7))
        mat = np.zeros((m, nv), dtype=int)
        for j in range(nv):
            deg = int(rng.integers(2, min(m, 3) + 1))
            rows = rng.choice(m, size=deg, replace=False)
            mat[rows, j] = 1
        if rng.random() < 0.3:
            mat[rng.integers(0, m), rng.integers(0, nv)] += 1
        if any(mat[i].sum() == 0 for i in range(m)):
            continue
        Z = int(rng.integers(2, 9))
        if nv * Z > 200:
            continue
        q = int(qs[rng.integers(0, len(qs))])
        field = Field(q.bit_length() - 1)
        proto = from_base_matrix(mat.tolist())
        for _ in range(50):
            shifts = [int(rng.integers(0, Z)) for _ in range(proto.n_edges)]
            cells = {}
            collision = False
            for e in range(proto.n_edges):
                key = (proto.edge_check[e], proto.edge_var[e], shifts[e])
                if key in cells:
                    collision = True
                    break
                cells[key] = e
            if not collision:
                break
        else:
            continue
        labels = [int(rng.integers(0, max(q - 1, 1)))
                  for _ in range(proto.n_edges)]
        return QcCode(proto, Z, field, shifts, labels)


def test_criterion_3_spectrum_oracle_equivalence():
    """Walk-projection spectra equal brute-force expanded-graph spectra."""
    t0 = time.time()
    rng = np.random.default_rng(20240303)
    depth = 8
    n = mismatches = 0
    while n < 50:
        code = _random_small_code(rng)
        got_b = binary_ace_spectrum(code, depth).values
        got_nb = nb_ace_spectrum(code, depth).values
        oracle = LiftedGraph(code)
        want_b = oracle.spectrum(depth, skip_canceled=False)
        want_nb = oracle.spectrum(depth, skip_canceled=True)
        mismatches += (got_b != want_b) + (got_nb != want_nb)
        n += 1
    elapsed = time.time() - t0
    _report(
        3, "spectrum oracle equivalence",
        mismatches == 0 and elapsed < 600.0,
        f"{n} codes, {mismatches} spectrum mismatches, {elapsed:.1f}s",
    )


ENSEMBLES = [
    # (fixture, Z, q, binary target, nb target)
    ("proto_gf16_z9.txt", 9, 16, "inf,inf,inf,4", "inf,inf,inf,inf,inf,4"),
    ("proto_gf8_z21.txt", 21, 8, "inf,inf,inf,6,2", "inf,inf,inf,inf,6,2"),
]


def test_criterion_4_reference_spectra_constructed(tmp_path, capsys):
    """Both reference ensembles reach their target spectra via the CLI."""
    t0 = time.time()
    details = []
    ok = True
    for fixture, Z, q, tb, tnb in ENSEMBLES:
        out = tmp_path / f"{fixture}.code.json"
        rc = main([
            "construct",
            "--proto", str(FIXTURES / fixture),
            "--Z", str(Z), "--q", str(q),
            "--ace-b", tb, "--ace-nb", tnb,
            "--seed", "1",
            "--out", str(out),
        ])
        if rc != EXIT_OK:
            ok = False
            details.append(f"{fixture}: exit {rc}")
            continue
        code, meta = load_descriptor(out)
        ach_b = binary_ace_spectrum(code, AceConstraint.parse(tb).depth)
        ach_nb = nb_ace_spectrum(code, AceConstraint.parse(tnb).depth)
        if not ach_b.achieves(AceConstraint.parse(tb)):
            ok = False
            details.append(f"{fixture}: binary {ach_b.format()} < {tb}")
        if not ach_nb.achieves(AceConstraint.parse(tnb)):
            ok = False
            details.append(f"{fixture}: nb {ach_nb.format()} < {tnb}")
        details.append(f"{fixture}: b={ach_b.format()} nb={ach_nb.format()}")
    elapsed = time.time() - t0
    capsys.readouterr()
    _report(
        4, "reference ensemble construction",
        ok and elapsed < 600.0,
        "; ".join(details) + f" ({elapsed:.1f}s)",
    )


def _single_loop_code():
    """n=6 cycle code over GF(4): one 12-cycle, labels leave it uncanceled."""
    f4 = Field(2)
    entries = []
    for i in range(6):
        entries.append((i, i, 1))
        entries.append((i, (i + 1) % 6, 1))
    return SparseGfMatrix(6, 6, entries, f4), f4


def test_criterion_5_decoder_map_agreement():
    """QSPA matches exhaustive MAP on >=95% of noisy frames."""
    t0 = time.time()
    H, f4 = _single_loop_code()
    dense = to_dense(H)
    codebook = []
    for word in itertools.product(range(4), repeat=6):
        good = True
        for row in dense:
            s = 0
            for h, x in zip(row, word):
                if h and x:
                    s ^= f4.mul(int(h), int(x))
            if s:
                good = False
                break
        if good:
            codebook.append(word)
    codebook = np.array(codebook)
    decoder = QspaDecoder(H)
    rate = (6 - rank(H)) / 6
    ebn0 = 1.0  # calibrated: exhaustive MAP block error ~0.11 here
    trials = 1000
    map_errors = agreement = 0
    for frame in range(trials):
        rng = np.random.default_rng([421, frame])
        tx = codebook[int(rng.integers(0, len(codebook)))]
        priors = channel_priors(tx, ebn0, rate, f4, rng)
        logp = np.log(np.maximum(priors, 1e-300))
        scores = logp[np.arange(6)[None, :], codebook].sum(axis=1)
        best = codebook[int(np.argmax(scores))]
        res = decoder.decode(priors, 80)
        map_errors += not (best == tx).all()
        agreement += (res.hard_decision == best).all()
    frac = agreement / trials
    map_bler = map_errors / trials
    elapsed = time.time() - t0
    _report(
        5, "decoder MAP agreement",
        frac >= 0.95 and 0.05 <= map_bler <= 0.20,
        f"agreement {frac:.3f}, MAP BLER {map_bler:.3f}, {elapsed:.1f}s",
    )


def _build_reference_pair():
    matrix = read_base_matrix(FIXTURES / "proto_gf16_z9.txt")
    proto = from_base_matrix(matrix)
    field = Field(4)
    cfg = OptimizerConfig(rng_seed=1)
    shifts = assign_shifts(proto, 9, AceConstraint.parse("inf,inf,inf,4"),
                           cfg)
    assert shifts.success
    mother = QcCode(proto, 9, field, shifts.assignment)
    labels = assign_labels(
        mother, AceConstraint.parse("inf,inf,inf,inf,inf,4"), cfg
    )
    assert labels.success
    tuned = mother.with_labels(labels.assignment)
    rng = np.random.default_rng(777)
    random_labels = [int(rng.integers(0, 15))
                     for _ in range(proto.n_edges)]
    return tuned, mother.with_labels(random_labels)


def _wilson_interval(k: int, n: int, z: float = 1.96):
    p = k / n
    den = 1 + z**2 / n
    center = (p + z**2 / (2 * n)) / den
    half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / den
    return center - half, center + half


@pytest.mark.slow
def test_criterion_6_bler_ordering():
    """Optimized labels never measurably hurt: ordering or CI overlap."""
    t0 = time.time()
    tuned, random_labeled = _build_reference_pair()
    cfg = SimConfig(snr_points_db=(1.4,), max_frames=4000,
                    min_block_errors=120, max_iters=80, seed=5)
    res_tuned = run_campaign(tuned, cfg)
    res_rand = run_campaign(random_labeled, cfg)
    a, b = res_tuned.points[0], res_rand.points[0]
    ordering = a.bler <= b.bler
    lo_a, hi_a = _wilson_interval(a.block_errors, a.frames)
    lo_b, hi_b = _wilson_interval(b.block_errors, b.frames)
    overlap = max(lo_a, lo_b) <= min(hi_a, hi_b)
    elapsed = time.time() - t0
    _report(
        6, "BLER ordering (non-inferiority)",
        (ordering or overlap)
        and a.block_errors >= 100 and b.block_errors >= 100,
        f"tuned {a.bler:.4f} ({a.block_errors}/{a.frames}) vs random "
        f"{b.bler:.4f} ({b.block_errors}/{b.frames}), {elapsed:.0f}s",
    )


def test_criterion_7_determinism(tmp_path, capsys):
    """Repeated construct/simulate runs are byte-identical."""
    proto = tmp_path / "proto.txt"
    proto.write_text("1 1 1\n1 1 1\n")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"code_{tag}.json"
        rc = main([
            "construct", "--proto", str(proto), "--Z", "4", "--q", "8",
            "--ace-b", "inf,inf", "--ace-nb", "inf,inf,inf",
            "--seed", "23", "--out", str(out),
        ])
        assert rc == EXIT_OK
        outs.append(out.read_bytes())
    construct_same = outs[0] == outs[1]

    desc = tmp_path / "code_a.json"
    csvs = []
    for tag in ("x", "y"):
        prefix = tmp_path / f"sim_{tag}"
        rc = main([
            "simulate", str(desc), "--snr", "2.0,inf", "--max-frames", "30",
            "--min-block-errors", "5", "--max-iters", "15", "--seed", "77",
            "--out", str(prefix),
        ])
        assert rc == EXIT_OK
        csvs.append((prefix.with_suffix(".csv").read_bytes(),
                     prefix.with_suffix(".json").read_bytes()))
    simulate_same = csvs[0] == csvs[1]
    capsys.readouterr()
    _report(
        7, "determinism",
        construct_same and simulate_same,
        f"construct identical: {construct_same}, "
        f"simulate identical: {simulate_same}",
    )
