"""Byte-compared golden outputs of fixed-seed CLI runs.

The files under ``tests/golden/`` were written by the CLI and lock the
behaviour refactors must keep: descriptor bytes of both reference
ensembles and of a greedy search, an NB spectrum JSON and campaign CSV/JSON
in both transmission modes.  Spectra and campaigns read the committed
descriptors, so a failure points at the stage that changed.

``decoder_frames.json`` locks the decoder frame by frame where the campaign
files lock only aggregate counts: iterations, convergence and a sha256 of
the hard decision (and of the encoded word in random mode) per frame.

``optimize_runs.json`` locks the optimizer decision by decision: every
``assign_shifts`` and ``assign_labels`` call of a depth-12 greedy search
on GF(16)/Z=9 (its result, assignment and a sha256 of its per-edge
``history``), and the exit-2 report of a construction that fails.

``exports.json`` locks the three export formats (``alist``, ``nb-alist``
and ``base-matrix``) of each golden descriptor by sha256, and the
base-matrix export of a code whose edge ids are permuted, so a cell's
parallel edges print in id order, not in cell order.

``walk_tables.json`` locks the walk layer: per reference ensemble, a
sha256 and the dtype of each column of ``enumerate_closed_walks(p, 16)``
up to each depth 2 to 16, and of the chords of every walk of its depth-14
head.

The two reference codes are also checked against the brute-force
lifted-graph oracle at their full depth, with no golden file.

Regenerate every file but the three descriptors and the spectrum (the four
campaign files, ``decoder_frames.json``, ``exports.json``,
``optimize_runs.json`` and ``walk_tables.json``) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import nbqc.optimize
from nbqc.cli import EXIT_CONSTRAINT, EXIT_OK, main
from nbqc.codec import Encoder, QspaDecoder
from nbqc.gf import Field
from nbqc.io_formats import export_code, load_descriptor, read_base_matrix
from nbqc.lift import QcCode, binary_ace_spectrum, expand, nb_ace_spectrum
from nbqc.optimize import OptimizerConfig, spectrum_search
from nbqc.protograph import enumerate_closed_walks, from_base_matrix
from nbqc.simulate import _frame_rng, channel_priors

from conftest import FIXTURES
from oracles import LiftedGraph, permuted_protograph

GOLDEN = Path(__file__).parent / "golden"

GF16 = ["--proto", str(FIXTURES / "proto_gf16_z9.txt"), "--Z", "9",
        "--q", "16"]
GF8 = ["--proto", str(FIXTURES / "proto_gf8_z21.txt"), "--Z", "21",
       "--q", "8"]

DESCRIPTORS = {
    "gf16_z9_seed1.json": GF16 + ["--ace-b", "inf,inf,inf,4",
                                  "--ace-nb", "inf,inf,inf,inf,inf,4"],
    "gf8_z21_seed1.json": GF8 + ["--ace-b", "inf,inf,inf,6,2",
                                 "--ace-nb", "inf,inf,inf,inf,6,2"],
    "gf16_z9_auto_d10_seed1.json": GF16 + ["--ace-b", "auto",
                                           "--ace-nb", "auto",
                                           "--depth", "10"],
}

CAMPAIGNS = {
    "gf16_zero_1.4dB": ("gf16_z9_seed1.json", ["--snr", "1.4",
                                               "--mode", "zero"]),
    "gf8_random_2.0dB": ("gf8_z21_seed1.json", ["--snr", "2.0",
                                                "--mode", "random"]),
}


@pytest.mark.parametrize("name", sorted(DESCRIPTORS))
def test_golden_descriptor(tmp_path, capsys, name):
    out = tmp_path / name
    argv = ["construct", *DESCRIPTORS[name], "--seed", "1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_golden_nb_spectrum(capsys):
    argv = ["spectrum", str(GOLDEN / "gf16_z9_seed1.json"), "--depth", "12",
            "--nb", "--json"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (GOLDEN / "gf16_z9_seed1.spectrum.json").read_text()


@pytest.mark.parametrize("name, depth", [("gf16_z9_seed1.json", 12),
                                         ("gf8_z21_seed1.json", 10)])
def test_golden_code_spectra_match_the_lifted_graph(name, depth):
    # the reference codes at their full depth (10 on GF(8), where 12 takes
    # the brute-force oracle about 13 s): the pruned enumeration, the kept
    # lift and the spectrum memo of a loaded, re-verified code against
    # every simple cycle of the expanded graph
    code, _ = load_descriptor(GOLDEN / name)
    graph = LiftedGraph(code)
    assert binary_ace_spectrum(code, depth).values == graph.spectrum(depth, False)
    assert nb_ace_spectrum(code, depth).values == graph.spectrum(depth, True)


def _campaign_argv(name: str, prefix: Path) -> list[str]:
    desc, extra = CAMPAIGNS[name]
    return ["simulate", str(GOLDEN / desc), *extra, "--max-frames", "32",
            "--seed", "1", "--out", str(prefix)]


def _assert_golden_campaign(capsys, name, argv):
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    for suffix in (".csv", ".json"):
        got = Path(f"{argv[-1]}{suffix}").read_bytes()
        assert got == (GOLDEN / f"{name}{suffix}").read_bytes()


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_golden_campaign(tmp_path, capsys, name):
    _assert_golden_campaign(capsys, name, _campaign_argv(name, tmp_path / name))


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_golden_campaign_with_two_workers(tmp_path, capsys, name):
    # each pool task decodes a slice of a chunk through its own lanes
    argv = _campaign_argv(name, tmp_path / name)
    _assert_golden_campaign(capsys, name, argv[:-2] + ["--workers", "2",
                                                       *argv[-2:]])


# record name -> (descriptor, transmission mode, Eb/N0 in dB)
DECODER_FRAMES = {
    "gf16_zero_1.4dB": ("gf16_z9_seed1.json", "zero", 1.4),
    "gf8_random_2.0dB": ("gf8_z21_seed1.json", "random", 2.0),
}
N_FRAMES = 24


def _sha256(symbols) -> str:
    return hashlib.sha256(np.asarray(symbols, dtype="<i8").tobytes()).hexdigest()


def _channel_frames(desc: str, mode: str, snr: float, seed: int = 1):
    """H of ``desc`` and the (word sent, channel priors) of its frames, the
    word None in zero mode."""
    code = QcCode.from_json_dict(json.loads((GOLDEN / desc).read_text()))
    H = expand(code)
    rate = (H.n_cols - H.n_rows) / H.n_cols
    encoder = Encoder(H) if mode == "random" else None
    frames = []
    for frame in range(N_FRAMES):
        rng = _frame_rng(seed, snr, frame)
        if encoder is None:
            tx = np.zeros(H.n_cols, dtype=np.int64)
        else:
            msg = rng.integers(0, code.field.q, size=encoder.message_length)
            tx = encoder.encode(msg)
        frames.append((None if encoder is None else tx,
                       channel_priors(tx, snr, rate, code.field, rng)))
    return H, frames


def _frame_entry(res, tx) -> dict:
    entry = {"iterations_used": res.iterations_used,
             "converged": res.converged,
             "hard_sha256": _sha256(res.hard_decision)}
    if tx is not None:
        entry["word_sha256"] = _sha256(tx)
    return entry


def decoder_frames(seed: int = 1, max_iters: int = 80) -> dict:
    """Per-frame decoder record of each entry of ``DECODER_FRAMES``."""
    record = {}
    for name, (desc, mode, snr) in sorted(DECODER_FRAMES.items()):
        H, frames = _channel_frames(desc, mode, snr, seed)
        decoder = QspaDecoder(H)
        record[name] = {
            "descriptor": desc, "mode": mode, "snr_db": snr, "seed": seed,
            "max_iters": max_iters,
            "frames": [_frame_entry(decoder.decode(priors, max_iters), tx)
                       for tx, priors in frames]}
    return record


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def test_golden_decoder_frames():
    expected = (GOLDEN / "decoder_frames.json").read_text()
    assert _dump(decoder_frames()) == expected


@pytest.mark.parametrize("name", sorted(DECODER_FRAMES))
def test_lanes_decode_the_golden_frames_as_serial_decode(name):
    # the 24 frames of a record as one stream through four lanes: each
    # frame's record and dead-row count equal its serial decode's
    desc, mode, snr = DECODER_FRAMES[name]
    record = json.loads((GOLDEN / "decoder_frames.json").read_text())[name]
    H, frames = _channel_frames(desc, mode, snr)
    serial = QspaDecoder(H)
    lanes = dict(QspaDecoder(H, lanes=4).stream(
        ((f, priors) for f, (_, priors) in enumerate(frames)), 80))
    assert sorted(lanes) == list(range(N_FRAMES))
    for f, (tx, priors) in enumerate(frames):
        res, want = lanes[f], serial.decode(priors, 80)
        assert _frame_entry(res, tx) == record["frames"][f]
        assert res.hard_decision.tobytes() == want.hard_decision.tobytes()
        assert (res.converged, res.iterations_used, res.dead_row_resets) == (
            want.converged, want.iterations_used, want.dead_row_resets)


def _recorded(stage: str, fn, constraint_at: int, calls: list):
    """``fn`` with each call's result and trajectory appended to ``calls``."""
    def run(*args):
        history = []
        res = fn(*args, history=history)
        calls.append({
            "stage": stage,
            "constraint": args[constraint_at].format(),
            "result": res.to_json_dict(),
            "assignment": res.assignment.tolist(),
            "history_len": len(history),
            "history_sha256": _sha256(history),
        })
        return res
    return run


FAILING_CONSTRUCT = ["--Z", "9", "--q", "16", "--ace-b", "inf,inf,inf,9",
                     "--ace-nb", "inf,inf,inf,inf,inf,9",
                     "--max-restarts", "2", "--max-sweeps", "3", "--seed", "1"]


def optimize_runs(tmp_dir: Path) -> dict:
    """Every optimizer call of a greedy search, and a failure report."""
    calls = []
    saved = nbqc.optimize.assign_shifts, nbqc.optimize.assign_labels
    nbqc.optimize.assign_shifts = _recorded("shifts", saved[0], 2, calls)
    nbqc.optimize.assign_labels = _recorded("labels", saved[1], 1, calls)
    try:
        proto = from_base_matrix(read_base_matrix(FIXTURES / "proto_gf16_z9.txt"))
        spectrum_search(proto, 9, Field(4), OptimizerConfig(rng_seed=1),
                        max_depth=12)
    finally:
        nbqc.optimize.assign_shifts, nbqc.optimize.assign_labels = saved
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        status = main(["construct", "--proto", str(FIXTURES / "proto_gf16_z9.txt"),
                       *FAILING_CONSTRUCT,
                       "--out", str(tmp_dir / "failed.json")])
    return {"search": {"Z": 9, "q": 16, "seed": 1, "max_depth": 12,
                       "calls": calls},
            "failing_construct": {"proto": "proto_gf16_z9.txt",
                                  "argv": FAILING_CONSTRUCT, "exit": status,
                                  "stderr": err.getvalue()}}


def test_golden_optimize_runs(tmp_path):
    record = optimize_runs(tmp_path)
    assert record["failing_construct"]["exit"] == EXIT_CONSTRAINT
    assert _dump(record) == (GOLDEN / "optimize_runs.json").read_text()


EXPORT_FORMATS = ("alist", "nb-alist", "base-matrix")
# cells of 3, 2 and 1 edges; under the ids of default_rng(7) no cell's ids
# are consecutive
PERMUTED_MATRIX = [[3, 1, 0], [1, 2, 2], [0, 1, 3]]


def permuted_code() -> QcCode:
    """``PERMUTED_MATRIX`` at Z=5 over GF(4), edge ids permuted by
    ``default_rng(7)``; edge e has shift e mod 5 and label e mod 3, so the
    two blocks together tell every two edges of a cell apart."""
    proto = permuted_protograph(PERMUTED_MATRIX, 7)
    ids = np.arange(proto.n_edges)
    return QcCode(proto, 5, Field(2), ids % 5, ids % 3)


def _text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def exports() -> dict:
    """The sha256 of each export of each golden descriptor, and of the
    base-matrix export of :func:`permuted_code`."""
    record = {}
    for name in sorted(DESCRIPTORS):
        code = QcCode.from_json_dict(json.loads((GOLDEN / name).read_text()))
        record[name] = {fmt: _text_sha256(export_code(code, fmt))
                        for fmt in EXPORT_FORMATS}
    record["permuted_3x3_z5_gf4_seed7"] = {
        "base-matrix": _text_sha256(export_code(permuted_code(), "base-matrix"))}
    return record


def test_golden_exports():
    assert _dump(exports()) == (GOLDEN / "exports.json").read_text()


WALK_TABLE_COLUMNS = ("rows", "length", "ace", "simple_minimal",
                      "pair_walk", "p1", "p2")


def _column(array) -> dict:
    """An array's dtype and the sha256 of its C-order bytes."""
    return {"dtype": str(array.dtype),
            "sha256": hashlib.sha256(array.tobytes()).hexdigest()}


def walk_tables(max_len: int = 16, chord_depth: int = 14) -> dict:
    """Each reference ensemble's walk table columns up to each depth, and
    the chords of every walk of its ``chord_depth`` head."""
    record = {}
    for name in ("proto_gf16_z9.txt", "proto_gf8_z21.txt"):
        proto = from_base_matrix(read_base_matrix(FIXTURES / name))
        table = enumerate_closed_walks(proto, max_len)
        head = table.upto(chord_depth)
        record[name] = {
            "max_len": max_len,
            "upto": {str(d): {c: _column(getattr(table.upto(d), c))
                              for c in WALK_TABLE_COLUMNS}
                     for d in range(2, max_len + 1, 2)},
            "chord_depth": chord_depth,
            "chords": [_column(c) for c in
                       head.chords(proto, np.arange(len(head)))]}
    return record


def test_golden_walk_tables():
    assert _dump(walk_tables()) == (GOLDEN / "walk_tables.json").read_text()


if __name__ == "__main__":
    import tempfile

    (GOLDEN / "decoder_frames.json").write_text(_dump(decoder_frames()))
    (GOLDEN / "exports.json").write_text(_dump(exports()))
    (GOLDEN / "walk_tables.json").write_text(_dump(walk_tables()))
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "optimize_runs.json").write_text(_dump(optimize_runs(Path(tmp))))
        for name in sorted(CAMPAIGNS):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(_campaign_argv(name, GOLDEN / name)) == EXIT_OK
