"""Byte-compared golden outputs of fixed-seed CLI runs.

The files under ``tests/golden/`` were written by the CLI and lock the
behaviour refactors must keep: descriptor bytes of both reference
ensembles and of a greedy search, an NB spectrum JSON and campaign CSV/JSON
in both transmission modes.  Spectra and campaigns read the committed
descriptors, so a failure points at the stage that changed.
"""

from pathlib import Path

import pytest

from nbqc.cli import EXIT_OK, main

from conftest import FIXTURES

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


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_golden_campaign(tmp_path, capsys, name):
    desc, extra = CAMPAIGNS[name]
    prefix = tmp_path / name
    argv = ["simulate", str(GOLDEN / desc), *extra, "--max-frames", "32",
            "--seed", "1", "--out", str(prefix)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    for suffix in (".csv", ".json"):
        got = Path(f"{prefix}{suffix}").read_bytes()
        assert got == (GOLDEN / f"{name}{suffix}").read_bytes()
