import contextlib
import functools
import importlib
import io
import json
import operator
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nbqc.cli import EXIT_CONSTRAINT, EXIT_INPUT, EXIT_OK, main
from nbqc.codec import SparseGfMatrix
from nbqc.gf import Field
from nbqc.io_formats import (
    DescriptorError,
    build_descriptor,
    export_code,
    load_descriptor,
    read_alist,
    read_base_matrix,
    read_nb_alist,
    save_descriptor,
    write_alist,
    write_base_matrix_json,
    write_nb_alist,
)
from nbqc.lift import QcCode, binary_ace_spectrum, expand, expand_binary, nb_ace_spectrum
from nbqc.protograph import from_base_matrix

from oracles import support


TOY_PROTO = "1 1 1\n1 1 1\n"


@pytest.fixture
def proto_file(tmp_path):
    path = tmp_path / "proto.txt"
    path.write_text(TOY_PROTO)
    return path


def construct_toy(tmp_path, proto_file, seed=5):
    out = tmp_path / "code.json"
    rc = main([
        "construct", "--proto", str(proto_file), "--Z", "3", "--q", "16",
        "--ace-b", "inf,inf", "--ace-nb", "inf,inf,inf",
        "--seed", str(seed), "--out", str(out),
    ])
    assert rc == EXIT_OK
    return out


def test_construct_writes_verified_descriptor(tmp_path, proto_file, capsys):
    out = construct_toy(tmp_path, proto_file)
    capsys.readouterr()
    code, meta = load_descriptor(out)
    assert meta["seed"] == 5
    spec_b = meta["achieved_binary"]
    assert binary_ace_spectrum(code, spec_b["depth"]).to_json_list() == \
        spec_b["values"]
    spec_nb = meta["achieved_nb"]
    assert nb_ace_spectrum(code, spec_nb["depth"]).to_json_list() == \
        spec_nb["values"]


def test_construct_deterministic_bytes(tmp_path, proto_file):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["construct", "--proto", str(proto_file), "--Z", "3", "--q", "16",
            "--ace-b", "inf,inf", "--ace-nb", "inf,inf", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_construct_auto_mode(tmp_path, proto_file):
    out = tmp_path / "auto.json"
    rc = main([
        "construct", "--proto", str(proto_file), "--Z", "4", "--q", "16",
        "--ace-b", "auto", "--ace-nb", "auto", "--seed", "3",
        "--depth", "6", "--out", str(out),
    ])
    assert rc == EXIT_OK
    load_descriptor(out)


def test_construct_rejects_nb_below_binary(tmp_path, proto_file):
    rc = main([
        "construct", "--proto", str(proto_file), "--Z", "3", "--q", "16",
        "--ace-b", "inf,inf", "--ace-nb", "inf,0",
        "--seed", "1", "--out", str(tmp_path / "x.json"),
    ])
    assert rc == EXIT_INPUT


def test_construct_constraint_failure_exit_code(tmp_path, capsys):
    proto = tmp_path / "p.txt"
    # two parallel edges, Z=2: their lift always holds a 4-cycle of ACE 0
    # (or a collision)
    proto.write_text("2\n")
    rc = main([
        "construct", "--proto", str(proto), "--Z", "2", "--q", "4",
        "--ace-b", "inf,inf", "--ace-nb", "inf,inf",
        "--seed", "1", "--out", str(tmp_path / "x.json"),
    ])
    assert rc == EXIT_CONSTRAINT
    err = capsys.readouterr().err
    assert "shift-assignment" in err


def test_construct_bad_inputs(tmp_path, proto_file):
    rc = main([
        "construct", "--proto", str(tmp_path / "missing.txt"), "--Z", "3",
        "--q", "16", "--ace-b", "inf", "--ace-nb", "inf", "--seed", "1",
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == EXIT_INPUT
    rc = main([
        "construct", "--proto", str(proto_file), "--Z", "3", "--q", "12",
        "--ace-b", "inf", "--ace-nb", "inf", "--seed", "1",
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == EXIT_INPUT
    rc = main([
        "construct", "--proto", str(proto_file), "--Z", "3", "--q", "16",
        "--ace-b", "auto", "--ace-nb", "inf", "--seed", "1",
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == EXIT_INPUT


def test_spectrum_command(tmp_path, proto_file, capsys):
    out = construct_toy(tmp_path, proto_file)
    capsys.readouterr()
    assert main(["spectrum", str(out), "--depth", "4", "--binary"]) == EXIT_OK
    printed = capsys.readouterr().out.strip()
    assert printed.startswith("(") and printed.endswith(")")
    assert main(["spectrum", str(out), "--depth", "6", "--nb", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["depth"] == 6
    # canceled cycles only leave the minimum: nb >= binary componentwise
    code, _ = load_descriptor(out)
    b = binary_ace_spectrum(code, 6)
    nb = nb_ace_spectrum(code, 6)
    assert all(nb.values[i] >= b.values[i] for i in nb.lengths())


def test_descriptor_fail_closed_on_tamper(tmp_path, proto_file, capsys):
    out = construct_toy(tmp_path, proto_file)
    capsys.readouterr()
    desc = json.loads(out.read_text())
    desc["metadata"]["achieved_nb"]["values"][-1] = 99
    out.write_text(json.dumps(desc))
    with pytest.raises(DescriptorError):
        load_descriptor(out)
    assert main(["spectrum", str(out), "--depth", "4"]) == EXIT_INPUT


def test_descriptor_tampered_edges_fail(tmp_path, proto_file, capsys):
    out = construct_toy(tmp_path, proto_file)
    capsys.readouterr()
    desc = json.loads(out.read_text())
    for edge in desc["edges"]:
        edge["shift"] = 0  # zero shifts lift every base 4-cycle unchanged
    out.write_text(json.dumps(desc))
    with pytest.raises(DescriptorError):
        load_descriptor(out)


@pytest.mark.parametrize("damage, field", [
    (lambda d: d.update(metadata="x"), None),
    (lambda d: d.update(metadata=[]), None),
    (lambda d: d["metadata"].update(achieved_binary="x"), None),
    (lambda d: d["metadata"].update(achieved_binary={"depth": 10, "values": 5}),
     None),
    (lambda d: d["metadata"]["achieved_binary"].pop("depth"), None),
    (lambda d: d.update(field={"r": 3, "poly": "11"}), None),
    (lambda d: d["edges"][0].update(shift=1.5), None),
    (lambda d: d["edges"][0].update(rho=2.5), None),
    # JSON true is a Python bool, which passes isinstance(x, int)
    (lambda d: d.update(Z=True), "lifting order Z"),
    (lambda d: d.update({"lambda": True}), "lambda"),
    (lambda d: d["edges"][0].update(shift=True), "shift"),
    (lambda d: d["base_matrix"][0].__setitem__(0, True), "base matrix"),
    (lambda d: d["metadata"]["achieved_binary"].update(depth=True), "depth"),
    (lambda d: d["metadata"]["achieved_binary"]["values"].__setitem__(0, True),
     "value"),
    # edge 3 joins check 1 and edge 1 variable 1, so True and 1.0 compare equal
    (lambda d: d["edges"][3].update(check=True), "check"),
    (lambda d: d["edges"][1].update(var=1.0), "var"),
    # an integral float is no integer either, and no cell holds more edges
    # than the largest lifting order
    (lambda d: d["metadata"]["achieved_binary"]["values"].__setitem__(0, 1.0),
     "value"),
    (lambda d: d["metadata"]["achieved_binary"].update(depth=4.0), "depth"),
    (lambda d: d["field"].update(r=4.0), "extension degree r"),
    (lambda d: d["base_matrix"][0].__setitem__(0, 10**9), "base matrix"),
    # json writes a float inf as Infinity, which json reads back
    (lambda d: d["metadata"]["achieved_binary"]["values"].__setitem__(
        0, float("inf")), "value"),
    # a field of the wrong type is named, and not reported missing
    (lambda d: d.update(field=[3, 11]), "'field' is list, not dict"),
    (lambda d: d["edges"].__setitem__(2, [0, 0]), "edge 2 is list, not dict"),
    (lambda d: d["base_matrix"].__setitem__(1, 7), "base_matrix row 1 is int"),
], ids=["metadata-str", "metadata-list", "achieved-str", "values-int",
        "depth-missing", "poly-str", "shift-float", "rho-float", "Z-true",
        "lambda-true", "shift-true", "base-true", "depth-true", "value-true",
        "check-true", "var-float", "value-float", "depth-float", "r-float",
        "base-huge", "value-Infinity", "field-list", "edge-list", "row-int"])
def test_malformed_descriptor_exits_3_with_one_line(tmp_path, proto_file,
                                                   capsys, damage, field):
    out = construct_toy(tmp_path, proto_file)
    capsys.readouterr()
    desc = json.loads(out.read_text())
    damage(desc)
    out.write_text(json.dumps(desc))
    assert main(["spectrum", str(out), "--depth", "4"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if field is not None:
        assert field in err and "missing" not in err


def test_simulate_command_noiseless_and_deterministic(tmp_path, proto_file,
                                                      capsys):
    out = construct_toy(tmp_path, proto_file)
    capsys.readouterr()
    prefix1 = tmp_path / "run1"
    prefix2 = tmp_path / "run2"
    args = ["simulate", str(out), "--snr", "inf,8", "--max-frames", "15",
            "--min-block-errors", "3", "--max-iters", "10", "--seed", "21"]
    assert main(args + ["--out", str(prefix1)]) == EXIT_OK
    assert main(args + ["--out", str(prefix2)]) == EXIT_OK
    csv1 = (tmp_path / "run1.csv").read_bytes()
    assert csv1 == (tmp_path / "run2.csv").read_bytes()
    text = csv1.decode()
    assert text.splitlines()[1].startswith("inf,15,0,")
    sidecar = json.loads((tmp_path / "run1.json").read_text())
    code, _ = load_descriptor(out)
    assert sidecar["code_digest"] == code.digest()


def test_snr_minus_zero_is_the_zero_point(tmp_path, capsys):
    # -0 dB and 0 dB are one operating point: one frame substream per
    # frame, one CSV row and one JSON point
    desc = Path(__file__).parent / "golden" / "gf16_z9_seed1.json"
    outputs = []
    for name, snr in (("minus", "-0"), ("plus", "0")):
        prefix = tmp_path / name
        assert main(["simulate", str(desc), "--snr", snr, "--max-frames", "20",
                     "--min-block-errors", "21", "--seed", "1",
                     "--out", str(prefix)]) == EXIT_OK
        outputs.append([(tmp_path / f"{name}.{ext}").read_bytes()
                        for ext in ("csv", "json")])
    assert outputs[0] == outputs[1]
    assert outputs[0][0].decode().splitlines()[1].startswith("0,20,")


def test_export_roundtrips(tmp_path, proto_file, capsys):
    out = construct_toy(tmp_path, proto_file)
    capsys.readouterr()
    code, _ = load_descriptor(out)

    alist_path = tmp_path / "code.alist"
    assert main(["export", str(out), "--format", "alist",
                 "--out", str(alist_path)]) == EXIT_OK
    H_b = read_alist(alist_path.read_text())
    assert H_b == expand_binary(code)

    nb_path = tmp_path / "code.nb.alist"
    assert main(["export", str(out), "--format", "nb-alist",
                 "--out", str(nb_path)]) == EXIT_OK
    H = read_nb_alist(nb_path.read_text(), code.field)
    assert H == expand(code)

    bm_path = tmp_path / "code.bm"
    assert main(["export", str(out), "--format", "base-matrix",
                 "--out", str(bm_path)]) == EXIT_OK
    text = bm_path.read_text()
    assert text.startswith("# shifts")
    assert "# labels" in text


def test_alist_matches_handwritten_fixture(gf2):
    # 2x4 binary H: rows (1,1,0,1) and (0,1,1,1)
    H = SparseGfMatrix(
        2, 4,
        [(0, 0, 1), (0, 1, 1), (0, 3, 1), (1, 1, 1), (1, 2, 1), (1, 3, 1)],
        gf2,
    )
    expected = (
        "4 2\n"
        "2 3\n"
        "1 2 1 2\n"
        "3 3\n"
        "1\n"
        "1 2\n"
        "2\n"
        "1 2\n"
        "1 2 4\n"
        "2 3 4\n"
    )
    assert write_alist(H) == expected
    assert read_alist(expected) == H


def test_nb_alist_value_convention(gf4):
    H = SparseGfMatrix(1, 2, [(0, 0, 1), (0, 1, 3)], gf4)
    text = write_nb_alist(H)
    lines = text.splitlines()
    assert lines[0] == "2 1 4"
    # alpha-exponent + 1: value 1 = alpha^0 -> 1; value 3 = alpha^2 -> 3
    assert lines[-1].split() == ["1", "1", "2", str(gf4.log_alpha(3) + 1)]
    assert read_nb_alist(text, gf4) == H


ALIST_HEAD = "2 2\n1 1\n1 1\n1 1\n"
NB_ALIST_HEAD = "2 2 4\n1 1\n1 1\n1 1\n"


@pytest.mark.parametrize("read, text", [
    (read_alist, ALIST_HEAD + "-1\n2\n1\n2\n"),
    (read_alist, ALIST_HEAD + "3\n2\n1\n2\n"),
    (read_alist, ALIST_HEAD + "1\n2\n1\n"),
    (read_nb_alist, NB_ALIST_HEAD + "-1 1\n2 1\n1 1\n2 1\n"),
    (read_nb_alist, NB_ALIST_HEAD + "3 1\n2 1\n1 1\n2 1\n"),
    (read_nb_alist, NB_ALIST_HEAD + "1 0\n2 1\n1 1\n2 1\n"),
    (read_nb_alist, NB_ALIST_HEAD + "1 4\n2 1\n1 1\n2 1\n"),
    (read_nb_alist, NB_ALIST_HEAD + "1 7\n2 1\n1 1\n2 1\n"),
    (read_alist, "2 2\n2 1\n2 1\n1 1\n1 1\n2\n1\n2\n"),
    (read_alist, ALIST_HEAD + "1\n2\n2\n1\n"),
    (read_nb_alist, NB_ALIST_HEAD + "1 1\n2 1\n1 2\n2 1\n"),
], ids=["row-minus-1", "row-past-m", "truncated", "nb-row-minus-1",
        "nb-row-past-m", "nb-value-0", "nb-value-q", "nb-value-wraps",
        "row-repeated-in-column", "rows-disagree", "nb-row-values-disagree"])
def test_alist_readers_reject_malformed_input(read, text):
    valid = {read_alist: ALIST_HEAD + "1\n2\n1\n2\n",
             read_nb_alist: NB_ALIST_HEAD + "1 1\n2 1\n1 1\n2 1\n"}[read]
    assert support(read(valid)) == {(0, 0), (1, 1)}
    with pytest.raises(ValueError):
        read(text)


def test_binary_export_of_nb_code_equals_mother(tmp_path, proto_file, capsys):
    out = construct_toy(tmp_path, proto_file)
    capsys.readouterr()
    code, _ = load_descriptor(out)
    assert export_code(code, "alist") == write_alist(expand_binary(code))


def test_nb_alist_requires_labels(gf16):
    proto = from_base_matrix([[1, 1], [1, 1]])
    code = QcCode(proto, 2, gf16, [e % 2 for e in range(4)])
    with pytest.raises(ValueError):
        export_code(code, "nb-alist")


def test_base_matrix_json_io(tmp_path):
    rows = [[1, 0, 2], [1, 2, 0]]
    path = tmp_path / "m.json"
    path.write_text(write_base_matrix_json(rows))
    assert read_base_matrix(path) == rows
    bad = {"n_checks": 3, "n_vars": 3, "base_matrix": rows}
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        read_base_matrix(path)


def test_cli_rejects_unknown_arguments():
    assert main(["construct", "--bogus"]) == EXIT_INPUT
    assert main(["spectrum", "nowhere.json", "--depth", "3"]) == EXIT_INPUT


def test_descriptor_without_metadata_loads(tmp_path, gf16):
    proto = from_base_matrix([[1, 1], [1, 1]])
    code = QcCode(proto, 3, gf16, [1, 0, 0, 0], [1, 2, 3, 4])
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(code.to_json_dict()))
    loaded, meta = load_descriptor(path)
    assert loaded.to_json_dict() == code.to_json_dict()
    assert meta == {}


def test_save_load_descriptor_roundtrip(tmp_path, gf16):
    proto = from_base_matrix([[1, 1], [1, 1]])
    code = QcCode(proto, 3, gf16, [1, 0, 0, 0], [1, 2, 3, 4])
    desc = build_descriptor(code, 77, binary_ace_spectrum(code, 4),
                            nb_ace_spectrum(code, 4))
    path = tmp_path / "d.json"
    save_descriptor(path, desc)
    loaded, meta = load_descriptor(path)
    assert loaded.digest() == code.digest()
    assert meta["seed"] == 77


def test_construct_with_explicit_polynomial(tmp_path, proto_file, capsys):
    out = tmp_path / "poly.json"
    rc = main([
        "construct", "--proto", str(proto_file), "--Z", "3", "--q", "16",
        "--poly", "0b11001",  # x^4 + x^3 + 1, also primitive
        "--ace-b", "inf,inf", "--ace-nb", "inf,inf",
        "--seed", "2", "--out", str(out),
    ])
    capsys.readouterr()
    assert rc == EXIT_OK
    code, _ = load_descriptor(out)
    assert code.field.primitive_poly == 0b11001
    # a non-primitive polynomial is an input error
    rc = main([
        "construct", "--proto", str(proto_file), "--Z", "3", "--q", "16",
        "--poly", "0b11111",
        "--ace-b", "inf,inf", "--ace-nb", "inf,inf",
        "--seed", "2", "--out", str(out),
    ])
    assert rc == EXIT_INPUT


def test_gf2_end_to_end(tmp_path, proto_file, capsys):
    # r=1 degenerates every label to 1; construction and simulation still run
    out = tmp_path / "binary.json"
    rc = main([
        "construct", "--proto", str(proto_file), "--Z", "5", "--q", "2",
        "--ace-b", "inf,inf", "--ace-nb", "inf,inf",
        "--seed", "3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    code, _ = load_descriptor(out)
    assert code.field.q == 2
    assert set(code.labels.tolist()) == {0}
    rc = main([
        "simulate", str(out), "--snr", "inf", "--max-frames", "5",
        "--min-block-errors", "1", "--seed", "2",
        "--out", str(tmp_path / "bsim"),
    ])
    assert rc == EXIT_OK
    assert ",5,0," in (tmp_path / "bsim.csv").read_text()


def _huge_z_descriptor(desc, path):
    """A metadata-free GF(8) copy of ``desc`` with Z far past the bound."""
    obj = json.loads(desc.read_text())
    del obj["metadata"]
    obj.update(field={"r": 3, "poly": 0b1011}, Z=700_000_000_000)
    obj["lambda"] = 1
    for edge in obj["edges"]:
        edge["rho"] %= 7
    path.write_text(json.dumps(obj))
    return path


def _gf2_descriptor(path, base, Z, shifts):
    """A metadata-free GF(2) descriptor of ``base`` with ``shifts``."""
    proto = from_base_matrix(base)
    code = QcCode(proto, Z, Field(1), shifts, [0] * proto.n_edges)
    path.write_text(json.dumps(code.to_json_dict()))
    return path


def _square_descriptor(path):
    """A metadata-free GF(4) code on the 3 x 3 all-ones base matrix whose
    21 x 21 H has full rank: its design rate is 0, in either mode."""
    proto = from_base_matrix([[1] * 3] * 3)
    code = QcCode(proto, 7, Field(2), [5, 4, 3, 1, 2, 0, 0, 0, 1],
                  [2, 1, 2, 1, 1, 2, 2, 1, 1])
    path.write_text(json.dumps(code.to_json_dict()))
    return path


def _unlabeled_descriptor(path):
    """The GF(16) reference descriptor with every rho dropped: valid, as
    either all edges carry rho or none, and without an NB code."""
    obj = json.loads((Path(__file__).parent / "golden"
                      / "gf16_z9_seed1.json").read_text())
    for edge in obj["edges"]:
        del edge["rho"]
    obj["metadata"]["achieved_nb"] = None
    path.write_text(json.dumps(obj))
    return path


def _bad_input_argv(tmp_path, desc):
    construct = ["construct", "--proto", str(tmp_path / "proto.txt"),
                 "--q", "16", "--ace-b", "inf,inf", "--ace-nb", "inf,inf",
                 "--seed", "1"]

    def construct_on(name, text):
        (tmp_path / name).write_text(text)
        return (["construct", "--proto", str(tmp_path / name)] + construct[3:]
                + ["--Z", "3", "--out", out])

    def json_proto(name, matrix):
        return construct_on(name, json.dumps(
            {"n_checks": 2, "n_vars": 2, "base_matrix": matrix}))

    simulate = ["simulate", str(desc), "--max-frames", "2", "--seed", "1"]
    out = str(tmp_path / "x.json")
    nowhere = str(tmp_path / "missing-dir" / "x")
    # every shift 0 stacks identities: rank 5 < 10 rows
    rank_deficient = _gf2_descriptor(tmp_path / "rank.json", [[1] * 4] * 2, 5,
                                     [0] * 8)
    # the parallel edges 0 and 1 of cell (0, 0) share shift 1
    collision = _gf2_descriptor(tmp_path / "collision.json",
                                [[2, 1], [1, 1]], 3, [1, 1, 0, 0, 0])
    # three parallel edges cannot take distinct shifts with Z=2
    parallel = tmp_path / "parallel.txt"
    parallel.write_text("3 1\n1 1\n")
    parallel22 = tmp_path / "parallel22.txt"
    parallel22.write_text("2 2\n1 1\n")
    unlabeled = _unlabeled_descriptor(tmp_path / "unlabeled.json")
    square = _square_descriptor(tmp_path / "square.json")
    link = tmp_path / "link.json"
    link.symlink_to(desc)
    return {
        "Z0": construct + ["--Z", "0", "--out", out],
        "Z-huge": construct + ["--Z", str((1 << 16) + 1), "--out", out],
        "max-sweeps0": construct + ["--Z", "3", "--max-sweeps", "0",
                                    "--out", out],
        "max-restarts0": construct + ["--Z", "3", "--max-restarts", "0",
                                      "--out", out],
        "overflow": construct + ["--Z", "3", "--out", out],
        "construct-out": construct + ["--Z", "3", "--out", nowhere],
        "construct-out-dir": construct + ["--Z", "3", "--out", str(tmp_path)],
        "construct-out-file-parent": construct + ["--Z", "3", "--out",
                                                  str(desc / "x.json")],
        "construct-seed-minus-1": construct + ["--Z", "3", "--seed", "-1",
                                               "--out", out],
        # an output that is the input file, by its own path or a link
        "construct-out-is-proto": construct + ["--Z", "3", "--out",
                                               construct[2]],
        "snr-abc": simulate + ["--snr", "abc", "--out", out],
        "snr-nan": simulate + ["--snr", "nan", "--out", out],
        "snr-minus-inf": simulate + ["--snr=-inf", "--out", out],
        "snr-huge": simulate + ["--snr", "1e300", "--out", out],
        # parse to +-inf, but only a token spelling infinity is noiseless
        "snr-1e400": simulate + ["--snr", "1.4,1e400", "--out", out],
        "snr-minus-1e400": simulate + ["--snr=-1e400", "--out", out],
        "snr-repeated": simulate + ["--snr", "2,2", "--out", out],
        "snr-signed-zero": simulate + ["--snr", "0,-0", "--out", out],
        # one histogram bin per iteration count: 2^30 would be 8 GiB a point
        "max-iters-huge": simulate + ["--snr", "inf", "--max-iters",
                                      str(1 << 30), "--out", out],
        "workers0": simulate + ["--snr", "inf", "--workers", "0",
                                "--out", out],
        "env-workers": simulate + ["--snr", "inf", "--out", out],
        "simulate-out": simulate + ["--snr", "inf", "--out", nowhere],
        # <prefix>.json is a directory: no CSV is written without its JSON
        "simulate-out-json-dir": simulate + ["--snr", "inf", "--out",
                                             str(tmp_path / "dir")],
        "simulate-out-file-parent": simulate + ["--snr", "inf", "--out",
                                                str(desc / "x")],
        "simulate-seed-minus-1": simulate + ["--snr", "inf", "--seed", "-1",
                                             "--out", out],
        # <prefix>.json is the descriptor read
        "simulate-out-is-input": simulate + ["--snr", "inf", "--out",
                                             str(desc.with_suffix(""))],
        "export-out": ["export", str(desc), "--format", "alist",
                       "--out", nowhere],
        "export-out-dir": ["export", str(desc), "--format", "alist",
                           "--out", str(tmp_path)],
        "export-out-file-parent": ["export", str(desc), "--format", "alist",
                                   "--out", str(desc / "x")],
        "export-out-is-input": ["export", str(desc), "--format", "alist",
                                "--out", str(link)],
        "export-Z-huge": ["export", str(_huge_z_descriptor(
            desc, tmp_path / "huge.json")), "--format", "alist",
            "--out", out],
        "spectrum-depth": ["spectrum", str(desc), "--depth", "5"],
        "spectrum-depth-huge": ["spectrum", str(desc), "--depth", "1000000"],
        "construct-degree-1": construct_on("deg1.txt", "1 1 1\n"),
        "json-entry-float": json_proto("float.json", [[1, 1.7], [1, 1]]),
        "json-entry-bool": json_proto("bool.json", [[True, 1], [1, 1]]),
        "json-matrix-scalar": json_proto("scalar.json", 5),
        "simulate-rank-deficient": ["simulate", str(rank_deficient), "--snr",
                                    "inf", "--max-frames", "2", "--seed", "1",
                                    "--mode", "random", "--out", out],
        "simulate-collision": ["simulate", str(collision), "--snr", "inf",
                               "--max-frames", "2", "--seed", "1",
                               "--out", out],
        **{f"simulate-unlabeled-{mode}": [
            "simulate", str(unlabeled), "--snr", "inf", "--max-frames", "2",
            "--seed", "1", "--mode", mode, "--out", out]
           for mode in ("zero", "random")},
        **{f"simulate-rate-0-{mode}": [
            "simulate", str(square), "--snr", "1", "--max-frames", "2",
            "--seed", "1", "--mode", mode, "--out", out]
           for mode in ("zero", "random")},
        "spectrum-collision": ["spectrum", str(collision), "--depth", "4"],
        "export-collision": ["export", str(collision), "--format",
                             "base-matrix", "--out", out],
        "auto-parallel-over-Z": ["construct", "--proto", str(parallel),
                                 "--Z", "2", "--q", "4", "--ace-b", "auto",
                                 "--ace-nb", "auto", "--seed", "1",
                                 "--out", out],
        "fixed-parallel-over-Z": ["construct", "--proto", str(parallel22),
                                  "--Z", "1", "--q", "4", "--ace-b", "0,0",
                                  "--ace-nb", "0,0", "--seed", "1",
                                  "--out", out],
        # 327 685 edges, each cell within MAX_Z, more than MAX_EDGES in all
        "construct-edges-huge": construct_on(
            "edges.txt", "65536 " * 5 + "\n" + "1 " * 5 + "\n"),
    }


@pytest.mark.parametrize("case", [
    "Z0", "Z-huge", "max-sweeps0", "max-restarts0", "overflow",
    "construct-out", "construct-out-dir", "construct-out-file-parent",
    "construct-seed-minus-1", "construct-out-is-proto", "snr-abc", "snr-nan",
    "snr-minus-inf", "snr-huge", "snr-1e400", "snr-minus-1e400",
    "snr-repeated", "snr-signed-zero", "max-iters-huge", "workers0",
    "env-workers", "simulate-out", "simulate-out-json-dir",
    "simulate-out-file-parent", "simulate-seed-minus-1",
    "simulate-out-is-input", "export-out", "export-out-dir",
    "export-out-file-parent", "export-out-is-input", "export-Z-huge",
    "spectrum-depth",
    "spectrum-depth-huge", "construct-degree-1", "json-entry-float",
    "json-entry-bool", "json-matrix-scalar", "simulate-rank-deficient",
    "simulate-collision", "simulate-unlabeled-zero",
    "simulate-unlabeled-random", "simulate-rate-0-zero",
    "simulate-rate-0-random", "spectrum-collision", "export-collision",
    "auto-parallel-over-Z", "fixed-parallel-over-Z", "construct-edges-huge",
])
def test_bad_inputs_exit_3_with_one_line(tmp_path, proto_file, capsys,
                                         monkeypatch, case):
    import nbqc.cli
    import nbqc.lift
    from nbqc.protograph import WalkEnumerationOverflow

    desc = construct_toy(tmp_path, proto_file)
    (tmp_path / "dir.json").mkdir()
    capsys.readouterr()
    argv = _bad_input_argv(tmp_path, desc)[case]
    if case == "env-workers":
        monkeypatch.setenv("NBQC_WORKERS", "two")
    if case == "overflow":
        def overflow(*args, **kwargs):
            raise WalkEnumerationOverflow("more than 5 closed-walk classes")
        monkeypatch.setattr(nbqc.lift, "enumerate_closed_walks", overflow)
    if "-out" in case:  # refused before any enumeration or frame
        def spy(*args, **kwargs):
            raise AssertionError("ran before the output path was checked")
        monkeypatch.setattr(nbqc.lift, "enumerate_closed_walks", spy)
        monkeypatch.setattr(nbqc.cli, "run_campaign", spy)
    inputs = {path: path.read_bytes() for path in (desc, proto_file)}
    assert main(argv) == EXIT_INPUT
    assert inputs == {path: path.read_bytes() for path in inputs}
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if "1e400" in case:
        assert "outside [-300.0, 300.0]" in err
    if "rate-0" in case:
        assert "design rate 0/21 is not in (0, 1)" in err
    if case in ("snr-repeated", "snr-signed-zero"):
        assert "is given twice" in err
    if case.endswith(("-is-input", "-is-proto")):
        assert "is the input file" in err
    assert not (tmp_path / "dir.csv").exists()


def test_module_run_exits_as_main_does(tmp_path, capsys):
    # python -m nbqc.cli runs its command with main's exit codes: 0 for
    # --help, 3 with one stderr line for a missing descriptor
    import nbqc

    missing = ["spectrum", str(tmp_path / "missing.json"), "--depth", "4"]
    with pytest.raises(SystemExit) as shown:
        main(["--help"])
    assert shown.value.code == EXIT_OK
    assert main(missing) == EXIT_INPUT
    capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": str(Path(nbqc.__file__).parents[1])}
    for argv, code in ((["--help"], EXIT_OK), (missing, EXIT_INPUT)):
        run = subprocess.run([sys.executable, "-m", "nbqc.cli", *argv],
                             capture_output=True, text=True, env=env,
                             timeout=120)
        assert run.returncode == code
    assert run.stderr.startswith("error: cannot load descriptor")
    assert run.stderr.count("\n") == 1


def test_cli_import_leaves_the_process_pool_out():
    # only a campaign with workers > 1 imports the pool and multiprocessing
    import nbqc

    env = {**os.environ, "PYTHONPATH": str(Path(nbqc.__file__).parents[1])}
    probe = ("import sys, nbqc.cli; print(sorted(m for m in sys.modules if m "
             "in ('concurrent.futures.process', 'multiprocessing')))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_commands_leave_numpy_ma_out(tmp_path, proto_file):
    # a plain np.unique imports numpy.ma, about 1.1 MiB of RSS that the
    # benchmark's peak_rss_mb would count; no command imports it
    import nbqc

    desc, sim = tmp_path / "code.json", tmp_path / "sim"
    commands = [
        ["construct", "--proto", str(proto_file), "--Z", "3", "--q", "16",
         "--ace-b", "inf,inf", "--ace-nb", "inf,inf,inf", "--seed", "5",
         "--out", str(desc)],
        ["spectrum", str(desc), "--depth", "6", "--nb"],
        ["simulate", str(desc), "--snr", "2", "--max-frames", "4", "--seed",
         "1", "--mode", "random", "--out", str(sim)],
        ["export", str(desc), "--format", "alist",
         "--out", str(tmp_path / "h.alist")],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(nbqc.__file__).parents[1])}
    probe = ("import sys; from nbqc.cli import main\n"
             f"for argv in {commands!r}:\n"
             "    assert main(argv) == 0, argv\n"
             "print('numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_console_script_target_runs_main(monkeypatch, capsys):
    # the tests import the source tree and never start the installed `nbqc`
    # script, so the target that pyproject.toml names is resolved here
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["nbqc"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert callable(entry)
    monkeypatch.setattr(sys, "argv", ["nbqc", "--help"])
    with pytest.raises(SystemExit) as shown:
        entry()
    assert shown.value.code == EXIT_OK
    assert "construct" in capsys.readouterr().out


def test_spelled_infinity_is_the_noiseless_point(tmp_path, proto_file,
                                                 capsys):
    desc = construct_toy(tmp_path, proto_file)
    for i, token in enumerate(["+Infinity", "INF", " inf"]):
        prefix = tmp_path / f"sim{i}"
        assert main(["simulate", str(desc), "--snr", token, "--max-frames",
                     "2", "--seed", "1", "--out", str(prefix)]) == EXIT_OK
        assert (prefix.with_suffix(".csv").read_text().splitlines()[1]
                .startswith("inf,2,0,"))
    capsys.readouterr()


@pytest.mark.parametrize("ace", ["0,0", "auto"])
def test_parallel_edges_over_z_exit_3_before_enumeration(tmp_path, capsys,
                                                         monkeypatch, ace):
    import nbqc.lift

    def enumerate_closed_walks(*args, **kwargs):
        raise AssertionError("enumerated walks")

    monkeypatch.setattr(nbqc.lift, "enumerate_closed_walks",
                        enumerate_closed_walks)
    proto = tmp_path / "parallel.txt"
    proto.write_text("2 2\n1 1\n")
    argv = ["construct", "--proto", str(proto), "--Z", "1", "--q", "4",
            "--ace-b", ace, "--ace-nb", ace, "--seed", "1",
            "--out", str(tmp_path / "code.json")]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: a base cell holds 2 parallel edges, more than the Z=1 "
        "distinct shifts\n")


def test_deep_constraint_exits_3_at_the_prefix_cap(tmp_path, proto_file,
                                                   capsys):
    # 25 binary entries ask for walks up to length 50: about 6.7e7 prefixes
    # on the toy graph, past the enumeration's cap
    argv = ["construct", "--proto", str(proto_file), "--Z", "3", "--q", "16",
            "--ace-b", ",".join(["inf"] * 25), "--ace-nb", "inf,inf,inf",
            "--seed", "5", "--out", str(tmp_path / "code.json")]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "prefixes" in err
    assert not (tmp_path / "code.json").exists()


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("path", ["construct", "descriptor"])
def test_huge_base_cell_exits_3_before_any_protograph(tmp_path, capsys,
                                                      monkeypatch, path):
    # 10**9 parallel edges would be 10**9 edge tuples, about 200 GiB
    from nbqc import protograph

    def refuse(*args):
        raise AssertionError("built a protograph")

    monkeypatch.setattr(protograph, "Protograph", refuse)
    if path == "construct":
        (tmp_path / "cell.txt").write_text(f"{10**9} 1\n1 1\n")
        argv = ["construct", "--proto", str(tmp_path / "cell.txt"), "--Z", "3",
                "--q", "16", "--ace-b", "inf,inf", "--ace-nb", "inf,inf",
                "--seed", "1", "--out", str(tmp_path / "code.json")]
    else:
        desc = json.loads((GOLDEN / "gf16_z9_seed1.json").read_text())
        desc["base_matrix"][0][0] = 10**9
        (tmp_path / "code.json").write_text(json.dumps(desc))
        argv = ["spectrum", str(tmp_path / "code.json"), "--depth", "4"]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "base matrix entry (0, 0) 1000000000" in err


def test_many_edge_cell_exits_3_at_the_prefix_cap_in_seconds(tmp_path, capsys):
    # 2001 edges at variable 0 and at check 0: about 4e9 prefixes of length
    # 3, which the cap's count must refuse without (edges)^3 work
    (tmp_path / "cell.txt").write_text("2000 1\n1 1\n")
    argv = ["construct", "--proto", str(tmp_path / "cell.txt"), "--Z", "65536",
            "--q", "16", "--ace-b", "inf,inf", "--ace-nb", "inf,inf",
            "--seed", "1", "--out", str(tmp_path / "code.json")]
    start = time.process_time()
    assert main(argv) == EXIT_INPUT
    assert time.process_time() - start < 10
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "prefixes" in err


def test_wide_base_matrix_exits_3_at_the_prefix_cap_in_bounded_memory(
        tmp_path, capsys):
    # 40 000 edges of variable degree 2 pass the first level's count; a
    # dense (edges x edges) int64 count would ask for 12.8 GB
    (tmp_path / "wide.txt").write_text(("1 " * 20000 + "\n") * 2)
    argv = ["construct", "--proto", str(tmp_path / "wide.txt"), "--Z", "3",
            "--q", "16", "--ace-b", "inf,inf", "--ace-nb", "inf,inf",
            "--seed", "1", "--out", str(tmp_path / "code.json")]
    start = time.process_time()
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_INPUT
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.process_time() - start < 30
    assert peak < 64 << 20
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "prefixes" in err


def test_walk_lifts_per_command(tmp_path, capsys, monkeypatch):
    # a construct lifts the protograph's walks at the binary depth, then
    # only the walks the NB depth adds for the label stage, whose
    # re-verification reuses that lift; load-verify lifts each walk once
    # too, and a spectrum at the stored NB depth reuses what it computed.
    # Each command takes the total shift of every walk of the NB head
    # (6 056 walks) once, and tests realizability for the 706 whose lift
    # fits the enumerated depth 12
    import nbqc.lift

    lifted, tested = [], []
    lift_shifts = nbqc.lift.lift_shifts

    def counting(table, shifts, Z, start=0, within=None):
        d, realized = lift_shifts(table, shifts, Z, start, within)
        lifted.append(len(table) - start)
        fits = table.length[start:] * (Z // np.gcd(d, Z)) <= within
        tested.append(int(fits.sum()))
        return d, realized

    monkeypatch.setattr(nbqc.lift, "lift_shifts", counting)
    fixtures = Path(__file__).parent / "fixtures"
    desc = tmp_path / "code.json"
    assert main(["construct", "--proto", str(fixtures / "proto_gf16_z9.txt"),
                 "--Z", "9", "--q", "16", "--ace-b", "inf,inf,inf,4",
                 "--ace-nb", "inf,inf,inf,inf,inf,4", "--seed", "1",
                 "--out", str(desc)]) == EXIT_OK
    assert sum(lifted) == 6056 and len(lifted) == 2 and sum(tested) == 706
    lifted.clear()
    tested.clear()
    assert main(["spectrum", str(desc), "--depth", "12", "--nb",
                 "--json"]) == EXIT_OK
    assert sum(lifted) == 6056 and len(lifted) == 2 and sum(tested) == 706
    capsys.readouterr()
    # the kept lift and spectra stay out of pickles, which answer alike
    code, _ = load_descriptor(desc)
    assert code._spectra and code.proto._lifted is not None
    shipped = pickle.loads(pickle.dumps(code))
    assert shipped._spectra == {} and shipped.proto._lifted is None
    for spectrum in (binary_ace_spectrum, nb_ace_spectrum):
        for depth in (8, 12):
            assert spectrum(shipped, depth) == spectrum(code, depth)


def test_chords_of_each_walk_compile_once_per_command(tmp_path, capsys,
                                                      monkeypatch):
    # the label stage's minimality verdicts stay beside the kept lift, so
    # the NB re-verification compiles chords only for walks they lack
    from nbqc.protograph import WalkTable

    asked, chords = [], WalkTable.chords

    def spy(self, proto, ids):
        ids = np.asarray(ids, np.int64)
        assert self.root_ids is None  # a head, whose ids are root ids
        walks = ids[~self.simple_minimal[ids]].tolist()
        asked.extend((id(self.root), w) for w in walks)
        return chords(self, proto, ids)

    monkeypatch.setattr(WalkTable, "chords", spy)
    fixtures = Path(__file__).parent / "fixtures"
    desc = tmp_path / "code.json"
    for argv in (["construct", "--proto", str(fixtures / "proto_gf8_z21.txt"),
                  "--Z", "21", "--q", "8", "--ace-b", "inf,inf,inf,6,2",
                  "--ace-nb", "inf,inf,inf,inf,6,2", "--seed", "1",
                  "--out", str(desc)],
                 ["spectrum", str(desc), "--depth", "12", "--nb"]):
        asked.clear()
        assert main(argv) == EXIT_OK
        assert asked and len(asked) == len(set(asked))
    capsys.readouterr()


def test_wide_base_matrix_constructs_at_depth_2_in_bounded_time_and_memory(
        tmp_path, capsys, monkeypatch):
    # 40 000 edges, each check of degree 20 000: a 2-walk reads only the
    # variable side, so no check-side successor table (sum of deg^2 = 8e8
    # entries) and no prefix count past the first level
    import nbqc.lift

    peaks = []
    enumerate_closed_walks = nbqc.lift.enumerate_closed_walks

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return enumerate_closed_walks(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(nbqc.lift, "enumerate_closed_walks", traced)
    (tmp_path / "wide.txt").write_text(("1 " * 20000 + "\n") * 2)
    argv = ["construct", "--proto", str(tmp_path / "wide.txt"), "--Z", "3",
            "--q", "4", "--ace-b", "0", "--ace-nb", "0", "--seed", "1",
            "--out", str(tmp_path / "code.json")]
    start = time.process_time()
    assert main(argv) == EXIT_OK
    assert time.process_time() - start < 20
    # about 4 MiB; the check-side table alone held 77 MiB at 2000 columns
    assert len(peaks) == 1 and peaks[0] < 32 << 20
    assert capsys.readouterr().out.startswith("binary spectrum (depth 2): (inf)")


def test_walk_enumerations_per_command(tmp_path, proto_file, capsys,
                                       monkeypatch):
    import importlib
    import pkgutil

    import nbqc
    from nbqc import protograph

    original = protograph.enumerate_closed_walks
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs["max_len"])
        return original(*args, **kwargs)

    for info in pkgutil.iter_modules(nbqc.__path__):
        module = importlib.import_module(f"nbqc.{info.name}")
        if getattr(module, "enumerate_closed_walks", None) is original:
            monkeypatch.setattr(module, "enumerate_closed_walks", counting)

    def count(argv):
        calls.clear()
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        return len(calls)

    # binary claims depth 4, NB depth 6: load-verify enumerates once, at 6
    desc = tmp_path / "code.json"
    assert count([
        "construct", "--proto", str(proto_file), "--Z", "3", "--q", "16",
        "--ace-b", "inf,inf", "--ace-nb", "inf,inf,inf",
        "--seed", "5", "--out", str(desc),
    ]) == 1
    # the spectrum answers from load-verify's table unless it asks deeper
    assert count(["spectrum", str(desc), "--depth", "4"]) == 1
    assert calls == [6]
    assert count(["spectrum", str(desc), "--depth", "8", "--nb"]) == 2
    assert calls == [6, 8]
    assert count(["simulate", str(desc), "--snr", "inf", "--max-frames", "1",
                  "--seed", "1", "--out", str(tmp_path / "sim")]) == 1
    calls.clear()
    assert main(["spectrum", str(desc), "--depth", "5"]) == EXIT_INPUT
    assert calls == []


# Argument-vector fuzz: every command must end in exit 0, 2 or 3 and never
# in an exception.  All values are valid except at most one, so the
# commands get past parsing; the odd one is a negative, zero or huge number
# or an odd token.  Caps on work (--max-frames, --max-iters, --max-sweeps,
# --max-restarts) get no huge values, because a huge cap asks for that much
# work.  Walk depths run up to 12, or start at 48, where the toy graph needs
# more walk prefixes than the enumeration's cap allows and the command is
# refused before any prefix grows.  Between them the enumeration does
# seconds of real work (1.3e7 prefixes at depth 46), so the fuzz leaves
# those depths out.  --workers stays at its default, so no process pool is
# started.
HUGE = [10**30, 2**63, 2**40, 1 << 16, (1 << 16) + 1]
TOKENS = ["", "nan", "inf", "-inf", ",", "abc", "1.5", "0x10", "1e300",
          "-1e300", "(inf,4)", "inf,,4", "4,inf,nan"]
NEGATIVE_OR_ZERO = [-(10**30), -(2**63), -1, 0]
WILD = st.one_of(st.integers(-3, 12), st.sampled_from(NEGATIVE_OR_ZERO + HUGE),
                 st.sampled_from(TOKENS)).map(str)
WILD_CAP = st.one_of(st.integers(-3, 5), st.sampled_from(NEGATIVE_OR_ZERO),
                     st.sampled_from(TOKENS)).map(str)
CAPS = ("max_sweeps", "max_restarts", "max_frames", "max_iters")


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _csv(entries, max_size):
    return st.lists(st.sampled_from(entries), min_size=1,
                    max_size=max_size).map(",".join)


def _argv(head, tail, optional=(), **valid):
    """``head``, one ``--name=value`` per option (so a value may start with
    '-'), then ``tail``.  At most one value is wild; options named in
    ``optional`` may be left out."""
    names = list(valid)

    def build(values, keep, bad_at, bad, bad_cap):
        args = []
        for k, (name, value) in enumerate(zip(names, values)):
            if k == bad_at:
                value = bad_cap if name in CAPS else bad
            if keep[k] or name not in optional:
                args.append(f"--{name.replace('_', '-')}={value}")
        return [*head, *args, *tail]

    n = len(names)
    return st.builds(build, st.tuples(*valid.values()),
                     st.lists(st.booleans(), min_size=n, max_size=n),
                     st.integers(-n, n - 1), WILD, WILD_CAP)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    proto = tmp / "proto.txt"
    proto.write_text(TOY_PROTO)
    desc = construct_toy(tmp, proto)
    return proto, desc, tmp


def _fuzz_argv(proto, desc, tmp):
    out = ["--out", str(tmp / "out")]
    depth = st.sampled_from(["2", "4", "6", "8", "10", "12", "48", "64",
                             "512"])
    ace = _csv(["inf", "0", "1", "2", "4"], 5) | st.just("auto")
    construct = _argv(
        ["construct", "--proto", str(proto)], out,
        Z=_ints(1, 12), q=st.sampled_from(["2", "4", "8", "16", "256"]),
        ace_b=ace, ace_nb=ace, seed=_ints(0, 2**64), depth=depth,
        poly=st.sampled_from(["0b111", "0b1011", "0b10011"]),
        # 1785 = 3 * 5 * 7 * 17: a multiple of q - 1 for every q above
        **{"lambda": st.sampled_from(["1785", "3570"])},
        max_sweeps=_ints(1, 4), max_restarts=_ints(1, 4),
        edge_order=st.sampled_from(["fixed", "shuffled"]),
        optional=("depth", "poly", "lambda", "max_sweeps", "max_restarts",
                  "edge_order"))
    kind = st.sampled_from([[], ["--nb"], ["--binary"], ["--json"],
                            ["--nb", "--json"], ["--nb", "--binary"]])
    spectrum = st.tuples(_argv(["spectrum", str(desc)], [], depth=depth),
                         kind).map(lambda t: t[0] + t[1])
    export = _argv(["export", str(desc)], out, format=st.sampled_from(
        ["alist", "nb-alist", "base-matrix"]))
    simulate = _argv(
        ["simulate", str(desc)], out,
        snr=_csv(["inf", "-2", "0", "1.4", "3"], 3), max_frames=_ints(1, 2),
        max_iters=_ints(1, 5), min_block_errors=_ints(1, 10**6),
        seed=_ints(0, 2**64), mode=st.sampled_from(["zero", "random"]),
        optional=("max_iters", "min_block_errors", "mode"))
    return st.one_of(construct, spectrum, export, simulate)


def test_fuzzed_argv_exit_codes(fuzz_files):
    proto, desc, tmp = fuzz_files

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_fuzz_argv(proto, desc, tmp))
    def run(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (EXIT_OK, EXIT_CONSTRAINT, EXIT_INPUT), argv
        assert "Traceback" not in err.getvalue()

    run()


# Descriptor fuzz: one mutation of a golden descriptor, then every command
# that loads one.  Each must end in exit 0, 2 or 3, an exit 3 with one
# stderr line, and a descriptor that loads must write back to itself.
ODD_VALUES = [True, False, None, 1.0, 4.5, -1, -(2**63), 10**9, 2**63, 10**30,
              "7", [], [1], {}, {"r": 4}, [[1, [2.0]]]]


def _drawn_path(data, desc):
    """The key path to a value inside ``desc``, drawn a level at a time,
    so the few top-level fields are hit as often as the many edges."""
    node, path = desc, []
    while isinstance(node, (dict, list)) and node:
        path.append(data.draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node)))))
        node = node[path[-1]]
        if data.draw(st.booleans()):
            break
    return path


def _retyped(value):
    """The same value in other JSON types."""
    if isinstance(value, bool):
        return [int(value), str(value)]
    if isinstance(value, int):
        return [float(value), str(value), [value], value > 0]
    if isinstance(value, str):
        return [[value], {value: value}, len(value)]
    if isinstance(value, list):
        return [dict(enumerate(value)), tuple(value)[:1] or None]
    if isinstance(value, dict):
        return [list(value.values()), list(value)]
    return [str(value), [value]]


def _mutant(data, text: str) -> str:
    """``text`` with one key dropped, one value retyped, one odd value
    written over or inserted, or its tail cut off."""
    kind = data.draw(st.sampled_from(["drop", "retype", "odd", "insert",
                                      "truncate"]))
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    desc = json.loads(text)
    *head, key = _drawn_path(data, desc)
    parent = functools.reduce(operator.getitem, head, desc)
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = data.draw(st.sampled_from(_retyped(parent[key])))
    elif kind == "insert" and isinstance(parent, list):
        parent.insert(key, data.draw(st.sampled_from(ODD_VALUES)))
    else:
        parent[key] = data.draw(st.sampled_from(ODD_VALUES))
    return json.dumps(desc)


def test_fuzzed_descriptors_exit_codes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("descriptors")
    texts = [(GOLDEN / f"{name}.json").read_text() for name in (
        "gf16_z9_seed1", "gf16_z9_auto_d10_seed1", "gf8_z21_seed1")]
    path = tmp / "mutant.json"
    commands = [
        ["spectrum", str(path), "--depth", "4"],
        ["export", str(path), "--format", "nb-alist", "--out", str(tmp / "H")],
        ["simulate", str(path), "--snr", "inf", "--max-frames", "1",
         "--seed", "1", "--out", str(tmp / "sim")],
    ]

    @settings(max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def run(data):
        path.write_text(_mutant(data, data.draw(st.sampled_from(texts))))
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = main(argv)
            err = err.getvalue()
            assert rc in (EXIT_OK, EXIT_CONSTRAINT, EXIT_INPUT), (argv, err)
            assert "Traceback" not in err
            if rc == EXIT_INPUT:
                assert err.startswith("error: ") and err.count("\n") == 1, err
        if rc == EXIT_OK:
            code, _ = load_descriptor(path)
            text = json.dumps(code.to_json_dict())
            assert QcCode.from_json_dict(json.loads(text)).digest() == code.digest()

    run()
