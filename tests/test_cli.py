import json

import pytest

from nbqc.cli import EXIT_CONSTRAINT, EXIT_INPUT, EXIT_OK, main
from nbqc.codec import SparseGfMatrix
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
    proto.write_text("2\n")  # two parallel edges, Z=1: uncancelable 2-cycle
    rc = main([
        "construct", "--proto", str(proto), "--Z", "1", "--q", "4",
        "--ace-b", "inf", "--ace-nb", "inf",
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
    H = SparseGfMatrix.from_entries(
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
    H = SparseGfMatrix.from_entries(1, 2, [(0, 0, 1), (0, 1, 3)], gf4)
    text = write_nb_alist(H)
    lines = text.splitlines()
    assert lines[0] == "2 1 4"
    # alpha-exponent + 1: value 1 = alpha^0 -> 1; value 3 = alpha^2 -> 3
    assert lines[-1].split() == ["1", "1", "2", str(gf4.log_alpha(3) + 1)]
    assert read_nb_alist(text, gf4) == H


def test_binary_export_of_nb_code_equals_mother(tmp_path, proto_file, capsys):
    out = construct_toy(tmp_path, proto_file)
    capsys.readouterr()
    code, _ = load_descriptor(out)
    assert export_code(code, "alist") == write_alist(expand_binary(code))


def test_nb_alist_requires_labels(gf16):
    proto = from_base_matrix([[1, 1], [1, 1]])
    code = QcCode(proto, 2, gf16, {e: e % 2 for e in range(4)})
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
    code = QcCode(proto, 3, gf16, {0: 1, 1: 0, 2: 0, 3: 0},
                  {0: 1, 1: 2, 2: 3, 3: 4})
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(code.to_json_dict()))
    loaded, meta = load_descriptor(path)
    assert loaded.to_json_dict() == code.to_json_dict()
    assert meta == {}


def test_save_load_descriptor_roundtrip(tmp_path, gf16):
    proto = from_base_matrix([[1, 1], [1, 1]])
    code = QcCode(proto, 3, gf16, {0: 1, 1: 0, 2: 0, 3: 0},
                  {0: 1, 1: 2, 2: 3, 3: 4})
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
    assert set(code.labels.values()) == {0}
    rc = main([
        "simulate", str(out), "--snr", "inf", "--max-frames", "5",
        "--min-block-errors", "1", "--seed", "2",
        "--out", str(tmp_path / "bsim"),
    ])
    assert rc == EXIT_OK
    assert ",5,0," in (tmp_path / "bsim.csv").read_text()


def _bad_input_argv(tmp_path, desc):
    construct = ["construct", "--proto", str(tmp_path / "proto.txt"),
                 "--q", "16", "--ace-b", "inf,inf", "--ace-nb", "inf,inf",
                 "--seed", "1"]
    simulate = ["simulate", str(desc), "--max-frames", "2", "--seed", "1"]
    out = str(tmp_path / "x.json")
    nowhere = str(tmp_path / "missing-dir" / "x")
    return {
        "Z0": construct + ["--Z", "0", "--out", out],
        "max-sweeps0": construct + ["--Z", "3", "--max-sweeps", "0",
                                    "--out", out],
        "max-restarts0": construct + ["--Z", "3", "--max-restarts", "0",
                                      "--out", out],
        "overflow": construct + ["--Z", "3", "--out", out],
        "construct-out": construct + ["--Z", "3", "--out", nowhere],
        "snr-abc": simulate + ["--snr", "abc", "--out", out],
        "snr-nan": simulate + ["--snr", "nan", "--out", out],
        "snr-minus-inf": simulate + ["--snr=-inf", "--out", out],
        "workers0": simulate + ["--snr", "inf", "--workers", "0",
                                "--out", out],
        "env-workers": simulate + ["--snr", "inf", "--out", out],
        "simulate-out": simulate + ["--snr", "inf", "--out", nowhere],
        "export-out": ["export", str(desc), "--format", "alist",
                       "--out", nowhere],
        "spectrum-depth": ["spectrum", str(desc), "--depth", "5"],
    }


@pytest.mark.parametrize("case", [
    "Z0", "max-sweeps0", "max-restarts0", "overflow", "construct-out",
    "snr-abc", "snr-nan", "snr-minus-inf", "workers0", "env-workers",
    "simulate-out", "export-out", "spectrum-depth",
])
def test_bad_inputs_exit_3_with_one_line(tmp_path, proto_file, capsys,
                                         monkeypatch, case):
    import nbqc.cli
    from nbqc.protograph import WalkEnumerationOverflow

    desc = construct_toy(tmp_path, proto_file)
    capsys.readouterr()
    if case == "env-workers":
        monkeypatch.setenv("NBQC_WORKERS", "two")
    if case == "overflow":
        def overflow(*args, **kwargs):
            raise WalkEnumerationOverflow("more than 5 closed-walk classes")
        monkeypatch.setattr(nbqc.cli, "enumerate_closed_walks", overflow)
    assert main(_bad_input_argv(tmp_path, desc)[case]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
    assert count(["spectrum", str(desc), "--depth", "4"]) == 2
    assert calls == [6, 4]
    assert count(["simulate", str(desc), "--snr", "inf", "--max-frames", "1",
                  "--seed", "1", "--out", str(tmp_path / "sim")]) == 1
    calls.clear()
    assert main(["spectrum", str(desc), "--depth", "5"]) == EXIT_INPUT
    assert calls == []
