"""Command-line surface: construct, spectrum, simulate, export.

Exit codes are a stable scripting contract: 0 success, 2 constraint
failure (the optimizer exhausted its caps), 3 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path

from .codec import RankDeficiencyError
from .gf import Field, checked_depth, checked_int
from .io_formats import (
    build_descriptor,
    export_code,
    load_descriptor,
    read_base_matrix,
    save_descriptor,
)
from .lift import AceConstraint, QcCode, binary_ace_spectrum, nb_ace_spectrum
from .optimize import (  # assign_*: traced by perfbench/spans.py
    ConstructionFailure,
    OptimizerConfig,
    assign_labels,
    assign_shifts,
    check_parallel_edges,
    construct,
    spectrum_search,
)
from .protograph import (  # enumerate_closed_walks: traced by perfbench/spans.py
    WalkEnumerationOverflow,
    enumerate_closed_walks,
    from_base_matrix,
)
from .simulate import MAX_SNR_DB, DesignRateError, SimConfig, run_campaign

EXIT_OK = 0
EXIT_CONSTRAINT = 2
EXIT_INPUT = 3


class CliInputError(Exception):
    pass


@contextlib.contextmanager
def _input_errors():
    """A ValueError raised in the block, such as a failed check on a value
    the user gave, is an input error."""
    try:
        yield
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nbqc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="two-stage shift/label construction")
    c.add_argument("--proto", required=True, help="base matrix file (text or JSON)")
    c.add_argument("--Z", type=int, required=True, help="lifting order")
    c.add_argument("--q", type=int, required=True, help="field size 2^r")
    c.add_argument("--poly", type=lambda s: int(s, 0), default=None,
                   help="primitive polynomial bitmask (e.g. 0b10011)")
    c.add_argument("--lambda", dest="lambda_mult", type=int, default=None,
                   help="global MCPM multiplier; default is the minimum "
                        "admissible value")
    c.add_argument("--ace-b", required=True,
                   help="binary ACE constraint 'inf,inf,4' or 'auto'")
    c.add_argument("--ace-nb", required=True,
                   help="NB ACE constraint 'inf,inf,4' or 'auto'")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--depth", type=int, default=8,
                   help="search depth for auto mode (even)")
    c.add_argument("--max-sweeps", type=int, default=50)
    c.add_argument("--max-restarts", type=int, default=20)
    c.add_argument("--edge-order", choices=["fixed", "shuffled"],
                   default="shuffled")
    c.add_argument("--out", "-o", required=True, help="descriptor output path")

    s = sub.add_parser("spectrum", help="ACE spectrum of a code descriptor")
    s.add_argument("code", help="descriptor file")
    s.add_argument("--depth", type=int, required=True)
    kind = s.add_mutually_exclusive_group()
    kind.add_argument("--binary", action="store_true",
                      help="binary mother-matrix spectrum (default)")
    kind.add_argument("--nb", action="store_true", help="NB spectrum")
    s.add_argument("--json", action="store_true", help="emit JSON")

    m = sub.add_parser("simulate", help="BPSK-AWGN Monte-Carlo campaign")
    m.add_argument("code", help="descriptor file")
    m.add_argument("--snr", required=True,
                   help="comma-separated Eb/N0 points in dB ('inf' = noiseless)")
    m.add_argument("--max-frames", type=int, required=True)
    m.add_argument("--min-block-errors", type=int, default=100)
    m.add_argument("--max-iters", type=int, default=80)
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--mode", choices=["zero", "random"], default="zero")
    # a string default goes through type=int, so a bad NBQC_WORKERS is an
    # input error like a bad --workers
    m.add_argument("--workers", type=int,
                   default=os.environ.get("NBQC_WORKERS", "1"))
    m.add_argument("--out", "-o", required=True,
                   help="output prefix; writes <prefix>.csv and <prefix>.json")

    e = sub.add_parser("export", help="write H in an interchange format")
    e.add_argument("code", help="descriptor file")
    e.add_argument("--format", required=True,
                   choices=["alist", "nb-alist", "base-matrix"])
    e.add_argument("--out", "-o", required=True)
    return parser


def _parse_constraint(text: str) -> AceConstraint | None:
    if text.strip().lower() == "auto":
        return None
    try:
        return AceConstraint.parse(text)
    except ValueError as exc:
        raise CliInputError(f"bad ACE constraint {text!r}: {exc}") from exc


def _check_outputs(*paths) -> None:
    """Refuse output paths that cannot be written, before any work: a
    parent that is missing or not a directory, or a path that is one."""
    for path in map(Path, paths):
        if not path.parent.is_dir():
            raise CliInputError(f"output directory {path.parent} is missing "
                                "or not a directory")
        if path.is_dir():
            raise CliInputError(f"output path {path} is a directory")


def _cmd_construct(args) -> int:
    _check_outputs(args.out)
    try:
        rows = read_base_matrix(args.proto)
        proto = from_base_matrix(rows)
    except (OSError, ValueError, KeyError) as exc:
        raise CliInputError(f"cannot load protograph: {exc}") from exc
    if args.q < 2 or args.q & (args.q - 1):
        raise CliInputError(f"field size {args.q} is not a power of two")
    with _input_errors():
        field = Field(args.q.bit_length() - 1, args.poly)
        # the unshifted code checks Z, lambda and the protograph, and no
        # cell holds more parallel edges than Z: once, before any search
        lam = QcCode(proto, args.Z, field, [0] * proto.n_edges, None,
                     args.lambda_mult).lambda_mult
        check_parallel_edges(proto, args.Z)
        cfg = OptimizerConfig(
            rng_seed=args.seed,
            max_sweeps=args.max_sweeps,
            max_restarts=args.max_restarts,
            edge_order_policy=args.edge_order,
        )
    ace_b = _parse_constraint(args.ace_b)
    ace_nb = _parse_constraint(args.ace_nb)
    if (ace_b is None) != (ace_nb is None):
        raise CliInputError("--ace-b and --ace-nb must both be 'auto' "
                            "or both explicit")

    if ace_b is None:
        with _input_errors():
            checked_depth(args.depth, "--depth")
            found = spectrum_search(proto, args.Z, field, cfg, args.depth,
                                    lambda_mult=lam)
    else:
        for i in ace_b.lengths():
            if i <= ace_nb.depth and ace_nb.values[i] < ace_b.values[i]:
                raise CliInputError(
                    f"NB constraint at length {i} is below the binary "
                    "constraint; the NB spectrum can only dominate the "
                    "binary one"
                )
        found = construct(proto, args.Z, field, ace_b, ace_nb, cfg, lam)

    desc = build_descriptor(found.code, args.seed, found.binary, found.nb)
    save_descriptor(args.out, desc)
    for name, spec in (("binary", found.binary), ("nb", found.nb)):
        print(f"{name} spectrum (depth {spec.depth}): {spec.format()}")
    print(f"descriptor written to {args.out}")
    return EXIT_OK


def _load_code(path) -> QcCode:
    try:
        code, _meta = load_descriptor(path)
    except (OSError, ValueError) as exc:
        raise CliInputError(f"cannot load descriptor: {exc}") from exc
    return code


def _require_labels(code: QcCode, what: str) -> None:
    if code.labels is None:
        raise CliInputError(f"descriptor carries no labels; {what}")


def _snr_point(token: str) -> float:
    """An Eb/N0 point in dB; only a token spelling infinity is noiseless."""
    value = float(token)
    if math.isinf(value) and token.strip().lower().lstrip("+-") not in (
            "inf", "infinity"):
        raise ValueError(f"SNR point {token.strip()} dB is outside "
                         f"[-{MAX_SNR_DB}, {MAX_SNR_DB}]")
    return value


def _cmd_spectrum(args) -> int:
    with _input_errors():
        checked_depth(args.depth, "--depth")  # before load-verify enumerates
    code = _load_code(args.code)
    if args.nb:
        _require_labels(code, "the NB spectrum is undefined")
        spec = nb_ace_spectrum(code, args.depth)
    else:
        spec = binary_ace_spectrum(code, args.depth)
    if args.json:
        print(json.dumps({"depth": spec.depth, "values": spec.to_json_list()},
                         sort_keys=True))
    else:
        print(spec.format())
    return EXIT_OK


def _cmd_simulate(args) -> int:
    csv_path = Path(f"{args.out}.csv")
    json_path = Path(f"{args.out}.json")
    _check_outputs(csv_path, json_path)
    with _input_errors():
        checked_int(args.workers, "--workers", 1)
    code = _load_code(args.code)
    _require_labels(code, "there is no NB code to simulate")
    with _input_errors():
        snr_points = [_snr_point(tok) for tok in args.snr.split(",")]
        cfg = SimConfig(
            snr_points_db=tuple(snr_points),
            max_frames=args.max_frames,
            min_block_errors=args.min_block_errors,
            max_iters=args.max_iters,
            seed=args.seed,
            mode="all-zero" if args.mode == "zero" else "random-message",
        )
    try:
        result = run_campaign(code, cfg, workers=args.workers)
    except (RankDeficiencyError, DesignRateError) as exc:
        raise CliInputError(str(exc)) from exc
    csv_path.write_text(result.to_csv(), encoding="utf-8")
    json_path.write_text(
        json.dumps(result.to_json_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def _cmd_export(args) -> int:
    _check_outputs(args.out)
    code = _load_code(args.code)
    with _input_errors():
        text = export_code(code, args.format)
    Path(args.out).write_text(text, encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "construct": _cmd_construct,
    "spectrum": _cmd_spectrum,
    "simulate": _cmd_simulate,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    # an unwritable output path and a walk search past the prefix cap are
    # input errors like a malformed argument
    except (CliInputError, OSError, WalkEnumerationOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConstructionFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"stage": exc.stage, **exc.result.to_json_dict()},
                         sort_keys=True), file=sys.stderr)
        return EXIT_CONSTRAINT


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
