"""Command-line surface: construct, spectrum, simulate, export.

Exit codes are a stable scripting contract: 0 success, 2 constraint
failure (the optimizer exhausted its caps), 3 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .gf import Field, min_lambda
from .io_formats import (
    build_descriptor,
    export_code,
    load_descriptor,
    read_base_matrix,
    save_descriptor,
)
from .lift import (
    AceConstraint,
    QcCode,
    WalkTable,
    binary_ace_spectrum,
    nb_ace_spectrum,
)
from .optimize import (
    OptimizerConfig,
    assign_labels,
    assign_shifts,
    spectrum_search,
)
from .protograph import (
    WalkEnumerationOverflow,
    enumerate_closed_walks,
    from_base_matrix,
)
from .simulate import SimConfig, run_campaign

EXIT_OK = 0
EXIT_CONSTRAINT = 2
EXIT_INPUT = 3


class CliInputError(Exception):
    pass


class ConstraintFailure(Exception):
    def __init__(self, stage: str, report: dict):
        super().__init__(f"{stage} constraint not achieved")
        self.stage = stage
        self.report = report


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


def _cmd_construct(args) -> int:
    try:
        rows = read_base_matrix(args.proto)
        proto = from_base_matrix(rows)
    except (OSError, ValueError, KeyError) as exc:
        raise CliInputError(f"cannot load protograph: {exc}") from exc
    if args.q < 2 or args.q & (args.q - 1):
        raise CliInputError(f"field size {args.q} is not a power of two")
    try:
        field = Field(args.q.bit_length() - 1, args.poly)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    if args.Z < 1:
        raise CliInputError("--Z must be >= 1")
    lam = args.lambda_mult
    if lam is None:
        lam = min_lambda(args.q, args.Z)
    elif lam < 1 or (lam * args.Z) % (args.q - 1) != 0:
        raise CliInputError(
            f"lambda={lam} violates (q-1) | lambda*Z for q={args.q}, Z={args.Z}"
        )
    try:
        cfg = OptimizerConfig(
            rng_seed=args.seed,
            max_sweeps=args.max_sweeps,
            max_restarts=args.max_restarts,
            edge_order_policy=args.edge_order,
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    ace_b = _parse_constraint(args.ace_b)
    ace_nb = _parse_constraint(args.ace_nb)
    if (ace_b is None) != (ace_nb is None):
        raise CliInputError("--ace-b and --ace-nb must both be 'auto' "
                            "or both explicit")

    if ace_b is None:
        if args.depth < 2 or args.depth % 2:
            raise CliInputError("--depth must be an even integer >= 2")
        search = spectrum_search(proto, args.Z, field, cfg, args.depth,
                                 lambda_mult=lam)
        code = search.best.code
        achieved_b, achieved_nb = search.best.binary, search.best.nb
    else:
        for i in ace_b.lengths():
            if i <= ace_nb.depth and ace_nb.values[i] < ace_b.values[i]:
                raise CliInputError(
                    f"NB constraint at length {i} is below the binary "
                    "constraint; the NB spectrum can only dominate the "
                    "binary one"
                )
        depth = max(ace_b.depth, ace_nb.depth)
        walks = WalkTable(proto, enumerate_closed_walks(proto, depth))
        shift_res = assign_shifts(proto, args.Z, ace_b, cfg, walks=walks)
        if not shift_res.success:
            raise ConstraintFailure("shift-assignment",
                                    shift_res.to_json_dict())
        code = QcCode(proto, args.Z, field, shift_res.assignment, None, lam)
        label_res = assign_labels(code, ace_nb, cfg, walks=walks)
        if not label_res.success:
            raise ConstraintFailure("label-assignment",
                                    label_res.to_json_dict())
        code = code.with_labels(label_res.assignment)
        achieved_b = binary_ace_spectrum(code, ace_b.depth, walks=walks)
        achieved_nb = nb_ace_spectrum(code, ace_nb.depth, walks=walks)

    desc = build_descriptor(code, args.seed, achieved_b, achieved_nb)
    save_descriptor(args.out, desc)
    print(f"binary spectrum (depth {achieved_b.depth}): {achieved_b.format()}")
    print(f"nb spectrum (depth {achieved_nb.depth}): {achieved_nb.format()}")
    print(f"descriptor written to {args.out}")
    return EXIT_OK


def _load_code(path) -> QcCode:
    try:
        code, _meta = load_descriptor(path)
    except (OSError, ValueError) as exc:
        raise CliInputError(f"cannot load descriptor: {exc}") from exc
    return code


def _cmd_spectrum(args) -> int:
    if args.depth < 2 or args.depth % 2:
        raise CliInputError("--depth must be an even integer >= 2")
    code = _load_code(args.code)
    if args.nb:
        if code.labels is None:
            raise CliInputError("descriptor carries no labels; "
                                "the NB spectrum is undefined")
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
    if args.workers < 1:
        raise CliInputError("--workers must be >= 1")
    code = _load_code(args.code)
    try:
        snr_points = [float(tok) for tok in args.snr.split(",")]
        cfg = SimConfig(
            snr_points_db=tuple(snr_points),
            max_frames=args.max_frames,
            min_block_errors=args.min_block_errors,
            max_iters=args.max_iters,
            seed=args.seed,
            mode="all-zero" if args.mode == "zero" else "random-message",
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    result = run_campaign(code, cfg, workers=args.workers)
    csv_path = Path(f"{args.out}.csv")
    json_path = Path(f"{args.out}.json")
    csv_path.write_text(result.to_csv(), encoding="utf-8")
    json_path.write_text(
        json.dumps(result.to_json_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def _cmd_export(args) -> int:
    code = _load_code(args.code)
    try:
        text = export_code(code, args.format)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
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
    # an unwritable output path and a walk count past the record cap are
    # input errors like a malformed argument
    except (CliInputError, OSError, WalkEnumerationOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConstraintFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"stage": exc.stage, **exc.report}, sort_keys=True),
              file=sys.stderr)
        return EXIT_CONSTRAINT


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
