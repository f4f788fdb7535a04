"""Span tracing for the benchmark's traced passes.

The tracer wraps public nbqc callables at every module-level binding a
caller looks up (``enumerate_closed_walks`` is bound separately in ``cli``,
``lift`` and ``optimize``, so it is wrapped in all three) and records one
span per call in memory: name, start, end, parent span, command id and a
small attribute taken from the call's result.  Nothing in the package is
edited; the wrappers are set on the imported modules for one pass and the
originals are restored afterwards.

Per-layer metrics and self times are derived from the spans alone, so a
trace file written at the end of a run can be re-read to reproduce them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time

LAYERS = ("protograph", "lift", "optimize", "codec", "simulate",
          "io_formats", "cli")

COMMAND_SPAN = "cli.main"
SEARCH_SPAN = "optimize.spectrum_search"


def _walks_attr(args, kwargs, result):
    depth = args[1] if len(args) > 1 else kwargs["max_len"]
    return [depth, len(result)]


def _optimize_attr(args, kwargs, result):
    return [int(result.success), result.sweeps_used, result.restarts_used]


def _campaign_attr(args, kwargs, result):
    return [sum(p.frames for p in result.points),
            sum(p.block_errors for p in result.points)]


def _file_size_attr(args, kwargs, result):
    return os.path.getsize(args[0])


# (modules holding a binding the callers look up, attribute, span name,
#  attribute extractor)
FUNCTIONS = (
    (("cli", "lift", "optimize"), "enumerate_closed_walks",
     "protograph.enumerate_closed_walks", _walks_attr),
    (("lift", "optimize"), "lift_cycle", "lift.lift_cycle",
     lambda a, k, r: int(r.realized)),
    (("optimize",), "lift_is_minimal", "lift.lift_is_minimal", None),
    (("cli", "io_formats", "optimize"), "binary_ace_spectrum",
     "lift.binary_ace_spectrum", None),
    (("cli", "io_formats", "optimize"), "nb_ace_spectrum",
     "lift.nb_ace_spectrum", None),
    (("io_formats", "simulate"), "expand", "lift.expand", None),
    (("optimize",), "find_problematic_binary",
     "optimize.find_problematic_binary", lambda a, k, r: len(r.cycles)),
    (("cli", "optimize"), "assign_shifts", "optimize.assign_shifts",
     _optimize_attr),
    (("cli", "optimize"), "assign_labels", "optimize.assign_labels",
     _optimize_attr),
    (("cli",), "spectrum_search", SEARCH_SPAN, None),
    (("codec",), "fwht", "codec.fwht", None),
    (("simulate",), "channel_priors", "simulate.channel_priors", None),
    (("cli",), "run_campaign", "simulate.run_campaign", _campaign_attr),
    (("cli",), "save_descriptor", "io_formats.save_descriptor",
     _file_size_attr),
    (("cli",), "load_descriptor", "io_formats.load_descriptor",
     _file_size_attr),
)

# (module, class, method, span name, attribute extractor); callers reach
# these through the class, so the class attribute is the binding.
METHODS = (
    ("codec", "QspaDecoder", "decode", "codec.QspaDecoder.decode",
     lambda a, k, r: [r.iterations_used, int(r.converged)]),
    ("codec", "QspaDecoder", "syndrome_is_zero",
     "codec.QspaDecoder.syndrome_is_zero", None),
    ("codec", "Encoder", "__init__", "codec.Encoder.__init__", None),
    ("codec", "Encoder", "encode", "codec.Encoder.encode", None),
)


class SpanStore:
    """In-memory spans of one traced pass.

    A span is ``(name, start, end, parent, command, attr)``; ``parent`` is
    the index of the enclosing span or -1.  Spans are stored in call order,
    so a parent always precedes its children.
    """

    def __init__(self):
        self.spans: list = []
        self.commands: list[list[str]] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attr=None):
        spans, stack, commands = self.spans, self._stack, self.commands
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                value = attr(args, kwargs, result) if done and attr else None
                spans[idx] = (name, start, end, parent, len(commands) - 1,
                              value)

        return traced

    def run_command(self, main, argv):
        """Run one CLI command as the root span of a new command id."""
        self.commands.append(list(argv))
        return self.wrap(COMMAND_SPAN, main, lambda a, k, r: r)(argv)


@contextlib.contextmanager
def installed(store: SpanStore):
    """Route every traced binding through ``store`` for the with-block."""
    saved = []
    try:
        for owners, attr, name, extract in FUNCTIONS:
            for owner in owners:
                module = importlib.import_module(f"nbqc.{owner}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, store.wrap(name, original, extract))
        for owner, cls_name, attr, name, extract in METHODS:
            cls = getattr(importlib.import_module(f"nbqc.{owner}"), cls_name)
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, store.wrap(name, original, extract))
        yield store
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


def _percentile(values, share):
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return float(ordered[int(rank) - 1])


def _ratio(num, den):
    return num / den if den else 0.0


def self_times(spans) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _cmd, _attr in spans:
        if parent >= 0:
            child[parent] += end - start
    layers = dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, _p, _c, _a) in enumerate(spans):
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + (end - start) - child[i]
    return layers


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one pass, from its spans alone.

    ``*_s`` metrics are inclusive wall time summed over the outermost spans
    of that name; ``<layer>.self_s`` excludes every traced child.  A layer
    that the workload never enters reports 0.
    """
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def outermost(i):
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    def total(name):
        return sum((spans[i][2] - spans[i][1] for i in by_name.get(name, ())
                    if outermost(i)), 0.0)

    def calls(name):
        return len(by_name.get(name, ()))

    def attrs(name):
        return [spans[i][5] for i in by_name.get(name, ())
                if spans[i][5] is not None]

    def in_search(i):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == SEARCH_SPAN:
                return True
            p = spans[p][3]
        return False

    walks = attrs("protograph.enumerate_closed_walks")
    opt = (attrs("optimize.assign_shifts")
           + attrs("optimize.assign_labels"))
    search_shifts = [i for i in by_name.get("optimize.assign_shifts", ())
                     if in_search(i)]
    search_adopted = [i for i in by_name.get("optimize.assign_labels", ())
                      if in_search(i) and spans[i][5] and spans[i][5][0]]
    decodes = by_name.get("codec.QspaDecoder.decode", ())
    decode_ms = [1000.0 * (spans[i][2] - spans[i][1]) for i in decodes]
    iters = [spans[i][5][0] for i in decodes if spans[i][5]]
    converged = [spans[i][5][1] for i in decodes if spans[i][5]]
    campaigns = attrs("simulate.run_campaign")

    m = {
        "protograph.enumerate_s": total("protograph.enumerate_closed_walks"),
        "protograph.enumerate_calls": calls(
            "protograph.enumerate_closed_walks"),
        "protograph.walks": sum(n for _d, n in walks),
        "lift.lift_cycle_s": total("lift.lift_cycle"),
        "lift.lift_cycle_calls": calls("lift.lift_cycle"),
        "lift.realized_ratio": _ratio(sum(attrs("lift.lift_cycle")),
                                      calls("lift.lift_cycle")),
        "lift.spectrum_s": (total("lift.binary_ace_spectrum")
                            + total("lift.nb_ace_spectrum")),
        "lift.spectrum_calls": (calls("lift.binary_ace_spectrum")
                                + calls("lift.nb_ace_spectrum")),
        "lift.expand_s": total("lift.expand"),
        "optimize.problematic_s": total("optimize.find_problematic_binary"),
        "optimize.problematic_walks": sum(
            attrs("optimize.find_problematic_binary")),
        "optimize.assign_shifts_s": total("optimize.assign_shifts"),
        "optimize.assign_labels_s": total("optimize.assign_labels"),
        "optimize.sweeps": sum(a[1] for a in opt),
        "optimize.restarts": sum(a[2] for a in opt),
        "optimize.search_attempts": len(search_shifts),
        "optimize.search_adopted_ratio": _ratio(len(search_adopted),
                                                len(search_shifts)),
        "codec.decode_ms_p50": _percentile(decode_ms, 0.50),
        "codec.decode_ms_p95": _percentile(decode_ms, 0.95),
        "codec.iterations_mean": _ratio(sum(iters), len(iters)),
        "codec.iterations_p95": _percentile(iters, 0.95),
        "codec.iter_ms": _ratio(sum(decode_ms), sum(iters)),
        "codec.converged_ratio": _ratio(sum(converged), len(converged)),
        "codec.fwht_s": total("codec.fwht"),
        "codec.fwht_calls": calls("codec.fwht"),
        "codec.syndrome_s": total("codec.QspaDecoder.syndrome_is_zero"),
        "codec.encode_s": total("codec.Encoder.encode"),
        "codec.encoder_build_s": total("codec.Encoder.__init__"),
        "codec.encoder_build_calls": calls("codec.Encoder.__init__"),
        "simulate.run_campaign_s": total("simulate.run_campaign"),
        "simulate.channel_priors_s": total("simulate.channel_priors"),
        "simulate.frames": sum(a[0] for a in campaigns),
        "simulate.block_errors": sum(a[1] for a in campaigns),
        "io_formats.save_s": total("io_formats.save_descriptor"),
        "io_formats.load_verify_s": total("io_formats.load_descriptor"),
        "io_formats.descriptor_bytes": (
            sum(attrs("io_formats.save_descriptor"))
            + sum(attrs("io_formats.load_descriptor"))),
    }
    for layer, seconds in self_times(spans).items():
        m[f"{layer}.self_s"] = seconds
    return m


def walks_by_depth(spans) -> dict[str, int]:
    """Walk records returned per requested enumeration depth."""
    out: dict[str, int] = {}
    for span in spans:
        if span[0] == "protograph.enumerate_closed_walks" and span[5]:
            depth, n = span[5]
            out[str(depth)] = out.get(str(depth), 0) + n
    return out


def is_count(metric: str) -> bool:
    """Counts and ratios of counts repeat exactly for a fixed seed."""
    return not (metric.endswith("_s") or "_ms" in metric
                or metric.startswith("trace."))
