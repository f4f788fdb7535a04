"""The benchmark's span tracer finds every binding it wraps.

``perfbench/spans.py`` looks its bindings up by name when a traced pass
starts, so a binding renamed or dropped from an ``nbqc`` module breaks
``perfbench/run.py --trace 1`` while every other test still passes.  Its
attribute extractors read the results of the calls they wrap, so a changed
return type breaks them the same way.
"""

import importlib
import importlib.util
from pathlib import Path

from nbqc.gf import Field
from nbqc.lift import AceConstraint, QcCode
from nbqc.optimize import (OptimizerConfig, assign_labels, assign_shifts,
                           find_problematic_binary)
from nbqc.protograph import enumerate_closed_walks, from_base_matrix

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_is_wrapped_and_restored():
    spans = _load_spans()
    targets = [(importlib.import_module(f"nbqc.{owner}"), attr)
               for owners, attr, *_ in spans.FUNCTIONS for owner in owners]
    targets += [(getattr(importlib.import_module(f"nbqc.{owner}"), cls), attr)
                for owner, cls, attr, *_ in spans.METHODS]
    originals = [target.__dict__[attr] for target, attr in targets]
    with spans.installed(spans.SpanStore()):
        for (target, attr), original in zip(targets, originals):
            wrapped = target.__dict__[attr]
            assert wrapped is not original, (target.__name__, attr)
            assert wrapped.__wrapped__ is original, (target.__name__, attr)
    for (target, attr), original in zip(targets, originals):
        assert target.__dict__[attr] is original, (target.__name__, attr)


def _extractor(spans, attr):
    return next(extract for _, name, _, extract in spans.FUNCTIONS
                if name == attr)


def test_extractors_read_real_results():
    spans = _load_spans()
    # K(3,3): nine 4-cycles of ACE 2 and six 6-cycles of ACE 3
    proto = from_base_matrix([[1, 1, 1]] * 3)
    walks = enumerate_closed_walks(proto, 6)
    assert _extractor(spans, "enumerate_closed_walks")(
        (proto, 6), {}, walks) == [6, sum(1 for _ in walks)] == [6, 15]
    # only the 4-cycles can lift to a length with a nonzero bound
    constraint = AceConstraint.parse("0,inf,0")
    problem = find_problematic_binary(proto, 3, constraint)
    assert _extractor(spans, "find_problematic_binary")(
        (proto, 3, constraint), {}, problem) == 9
    # [success, sweeps, restarts]: girth 6 after one sweep; over GF(4) the
    # order-3 lifts (length 12) cannot be canceled, so a single restart fails
    cfg = OptimizerConfig(rng_seed=1)
    girth6 = AceConstraint.parse("inf,inf")
    shifts = assign_shifts(proto, 3, girth6, cfg)
    assert _extractor(spans, "assign_shifts")(
        (proto, 3, girth6, cfg), {}, shifts) == [1, 1, 1]
    code = QcCode(proto, 3, Field(2), shifts.assignment)
    no_cycles = AceConstraint.parse(",".join(["inf"] * 6))
    labels = assign_labels(code, no_cycles, cfg)
    assert _extractor(spans, "assign_labels")(
        (code, no_cycles, cfg), {}, labels) == [0, 2, 1]
