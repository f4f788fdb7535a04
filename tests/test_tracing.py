"""The benchmark's span tracer finds every binding it wraps.

``perfbench/spans.py`` looks its bindings up by name when a traced pass
starts, so a binding renamed or dropped from an ``nbqc`` module breaks
``perfbench/run.py --trace 1`` while every other test still passes.
"""

import importlib
import importlib.util
from pathlib import Path

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
