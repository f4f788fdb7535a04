#!/usr/bin/env python3
"""Benchmark for the nbqc toolkit.

Runs one workload in this process, driving ``nbqc.cli.main(argv)`` the way
a user's shell would: one command at a time, one client, ``--workers 1``.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from spans recorded around the calls
into each module) with ``--trace 1``.  A readable summary goes to standard
error, and a results file plus, when traced, a span file go under
``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
from spans import (COMMAND_SPAN, SpanStore, installed, is_count,
                   layer_metrics, self_times, walks_by_depth)
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "command_ref_s": "s",
                    "peak_rss_mb": "MiB"}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if "_ms" in metric:
        return "ms"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def cpu_time() -> float:
    """CPU seconds used so far by this process and its waited-for children.

    Timings are CPU time, not wall time: on a shared host, time spent
    waiting for a core moves wall time by tens of percent between runs of
    identical work.  Every command runs single-threaded (``--workers 1``,
    BLAS pinned to one thread), so with a core to itself the two agree.
    What remains of the host's drift, ``hostspeed`` scales out.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_sha256(*dirs: Path) -> str:
    """sha256 over the Python files under ``dirs``, names included."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs commands, checks their outputs and counts failures."""

    def __init__(self, main, workdir: Path):
        self.main = main
        self.workdir = workdir
        self.host = hostspeed.HostSpeed()
        self.attempted = 0
        self.failures: list[dict] = []
        self.digests: dict[str, dict[str, str]] = {}

    def run(self, cmd, call=None) -> dict:
        """Run one command; returns its wall and CPU seconds, and the CPU
        seconds and count of the reference units run during it, whose CPU
        time is already taken out of the command's."""
        call = call or self.main
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        rc = None
        # Start each command from a collected heap, as a fresh CLI process
        # would, so garbage left by earlier commands is not timed.
        gc.collect()
        start, start_cpu = time.perf_counter(), cpu_time()
        ref_cpu, ref_units = self.host.snapshot()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = call(cmd.argv)
        except Exception:
            err.write(traceback.format_exc())
        wall, used = time.perf_counter() - start, cpu_time() - start_cpu
        ref_cpu, ref_units = (self.host.cpu_s - ref_cpu,
                              self.host.units - ref_units)
        elapsed = {"wall_s": wall, "cpu_s": used - ref_cpu,
                   "ref_cpu_s": ref_cpu, "ref_units": ref_units}
        key = (" ".join(cmd.argv).replace(str(self.workdir), "<work>")
               .replace(str(ROOT), "."))
        try:
            if rc != 0:
                raise RuntimeError(f"exit status {rc}: {err.getvalue()[-800:]}")
            digests = {name: _sha256(data)
                       for name, data in cmd.check(out.getvalue()).items()}
            earlier = self.digests.setdefault(key, digests)
            if earlier != digests:
                raise RuntimeError("output differs from an identical earlier "
                                   f"command: {earlier} != {digests}")
        except Exception as exc:  # every wrong output is a counted failure
            self.failures.append({"command": key, "error": str(exc)})
        return elapsed


def run_pass(workload, runner: Runner, store=None) -> dict:
    """One pass over the workload's commands.

    An untraced pass runs the reference loop alongside its commands; a
    traced pass (``store`` set) does not, so its spans hold only nbqc work.
    """
    times: dict[str, list[float]] = {}
    cpu: dict[str, list[float]] = {}
    ref_cpu, ref_units = 0.0, 0
    call = None
    if store is not None:
        call = functools.partial(store.run_command, runner.main)
    with (installed(store) if store is not None
          else runner.host.sampling()):
        for cmd in workload.commands():
            r = runner.run(cmd, call)
            times.setdefault(cmd.key, []).append(r["wall_s"])
            cpu.setdefault(cmd.key, []).append(r["cpu_s"])
            ref_cpu += r["ref_cpu_s"]
            ref_units += r["ref_units"]
    every = [t for ts in cpu.values() for t in ts]
    return {
        "wall_s": sum(t for ts in times.values() for t in ts),
        "cpu_s": sum(every),
        "command_cpu_s": statistics.fmean(every),
        "ref_cpu_s": ref_cpu,
        "ref_units": ref_units,
        "times": times,
        "cpu_times": cpu,
        "store": store,
    }


def _median(passes, pick):
    return statistics.median(pick(p) for p in passes)


def _write_trace(path: Path, prov: dict, traced: list[dict]) -> None:
    passes = []
    for p in traced:
        store = p["store"]
        t0 = store.spans[0][1] if store.spans else 0.0
        passes.append({
            "commands": store.commands,
            "spans": [[n, round(s - t0, 9), round(e - t0, 9), par, c, a]
                      for n, s, e, par, c, a in store.spans],
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"provenance": prov,
                   "span_fields": ["name", "start_s", "end_s", "parent",
                                   "command", "attr"],
                   "passes": passes}, fh)


def _check_counts(name: str, seed: int, per_pass: list[dict]) -> list[str]:
    """Counts must repeat exactly: across this run's traced passes and
    against an earlier traced run of the same code, workload and seed."""
    counts = [{k: v for k, v in m.items() if is_count(k)} for m in per_pass]
    problems = [f"pass {i}: {k} {c[k]} != {counts[0][k]}"
                for i, c in enumerate(counts[1:], 1)
                for k in c if c[k] != counts[0][k]]
    code = tree_sha256(SRC / "nbqc", Path(__file__).resolve().parent)
    path = OUT / "counts" / f"{name}-seed{seed}-{code[:16]}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        problems += [f"earlier run: {k} {counts[0][k]} != {earlier[k]}"
                     for k in earlier if earlier[k] != counts[0].get(k)]
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts[0], sort_keys=True, indent=1))
    return problems


def run_workload(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "nbqc" / "__init__.py").is_file():
        print(f"error: no nbqc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = cpu_time()
    import numpy
    import nbqc.cli
    import_s = cpu_time() - start
    if Path(nbqc.cli.__file__).resolve().parent != SRC / "nbqc":
        print(f"error: imported nbqc from {nbqc.cli.__file__}", file=sys.stderr)
        return 2

    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workload, args.seed, workdir)
    runner = Runner(nbqc.cli.main, workdir)
    prov = {
        "workload": args.workload, "workload_seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "source_sha256": tree_sha256(SRC / "nbqc"),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        **workload.provenance,
    }
    try:
        setup_times = []
        with runner.host.sampling():
            for _ in range(SETUP_REPEATS):
                t, ref_cpu = cpu_time(), runner.host.cpu_s
                workload.setup(runner.run)
                setup_times.append(cpu_time() - t - (runner.host.cpu_s - ref_cpu))
        setup_scale = hostspeed.scale(*runner.host.snapshot())

        untraced, traced = [], []
        started = time.perf_counter()
        while True:
            untraced.append(run_pass(workload, runner))
            if args.trace:
                traced.append(run_pass(workload, runner, SpanStore()))
            per_round = (time.perf_counter() - started) / len(untraced)
            if (time.perf_counter() - started) + per_round / 2 > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # CPU seconds scaled to the reference host's speed, pass by pass
    for p in untraced:
        p["scale"] = hostspeed.scale(p["ref_cpu_s"], p["ref_units"],
                                     fallback=setup_scale)
        p["command_ref_s"] = p["scale"] * p["command_cpu_s"]
    per_pass = [workload.named_metrics(
        {key: p["scale"] * statistics.fmean(ts)
         for key, ts in p["cpu_times"].items()})
        for p in untraced]
    named = {name: {"value": statistics.median(m[name][0] for m in per_pass),
                    "unit": unit}
             for name, (_value, unit) in per_pass[0].items()}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "provenance": prov,
        "setup_runs_s": setup_times,
        "import_s": import_s,
        "setup_scale": setup_scale,
        "reference_unit_s": hostspeed.REFERENCE_UNIT_S,
        "passes": [{k: p[k] for k in (
            "wall_s", "cpu_s", "command_cpu_s", "ref_cpu_s", "ref_units",
            "scale", "command_ref_s", "times", "cpu_times")}
                   for p in untraced],
        "named_metrics": {
            "setup_s": {"value": setup_scale
                        * (import_s + statistics.median(setup_times)),
                        "unit": "s"},
            "command_cpu_s": {
                "value": _median(untraced, lambda p: p["command_cpu_s"]),
                "unit": "s"},
            "command_ref_s": {
                "value": _median(untraced, lambda p: p["command_ref_s"]),
                "unit": "s"},
            **named,
            "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
            "fail_ratio": {"value": len(runner.failures) / runner.attempted,
                           "unit": "ratio"},
        },
        "achieved_spectra": workload.achieved,
        "failures": runner.failures,
        "sha256": runner.digests,
    }
    metrics = {
        "setup_s": result["named_metrics"]["setup_s"]["value"],
        "command_ref_s": result["named_metrics"]["command_ref_s"]["value"],
        "peak_rss_mb": rss_mb,
    }
    units = END_TO_END_UNITS
    problems: list[str] = []
    if args.trace:
        metrics, result["trace"] = _trace_report(args, untraced, traced)
        problems = result["trace"]["count_problems"]
        units = {k: unit_of(k) for k in metrics}
        _write_trace(ROOT / result["trace"]["file"], prov, traced)

    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    _print_summary(result, path)

    failed = len(runner.failures)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def _trace_report(args, untraced: list[dict], traced: list[dict]):
    """Per-layer metrics of the traced passes, and the trace summary."""
    per_pass = [layer_metrics(p["store"].spans) for p in traced]
    problems = _check_counts(args.workload, args.seed, per_pass)
    # counts are equal in every pass (checked above); times take the median
    metrics = {k: v if is_count(k)
               else statistics.median(m[k] for m in per_pass)
               for k, v in per_pass[0].items()}
    traced_cmd = _median(traced, lambda p: p["command_cpu_s"])
    untraced_cmd = _median(untraced, lambda p: p["command_cpu_s"])
    metrics["trace.overhead_ratio"] = traced_cmd / untraced_cmd - 1.0
    spans = traced[0]["store"].spans
    return metrics, {
        "per_layer": metrics,
        "self_s": self_times(spans),
        "command_total_s": sum(e - s for n, s, e, *_ in spans
                               if n == COMMAND_SPAN),
        "walks_by_depth": walks_by_depth(spans),
        "overhead_s": traced_cmd - untraced_cmd,
        "count_problems": problems,
        "file": f"{OUT.name}/traces/{args.workload}-seed{args.seed}.json.gz",
    }


def _print_summary(result: dict, path: Path) -> None:
    prov = result["provenance"]
    err = sys.stderr
    print(f"== {prov['workload']} (seed {prov['workload_seed']}, "
          f"{len(result['passes'])} untraced pass(es), "
          f"{len(result['sha256'])} distinct commands)", file=err)
    for name, m in result["named_metrics"].items():
        print(f"  {name:<20} {m['value']:12.4f} {m['unit']}", file=err)
    for failure in result["failures"]:
        print(f"  FAILED {failure['command']}: {failure['error']}", file=err)
    trace = result.get("trace")
    if trace:
        total = trace["command_total_s"]
        print(f"  self time per layer (traced pass, {total:.3f} s in "
              "commands):", file=err)
        for layer, seconds in trace["self_s"].items():
            share = seconds / total if total else 0.0
            print(f"    {layer:<12} {seconds:9.3f} s  {100 * share:5.1f} %",
                  file=err)
        print(f"  tracing overhead: {trace['overhead_s']:+.4f} s per command "
              f"({100 * trace['per_layer']['trace.overhead_ratio']:+.1f} %)",
              file=err)
        for problem in trace["count_problems"]:
            print(f"  COUNT MISMATCH {problem}", file=err)
        print(f"  spans: {trace['file']}", file=err)
    print(f"  results: {path.relative_to(ROOT)}", file=err)


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS is its own."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit status {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        line = json.loads(lines[-1])
        ok = ok and line["correct"]
        print(f"{name}: correct={line['correct']} attempted={line['attempted']}"
              f" failed={line['failed']}", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
