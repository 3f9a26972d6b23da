"""End-to-end benchmark of the sweep path, from cell list to rows.

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed; ``--trace 1`` is the separate traced run that reports
per-layer self times and counts and writes its spans to
``e2ebench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Progress
and check failures go to standard error.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from e2ebench.instrument import instrumented
from e2ebench.spans import Tracer, layer_totals, window, write_spans

BENCH_DIR = Path(__file__).resolve().parent

#: Set-ups per end-to-end run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


class _Run:
    """One benchmark run: passes, their checks, and the totals."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, check) -> None:
        if check is None:
            return
        self.attempted += check.attempted
        self.failed += check.failed
        self.errors.extend(check.errors)

    def one_pass(self, tracer=None):
        """Run one pass (instrumented when ``tracer`` is given), check
        its outputs outside the timed region, return (wall, output)."""
        gc.collect()
        if tracer is None:
            wall, output = _timed(self.wl.run_pass)
        else:
            with instrumented(tracer):
                wall, output = _timed(self.wl.run_pass)
        self.record(self.wl.check(output))
        return wall, output

    def result(self, metrics: Dict[str, Dict[str, object]]) -> dict:
        for line in self.errors[:20]:
            print(f"e2ebench: CHECK FAILED: {line}", file=sys.stderr)
        if len(self.errors) > 20:
            print(f"e2ebench: ... {len(self.errors) - 20} more", file=sys.stderr)
        return {
            "correct": not self.errors,
            "attempted": max(1, self.attempted),
            "failed": min(self.failed, max(1, self.attempted)),
            "metrics": metrics,
        }


def measure_end_to_end(run: _Run, workdir: Path, seconds: float,
                       import_s: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        wall, check = _timed(run.wl.setup, workdir)
        setups.append(wall)
        run.record(check)
    rates, schedule_rates = [], []
    deadline = time.perf_counter() + seconds
    while not rates or time.perf_counter() < deadline:
        wall, output = run.one_pass()
        cells, schedules = run.wl.units(output)
        rates.append(cells / wall)
        schedule_rates.append(schedules / wall)
    print(f"e2ebench: imports {import_s:.3f} s, set-ups "
          f"{[round(s, 3) for s in setups]} s; {len(rates)} passes, cells/s "
          f"min {min(rates):.2f} median {statistics.median(rates):.2f} "
          f"max {max(rates):.2f}", file=sys.stderr)
    return run.result({
        "setup_s": _metric(import_s + statistics.median(setups), "s"),
        "cells_per_s": _metric(statistics.median(rates), "cells/s"),
        "schedules_per_s": _metric(statistics.median(schedule_rates),
                                   "schedules/s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    })


#: Span name -> per-layer metric.  Every span name maps to exactly one
#: metric, so the ``_s`` metrics plus ``trace.unspanned_s`` add up to
#: ``trace.pass_s``.
SELF_METRICS = {
    "graphs.topology": "graphs.topology_s",
    "models.setup": "models.setup_s",
    "models.setup.ids": "models.setup.ids_s",
    "models.setup.ports": "models.setup.ports_s",
    "core.advice": "core.advice_s",
    "sim.run_wakeup": "sim.run_wakeup_s",
    "sim.engine": "sim.engine_s",
    "sim.encode": "sim.encode_s",
    "sim.decode": "sim.decode_s",
    "experiments.cell_key": "experiments.cell_key_s",
    "experiments.executor": "experiments.executor_self_s",
    "experiments.aggregate": "experiments.aggregate_s",
    "check.explore": "check.explore_self_s",
    "check.choose": "check.choose_s",
    "check.invariants": "check.invariants_s",
}


def layer_metrics(tracer, setup_range, traced, untraced_walls
                  ) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics from the traced set-up and the traced passes.

    ``traced`` holds ``(wall, lo, hi, counts)`` per traced pass, where
    ``spans[lo:hi]`` are the pass's spans and ``counts`` its boundary
    and output counters.  Pass-level values are means over the traced
    passes, so the ``_s`` metrics add up like the spans do."""
    k = len(traced)
    self_s = {metric: 0.0 for metric in SELF_METRICS.values()}
    totals: Dict[str, float] = {}
    engine_incl = cells = unspanned = spans = 0.0
    for wall, lo, hi, counts in traced:
        own, n_spans, incl, roots = layer_totals(window(tracer.spans, lo, hi))
        unknown = set(own) - set(SELF_METRICS)
        if unknown:
            raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
        for name, seconds in own.items():
            self_s[SELF_METRICS[name]] += seconds / k
        for name, value in counts.items():
            totals[name] = totals.get(name, 0.0) + value
        engine_incl += incl.get("sim.engine", 0.0)
        cells += n_spans.get("experiments.cell_key", 0)
        unspanned += wall - roots
        spans += hi - lo
    s_lo, s_hi, s_wall, s_counts = setup_range
    s_own, _, s_incl, _ = layer_totals(window(tracer.spans, s_lo, s_hi))
    traced_pass = statistics.fmean(t[0] for t in traced)
    untraced_pass = statistics.fmean(untraced_walls)
    events, runs = totals.get("sim.events", 0.0), totals.get("check.runs", 0.0)
    metrics = {name: _metric(v, "s") for name, v in self_s.items()}
    metrics.update({
        "graphs.topology_builds": _metric(
            totals.get("graphs.topology_builds", 0.0) / k, "count"),
        "sim.events": _metric(events / k, "count"),
        "sim.events_per_engine_s": _metric(
            events / engine_incl if engine_incl else 0.0, "1/s"),
        "experiments.cache_hit_ratio": _metric(
            totals.get("experiments.cache_hit_ratio", 0.0) / k, "ratio"),
        "experiments.cells": _metric(cells / k, "count"),
        "check.runs": _metric(runs / k, "count"),
        "check.schedules_per_run": _metric(
            totals.get("check.schedules", 0.0) / runs if runs else 0.0,
            "ratio"),
        "check.states": _metric(totals.get("check.states", 0.0) / k, "count"),
        "setup.wall_s": _metric(s_wall, "s"),
        "setup.graphs.topology_s": _metric(
            s_incl.get("graphs.topology", 0.0), "s"),
        "setup.graphs.topology_builds": _metric(
            s_counts.get("graphs.topology_builds", 0.0), "count"),
        "setup.experiments.cell_key_s": _metric(
            s_own.get("experiments.cell_key", 0.0), "s"),
        "trace.pass_s": _metric(traced_pass, "s"),
        "trace.untraced_pass_s": _metric(untraced_pass, "s"),
        "trace.overhead_s": _metric(traced_pass - untraced_pass, "s"),
        "trace.unspanned_s": _metric(unspanned / k, "s"),
        "trace.spans": _metric(spans / k, "count"),
    })
    return metrics


def _counter_delta(before: Dict[str, float], after: Dict[str, float]):
    return {name: after[name] - before.get(name, 0.0) for name in after}


def measure_traced(run: _Run, workdir: Path, seconds: float,
                   out_dir: Path, seed: int) -> dict:
    tracer = Tracer()
    with instrumented(tracer):
        s_wall, check = _timed(run.wl.setup, workdir)
    run.record(check)
    setup_range = (0, len(tracer.spans), s_wall, dict(tracer.counts))
    traced, untraced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run.one_pass()[0])
        lo, before = len(tracer.spans), dict(tracer.counts)
        wall, output = run.one_pass(tracer)
        # Keep numbers only: a pass's outputs can be large.
        counts = _counter_delta(before, tracer.counts)
        counts.update(run.wl.pass_counts(output))
        traced.append((wall, lo, len(tracer.spans), counts))
    metrics = layer_metrics(tracer, setup_range, traced, untraced)
    _, lo, hi, _ = traced[-1]
    path = write_spans(
        out_dir / f"{run.wl.name}-seed{seed}.spans.json.gz",
        {"setup": window(tracer.spans, 0, setup_range[1]),
         "last_pass": window(tracer.spans, lo, hi)},
        {"workload": run.wl.name, "seed": seed, "traced_passes": len(traced),
         "metrics": {k: v["value"] for k, v in metrics.items()}},
    )
    print(f"e2ebench: {len(traced)} traced passes, spans in {path}",
          file=sys.stderr)
    return run.result(metrics)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", out_dir: Optional[Path] = None) -> dict:
    """One benchmark run; returns the result object (see module doc)."""
    import_s, workloads = _timed(_import_program)
    wl = workloads.WORKLOADS[workload](seed, size)
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        run = _Run(wl)
        if trace:
            return measure_traced(run, workdir, seconds,
                                  out_dir or BENCH_DIR / "out", seed)
        return measure_end_to_end(run, workdir, seconds, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run's scratch is still there
            pass


def _import_program():
    """Every program module the benchmark drives, including the bulk
    lane (numpy/scipy); part of ``setup_s``."""
    import repro.sim.bulk  # noqa: F401
    from e2ebench import workloads

    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep_bulk", "sweep_table1", "sweep_warm",
                                 "check_explore"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
