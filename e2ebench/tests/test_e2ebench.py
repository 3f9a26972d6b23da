"""Tests of the benchmark's own code: span arithmetic, tiny-size runs
of every workload, the output checks, and the missing-program exit.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e2ebench import workloads
from e2ebench.instrument import _patch_plan, instrumented
from e2ebench.bench import SELF_METRICS, run_benchmark
from e2ebench.spans import Tracer, layer_totals, self_times, window

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _span(name, start, end, parent=-1, cell=None):
    return [name, start, end, parent, cell]


# ----------------------------------------------------------------------
# Span arithmetic on synthetic spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a: [1, 5] counted once
        _span("c", 1.5, 2.0, parent=1),  # grandchild: charged to a only
        _span("d", 9.0, 12.0, parent=0),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1, 1.5, 3.0, 0.5, 3.0])


def test_self_time_of_leaf_is_its_duration_and_never_negative():
    spans = [_span("root", 0.0, 1.0), _span("x", 0.0, 1.0, parent=0)]
    assert self_times(spans) == [0.0, 1.0]


def test_layer_totals_add_up_to_roots():
    spans = [
        _span("exec", 0.0, 4.0),
        _span("engine", 0.5, 2.5, parent=0),
        _span("engine", 2.6, 3.0, parent=0),
        _span("agg", 4.1, 4.6),
    ]
    own, counts, incl, roots = layer_totals(spans)
    assert own == pytest.approx({"exec": 1.6, "engine": 2.4, "agg": 0.5})
    assert counts == {"exec": 1, "engine": 2, "agg": 1}
    assert incl["engine"] == pytest.approx(2.4)
    assert roots == pytest.approx(4.5)
    assert math.fsum(own.values()) == pytest.approx(roots)


def test_window_rebases_parents_and_rejects_open_ranges():
    spans = [_span("a", 0, 1), _span("b", 1, 2), _span("c", 1.2, 1.5, 1)]
    assert window(spans, 1, 3) == [_span("b", 1, 2), _span("c", 1.2, 1.5, 0)]
    with pytest.raises(ValueError):
        window(spans, 2, 3)


def test_tracer_records_nesting_and_cell_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.cell = "k1"
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    assert tracer.spans == [
        ["outer", 0.0, 3.0, -1, "k1"],
        ["inner", 1.0, 2.0, 0, "k1"],
    ]
    a, b = tracer.open("a"), tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(a)


def test_instrumentation_restores_every_original():
    tracer = Tracer()
    plan = _patch_plan(tracer)
    before = [owner.__dict__[attr] for owner, attr, _ in plan]
    with instrumented(tracer):
        during = [owner.__dict__[attr] for owner, attr, _ in plan]
    after = [owner.__dict__[attr] for owner, attr, _ in plan]
    assert after == before
    assert all(d is not b for d, b in zip(during, before))


# ----------------------------------------------------------------------
# Tiny-size runs of every workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_run_reports_every_end_to_end_metric(name):
    result = run_benchmark(name, seed=11, seconds=0.0, trace=False,
                           size="tiny")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_traced_run_accounts_for_pass_wall(name, tmp_path):
    result = run_benchmark(name, seed=11, seconds=0.0, trace=True,
                           size="tiny", out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    layer_sum = math.fsum(metrics[m] for m in SELF_METRICS.values())
    assert layer_sum + metrics["trace.unspanned_s"] == pytest.approx(
        metrics["trace.pass_s"], rel=1e-9
    )
    assert metrics["trace.unspanned_s"] < 0.1 * metrics["trace.pass_s"]
    written = list(tmp_path.glob(f"{name}-seed11.spans.json.gz"))
    assert len(written) == 1


def test_traced_sweep_spans_share_cell_ids(tmp_path):
    import gzip

    run_benchmark("sweep_bulk", seed=2, seconds=0.0, trace=True,
                  size="tiny", out_dir=tmp_path)
    with gzip.open(tmp_path / "sweep_bulk-seed2.spans.json.gz", "rt") as fh:
        spans = json.load(fh)["sections"]["last_pass"]
    engine_cells = {s[4] for s in spans if s[0] == "sim.engine"}
    key_cells = {s[4] for s in spans if s[0] == "experiments.cell_key"}
    assert None not in engine_cells and engine_cells == key_cells


def test_same_seed_gives_same_inputs():
    for cls in (workloads.SweepBulk, workloads.SweepTable1,
                workloads.SweepWarm):
        assert cls(4, "tiny").cells == cls(4, "tiny").cells
        assert cls(4, "tiny").cells != cls(5, "tiny").cells


# ----------------------------------------------------------------------
# Output checks trip on corrupted outputs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bulk_pass(tmp_path_factory):
    wl = workloads.SweepBulk(3, "tiny")
    wl.setup(tmp_path_factory.mktemp("work"))
    return wl, wl.run_pass()


def test_clean_pass_passes_checks(bulk_pass):
    wl, output = bulk_pass
    check = wl.check(output)
    assert check.errors == [] and check.failed == 0
    assert check.attempted == len(wl.cells)


def test_corrupted_cell_trips_the_check(bulk_pass):
    wl, (outcomes, rows, stats) = bulk_pass
    victim = outcomes[1].result
    victim.messages += 1
    try:
        check = wl.check((outcomes, rows, stats))
    finally:
        victim.messages -= 1
    assert check.failed == 1
    assert any("messages" in e and "2m" in e for e in check.errors)


def test_corrupted_row_trips_the_check(bulk_pass):
    wl, (outcomes, rows, stats) = bulk_pass
    row = rows[0][0]
    row.trials -= 1
    try:
        check = wl.check((outcomes, rows, stats))
    finally:
        row.trials += 1
    assert check.failed == 1 and "rows cover" in check.errors[0]


def test_warm_rows_must_match_the_cold_fill(tmp_path):
    wl = workloads.SweepWarm(3, "tiny")
    assert wl.setup(tmp_path).errors == []
    output = wl.run_pass()
    assert wl.check(output).errors == []
    output[1][0][0].messages += 0.5
    errors = wl.check(output).errors
    assert "warm rows differ from the cold fill" in errors


def test_explore_counts_must_repeat(tmp_path):
    wl = workloads.CheckExplore(3, "tiny")
    wl.setup(tmp_path)
    first = wl.run_pass()
    assert wl.check(first).errors == []
    first[0].states += 1
    check = wl.check(first)
    assert check.failed == 1 and "differ from the first" in check.errors[0]


# ----------------------------------------------------------------------
# Without the program the benchmark fails fast and prints no result
# ----------------------------------------------------------------------
def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "_work",
                                                      "out"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep_bulk",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
