"""Tests for the telemetry layer (`repro.obs`) and its integrations.

The guarantees under test, matching docs/observability.md:

* **schema** — every event kind round-trips through the JSONL
  serialization and validates; malformed events are rejected loudly;
* **zero overhead** — with the default :data:`NULL_RECORDER`, run and
  sweep outputs are bit-identical to a run with a recorder attached
  (telemetry observes, it never participates);
* **phases** — algorithm-declared ``ctx.phase(...)`` spans attribute
  deterministic message counts, survive the lean/IPC path, and every
  executed cell gets at least the engines' implicit "engine" phase;
* **lifecycle** — the executor frames each cell with ``cell_start``
  and exactly one terminal event, including injected failures,
  crashes, and timeouts;
* **flight recorder** — bounded traces keep a tail, and a failing
  cell's record carries it.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.telemetry import (
    cell_summary_table,
    event_census,
    load_events,
    phase_profile_table,
    read_events,
    render_telemetry_report,
    runtime_outliers,
)
from repro.core.registry import get_algorithm
from repro.experiments.parallel import CellSpec, ParallelSweepExecutor, run_cell
from repro.graphs.generators import connected_erdos_renyi
from repro.models.knowledge import Knowledge, make_setup
from repro.obs import (
    EVENT_KINDS,
    NULL_RECORDER,
    JsonlRecorder,
    MemoryRecorder,
    NullRecorder,
    SweepProgress,
    make_event,
    parse_line,
    validate_event,
)
from repro.obs.events import serialize_event
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.node import NodeContext
from repro.sim.runner import WakeUpResult, run_wakeup
from repro.sim.trace import Trace

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "scripts" / "check_telemetry.py"

# Minimal valid payloads, one per event kind — the schema round-trip
# fixture.  Every required field of EVENT_KINDS must appear here (the
# completeness test below enforces it).
SAMPLE_FIELDS = {
    "sweep_start": {"cells": 4, "workers": 2},
    "sweep_end": {"cells": 4, "executed": 3, "cached": 1, "ok": 4,
                  "failed": 0, "wall_time": 0.5},
    "cell_start": {"key": "abc", "algorithm": "flooding", "n": 16,
                   "trial": 0, "seed": 7, "engine": "async",
                   "cached": False},
    "cell_end": {"key": "abc", "status": "ok", "cached": False,
                 "duration": 0.01},
    "cell_retry": {"key": "abc", "attempt": 2},
    "cell_timeout": {"key": "abc", "duration": 1.5, "budget": 1.0},
    "run_start": {"algorithm": "flooding", "engine": "async", "n": 16,
                  "seed": 7},
    "run_end": {"algorithm": "flooding", "engine": "async", "n": 16,
                "messages": 64, "time": 3.0, "all_awake": True},
    "phase_start": {"phase": "engine"},
    "phase_end": {"phase": "engine", "elapsed": 0.004, "messages": 64,
                  "entries": 1},
    "engine_step": {"events": 1000, "now": 2.5, "awake": 12},
    "topology_stats": {"build": 2, "hit_mem": 4, "hit_disk": 0},
    "check_stats": {"algorithm": "flooding", "schedules": 120,
                    "states": 340, "pruned_sleep": 18, "pruned_state": 44,
                    "violations": 0, "max_depth": 12, "completed": True},
    "worstcase_stats": {"algorithm": "flooding", "objective": "time",
                        "evaluations": 61, "best_score": 4.999,
                        "policy": "feed-awake"},
    "opt_generation": {"optimizer": "cem", "generation": 3,
                       "population": 16, "best": 4.75, "incumbent": 4.999},
    "shrink_stats": {"invariant": "fifo-per-channel", "tests": 37,
                     "from_len": 12, "to_len": 2, "reduction": 10},
    "metrics_snapshot": {
        "counters": {'repro_runs_total{algorithm="flooding"}': 2},
        "gauges": {"repro_executor_workers": 2},
        "histograms": {
            "repro_run_messages": {
                "le": [1.0, 2.0], "counts": [1, 0, 1],
                "sum": 65.0, "count": 2,
            }
        },
    },
}


def _small_run(recorder=None, n=24, algorithm="flooding", **setup_kw):
    algo = get_algorithm(algorithm)
    graph = connected_erdos_renyi(n, 4.0 / (n - 1), seed=3)
    knowledge = Knowledge.KT1 if algo.requires_kt1 else Knowledge.KT0
    bandwidth = "CONGEST" if algo.congest_safe else "LOCAL"
    setup = make_setup(
        graph, knowledge=knowledge, bandwidth=bandwidth, seed=5, **setup_kw
    )
    v0 = next(iter(graph.vertices()))
    adversary = Adversary(WakeSchedule.all_at_once([v0]), UnitDelay())
    return run_wakeup(
        setup, algo, adversary, engine="async", seed=9, recorder=recorder
    )


# ----------------------------------------------------------------------
# Event schema
# ----------------------------------------------------------------------
class TestEventSchema:
    def test_samples_cover_every_kind(self):
        assert set(SAMPLE_FIELDS) == set(EVENT_KINDS)

    @pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
    def test_round_trip(self, kind):
        event = make_event(kind, **SAMPLE_FIELDS[kind])
        assert validate_event(event) == []
        back = parse_line(serialize_event(event))
        assert back == json.loads(json.dumps(event))
        assert validate_event(back) == []
        assert back["kind"] == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry event"):
            make_event("nope")

    @pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
    def test_missing_required_field_rejected(self, kind):
        fields = dict(SAMPLE_FIELDS[kind])
        dropped, _ = fields.popitem()
        with pytest.raises(ValueError, match=dropped):
            make_event(kind, **fields)

    def test_validate_flags_bad_events(self):
        assert validate_event([]) != []
        assert validate_event({"kind": "nope"}) != []
        event = make_event("cell_end", **SAMPLE_FIELDS["cell_end"])
        event["status"] = "exploded"
        assert any("invalid status" in e for e in validate_event(event))
        event = make_event("run_start", **SAMPLE_FIELDS["run_start"])
        event["schema"] = 999
        assert any("schema version" in e for e in validate_event(event))

    def test_parse_line_rejects_non_objects(self):
        with pytest.raises(ValueError):
            parse_line("[1, 2]")


# ----------------------------------------------------------------------
# Recorders
# ----------------------------------------------------------------------
class TestRecorders:
    def test_memory_recorder_collects(self):
        rec = MemoryRecorder()
        rec.emit("phase_start", phase="a")
        rec.emit("phase_end", phase="a", elapsed=0.1, messages=2, entries=1)
        assert rec.kinds() == ["phase_start", "phase_end"]
        assert rec.of_kind("phase_end")[0]["messages"] == 2

    def test_jsonl_recorder_writes_valid_lines(self, tmp_path):
        path = tmp_path / "sub" / "events.jsonl"
        with JsonlRecorder(path) as rec:
            rec.emit("run_start", **SAMPLE_FIELDS["run_start"])
            rec.emit("run_end", **SAMPLE_FIELDS["run_end"])
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert validate_event(parse_line(line)) == []
        rec.close()  # idempotent

    def test_jsonl_recorder_accepts_stream(self):
        buf = io.StringIO()
        rec = JsonlRecorder(buf)
        rec.emit("phase_start", phase="x")
        rec.close()
        assert parse_line(buf.getvalue())["phase"] == "x"
        assert not buf.closed  # caller-owned stream stays open

    def test_instruments(self):
        rec = MemoryRecorder()
        rec.counter("cells", 2)
        rec.counter("cells")
        rec.gauge("workers", 4)
        with rec.timer("oracle"):
            pass
        snap = rec.snapshot()
        assert snap["counters"]["cells"] == 3
        assert snap["gauges"]["workers"] == 4
        assert snap["counters"]["oracle"] >= 0

    def test_null_recorder_is_inert(self):
        rec = NullRecorder()
        assert rec.enabled is False
        rec.emit("not-even-a-kind", bogus=1)  # never validates, never raises
        rec.counter("x")
        rec.gauge("y", 1)
        assert rec.snapshot() == {"counters": {}, "gauges": {}}


# ----------------------------------------------------------------------
# Zero-overhead conformance: recorder on vs off, bit-identical outputs
# ----------------------------------------------------------------------
class TestNullRecorderConformance:
    def test_run_result_identical_with_and_without_recorder(self):
        plain = _small_run(recorder=None)
        observed = _small_run(recorder=MemoryRecorder())
        assert plain.summary() == observed.summary()
        assert plain.wake_time == observed.wake_time
        assert plain.metrics.phase_messages == observed.metrics.phase_messages

    def test_sweep_rows_identical_with_and_without_recorder(self):
        cells = [
            CellSpec(
                algorithm="flooding", n=n, trial=t, seed=1,
                engine="async", knowledge="KT0", bandwidth="CONGEST",
                workload={"kind": "er_single_wake", "avg_degree": 4.0,
                          "seed": 1},
            )
            for n in (16, 24)
            for t in (0, 1)
        ]
        plain = ParallelSweepExecutor(workers=0, use_cache=False).run(cells)
        rec = MemoryRecorder()
        observed = ParallelSweepExecutor(
            workers=0, use_cache=False, recorder=rec
        ).run(cells)
        for p, o in zip(plain, observed):
            assert p.result.summary() == o.result.summary()
            assert p.record().keys() == o.record().keys()
        assert rec.of_kind("sweep_end")  # and telemetry actually flowed

    def test_run_emits_lifecycle_events(self):
        rec = MemoryRecorder()
        _small_run(recorder=rec)
        kinds = rec.kinds()
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert "phase_end" in kinds
        end = rec.of_kind("run_end")[0]
        assert end["all_awake"] is True
        assert end["messages"] > 0


# ----------------------------------------------------------------------
# Phase hooks
# ----------------------------------------------------------------------
class TestPhaseHooks:
    def test_engine_phase_always_present(self):
        result = _small_run()
        profile = result.phase_profile()
        assert "engine" in profile
        assert profile["engine"]["messages"] == result.messages
        assert profile["engine"]["entries"] == 1

    def test_dfs_declares_and_records_its_phases(self):
        result = _small_run(algorithm="dfs-rank")
        profile = result.phase_profile()
        algo = get_algorithm("dfs-rank")
        assert algo.phases == ("rank-draw", "dfs-token")
        for phase in algo.phases:
            assert phase in profile
        # Message attribution is deterministic: every DFS send happens
        # inside a dfs-token span.
        assert profile["dfs-token"]["messages"] == result.messages
        assert profile["rank-draw"]["messages"] == 0

    def test_spanner_separates_decode_from_probe_traffic(self):
        result = _small_run(algorithm="log-spanner-advice")
        profile = result.phase_profile()
        assert profile["advice-decode"]["messages"] == 0
        assert profile["advice-decode"]["entries"] == result.n
        assert profile["spanner-probe"]["messages"] == result.messages

    def test_phase_events_emitted_when_recorder_enabled(self):
        rec = MemoryRecorder()
        result = _small_run(recorder=rec, algorithm="dfs-rank")
        ends = rec.of_kind("phase_end")
        by_phase = {}
        for e in ends:
            by_phase.setdefault(e["phase"], 0)
            by_phase[e["phase"]] += e["messages"]
        assert by_phase["dfs-token"] == result.messages
        starts = rec.of_kind("phase_start")
        assert len(starts) == len(ends)

    def test_ctx_phase_is_noop_outside_engine(self):
        graph = connected_erdos_renyi(8, 0.6, seed=1)
        setup = make_setup(graph, knowledge=Knowledge.KT0,
                           bandwidth="LOCAL", seed=2)
        import random

        ctx = NodeContext(next(iter(graph.vertices())), setup,
                          random.Random(0))
        with ctx.phase("anything"):
            pass  # no tracker attached: must not raise


# ----------------------------------------------------------------------
# Satellite: wake causes and phases survive compact/lean serialization
# ----------------------------------------------------------------------
class TestLeanRoundTrip:
    def test_wake_cause_counts_survive_compact(self):
        result = _small_run(n=30)
        causes = result.metrics.wake_cause_counts()
        assert causes == {"adversary": 1, "message": 29}
        compacted = result.metrics.compact()
        assert compacted.wake_cause_counts() == causes

    def test_wake_causes_and_phases_survive_lean_dict(self):
        result = _small_run(algorithm="dfs-rank")
        payload = json.loads(json.dumps(result.to_lean_dict()))
        back = WakeUpResult.from_lean_dict(payload)
        assert back.metrics.wake_cause_counts() == (
            result.metrics.wake_cause_counts()
        )
        original = result.phase_profile()
        restored = back.phase_profile()
        assert set(restored) == set(original)
        for name in original:
            assert restored[name]["messages"] == original[name]["messages"]
            assert restored[name]["entries"] == original[name]["entries"]

    def test_wake_causes_survive_ipc_cell_path(self):
        spec = CellSpec(
            algorithm="flooding", n=20, seed=2, engine="async",
            knowledge="KT0", bandwidth="CONGEST",
            workload={"kind": "er_single_wake", "avg_degree": 4.0,
                      "seed": 2},
        )
        payload = json.loads(json.dumps(run_cell(spec, None)))
        assert payload["ok"]
        back = WakeUpResult.from_lean_dict(payload["result"])
        counts = back.metrics.wake_cause_counts()
        assert counts["adversary"] == 1
        assert counts["adversary"] + counts["message"] == 20


# ----------------------------------------------------------------------
# Executor lifecycle telemetry
# ----------------------------------------------------------------------
def _flood_cells(n_values=(16, 24), trials=(0,), seed=1):
    return [
        CellSpec(
            algorithm="flooding", n=n, trial=t, seed=seed,
            engine="async", knowledge="KT0", bandwidth="CONGEST",
            workload={"kind": "er_single_wake", "avg_degree": 4.0,
                      "seed": seed},
        )
        for n in n_values
        for t in trials
    ]


HERE = "tests.test_parallel_executor"


class TestExecutorTelemetry:
    def test_sweep_frames_and_per_cell_lifecycle(self):
        rec = MemoryRecorder()
        cells = _flood_cells()
        ParallelSweepExecutor(workers=0, use_cache=False,
                              recorder=rec).run(cells)
        kinds = rec.kinds()
        assert kinds[0] == "sweep_start"
        assert kinds[-1] == "sweep_end"
        assert len(rec.of_kind("cell_start")) == len(cells)
        assert len(rec.of_kind("cell_end")) == len(cells)
        # >= 1 aggregate phase_end per executed cell (the acceptance
        # criterion), keyed to its cell.
        started = {e["key"] for e in rec.of_kind("cell_start")}
        phase_keys = {e["key"] for e in rec.of_kind("phase_end")}
        assert started == phase_keys
        for e in rec.of_kind("phase_end"):
            assert e["aggregate"] is True
        for e in rec.of_kind("sweep_end"):
            assert e["executed"] == len(cells)

    def test_cached_cells_still_replay_phase_profiles(self, tmp_path):
        cells = _flood_cells()
        kw = dict(workers=0, cache_dir=tmp_path, use_cache=True)
        ParallelSweepExecutor(**kw).run(cells)  # cold, fills cache
        rec = MemoryRecorder()
        ParallelSweepExecutor(**kw, recorder=rec).run(cells)  # warm
        assert all(e["cached"] for e in rec.of_kind("cell_start"))
        assert len(rec.of_kind("phase_end")) >= len(cells)

    def test_every_event_validates(self):
        rec = MemoryRecorder()
        ParallelSweepExecutor(workers=0, use_cache=False,
                              recorder=rec).run(_flood_cells())
        for event in rec.events:
            assert validate_event(event) == []

    def test_progress_counts_cells(self):
        buf = io.StringIO()
        progress = SweepProgress(stream=buf, non_tty_interval=0.0)
        ParallelSweepExecutor(workers=0, use_cache=False,
                              progress=progress).run(_flood_cells())
        line = progress.render_line()
        assert line.startswith("cells 2/2 (ok 2, failed 0, cached 0)")
        assert "slowest: n=" in line
        assert buf.getvalue()  # something was rendered

    def test_progress_first_tick_has_no_rate(self):
        # Regression: render_line used to divide by a near-zero elapsed
        # on the first tick, printing absurd rates (1e9 cell/s) and an
        # eta of 0s.  With nothing done — or with a tick landing inside
        # the clamp window — both render as "?".
        import time

        buf = io.StringIO()
        progress = SweepProgress(stream=buf, non_tty_interval=0.0)
        progress.start(total=5, workers=2)
        line = progress.render_line()
        assert "? cell/s" in line
        assert "eta ?" in line
        # A cell completing within the clamp window still has no rate.
        progress._done = 1
        progress._t0 = time.perf_counter()
        line = progress.render_line()
        assert "? cell/s" in line
        assert "eta ?" in line


class TestFaultInjectionTelemetry:
    def test_timeout_emits_terminal_cell_timeout(self):
        rec = MemoryRecorder()
        cells = [
            _flood_cells()[0],
            CellSpec(
                algorithm=f"{HERE}:SleeperAlgo", n=12, seed=1,
                engine="async", knowledge="KT0", bandwidth="CONGEST",
                workload={"kind": "er_single_wake", "avg_degree": 3.0,
                          "seed": 1},
            ),
        ]
        out = ParallelSweepExecutor(
            workers=2, use_cache=False, cell_timeout=1.0, recorder=rec
        ).run(cells)
        assert [o.status for o in out] == ["ok", "timeout"]
        timeouts = rec.of_kind("cell_timeout")
        assert len(timeouts) == 1
        assert timeouts[0]["budget"] == 1.0
        assert timeouts[0]["duration"] >= 1.0
        # the timed-out cell reaches exactly one terminal event
        key = timeouts[0]["key"]
        cell_ends = [e for e in rec.of_kind("cell_end") if e["key"] == key]
        assert cell_ends == []

    def test_wakeup_failure_emits_failed_cell_end(self):
        rec = MemoryRecorder()
        cells = [
            CellSpec(
                algorithm=f"{HERE}:SilentAlgo", n=12, seed=1,
                engine="async", knowledge="KT0", bandwidth="CONGEST",
                workload={"kind": "er_single_wake", "avg_degree": 3.0,
                          "seed": 1},
            )
        ]
        out = ParallelSweepExecutor(
            workers=0, use_cache=False, recorder=rec
        ).run(cells)
        assert out[0].status == "failed"
        ends = rec.of_kind("cell_end")
        assert len(ends) == 1
        assert ends[0]["status"] == "failed"
        assert "never woke up" in ends[0]["error"]

    def test_worker_crash_emits_retry_then_crashed(self):
        rec = MemoryRecorder()
        cells = [
            _flood_cells()[0],
            CellSpec(
                algorithm=f"{HERE}:KillerAlgo", n=12, seed=1,
                engine="async", knowledge="KT0", bandwidth="CONGEST",
                workload={"kind": "er_single_wake", "avg_degree": 3.0,
                          "seed": 1},
            ),
        ]
        out = ParallelSweepExecutor(
            workers=2, use_cache=False, recorder=rec
        ).run(cells)
        statuses = {o.spec.algorithm: o.status for o in out}
        assert statuses[f"{HERE}:KillerAlgo"] == "crashed"
        assert rec.of_kind("cell_retry")
        crashed = [
            e for e in rec.of_kind("cell_end") if e["status"] == "crashed"
        ]
        assert len(crashed) == 1
        assert crashed[0]["attempts"] >= 2


# ----------------------------------------------------------------------
# Flight recorder (bounded Trace) on the cell crash path
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_failed_cell_record_carries_trace_tail(self):
        spec = CellSpec(
            algorithm=f"{HERE}:SilentAlgo", n=12, seed=1,
            engine="async", knowledge="KT0", bandwidth="CONGEST",
            workload={"kind": "er_single_wake", "avg_degree": 3.0,
                      "seed": 1},
            flight_recorder=8,
        )
        out = ParallelSweepExecutor(workers=0, use_cache=False).run([spec])
        assert out[0].status == "failed"
        assert out[0].trace_tail  # the wake of the one adversary node
        assert any("wake" in line for line in out[0].trace_tail)
        assert "trace_tail" in out[0].record()

    def test_flight_recorder_crosses_worker_boundary(self):
        spec = CellSpec(
            algorithm=f"{HERE}:SilentAlgo", n=12, seed=1,
            engine="async", knowledge="KT0", bandwidth="CONGEST",
            workload={"kind": "er_single_wake", "avg_degree": 3.0,
                      "seed": 1},
            flight_recorder=8,
        )
        out = ParallelSweepExecutor(workers=2, use_cache=False).run(
            [spec, _flood_cells()[0]]
        )
        failed = [o for o in out if not o.ok]
        assert failed and failed[0].trace_tail

    def test_successful_cells_have_no_tail(self):
        out = ParallelSweepExecutor(workers=0, use_cache=False).run(
            [
                CellSpec(
                    algorithm="flooding", n=16, seed=1, engine="async",
                    knowledge="KT0", bandwidth="CONGEST",
                    workload={"kind": "er_single_wake",
                              "avg_degree": 4.0, "seed": 1},
                    flight_recorder=8,
                )
            ]
        )
        assert out[0].ok
        assert out[0].trace_tail is None
        assert "trace_tail" not in out[0].record()


# ----------------------------------------------------------------------
# Analysis: report aggregation
# ----------------------------------------------------------------------
@pytest.fixture()
def telemetry_file(tmp_path):
    path = tmp_path / "events.jsonl"
    rec = JsonlRecorder(path)
    ParallelSweepExecutor(workers=0, use_cache=False, recorder=rec).run(
        _flood_cells(n_values=(16, 24), trials=(0, 1))
    )
    rec.close()
    return path


def _truncate_mid_record(path):
    """Chop the final JSONL record in half, as a killed writer does."""
    data = path.read_bytes()
    body = data.rstrip(b"\n")
    last_nl = body.rfind(b"\n")
    cut = last_nl + 1 + (len(body) - last_nl - 1) // 2
    path.write_bytes(data[:cut])
    return data[cut:]


class TestAnalysis:
    def test_load_events_skips_torn_line(self, telemetry_file):
        with open(telemetry_file, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "cell_end", "trunc')
        events = load_events(telemetry_file)
        assert all(validate_event(e) == [] for e in events)
        with pytest.raises(ValueError, match="line"):
            load_events(telemetry_file, strict=True)

    def test_census_and_tables(self, telemetry_file):
        events = load_events(telemetry_file)
        census = event_census(events)
        assert census["cell_start"] == 4
        assert census["sweep_end"] == 1
        profile = phase_profile_table(events)
        assert {r["n"] for r in profile} == {16, 24}
        assert all(r["phase"] == "engine" for r in profile)
        summary = cell_summary_table(events)
        assert [r["n"] for r in summary] == [16, 24]
        assert all(r["ok"] == 2 for r in summary)

    def test_outlier_detection(self):
        def cell(n, key, duration):
            return make_event(
                "cell_end", key=key, status="ok", cached=False,
                duration=duration, n=n,
            )

        events = [cell(16, f"k{i}", 0.01) for i in range(4)]
        events.append(cell(16, "slow", 0.5))
        outliers = runtime_outliers(events)
        assert len(outliers) == 1
        assert outliers[0]["key"] == "slow"
        assert outliers[0]["x_median"] > 4
        # singletons are never outliers against themselves
        assert runtime_outliers([cell(99, "only", 5.0)]) == []

    def test_render_report(self, telemetry_file):
        report = render_telemetry_report(telemetry_file)
        assert "Telemetry events" in report
        assert "Phase profile" in report
        assert "Cells by size" in report
        assert "runtime outliers: none" in report
        assert "skipped" not in report

    def test_read_events_counts_mid_record_truncation(self, telemetry_file):
        # Regression: a record cut in half (writer killed mid-write)
        # used to abort the whole load; it must skip-and-count instead.
        lost = _truncate_mid_record(telemetry_file)
        assert lost  # the cut really removed bytes from the last record
        events, skipped = read_events(telemetry_file)
        assert skipped == 1
        assert events and all(validate_event(e) == [] for e in events)
        with pytest.raises(ValueError, match="line"):
            read_events(telemetry_file, strict=True)

    def test_report_survives_truncated_tail_and_says_so(
        self, telemetry_file, capsys
    ):
        from repro.__main__ import main

        _truncate_mid_record(telemetry_file)
        report = render_telemetry_report(telemetry_file)
        assert "skipped 1 malformed line(s)" in report
        assert "torn tail" in report
        # and the CLI path exits 0 rather than crashing on the tail
        assert main(["report", "--telemetry", str(telemetry_file)]) == 0
        assert "skipped 1 malformed line(s)" in capsys.readouterr().out


# ----------------------------------------------------------------------
# scripts/check_telemetry.py
# ----------------------------------------------------------------------
class TestCheckTelemetryScript:
    def run_checker(self, *args):
        return subprocess.run(
            [sys.executable, str(CHECKER), *args],
            capture_output=True, text=True, timeout=120,
        )

    def test_valid_stream_passes(self, telemetry_file):
        proc = self.run_checker(str(telemetry_file), "--min-cells", "4")
        assert proc.returncode == 0, proc.stderr
        assert "4 cells" in proc.stdout

    def test_orphan_terminal_event_fails(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        event = make_event("cell_end", **SAMPLE_FIELDS["cell_end"])
        path.write_text(serialize_event(event) + "\n")
        proc = self.run_checker(str(path))
        assert proc.returncode == 1
        assert "without a cell_start" in proc.stderr

    def test_missing_terminal_event_fails(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        event = make_event("cell_start", **SAMPLE_FIELDS["cell_start"])
        path.write_text(serialize_event(event) + "\n")
        proc = self.run_checker(str(path))
        assert proc.returncode == 1
        assert "terminal events" in proc.stderr

    def test_schema_violation_fails(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "made-up", "schema": 1, "ts": 0}\n')
        proc = self.run_checker(str(path))
        assert proc.returncode == 1
        assert "unknown kind" in proc.stderr

    def test_min_cells_enforced(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        proc = self.run_checker(str(path), "--min-cells", "1")
        assert proc.returncode == 1

    def test_torn_tail_is_tolerated_and_counted(self, telemetry_file):
        # Regression: a final record cut mid-write used to fail the
        # checker; it must pass, count the tail, and say so.
        _truncate_mid_record(telemetry_file)
        proc = self.run_checker(str(telemetry_file))
        assert proc.returncode == 0, proc.stderr
        assert "skipped 1 torn tail line(s)" in proc.stdout

    def test_mid_stream_corruption_still_fails(self, telemetry_file):
        lines = telemetry_file.read_text(encoding="utf-8").splitlines()
        lines.insert(len(lines) // 2, '{"kind": "cell_end", "trunc')
        telemetry_file.write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
        proc = self.run_checker(str(telemetry_file))
        assert proc.returncode == 1
        assert "unparseable" in proc.stderr


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCliTelemetry:
    def test_sweep_telemetry_then_report(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "sweep.jsonl"
        code = main(
            [
                "sweep", "flooding", "--sizes", "16", "24",
                "--trials", "1", "--no-cache", "--progress", "off",
                "--telemetry", str(path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        events = load_events(path, strict=True)
        kinds = {e["kind"] for e in events}
        assert {"sweep_start", "cell_start", "phase_end", "cell_end",
                "sweep_end"} <= kinds
        assert main(["report", "--telemetry", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Phase profile" in out
        assert "Cells by size" in out

    def test_run_telemetry(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "run.jsonl"
        code = main(
            [
                "run", "dfs-rank", "--n", "24", "--seed", "1",
                "--telemetry", str(path),
            ]
        )
        assert code == 0
        events = load_events(path, strict=True)
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert {e.get("phase") for e in events if e["kind"] == "phase_end"} >= {
            "engine", "dfs-token", "rank-draw",
        }

    def test_report_missing_file_fails_cleanly(self, capsys):
        from repro.__main__ import main

        assert main(["report", "--telemetry", "/nonexistent.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestScheduleCheckSection:
    """The model checker's kinds flow into the telemetry report."""

    def test_check_stats_renders_in_report(self, tmp_path):
        from repro.__main__ import main
        from repro.analysis.telemetry import (
            render_telemetry_report,
            schedule_check_table,
        )

        path = tmp_path / "check.jsonl"
        code = main(
            [
                "check", "flooding", "--n", "3", "--graph", "cycle",
                "--telemetry", str(path),
            ]
        )
        assert code == 0
        events = load_events(path, strict=True)
        rows = schedule_check_table(events)
        assert [r["op"] for r in rows] == ["explore"]
        assert rows[0]["violations"] == 0
        report = render_telemetry_report(path)
        assert "Schedule exploration" in report

    def test_all_three_kinds_make_rows(self):
        from repro.obs.events import make_event
        from repro.analysis.telemetry import schedule_check_table

        events = [
            make_event(
                "check_stats", algorithm="flooding", schedules=4,
                states=10, pruned_sleep=1, pruned_state=2, violations=0,
                max_depth=3, completed=True,
            ),
            make_event(
                "worstcase_stats", algorithm="flooding",
                objective="time", evaluations=7, best_score=2.5,
                policy="feed-awake",
            ),
            make_event(
                "shrink_stats", invariant="fifo-per-channel", tests=12,
                from_len=9, to_len=2, reduction=0.7778,
            ),
        ]
        rows = schedule_check_table(events)
        assert [r["op"] for r in rows] == ["explore", "worstcase", "shrink"]
        assert rows[0]["pruned"] == 3
        assert "feed-awake" in rows[1]["note"]
        assert "9 -> 2" in rows[2]["note"]

    def test_streams_without_check_kinds_stay_empty(self):
        from repro.analysis.telemetry import schedule_check_table

        assert schedule_check_table([{"kind": "run_start"}]) == []


class TestMetricsSnapshotSection:
    """The 'Metrics (last snapshot)' table in ``repro report``."""

    def _snapshot_event(self, runs=2):
        from repro.obs.events import make_event

        return make_event(
            "metrics_snapshot",
            counters={'repro_runs_total{algorithm="flooding"}': runs},
            gauges={"repro_executor_workers": 2},
            histograms={
                "repro_run_messages": {
                    "le": [10.0, 100.0],
                    "counts": [1, 1, 0],
                    "sum": 58.0,
                    "count": 2,
                }
            },
        )

    def test_rows_summarize_last_snapshot(self):
        from repro.analysis.telemetry import metrics_snapshot_table

        rows = metrics_snapshot_table(
            [self._snapshot_event(runs=1), self._snapshot_event(runs=5)]
        )
        by_name = {r["instrument"]: r for r in rows}
        # the *last* snapshot wins
        assert by_name["repro_runs_total"]["value"] == 5
        assert by_name["repro_executor_workers"]["type"] == "gauge"
        hist = by_name["repro_run_messages"]
        assert hist["value"] == 2  # observation count
        assert hist["p50"] != ""  # single-series family gets quantiles

    def test_report_renders_metrics_section(self, tmp_path):
        import json

        from repro.analysis.telemetry import render_telemetry_report

        stream = tmp_path / "t.jsonl"
        stream.write_text(json.dumps(self._snapshot_event()) + "\n")
        out = render_telemetry_report(stream)
        assert "Metrics (last snapshot)" in out
        assert "repro_runs_total" in out

    def test_streams_without_snapshots_stay_empty(self):
        from repro.analysis.telemetry import metrics_snapshot_table

        assert metrics_snapshot_table([{"kind": "run_start"}]) == []
