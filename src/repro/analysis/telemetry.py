"""Offline aggregation of telemetry JSONL files.

A sweep run with ``--telemetry PATH`` leaves behind a stream of
schema-versioned events (:mod:`repro.obs.events`).  This module turns
such a file into the profile tables behind ``repro report --telemetry``:

* an event census (how many of each kind, schema versions seen);
* a per-phase/per-n profile — where wall-time and messages went,
  aggregated from ``phase_end`` events;
* a per-n cell summary (executed/cached/failed counts, duration
  quantiles) from terminal cell events;
* a runtime outlier list — executed cells whose duration exceeds
  ``outlier_factor`` x the median for their size;
* an instrument summary from the last ``metrics_snapshot`` event, for
  streams recorded with ``--metrics`` (counters/gauges/histograms from
  :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, Union

from repro.analysis.report import render_table
from repro.obs.events import (
    TERMINAL_CELL_KINDS,
    parse_line,
    validate_event,
)

# A cell must be this many times slower than its size-class median to be
# flagged as an outlier.
DEFAULT_OUTLIER_FACTOR = 4.0


def read_events(
    source: Union[str, Path, TextIO],
    strict: bool = False,
) -> Tuple[List[Dict[str, object]], int]:
    """Parse a telemetry JSONL file into ``(events, skipped)``.

    ``skipped`` counts malformed or schema-invalid lines.  A producer
    killed mid-write (a SIGKILLed run, a full disk) leaves a torn
    final line, so the default mode skips and *counts* bad lines
    instead of failing; the file is opened with ``errors="replace"``
    so even a line torn inside a multi-byte sequence cannot raise
    ``UnicodeDecodeError``.  With ``strict`` the first bad line raises
    :class:`ValueError`.
    """
    if isinstance(source, (str, Path)):
        with open(
            source, "r", encoding="utf-8", errors="replace"
        ) as fh:
            return read_events(fh, strict=strict)
    events: List[Dict[str, object]] = []
    skipped = 0
    for lineno, line in enumerate(source, 1):
        if not line.strip():
            continue
        try:
            event = parse_line(line)
        except ValueError as exc:
            if strict:
                raise ValueError(f"line {lineno}: {exc}") from exc
            skipped += 1
            continue
        errors = validate_event(event)
        if errors:
            if strict:
                raise ValueError(f"line {lineno}: {'; '.join(errors)}")
            skipped += 1
            continue
        events.append(event)
    return events, skipped


def load_events(
    source: Union[str, Path, TextIO],
    strict: bool = False,
) -> List[Dict[str, object]]:
    """:func:`read_events` without the skip count (the historical
    API; callers that need to surface torn tails use read_events)."""
    return read_events(source, strict=strict)[0]


def event_census(events: Sequence[Dict[str, object]]) -> Dict[str, int]:
    """Count of events per kind, sorted by kind name."""
    census: Dict[str, int] = {}
    for e in events:
        kind = str(e.get("kind"))
        census[kind] = census.get(kind, 0) + 1
    return dict(sorted(census.items()))


def phase_profile_table(
    events: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Aggregate ``phase_end`` events into per-(n, phase) rows.

    Worker-side profiles are replayed by the executor as aggregate
    ``phase_end`` events, so a sweep telemetry file aggregates here
    exactly like an in-process run's live stream.  Rows are sorted by n
    then descending time; ``share`` is the phase's fraction of its
    size-class total.
    """
    by_n: Dict[int, Dict[str, Dict[str, float]]] = {}
    for e in events:
        if e.get("kind") != "phase_end":
            continue
        n = int(e.get("n", 0) or 0)
        phases = by_n.setdefault(n, {})
        agg = phases.setdefault(
            str(e["phase"]), {"time_s": 0.0, "messages": 0, "entries": 0}
        )
        agg["time_s"] += float(e.get("elapsed", 0.0))
        agg["messages"] += int(e.get("messages", 0))
        agg["entries"] += int(e.get("entries", 0))
    rows: List[Dict[str, object]] = []
    for n in sorted(by_n):
        total = sum(p["time_s"] for p in by_n[n].values()) or 1.0
        for name, agg in sorted(
            by_n[n].items(), key=lambda kv: -kv[1]["time_s"]
        ):
            rows.append(
                {
                    "n": n,
                    "phase": name,
                    "time_s": round(agg["time_s"], 6),
                    "share": round(agg["time_s"] / total, 3),
                    "messages": int(agg["messages"]),
                    "entries": int(agg["entries"]),
                }
            )
    return rows


def topology_cache_table(
    events: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Compiled-topology cache effectiveness, from ``topology_stats``.

    One row summing every sweep's counters: graph builds vs in-process
    and on-disk reuses, plus the hit rate.  Empty when the stream
    predates the topology layer (older telemetry files stay readable).
    """
    build = hit_mem = hit_disk = 0
    seen = False
    for e in events:
        if e.get("kind") != "topology_stats":
            continue
        seen = True
        build += int(e.get("build", 0))
        hit_mem += int(e.get("hit_mem", 0))
        hit_disk += int(e.get("hit_disk", 0))
    if not seen:
        return []
    total = build + hit_mem + hit_disk
    return [
        {
            "builds": build,
            "hits_mem": hit_mem,
            "hits_disk": hit_disk,
            "fetches": total,
            "hit_rate": round((hit_mem + hit_disk) / total, 3)
            if total
            else 0.0,
        }
    ]


def schedule_check_table(
    events: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Schedule-exploration activity, from the ``repro.check`` kinds.

    One row per ``check_stats`` / ``worstcase_stats`` / ``shrink_stats``
    event, in stream order — each is one explorer, worst-case search,
    or shrink invocation.  Empty for streams that predate the model
    checker.
    """
    rows: List[Dict[str, object]] = []
    for e in events:
        kind = e.get("kind")
        if kind == "check_stats":
            rows.append(
                {
                    "op": "explore",
                    "target": e.get("algorithm", "?"),
                    "work": f"{e.get('schedules', 0)} schedules",
                    "states": e.get("states", 0),
                    "pruned": int(e.get("pruned_sleep", 0))
                    + int(e.get("pruned_state", 0)),
                    "violations": e.get("violations", 0),
                    "note": "complete"
                    if e.get("completed")
                    else "budget hit",
                }
            )
        elif kind == "worstcase_stats":
            rows.append(
                {
                    "op": "worstcase",
                    "target": e.get("algorithm", "?"),
                    "work": f"{e.get('evaluations', 0)} evals",
                    "states": "",
                    "pruned": "",
                    "violations": "",
                    "note": f"{e.get('objective')}="
                    f"{e.get('best_score')} via {e.get('policy')}",
                }
            )
        elif kind == "shrink_stats":
            rows.append(
                {
                    "op": "shrink",
                    "target": e.get("invariant", "?"),
                    "work": f"{e.get('tests', 0)} tests",
                    "states": "",
                    "pruned": "",
                    "violations": "",
                    "note": f"{e.get('from_len')} -> {e.get('to_len')} "
                    f"choices",
                }
            )
    return rows


def metrics_snapshot_table(
    events: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Instrument summary from the *last* ``metrics_snapshot`` event.

    The executor emits one cumulative snapshot per sweep, so the last
    one in the stream covers everything before it.  One row per
    instrument family: counters sum their labeled series, gauges keep
    the max, histograms report sample counts plus p50/p99 estimated
    from their buckets.  Empty for streams recorded without
    ``--metrics`` (or predating the metrics layer).
    """
    from repro.obs.metrics import histogram_quantile, parse_series_key

    snap = None
    for e in events:
        if e.get("kind") == "metrics_snapshot":
            snap = e
    if snap is None:
        return []
    families: Dict[str, Dict[str, object]] = {}

    def _fam(key: str, kind: str) -> Dict[str, object]:
        name, _ = parse_series_key(key)
        return families.setdefault(
            name,
            {"instrument": name, "type": kind, "series": 0,
             "value": 0.0, "p50": "", "p99": ""},
        )

    for key, value in dict(snap.get("counters") or {}).items():
        row = _fam(key, "counter")
        row["series"] = int(row["series"]) + 1
        row["value"] = float(row["value"]) + float(value)
    for key, value in dict(snap.get("gauges") or {}).items():
        row = _fam(key, "gauge")
        row["series"] = int(row["series"]) + 1
        row["value"] = max(float(row["value"]), float(value))
    for key, h in dict(snap.get("histograms") or {}).items():
        row = _fam(key, "histogram")
        row["series"] = int(row["series"]) + 1
        row["value"] = float(row["value"]) + float(h.get("count", 0))
        if int(row["series"]) > 1:
            # Quantiles of distinct label sets don't combine; the
            # per-series view lives in `repro top`.
            row["p50"] = row["p99"] = ""
            continue
        try:
            row["p50"] = round(histogram_quantile(h, 0.50), 6)
            row["p99"] = round(histogram_quantile(h, 0.99), 6)
        except (KeyError, TypeError, ValueError):
            pass
    rows = [dict(families[name]) for name in sorted(families)]
    for row in rows:
        row["value"] = round(float(row["value"]), 6)
    return rows


def _executed_cells(
    events: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Terminal cell events for cells that actually ran (not cache hits)."""
    cells = []
    for e in events:
        if e.get("kind") not in TERMINAL_CELL_KINDS:
            continue
        if e.get("cached"):
            continue
        cells.append(e)
    return cells


def cell_summary_table(
    events: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Per-n cell counts and duration statistics from terminal events."""
    by_n: Dict[int, Dict[str, object]] = {}
    for e in events:
        if e.get("kind") not in TERMINAL_CELL_KINDS:
            continue
        n = int(e.get("n", 0) or 0)
        row = by_n.setdefault(
            n,
            {"n": n, "cells": 0, "ok": 0, "failed": 0, "cached": 0,
             "durations": []},
        )
        row["cells"] += 1
        if e.get("cached"):
            row["cached"] += 1
        elif e.get("kind") == "cell_end" and e.get("status") == "ok":
            row["ok"] += 1
        else:
            row["failed"] += 1
        if not e.get("cached"):
            row["durations"].append(float(e.get("duration", 0.0)))
    rows: List[Dict[str, object]] = []
    for n in sorted(by_n):
        row = by_n[n]
        durations = row.pop("durations")
        row["median_s"] = (
            round(statistics.median(durations), 6) if durations else 0.0
        )
        row["max_s"] = round(max(durations), 6) if durations else 0.0
        rows.append(row)
    return rows


def runtime_outliers(
    events: Sequence[Dict[str, object]],
    factor: float = DEFAULT_OUTLIER_FACTOR,
) -> List[Dict[str, object]]:
    """Executed cells slower than ``factor`` x their size-class median.

    A cell only counts as an outlier against at least two executed
    cells of the same n — a singleton is its own median.
    """
    by_n: Dict[int, List[Dict[str, object]]] = {}
    for e in _executed_cells(events):
        by_n.setdefault(int(e.get("n", 0) or 0), []).append(e)
    outliers: List[Dict[str, object]] = []
    for n in sorted(by_n):
        cells = by_n[n]
        if len(cells) < 2:
            continue
        median = statistics.median(float(c.get("duration", 0.0)) for c in cells)
        if median <= 0.0:
            continue
        for c in cells:
            duration = float(c.get("duration", 0.0))
            if duration > factor * median:
                outliers.append(
                    {
                        "n": n,
                        "key": str(c.get("key", ""))[:12],
                        "kind": c.get("kind"),
                        "duration_s": round(duration, 6),
                        "median_s": round(median, 6),
                        "x_median": round(duration / median, 1),
                    }
                )
    outliers.sort(key=lambda o: -float(o["x_median"]))
    return outliers


def render_telemetry_report(
    source: Union[str, Path, TextIO],
    outlier_factor: float = DEFAULT_OUTLIER_FACTOR,
) -> str:
    """Full text report for ``repro report --telemetry PATH``."""
    events, skipped = read_events(source)
    parts: List[str] = []
    census = event_census(events)
    parts.append(
        render_table(
            [{"kind": k, "count": v} for k, v in census.items()]
            or [{"kind": "(none)", "count": 0}],
            title=f"Telemetry events ({len(events)} total)",
        )
    )
    if skipped:
        parts.append(
            f"skipped {skipped} malformed line(s) — a torn tail from a "
            "writer killed mid-record is normal; more than one line "
            "suggests stream corruption"
        )
    phase_rows = phase_profile_table(events)
    if phase_rows:
        parts.append("")
        parts.append(render_table(phase_rows, title="Phase profile"))
    cell_rows = cell_summary_table(events)
    if cell_rows:
        parts.append("")
        parts.append(render_table(cell_rows, title="Cells by size"))
    topo_rows = topology_cache_table(events)
    if topo_rows:
        parts.append("")
        parts.append(
            render_table(topo_rows, title="Topology cache")
        )
    check_rows = schedule_check_table(events)
    if check_rows:
        parts.append("")
        parts.append(
            render_table(check_rows, title="Schedule exploration")
        )
    metrics_rows = metrics_snapshot_table(events)
    if metrics_rows:
        parts.append("")
        parts.append(
            render_table(
                metrics_rows, title="Metrics (last snapshot)"
            )
        )
    outliers = runtime_outliers(events, factor=outlier_factor)
    parts.append("")
    if outliers:
        parts.append(
            render_table(
                outliers,
                title=f"Runtime outliers (> {outlier_factor:g}x median)",
            )
        )
    else:
        parts.append(
            f"runtime outliers: none (> {outlier_factor:g}x size-class median)"
        )
    return "\n".join(parts)
