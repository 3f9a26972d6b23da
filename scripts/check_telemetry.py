#!/usr/bin/env python3
"""Validate a telemetry JSONL stream against the repro.obs schema.

Checks, in order:

1. every line parses as a JSON object and passes
   :func:`repro.obs.events.validate_event` (schema version, required
   fields, cell_end statuses).  Exception: a contiguous run of
   malformed lines at the very *end* of the stream is skipped and
   counted, not flagged — a producer killed mid-write leaves exactly
   that torn tail.  Malformed
   lines *followed by* valid ones are still violations;
2. cell lifecycle: every cell key reaches exactly as many terminal
   events (``cell_end`` or ``cell_timeout``) as it has ``cell_start``
   events, and no terminal event appears without a ``cell_start``.
   Count-matching (rather than exactly-one) is what a grid that lists
   a size twice needs: its cell key legitimately starts twice;
3. every *executed* ok cell (``cell_end`` with ``status=ok`` and
   ``cached=false``) has at least one ``phase_end`` event for its key
   — the profiling guarantee the engines' implicit "engine" phase
   provides;
4. every ``metrics_snapshot`` event carries a schema-valid registry
   snapshot (sections present, non-negative counters, histogram bucket
   sanity via :func:`repro.obs.metrics.validate_snapshot`), and
   counters are monotone non-decreasing across successive snapshots —
   one process-global registry only ever accumulates.

Exit status 0 and a one-line summary on success; 1 with one line per
violation otherwise.  ``--min-cells N`` additionally requires at least
N ``cell_start`` events (CI smoke runs use it to prove the stream is
not trivially empty).  ``--expect-topology-builds N`` requires the
summed ``topology_stats`` counters to report exactly N topology builds
— the warm-store smoke invariant: builds equal the number of distinct
(workload, n) cells, everything else is a cache hit.

Usage: python scripts/check_telemetry.py PATH [--min-cells N]
       [--expect-topology-builds N]
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.events import (  # noqa: E402
    TERMINAL_CELL_KINDS,
    parse_line,
    validate_event,
)
from repro.obs.metrics import validate_snapshot  # noqa: E402


def check_metrics_snapshots(events) -> List[str]:
    """Violations in the stream's ``metrics_snapshot`` events.

    Each snapshot must pass the registry schema check, and every
    counter series must be monotone non-decreasing from one snapshot to
    the next (snapshots are cumulative views of one registry, never
    resets — a drop means two registries wrote the same stream).
    """
    errors: List[str] = []
    prev_counters: Dict[str, float] = {}
    index = 0
    for e in events:
        if e.get("kind") != "metrics_snapshot":
            continue
        index += 1
        for problem in validate_snapshot(e):
            errors.append(f"metrics_snapshot #{index}: {problem}")
        counters = e.get("counters")
        if not isinstance(counters, dict):
            continue
        for key, value in counters.items():
            before = prev_counters.get(key, 0.0)
            if float(value) < before:
                errors.append(
                    f"metrics_snapshot #{index}: counter {key} "
                    f"dropped {before} -> {value} (must be monotone)"
                )
        for key in prev_counters:
            if key not in counters:
                errors.append(
                    f"metrics_snapshot #{index}: counter {key} "
                    "disappeared (must be monotone)"
                )
        prev_counters = {k: float(v) for k, v in counters.items()}
    return errors


def check_stream(lines, min_cells: int = 0, expect_topology_builds=None):
    """Return (errors, summary) for an iterable of JSONL lines."""
    errors: List[str] = []
    events: List[Dict[str, object]] = []
    # Parse in two passes over the buffered lines so malformed lines at
    # the *tail* (a writer killed mid-record leaves exactly that)
    # can be told apart from corruption in the middle of the stream.
    numbered = [
        (lineno, line)
        for lineno, line in enumerate(lines, 1)
        if line.strip()
    ]
    parsed: List[tuple] = []  # (lineno, event-or-None, error-or-None)
    last_good = -1
    for i, (lineno, line) in enumerate(numbered):
        try:
            event = parse_line(line)
        except ValueError as exc:
            parsed.append((lineno, None, f"unparseable ({exc})"))
            continue
        parsed.append((lineno, event, None))
        last_good = i
    skipped_tail = 0
    for i, (lineno, event, problem) in enumerate(parsed):
        if event is None:
            if i > last_good:
                skipped_tail += 1  # torn tail: tolerated, counted
            else:
                errors.append(f"line {lineno}: {problem}")
            continue
        for violation in validate_event(event):
            errors.append(f"line {lineno}: {violation}")
        events.append(event)

    census = Counter(str(e.get("kind")) for e in events)
    started: Counter = Counter()
    terminal: Counter = Counter()
    executed_ok: List[str] = []
    phase_keys = {
        str(e["key"])
        for e in events
        if e.get("kind") == "phase_end" and "key" in e
    }
    for e in events:
        kind = e.get("kind")
        if kind == "cell_start":
            started[str(e.get("key"))] += 1
        elif kind in TERMINAL_CELL_KINDS:
            key = str(e.get("key"))
            terminal[key] += 1
            if key not in started:
                errors.append(
                    f"{kind} for key {key[:12]} without a cell_start"
                )
            if (
                kind == "cell_end"
                and e.get("status") == "ok"
                and not e.get("cached")
            ):
                executed_ok.append(key)
    for key, starts in started.items():
        count = terminal[key]
        if count != starts:
            errors.append(
                f"cell {key[:12]} has {count} terminal events "
                f"(want {starts}, one per cell_start)"
            )
    for key in executed_ok:
        if key not in phase_keys:
            errors.append(
                f"executed cell {key[:12]} has no phase_end event"
            )
    if len(started) < min_cells:
        errors.append(
            f"only {len(started)} cell_start events (require >= {min_cells})"
        )
    errors.extend(check_metrics_snapshots(events))
    topo = {"build": 0, "hit_mem": 0, "hit_disk": 0}
    for e in events:
        if e.get("kind") == "topology_stats":
            for field in topo:
                topo[field] += int(e.get(field, 0))
    if expect_topology_builds is not None:
        if not census.get("topology_stats"):
            errors.append(
                "no topology_stats event "
                f"(expected {expect_topology_builds} builds)"
            )
        elif topo["build"] != expect_topology_builds:
            errors.append(
                f"{topo['build']} topology builds "
                f"(expected exactly {expect_topology_builds}; "
                f"hits: mem={topo['hit_mem']} disk={topo['hit_disk']})"
            )

    summary = {
        "events": len(events),
        "cells": len(started),
        "terminal": sum(terminal.values()),
        "census": dict(sorted(census.items())),
        "topology": topo,
        "skipped_tail": skipped_tail,
    }
    return errors, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate a repro telemetry JSONL file."
    )
    parser.add_argument("path", help="telemetry JSONL file")
    parser.add_argument(
        "--min-cells",
        type=int,
        default=0,
        help="require at least this many cell_start events",
    )
    parser.add_argument(
        "--expect-topology-builds",
        type=int,
        default=None,
        metavar="N",
        help=(
            "require the topology_stats counters to report exactly N "
            "builds (warm-store smoke invariant)"
        ),
    )
    args = parser.parse_args(argv)
    try:
        # errors="replace": a tail torn inside a multi-byte sequence
        # must degrade into a skipped line, not a UnicodeDecodeError.
        with open(
            args.path, "r", encoding="utf-8", errors="replace"
        ) as fh:
            errors, summary = check_stream(
                fh,
                min_cells=args.min_cells,
                expect_topology_builds=args.expect_topology_builds,
            )
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 1
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    census = " ".join(f"{k}={v}" for k, v in summary["census"].items())
    tail = (
        f", skipped {summary['skipped_tail']} torn tail line(s)"
        if summary["skipped_tail"]
        else ""
    )
    print(
        f"{args.path}: {summary['events']} events, "
        f"{summary['cells']} cells ({census or 'empty'}){tail}"
    )
    if errors:
        print(f"{len(errors)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
