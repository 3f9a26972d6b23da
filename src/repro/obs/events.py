"""The telemetry event vocabulary.

Every telemetry record is one JSON object per line (JSONL) with three
envelope fields — ``schema`` (an integer, :data:`SCHEMA_VERSION`),
``kind`` (one of :data:`EVENT_KINDS`), ``ts`` (wall-clock seconds since
the epoch, for humans; ordering within a stream is by line, not by
``ts``) — plus the kind's required payload fields and any number of
optional context fields (``key``, ``n``, ``algorithm``, ...).

The schema is append-only: new kinds and new *optional* fields may be
added, required fields of existing kinds never change without a
version bump.  ``scripts/check_telemetry.py`` validates a stream
against this module, and :func:`validate_event` is the single source
of truth it uses.

Event kinds
-----------

==============  ====================================================
``sweep_start``  a :class:`ParallelSweepExecutor` run begins
``sweep_end``    ... and ends (carries the executor stats)
``cell_start``   one sweep cell is published (cached or executed)
``cell_end``     terminal: the cell finished ok / failed / crashed
``cell_retry``   a crashed cell is being re-attempted
``cell_timeout`` terminal: the cell exceeded its wall-clock budget
``run_start``    one engine execution begins (runner-level)
``run_end``      ... and ends
``phase_start``  a live phase span opens (in-process runs only)
``phase_end``    a phase span closed; per-cell events from the
                 executor are *aggregates* over the whole cell
``engine_step``  throttled engine-loop heartbeat
``topology_stats`` compiled-topology cache totals for one sweep
                 (builds vs memory/disk hits), emitted just before
                 ``sweep_end``
``check_stats``  one schedule-space exploration finished
                 (:func:`repro.check.explorer.explore` totals)
``worstcase_stats`` one worst-case schedule search finished
``opt_generation`` one adversary-optimizer generation was evaluated
                 (:func:`repro.opt.evaluate.optimize`; carries the
                 generation's best and the running incumbent score)
``shrink_stats`` one counterexample was minimized
``metrics_snapshot`` a :class:`repro.obs.metrics.MetricsRegistry`
                 snapshot (counters/gauges/histograms sections),
                 emitted at sweep end when metrics are enabled
==============  ====================================================

A cell reaches exactly one terminal event: ``cell_end`` (status
``ok``/``failed``/``crashed``) or ``cell_timeout``.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List

SCHEMA_VERSION = 1

# kind -> required payload fields (beyond the envelope).
EVENT_KINDS: Dict[str, tuple] = {
    "sweep_start": ("cells", "workers"),
    "sweep_end": ("cells", "executed", "cached", "ok", "failed",
                  "wall_time"),
    "cell_start": ("key", "algorithm", "n", "trial", "seed", "engine",
                   "cached"),
    "cell_end": ("key", "status", "cached", "duration"),
    "cell_retry": ("key", "attempt"),
    "cell_timeout": ("key", "duration", "budget"),
    "run_start": ("algorithm", "engine", "n", "seed"),
    "run_end": ("algorithm", "engine", "n", "messages", "time",
                "all_awake"),
    "phase_start": ("phase",),
    "phase_end": ("phase", "elapsed", "messages", "entries"),
    "engine_step": ("events", "now", "awake"),
    "topology_stats": ("build", "hit_mem", "hit_disk"),
    "check_stats": ("algorithm", "schedules", "states", "pruned_sleep",
                    "pruned_state", "violations", "max_depth",
                    "completed"),
    "worstcase_stats": ("algorithm", "objective", "evaluations",
                        "best_score", "policy"),
    "opt_generation": ("optimizer", "generation", "population", "best",
                       "incumbent"),
    "shrink_stats": ("invariant", "tests", "from_len", "to_len",
                     "reduction"),
    "metrics_snapshot": ("counters", "gauges", "histograms"),
}

#: Statuses a ``cell_end`` event may carry.
CELL_END_STATUSES = ("ok", "failed", "crashed")

#: Kinds that close a cell's lifecycle.
TERMINAL_CELL_KINDS = ("cell_end", "cell_timeout")


def make_event(kind: str, **fields: Any) -> Dict[str, Any]:
    """Build one schema-conformant event dict.

    Raises ``ValueError`` for an unknown kind or a missing required
    field — emit sites fail loudly rather than producing records the
    validator would reject later.
    """
    try:
        required = EVENT_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown telemetry event kind {kind!r}") from None
    missing = [f for f in required if f not in fields]
    if missing:
        raise ValueError(
            f"event {kind!r} is missing required fields {missing}"
        )
    event: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "ts": time.time(),
    }
    event.update(fields)
    return event


def validate_event(event: Any) -> List[str]:
    """Return a list of schema violations (empty = valid)."""
    errors: List[str] = []
    if not isinstance(event, dict):
        return [f"event is {type(event).__name__}, not an object"]
    kind = event.get("kind")
    if kind not in EVENT_KINDS:
        errors.append(f"unknown kind {kind!r}")
        return errors
    schema = event.get("schema")
    if schema != SCHEMA_VERSION:
        errors.append(
            f"schema version {schema!r} != {SCHEMA_VERSION} ({kind})"
        )
    if not isinstance(event.get("ts"), (int, float)):
        errors.append(f"missing/non-numeric ts ({kind})")
    for field in EVENT_KINDS[kind]:
        if field not in event:
            errors.append(f"{kind}: missing required field {field!r}")
    if kind == "cell_end":
        status = event.get("status")
        if status not in CELL_END_STATUSES:
            errors.append(f"cell_end: invalid status {status!r}")
    return errors


def serialize_event(event: Dict[str, Any]) -> str:
    """One JSONL line (no trailing newline); keys sorted for stable
    diffs."""
    return json.dumps(event, sort_keys=True, default=repr)


def parse_line(line: str) -> Dict[str, Any]:
    """Inverse of :func:`serialize_event`; raises on malformed JSON."""
    event = json.loads(line)
    if not isinstance(event, dict):
        raise ValueError("telemetry line is not a JSON object")
    return event
