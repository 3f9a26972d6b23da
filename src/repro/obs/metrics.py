"""Aggregated metrics: labeled counters, gauges, and histograms.

PR 2's :mod:`repro.obs` emits per-event JSONL but nothing accumulates —
cache hit-rates, queue depths, and event-rate *distributions* (the
quantities the full paper's regime analysis needs) had to be re-derived
from raw streams.  This module is the aggregation layer: a
process-wide :class:`MetricsRegistry` of named instrument families,
each fanning out into labeled series:

* :class:`Counter` — monotonically accumulating totals
  (``repro_engine_messages_total{engine="async"}``);
* :class:`Gauge` — last-value / peak measurements
  (``repro_executor_workers``);
* :class:`Histogram` — **fixed-bucket** distributions.  Bucket bounds
  are chosen once per family (from :data:`CATALOG` or the first
  ``buckets=`` argument) and never adapt to the data, so snapshots are
  deterministic and two registries merge bucket-by-bucket — the
  property the fork-based executor relies on to aggregate worker
  deltas exactly.

Determinism contract (same as PR 2's telemetry): metrics observe, they
never participate — no instrument value ever enters a result row.
Series whose family name ends in ``_seconds`` carry wall-clock
measurements and are therefore nondeterministic; *everything else*
(event counts, message totals, cache hits, frontier-size buckets) is
bit-identical across identical runs.  ``snapshot(deterministic_only=
True)`` drops the ``_seconds`` families, which is what the determinism
conformance tests compare.

Zero-overhead discipline: the module-global registry starts as
:data:`NULL_REGISTRY` (``enabled = False``; every instrument method is
a no-op).  Hot loops hoist one ``enabled`` check per run — exactly the
``NullRecorder`` pattern — so the engine bench gate sees no cost until
someone opts in via :func:`set_global_registry` (the CLI ``--metrics``
flag does this).

Export surfaces:

* :func:`MetricsRegistry.snapshot` — a plain, JSON-able dict (the
  ``metrics_snapshot`` telemetry event payload and the ``repro metrics
  dump`` file format);
* :func:`render_prometheus` — Prometheus text exposition format
  (cumulative ``_bucket`` series, ``_sum``/``_count``);
* :func:`histogram_quantile` — p50/p99 estimation from bucket counts
  (what ``repro top`` renders).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

SNAPSHOT_SCHEMA = 1

# ----------------------------------------------------------------------
# Bucket vocabularies (fixed => snapshots merge exactly)
# ----------------------------------------------------------------------
#: Powers of two for size-like quantities (messages, events, frontier
#: sizes, queue depths).  21 bounds: 1 .. 2^20, plus the implicit +Inf.
SIZE_BUCKETS: Tuple[float, ...] = tuple(float(1 << i) for i in range(21))

#: Powers of two for round/time-complexity quantities (model time, not
#: wall time): 1 .. 4096.
ROUND_BUCKETS: Tuple[float, ...] = tuple(float(1 << i) for i in range(13))

#: Wall-clock durations in seconds (1ms .. 60s); families using these
#: must end in ``_seconds`` so they are excluded from the determinism
#: contract.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: The instrument catalog: every family this codebase emits, with its
#: type, help text, and (for histograms) bucket bounds.  This is the
#: single source the Prometheus exporter reads HELP/TYPE lines from and
#: the table ``docs/observability.md`` documents.  Families not listed
#: here may still be created ad hoc (type inferred from the accessor,
#: histograms get SIZE_BUCKETS).
CATALOG: Dict[str, Dict[str, Any]] = {
    # -- engines (labels: engine) --------------------------------------
    "repro_engine_runs_total": {
        "type": "counter", "help": "Engine executions completed."},
    "repro_engine_events_total": {
        "type": "counter",
        "help": "Engine work units processed (heap events / rounds)."},
    "repro_engine_messages_total": {
        "type": "counter", "help": "Messages sent across all runs."},
    "repro_engine_bits_total": {
        "type": "counter", "help": "Message bits sent across all runs."},
    "repro_engine_frontier_size": {
        "type": "histogram", "buckets": SIZE_BUCKETS,
        "help": "Per-round frontier / in-flight batch sizes "
                "(sync & bulk: messages in flight per round; async: "
                "event-queue depth sampled at the heartbeat cadence)."},
    # -- runner (labels: algorithm, engine) ----------------------------
    "repro_runs_total": {
        "type": "counter",
        "help": "End-to-end run_wakeup executions per algorithm."},
    "repro_run_messages": {
        "type": "histogram", "buckets": SIZE_BUCKETS,
        "help": "Message complexity distribution, one sample per run."},
    "repro_run_time": {
        "type": "histogram", "buckets": ROUND_BUCKETS,
        "help": "Time complexity distribution (tau-normalized / "
                "rounds), one sample per run."},
    # -- executor ------------------------------------------------------
    "repro_executor_cells_total": {
        "type": "counter",
        "help": "Terminal cell outcomes (labels: status, cached)."},
    "repro_executor_cell_retries_total": {
        "type": "counter",
        "help": "Isolated re-attempts after a worker death."},
    "repro_executor_cells_queued": {
        "type": "gauge",
        "help": "Cache-miss cells submitted to the pool this sweep."},
    "repro_executor_workers": {
        "type": "gauge", "help": "Configured worker process count."},
    "repro_executor_cell_seconds": {
        "type": "histogram", "buckets": SECONDS_BUCKETS,
        "help": "Executed-cell wall durations (nondeterministic)."},
    "repro_executor_wall_seconds": {
        "type": "gauge",
        "help": "Wall time of the last sweep (nondeterministic)."},
    "repro_phase_seconds": {
        "type": "histogram", "buckets": SECONDS_BUCKETS,
        "help": "Per-phase wall-time spans from cell profiles "
                "(labels: phase; nondeterministic)."},
    # -- setup plane ---------------------------------------------------
    "repro_setup_ports_materialized_total": {
        "type": "counter",
        "help": "Port assignments whose shuffles ran (bulk flooding "
                "and star-broadcast cells defer them and never do)."},
    # -- artifact stores -----------------------------------------------
    "repro_cellcache_fetch_total": {
        "type": "counter",
        "help": "Cell result-cache lookups (labels: outcome=hit|miss)."},
    "repro_topology_fetch_total": {
        "type": "counter",
        "help": "Compiled-topology fetches "
                "(labels: tier=build|hit_mem|hit_disk)."},
    "repro_replay_store_total": {
        "type": "counter",
        "help": "Schedule-replay artifacts (labels: op=save|load)."},
    # -- repro.check ---------------------------------------------------
    "repro_check_schedules_total": {
        "type": "counter", "help": "Schedules explored."},
    "repro_check_states_total": {
        "type": "counter", "help": "Distinct states visited."},
    "repro_check_dedup_hits_total": {
        "type": "counter", "help": "State-fingerprint dedup prunes."},
    "repro_check_sleep_prunes_total": {
        "type": "counter", "help": "Sleep-set (POR) prunes."},
    "repro_worstcase_evaluations_total": {
        "type": "counter", "help": "Worst-case search evaluations."},
    "repro_shrink_iterations_total": {
        "type": "counter", "help": "Counterexample shrink test runs."},
    # -- repro.opt (adversary optimizers + frontier atlas) -------------
    "repro_opt_generations_total": {
        "type": "counter",
        "help": "Optimizer generations completed (labels: optimizer)."},
    "repro_opt_evaluations_total": {
        "type": "counter",
        "help": "Candidate genomes scored, duplicates included "
                "(labels: optimizer)."},
    "repro_opt_best_score": {
        "type": "gauge",
        "help": "Running incumbent score of the last optimizer run "
                "(labels: optimizer, objective)."},
    "repro_opt_atlas_merges_total": {
        "type": "counter",
        "help": "Atlas merge outcomes (labels: "
                "outcome=new|improved|kept)."},
}

_TIMING_SUFFIX = "_seconds"


def is_timing(name: str) -> bool:
    """True for wall-clock families excluded from the determinism
    contract (name convention: ``*_seconds``)."""
    return name.endswith(_TIMING_SUFFIX)


def series_key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical series identifier: ``name{k="v",...}`` with label keys
    sorted — the snapshot dict key and the Prometheus series name."""
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{labels[k]}"' for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`series_key` (labels values must not contain
    quotes or commas — true for every label this codebase emits)."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: Dict[str, str] = {}
    for part in rest.rstrip("}").split(","):
        if not part:
            continue
        k, _, v = part.partition("=")
        labels[k] = v.strip('"')
    return name, labels


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class Counter:
    """One monotonically increasing series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """One last-value-wins series (with a peak helper)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def max(self, value: float) -> None:
        if value > self.value:
            self.value = float(value)


class Histogram:
    """One fixed-bucket series.

    ``counts[i]`` holds observations with ``value <= bounds[i]`` (and
    greater than the previous bound); ``counts[-1]`` is the +Inf
    overflow bucket.  Counts are stored *non-cumulative* — cheap to
    merge — and cumulated only at Prometheus render time.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Iterable[float]):
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly ascending")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


class _NullInstrument:
    """Shared no-op stand-in for every instrument type."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()

_TYPES = ("counter", "gauge", "histogram")


class _Family:
    """All series of one name: shared type, help, buckets."""

    __slots__ = ("name", "type", "help", "buckets", "series")

    def __init__(self, name: str, kind: str,
                 buckets: Optional[Tuple[float, ...]] = None):
        meta = CATALOG.get(name, {})
        self.name = name
        self.type = kind
        self.help = meta.get("help", "")
        if kind == "histogram":
            self.buckets = tuple(
                buckets
                if buckets is not None
                else meta.get("buckets", SIZE_BUCKETS)
            )
        else:
            self.buckets = None
        self.series: Dict[str, Any] = {}

    def child(self, labels: Mapping[str, str]):
        key = series_key(self.name, labels)
        inst = self.series.get(key)
        if inst is None:
            if self.type == "counter":
                inst = Counter()
            elif self.type == "gauge":
                inst = Gauge()
            else:
                inst = Histogram(self.buckets)
            self.series[key] = inst
        return inst


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """A process-wide (or per-worker) set of instrument families.

    Accessors create families and labeled children on demand and are
    cheap enough for warm paths; hot loops should hold the returned
    child and call ``inc``/``observe`` on it directly::

        frontier = reg.histogram("repro_engine_frontier_size",
                                 engine="sync")
        for round in ...:
            frontier.observe(len(in_flight))
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -- accessors -------------------------------------------------------
    def _family(self, name: str, kind: str,
                buckets: Optional[Tuple[float, ...]] = None) -> _Family:
        fam = self._families.get(name)
        if fam is None:
            fam = _Family(name, kind, buckets)
            self._families[name] = fam
        elif fam.type != kind:
            raise ValueError(
                f"instrument {name!r} is a {fam.type}, not a {kind}"
            )
        return fam

    def counter(self, name: str, **labels: str) -> Counter:
        return self._family(name, "counter").child(labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._family(name, "gauge").child(labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Iterable[float]] = None,
        **labels: str,
    ) -> Histogram:
        b = tuple(buckets) if buckets is not None else None
        return self._family(name, "histogram", b).child(labels)

    # -- snapshot / merge ------------------------------------------------
    def snapshot(self, deterministic_only: bool = False) -> Dict[str, Any]:
        """Plain JSON-able view of every series, keys sorted.

        ``deterministic_only`` drops the ``*_seconds`` families — the
        remainder is bit-identical across identical runs (the metrics
        determinism conformance contract).
        """
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._families):
            if deterministic_only and is_timing(name):
                continue
            fam = self._families[name]
            for key in sorted(fam.series):
                inst = fam.series[key]
                if fam.type == "counter":
                    counters[key] = inst.value
                elif fam.type == "gauge":
                    gauges[key] = inst.value
                else:
                    histograms[key] = {
                        "le": list(inst.bounds),
                        "counts": list(inst.counts),
                        "sum": inst.sum,
                        "count": inst.count,
                    }
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge_snapshot(self, snap: Mapping[str, Any]) -> None:
        """Fold another registry's snapshot into this one — counters and
        histogram buckets add, gauges keep the max.  This is how the
        executor aggregates worker deltas exactly under fork: fixed
        buckets guarantee bucket-by-bucket alignment."""
        for key, value in snap.get("counters", {}).items():
            name, labels = parse_series_key(key)
            self.counter(name, **labels).value += float(value)
        for key, value in snap.get("gauges", {}).items():
            name, labels = parse_series_key(key)
            self.gauge(name, **labels).max(float(value))
        for key, h in snap.get("histograms", {}).items():
            name, labels = parse_series_key(key)
            inst = self.histogram(name, buckets=h["le"], **labels)
            if list(inst.bounds) != [float(b) for b in h["le"]]:
                raise ValueError(
                    f"histogram {key!r} bucket bounds differ; "
                    "cannot merge"
                )
            for i, c in enumerate(h["counts"]):
                inst.counts[i] += int(c)
            inst.sum += float(h["sum"])
            inst.count += int(h["count"])


class NullRegistry(MetricsRegistry):
    """The zero-overhead default: accessors hand back one shared no-op
    instrument; ``enabled = False`` lets hot paths skip instrumentation
    entirely (the ``NULL_RECORDER`` pattern)."""

    enabled = False

    def counter(self, name: str, **labels: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name, buckets=None, **labels):  # type: ignore[override]
        return _NULL_INSTRUMENT


#: Shared disabled registry; safe to reuse (it holds no state).
NULL_REGISTRY = NullRegistry()

_global_registry: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-global registry (``NULL_REGISTRY`` until someone
    opts in)."""
    return _global_registry


def set_global_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` as the process-global sink (``None`` resets
    to the disabled default); returns the previous one so callers can
    restore it — the worker entry point swaps a fresh registry in for
    the duration of a cell and ships the delta back to the parent."""
    global _global_registry
    previous = _global_registry
    _global_registry = registry if registry is not None else NULL_REGISTRY
    return previous


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    """Prometheus number formatting: integers without the trailing .0."""
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _fmt_bound(bound: float) -> str:
    return "+Inf" if bound == float("inf") else _fmt(bound)


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Prometheus text exposition format for a snapshot dict.

    Emits ``# HELP`` / ``# TYPE`` once per family (help text from
    :data:`CATALOG`), then one line per series; histograms render as
    cumulative ``_bucket`` series ending in ``le="+Inf"`` plus
    ``_sum`` and ``_count``.
    """
    lines: List[str] = []
    seen_types: set = set()

    def _header(name: str, kind: str) -> None:
        if name in seen_types:
            return
        seen_types.add(name)
        help_text = CATALOG.get(name, {}).get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    for key, value in snapshot.get("counters", {}).items():
        name, _ = parse_series_key(key)
        _header(name, "counter")
        lines.append(f"{key} {_fmt(value)}")
    for key, value in snapshot.get("gauges", {}).items():
        name, _ = parse_series_key(key)
        _header(name, "gauge")
        lines.append(f"{key} {_fmt(value)}")
    for key, h in snapshot.get("histograms", {}).items():
        name, labels = parse_series_key(key)
        _header(name, "histogram")
        cumulative = 0
        for bound, count in zip(
            list(h["le"]) + [float("inf")], h["counts"]
        ):
            cumulative += int(count)
            lbl = dict(labels)
            lbl["le"] = _fmt_bound(float(bound))
            lines.append(
                f"{series_key(name + '_bucket', lbl)} {cumulative}"
            )
        lines.append(f"{series_key(name + '_sum', labels)} {_fmt(h['sum'])}")
        lines.append(
            f"{series_key(name + '_count', labels)} {int(h['count'])}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def histogram_quantile(hist: Mapping[str, Any], q: float) -> float:
    """Estimate the q-quantile (0 < q <= 1) of a snapshot histogram by
    linear interpolation within its bucket, the standard Prometheus
    estimator.  Observations in the +Inf bucket clamp to the largest
    finite bound.  Returns 0.0 for an empty histogram."""
    total = int(hist["count"])
    if total <= 0:
        return 0.0
    bounds = [float(b) for b in hist["le"]]
    counts = [int(c) for c in hist["counts"]]
    target = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= target:
            if i >= len(bounds):  # +Inf bucket
                return bounds[-1] if bounds else 0.0
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i]
            frac = (target - cumulative) / count
            return lo + (hi - lo) * frac
        cumulative += count
    return bounds[-1] if bounds else 0.0


def validate_snapshot(snap: Any) -> List[str]:
    """Schema violations in a snapshot dict (empty list = valid) —
    shared by ``scripts/check_metrics.py`` and the telemetry stream
    validator's ``metrics_snapshot`` handling."""
    errors: List[str] = []
    if not isinstance(snap, Mapping):
        return ["snapshot is not an object"]
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(snap.get(section), Mapping):
            errors.append(f"missing/invalid section {section!r}")
    if errors:
        return errors
    for key, value in snap["counters"].items():
        if not isinstance(value, (int, float)) or value < 0:
            errors.append(f"counter {key!r}: non-numeric or negative")
    for key, value in snap["gauges"].items():
        if not isinstance(value, (int, float)):
            errors.append(f"gauge {key!r}: non-numeric")
    for key, h in snap["histograms"].items():
        if not isinstance(h, Mapping):
            errors.append(f"histogram {key!r}: not an object")
            continue
        le = h.get("le")
        counts = h.get("counts")
        if not isinstance(le, list) or not isinstance(counts, list):
            errors.append(f"histogram {key!r}: missing le/counts")
            continue
        floats = [float(b) for b in le]
        if floats != sorted(set(floats)):
            errors.append(f"histogram {key!r}: bounds not ascending")
        if len(counts) != len(le) + 1:
            errors.append(
                f"histogram {key!r}: {len(counts)} buckets for "
                f"{len(le)} bounds (want bounds + 1)"
            )
        if any((not isinstance(c, int)) or c < 0 for c in counts):
            errors.append(f"histogram {key!r}: negative/non-int count")
        elif h.get("count") != sum(counts):
            errors.append(
                f"histogram {key!r}: count {h.get('count')} != "
                f"bucket sum {sum(counts)}"
            )
        if not isinstance(h.get("sum"), (int, float)):
            errors.append(f"histogram {key!r}: non-numeric sum")
    return errors
