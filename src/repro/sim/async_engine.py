"""Asynchronous discrete-event engine.

Implements the paper's asynchronous model (Sec 1.1–1.2):

* every message suffers an unpredictable but finite delay, chosen by an
  oblivious adversary (a :class:`~repro.sim.adversary.DelayStrategy`);
  delays are normalized so the maximum is tau = 1 time unit;
* channels are error-free and FIFO — the engine enforces per-directed-
  edge delivery ordering even when the adversary's raw delays would
  reorder messages;
* local computation is instantaneous and free;
* a sleeping node is woken by the arrival of any message and processes
  that message immediately upon awakening; adversary wake-ups happen at
  schedule times; waking is permanent.

The event loop is deterministic: ties in delivery time break by global
send sequence number, and adversary wake-ups at equal times break by
schedule insertion order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.models.knowledge import NetworkSetup
from repro.obs.metrics import get_registry
from repro.obs.phases import PhaseTracker
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sim.adversary import Adversary
from repro.sim.faults import NoDrops
from repro.sim.messages import Message, bit_size_cached
from repro.sim.metrics import Metrics
from repro.sim.node import NodeAlgorithm, NodeContext
from repro.sim.trace import Trace

Vertex = Hashable

_WAKE = 0
_DELIVER = 1

# FIFO enforcement pushes a delivery this far past the previous one on
# the same directed channel, when the tau = 1 delay bound leaves room;
# small enough to never matter for the time accounting.  When the
# channel's high-water mark already sits at the bound (e.g. unit-delay
# bursts), the delivery instead ties with it and the heap's send-
# sequence tie-break keeps FIFO order — a bump past sent_at + 1 would
# violate the normalization and inflate time_complexity.
_FIFO_EPS = 1e-9

# Telemetry heartbeat cadence: one engine_step event per this many
# processed events (when a recorder is enabled).
_STEP_EVERY = 1_000

# Sentinel for the engine's payload-identity memo ("no payload seen
# yet"); a fresh object is never identical to any payload.
_UNSET = object()


class AsyncEngine:
    """Runs one asynchronous execution of a wake-up algorithm."""

    def __init__(
        self,
        setup: NetworkSetup,
        nodes: Dict[Vertex, NodeAlgorithm],
        adversary: Adversary,
        seed: int = 0,
        max_events: int = 5_000_000,
        trace: Optional[Trace] = None,
        recorder: Optional[Recorder] = None,
        controller=None,
    ):
        self.setup = setup
        # Schedule controller (repro.check): when set, run() takes its
        # events from a ControlledSchedule instead of the heap.  Same
        # zero-overhead discipline as NULL_RECORDER — the plain hot
        # path pays one attribute check per run(), not per event.
        self._controller = controller
        self.nodes = nodes
        self.adversary = adversary
        self.metrics = Metrics()
        self.trace = trace
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.phases = PhaseTracker(
            self.metrics, self.recorder, fields={"n": setup.n}
        )
        self._max_events = max_events
        self._seq = itertools.count()
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._fifo_last: Dict[Tuple[Vertex, Vertex], float] = {}
        self._now = 0.0

        # Hot-path fast lane: per-vertex send tables (one validated
        # lookup per vertex instead of two checked dict walks per
        # send), and a flush path specialized at init for the run's
        # fixed drop/trace configuration.
        self._tables = {
            v: setup.ports.table(v) for v in setup.graph.vertices()
        }
        drops = getattr(adversary, "drops", None)
        if type(drops) is NoDrops:
            drops = None  # structurally a no-op; take the fast lane
        self._drops = drops
        # A ControlledSchedule sets this to take over every send.
        self._enqueue: Optional[Callable[[Message], None]] = None
        if drops is None and trace is None and controller is None:
            self._flush = self._flush_fast
        else:
            self._flush = self._flush_full
        # LOCAL runs (cap None) skip the per-send bandwidth call.
        self._bw_cap = setup.bandwidth.cap_bits
        # Broadcasts reuse one payload object across ports (and
        # constant payloads across calls), so one identity check
        # usually replaces the whole bit_size_cached lookup.  Holding
        # the reference keeps the id() stable.
        self._memo_payload: Any = _UNSET
        self._memo_bits = 0

        self._ctx: Dict[Vertex, NodeContext] = {}
        for v in setup.graph.vertices():
            # Seed only; the context builds the Random on first use.
            node_rng = (seed * 1_000_003 + setup.id_of(v)) % 2**63
            ctx = NodeContext(v, setup, node_rng)
            ctx._phases = self.phases
            self._ctx[v] = ctx
        missing = set(setup.graph.vertices()) - set(nodes)
        if missing:
            raise SimulationError(
                f"{len(missing)} vertices have no algorithm instance"
            )
        # One dict hit per event instead of two (ctx map + node map).
        self._vstate: Dict[Vertex, Tuple[NodeContext, NodeAlgorithm]] = {
            v: (self._ctx[v], nodes[v]) for v in setup.graph.vertices()
        }

        for v, t in adversary.schedule.times().items():
            if not setup.graph.has_vertex(v):
                raise SimulationError(f"schedule wakes unknown vertex {v!r}")
            heapq.heappush(self._heap, (t, next(self._seq), _WAKE, v))

    # ------------------------------------------------------------------
    def run(self) -> Metrics:
        """Process events until quiescence; returns the metrics.

        Events come from the ``(time, seq)`` heap or, when a schedule
        controller is attached, from a
        :class:`~repro.check.controller.ControlledSchedule` that stands
        in for it; everything else about the loop is shared.

        The whole event loop runs inside the implicit ``"engine"``
        phase, so every execution has at least one phase profile entry
        even for algorithms that declare no phases of their own.
        """
        if self._controller is None:
            heap, pop = self._heap, heapq.heappop
        else:
            # The controller's schedule stands in for the heap; it is
            # imported lazily because repro.check imports this module.
            from repro.check.controller import ControlledSchedule

            heap = ControlledSchedule(self)
            pop = ControlledSchedule.pop
        rec = self.recorder
        rec_enabled = rec.enabled  # fixed for the run; hoisted
        mreg = get_registry()
        # Heap-depth sampling shares the heartbeat cadence; the child
        # observe is hoisted so the disabled path costs one `is None`
        # check per event, same discipline as rec_enabled.
        frontier_obs = (
            mreg.histogram(
                "repro_engine_frontier_size", engine="async"
            ).observe
            if mreg.enabled
            else None
        )
        handle_wake = self._handle_wake
        max_events = self._max_events
        vstate = self._vstate
        metrics = self.metrics
        received_by = metrics.received_by
        trace = self.trace
        flush = self._flush
        now = self._now
        processed = 0
        self.phases._start("engine", None)
        try:
            while heap:
                time, _tie, kind, msg = pop(heap)
                if time < now - 1e-12:
                    raise SimulationError("event scheduled in the past")
                if time > now:
                    now = time
                    self._now = time
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"event budget of {self._max_events} exceeded; "
                        "the protocol is likely not terminating"
                    )
                if kind == _WAKE:
                    handle_wake(msg, time, cause="adversary")
                else:
                    # Delivery handling, inlined (this is the hot
                    # path; a method call per event is measurable).
                    # Metrics.record_receive is inlined too.
                    v = msg.dst
                    ctx, node = vstate[v]
                    received_by[v] += 1
                    if time > metrics.last_activity:
                        metrics.last_activity = time
                    if trace is not None:
                        trace.deliver(time, msg)
                    if not ctx._awake:
                        # Receipt of a message wakes a sleeping node;
                        # the message is then processed immediately
                        # (Sec 1.1).
                        ctx._awake = True
                        ctx.wake_cause = "message"
                        metrics.record_wake(v, time, "message")
                        if trace is not None:
                            trace.wake(time, v, "message")
                        node.on_wake(ctx)
                    node.on_message(ctx, msg.dst_port, msg.payload)
                    flush(v, time)
                if frontier_obs is not None and processed % _STEP_EVERY == 0:
                    frontier_obs(len(heap))
                if rec_enabled and processed % _STEP_EVERY == 0:
                    rec.emit(
                        "engine_step",
                        events=processed,
                        now=self._now,
                        awake=self.metrics.awake_count(),
                        n=self.setup.n,
                        engine="async",
                    )
        finally:
            self.phases._stop()
        self.metrics.events_processed = processed
        if heap is not self._heap:
            heap.finish(processed)
        if mreg.enabled:
            mreg.counter("repro_engine_runs_total", engine="async").inc()
            mreg.counter(
                "repro_engine_events_total", engine="async"
            ).inc(processed)
            mreg.counter(
                "repro_engine_messages_total", engine="async"
            ).inc(metrics.messages_total)
            mreg.counter(
                "repro_engine_bits_total", engine="async"
            ).inc(metrics.bits_total)
        return self.metrics

    # ------------------------------------------------------------------
    def _handle_wake(self, v: Vertex, time: float, cause: str) -> None:
        ctx, node = self._vstate[v]
        if ctx._awake:
            return
        ctx._awake = True
        ctx.wake_cause = cause
        self.metrics.record_wake(v, time, cause)
        if self.trace is not None:
            self.trace.wake(time, v, cause)
        node.on_wake(ctx)
        self._flush(v, time)

    def _fifo_slot(self, prev: float, cap: float, chan) -> float:
        """A FIFO-consistent delivery time after ``prev`` within the
        tau = 1 bound ``cap`` (= sent_at + 1.0).

        Prefers a strict eps bump; when the high-water mark already
        sits at the bound, the delivery ties with it (the heap's seq
        tie-break preserves send order on equal times).  Only a
        high-water mark *beyond* the bound — impossible unless the
        invariant is already broken — raises.
        """
        bumped = prev + _FIFO_EPS
        if bumped <= cap:
            return bumped
        if prev <= cap:
            return prev
        raise SimulationError(
            f"FIFO channel {chan!r} saturated beyond the tau = 1 bound "
            f"(high-water mark {prev!r} past {cap!r})"
        )

    # ------------------------------------------------------------------
    # Flush paths — one is bound to self._flush at init.  Both turn
    # queued sends into scheduled deliveries with identical semantics;
    # the fast lane drops the per-send drop/trace branches entirely.
    # ------------------------------------------------------------------
    def _flush_fast(self, v: Vertex, time: float) -> None:
        """Fast lane: no drop strategy, no trace.

        Metric counters are accumulated locally and written back once
        per flush (Metrics.record_send, batched); the write-back sits
        in a ``finally`` so totals stay correct even when a bandwidth
        or delay violation aborts the flush mid-loop.
        """
        ctx = self._ctx[v]
        sends = ctx._outbox
        if not sends:
            return
        ctx._outbox = []
        neighbors, back_ports = self._tables[v]
        seq_next = self._seq.__next__
        delay_of = self.adversary.delays.delay
        cap = self._bw_cap
        metrics = self.metrics
        edge_messages = metrics.edge_messages
        fifo_last = self._fifo_last
        heap = self._heap
        push = heapq.heappush
        cap1 = time + 1.0
        last_payload = self._memo_payload
        last_bits = self._memo_bits
        n_sent = 0
        bits_sum = 0
        max_bits = metrics.max_message_bits
        try:
            for send in sends:
                port = send.port
                dst = neighbors[port - 1]
                payload = send.payload
                if payload is last_payload:
                    bits = last_bits
                else:
                    bits = bit_size_cached(payload)
                    last_payload = payload
                    last_bits = bits
                if cap is not None and bits > cap:
                    self.setup.bandwidth.check(bits)
                seq = seq_next()
                delay = delay_of(v, dst, time, seq)
                if not 0.0 < delay <= 1.0:
                    raise SimulationError(
                        f"adversary produced delay {delay} outside (0, 1]"
                    )
                deliver_at = time + delay
                chan = (v, dst)
                prev = fifo_last.get(chan)
                if prev is not None and deliver_at <= prev:
                    deliver_at = self._fifo_slot(prev, cap1, chan)
                fifo_last[chan] = deliver_at
                n_sent += 1
                bits_sum += bits
                if bits > max_bits:
                    max_bits = bits
                edge_messages[chan] += 1
                push(
                    heap,
                    (
                        deliver_at,
                        seq,
                        _DELIVER,
                        Message(
                            v, dst, back_ports[port - 1], port, payload,
                            bits, time, seq,
                        ),
                    ),
                )
        finally:
            self._memo_payload = last_payload
            self._memo_bits = last_bits
            if n_sent:
                metrics.messages_total += n_sent
                metrics.bits_total += bits_sum
                metrics.max_message_bits = max_bits
                metrics.sent_by[v] += n_sent

    def _flush_full(self, v: Vertex, time: float) -> None:
        """General path: fault injection, tracing and/or a schedule
        controller, which takes each send through ``_enqueue`` and
        assigns its delivery time when it fires."""
        ctx = self._ctx[v]
        if not ctx._outbox:
            return
        neighbors, back_ports = self._tables[v]
        drops = self._drops
        trace = self.trace
        enqueue = self._enqueue
        for send in ctx._drain():
            port = send.port
            dst = neighbors[port - 1]
            payload = send.payload
            bits = bit_size_cached(payload)
            self.setup.bandwidth.check(bits)
            seq = next(self._seq)
            if drops is not None and drops.drops(v, dst, seq):
                # Fault injection (repro.sim.faults): the message is
                # charged to the sender but never delivered.
                self.metrics.record_send(v, dst, bits)
                continue
            msg = Message(
                v, dst, back_ports[port - 1], port, payload, bits, time, seq
            )
            if enqueue is not None:
                enqueue(msg)
            else:
                delay = self.adversary.delays.delay(v, dst, time, seq)
                if not 0.0 < delay <= 1.0:
                    raise SimulationError(
                        f"adversary produced delay {delay} outside (0, 1]"
                    )
                deliver_at = time + delay
                chan = (v, dst)
                prev = self._fifo_last.get(chan)
                if prev is not None and deliver_at <= prev:
                    deliver_at = self._fifo_slot(prev, time + 1.0, chan)
                self._fifo_last[chan] = deliver_at
                heapq.heappush(self._heap, (deliver_at, seq, _DELIVER, msg))
            self.metrics.record_send(v, dst, bits)
            if trace is not None:
                trace.send(time, msg)
