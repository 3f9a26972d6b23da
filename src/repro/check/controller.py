"""Controlled nondeterminism for the asynchronous engine.

The plain :class:`~repro.sim.async_engine.AsyncEngine` resolves all
nondeterminism up front: the adversary's :class:`DelayStrategy` fixes
every delivery time, and the heap fixes the event order.  This module
replaces that with an explicit *choice-point* model: a
:class:`ControlledSchedule` stands in for the engine's heap, and at
every step it asks a :class:`ScheduleController` which of the
currently *enabled* events fires next —

* the head of the adversary's wake schedule (when no pending message is
  forced to be delivered first by the tau = 1 deadline), or
* the FIFO head of any nonempty directed channel.

The controller therefore ranges over exactly the executions the
oblivious adversary could have produced: every interleaving of channel
heads and scheduled wakes that respects per-channel FIFO order and the
(0, 1] delay bound.  Delivery *times* are assigned on the fly:

``lo = now + STEP`` and ``hi = min(own deadline, oldest other pending
deadline - GUARD, next wake time - GUARD)``; the chosen time is
``lo + laziness * (hi - lo)``.  ``laziness = 0`` (exploration) delivers
as eagerly as the timestamp order allows; ``laziness = 1`` (worst-case
time search) stretches every delivery to the edge of its legality
envelope.  When the envelope is empty (``hi < lo``) the engine falls
back to the eager time, which is always legal while the event budget
keeps the accumulated STEP drift far below tau = 1.

Because assigned times are strictly increasing, never collide with a
pending wake time, and are FIFO-monotone per channel, feeding the
recorded per-send delays back through :class:`ReplayDelay` makes the
*plain* engine reproduce the controlled execution bit-for-bit — the
heap sorts the same order the controller chose.  That closes the loop:
any schedule found by the explorer or the worst-case search is an
ordinary :class:`~repro.sim.adversary.DelayStrategy` artifact.

See ``docs/modelcheck.md`` for the full model and its two deliberate
approximations (equal-time wake permutations are not branched; wakes
within GUARD of a pending deadline are ordered after the delivery).
"""

from __future__ import annotations

import heapq
import json
import math
import random
from collections import defaultdict, deque
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import (
    Any,
    Deque,
    Dict,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import SimulationError
from repro.sim.adversary import DelayStrategy
from repro.sim.async_engine import _DELIVER, _WAKE
from repro.sim.messages import Message

Vertex = Hashable

#: Minimal spacing between consecutive controlled event times.  Small
#: enough that the drift over a full event budget stays far below the
#: tau = 1 delay bound (5e6 events * 1e-9 = 5e-3).
STEP = 1e-9

#: Room reserved before a pending deadline or wake time when stretching
#: a lazy delivery; also the slack under which a wake is considered
#: blocked by an older pending message's deadline.
GUARD = 1e-3

#: A controller may return this from ``choose`` to abort the run (the
#: explorer's pruning signal).  The engine stops cleanly with
#: ``log.completed = False``.
ABORT = -1

#: The planted bug for the mutation smoke test: the enabled set exposes
#: *every* pending message instead of only the per-channel FIFO heads,
#: so the controller can re-order a channel — exactly the bug the
#: ``fifo-per-channel`` invariant exists to catch.
MUTATION_SKIP_FIFO = "skip-fifo"

_MUTATIONS = (None, MUTATION_SKIP_FIFO)


class EnabledEvent(NamedTuple):
    """One event the controller may fire next.

    ``kind`` is "wake" or "deliver".  For wakes, ``vertex`` is the
    scheduled vertex, ``src`` is None, ``seq`` is the wake's heap
    sequence number and ``sent_at == deadline`` is the scheduled time.
    For deliveries, ``vertex`` is the destination, ``deadline`` is
    ``sent_at + 1.0`` (the tau = 1 bound) and ``seq`` is the message's
    global send sequence.  ``dst_awake`` tells worst-case policies
    whether firing this event can still wake somebody.
    """

    kind: str
    vertex: Vertex
    src: Optional[Vertex]
    seq: int
    sent_at: float
    deadline: float
    payload: Any
    dst_awake: bool


class ChoicePoint:
    """The engine's question to the controller: one of ``enabled``
    fires next.

    ``position`` is the ordinal among *free* choice points so far (the
    index into the recorded choice sequence); ``step`` counts all
    processed events.  ``free`` is False when only one event is enabled
    — the controller is still consulted (so it can observe the state)
    but any non-ABORT answer means index 0.  ``fingerprint()`` is the
    canonical state hash (memoized), shared with the explorer's
    deduplication.
    """

    __slots__ = ("position", "step", "now", "enabled", "free", "_loop", "_fp")

    def __init__(self, position, step, now, enabled, free, loop):
        self.position = position
        self.step = step
        self.now = now
        self.enabled = enabled
        self.free = free
        self._loop = loop
        self._fp: Optional[str] = None

    def fingerprint(self) -> str:
        """Canonical hash of the schedule-relevant simulation state."""
        if self._fp is None:
            self._fp = self._loop.fingerprint()
        return self._fp


@dataclass
class ScheduleLog:
    """Everything recorded about one controlled run.

    ``choices``/``branch_sizes`` cover the free choice points only (a
    replay needs nothing else — forced points have a unique answer);
    ``delays`` maps every message seq to its assigned delay, which is
    what :class:`ReplayDelay` feeds back into the plain engine.
    ``states`` holds state fingerprints: one per choice point when the
    controller sets ``record_states``; the explorer's controller
    appends them itself, past its replayed prefix only.
    """

    choices: List[int] = field(default_factory=list)
    branch_sizes: List[int] = field(default_factory=list)
    delays: Dict[int, float] = field(default_factory=dict)
    states: List[str] = field(default_factory=list)
    final_state: str = ""
    steps: int = 0
    completed: bool = False


class ScheduleController:
    """Base controller: subclasses implement ``choose``.

    Class attributes are the protocol knobs the engine reads:
    ``laziness`` scales delivery times across the legality envelope,
    ``mutation`` enables a planted bug (tests only), ``record_states``
    asks for a state fingerprint at every choice point.  The engine's
    :class:`ControlledSchedule` sets ``log`` (and keeps itself
    reachable as ``loop``) before the first ``choose`` call.
    """

    laziness: float = 0.0
    mutation: Optional[str] = None
    record_states: bool = False
    log: Optional[ScheduleLog] = None
    loop: Optional["ControlledSchedule"] = None

    def choose(self, cp: ChoicePoint) -> int:
        """Index into ``cp.enabled`` of the event to fire, or ABORT."""
        raise NotImplementedError


class ReplayController(ScheduleController):
    """Replays a recorded choice sequence bit-exactly.

    One recorded choice is consumed per *free* choice point.  In the
    default lenient mode an exhausted or out-of-range choice falls back
    to index 0 (the canonical event) — this is what lets the shrinker
    chop arbitrary chunks out of a sequence and still get a legal run.
    ``strict=True`` raises instead, for replay-fidelity tests.
    """

    def __init__(
        self,
        choices: Sequence[int],
        strict: bool = False,
        laziness: float = 0.0,
        mutation: Optional[str] = None,
    ):
        self._choices = [int(c) for c in choices]
        self._strict = strict
        self._i = 0
        self.laziness = laziness
        self.mutation = mutation

    def choose(self, cp: ChoicePoint) -> int:
        if not cp.free:
            return 0
        if self._i >= len(self._choices):
            if self._strict:
                raise SimulationError(
                    f"replay exhausted after {self._i} choices but the "
                    "run has more free choice points"
                )
            return 0
        c = self._choices[self._i]
        self._i += 1
        if not 0 <= c < len(cp.enabled):
            if self._strict:
                raise SimulationError(
                    f"replay choice {c} out of range for "
                    f"{len(cp.enabled)} enabled events"
                )
            return 0
        return c


class RandomController(ScheduleController):
    """Uniformly random choice at every free point — the sampling side
    of the containment test (random runs must stay inside the
    exhaustive explorer's reachable set)."""

    def __init__(self, seed: int = 0, laziness: float = 0.0,
                 record_states: bool = False):
        self._rng = random.Random(seed)
        self.laziness = laziness
        self.record_states = record_states

    def choose(self, cp: ChoicePoint) -> int:
        if not cp.free:
            return 0
        return self._rng.randrange(len(cp.enabled))


class ReplayDelay(DelayStrategy):
    """Feeds a controlled run's recorded per-seq delays back through
    the plain engine.

    A pure function of the send sequence number, so it is a legitimate
    oblivious :class:`DelayStrategy`; the controlled schedule guarantees
    the recorded delays are in (0, 1], strictly increasing in global
    send order, and FIFO-monotone per channel — the plain heap then
    reproduces the controlled event order exactly.
    """

    def __init__(self, delays: Mapping[int, float]):
        self._delays = {int(k): float(v) for k, v in delays.items()}

    def delay(self, src, dst, sent_at, seq):
        try:
            return self._delays[seq]
        except KeyError:
            raise SimulationError(
                f"replay has no recorded delay for send seq {seq}; the "
                "replayed run diverged from the recorded one"
            ) from None


# ----------------------------------------------------------------------
# State canonicalization
# ----------------------------------------------------------------------


def _canon(obj, depth: int = 0):
    """A deterministic, order-insensitive normal form for node state.

    Dict/set iteration order and object identity must not leak into
    state fingerprints — two runs reaching the same logical state have
    to hash equal.  Unknown objects recurse through ``__dict__``; a
    default ``object.__repr__`` (which embeds a memory address) is
    rejected loudly rather than silently producing useless or — worse,
    across runs — colliding fingerprints.
    """
    if depth > 12:
        raise SimulationError("node state too deeply nested to fingerprint")
    t = type(obj)
    if obj is None or t in (int, float, str, bool, bytes):
        return obj
    if t in (tuple, list):
        return ("seq",) + tuple(_canon(x, depth + 1) for x in obj)
    if t in (set, frozenset):
        return ("set",) + tuple(
            sorted(repr(_canon(x, depth + 1)) for x in obj)
        )
    if t is dict:
        return ("map",) + tuple(
            sorted(
                (repr(_canon(k, depth + 1)), repr(_canon(v, depth + 1)))
                for k, v in obj.items()
            )
        )
    if isinstance(obj, random.Random):
        return _rng_token(obj)
    d = getattr(obj, "__dict__", None)
    if d is not None:
        return (t.__name__, _canon(d, depth + 1))
    r = repr(obj)
    if " at 0x" in r:
        raise SimulationError(
            f"cannot fingerprint state containing {t.__name__} (its repr "
            "embeds a memory address; give it a stable __repr__)"
        )
    return (t.__name__, r)


def _rng_token(r) -> Tuple[str, object]:
    """Stable token for a node's rng: the raw seed before first use, a
    digest of the generator state after."""
    if type(r) is int:
        return ("rng-seed", r)
    return (
        "rng-state",
        blake2b(repr(r.getstate()).encode("utf-8"), digest_size=8).hexdigest(),
    )


# ----------------------------------------------------------------------
# The controlled event source
# ----------------------------------------------------------------------


class ControlledSchedule:
    """The controller's stand-in for the engine's ``(time, seq)`` heap.

    ``AsyncEngine.run`` drives it like the heap: ``bool()`` decides the
    next event (building the enabled set and asking the controller),
    ``pop`` yields it as the same ``(time, seq, kind, obj)`` tuple, and
    the engine's flush hands every send to ``enqueue`` instead of
    drawing a delay.  Event handling itself — wakes, deliveries, send
    accounting, phases, the event budget, heartbeats and metrics —
    stays in the engine; this object only orders events and assigns
    their times by the STEP/GUARD scheme above.
    """

    def __init__(self, engine):
        controller = engine._controller
        self._engine = engine
        self._controller = controller
        self._laziness = float(getattr(controller, "laziness", 0.0))
        if not 0.0 <= self._laziness <= 1.0:
            raise SimulationError(
                f"controller laziness {self._laziness} outside [0, 1]"
            )
        self._mutation = getattr(controller, "mutation", None)
        if self._mutation not in _MUTATIONS:
            raise SimulationError(
                f"unknown controller mutation {self._mutation!r}"
            )
        if engine._drops is not None:
            raise SimulationError(
                "schedule controllers do not compose with drop strategies"
            )
        self._record_states = bool(
            getattr(controller, "record_states", False)
        )
        self.log = ScheduleLog()
        controller.log = self.log
        controller.loop = self
        # The engine's __init__ already heap-pushed every scheduled
        # wake; popping them out yields exactly the plain loop's firing
        # order (time, then schedule insertion seq).  Wakes consumed
        # seqs 0..W-1 of the shared counter, so message seqs — which
        # continue from the same counter — line up with a plain run's.
        wakes: List[Tuple[float, int, Vertex]] = []
        heap = engine._heap
        while heap:
            t, s, _kind, v = heapq.heappop(heap)
            wakes.append((t, s, v))
        self._wakes = wakes
        self._wake_i = 0
        self._channels: Dict[
            Tuple[Vertex, Vertex], Deque[Message]
        ] = defaultdict(deque)
        self._next: Optional[Tuple[float, int, int, Any]] = None
        self._popped = 0
        self._aborted = False
        # Fingerprint parts: the vertex order is fixed for the run, and
        # a vertex's (channel's) repr only changes when an event is
        # dispatched to it (a send is queued on it), so each part is
        # cached until then.
        self._order = sorted(engine._vstate, key=engine.setup.id_of)
        self._vparts: Dict[Vertex, str] = {}
        self._cparts: Dict[
            Tuple[Vertex, Vertex], Tuple[Tuple[int, int], str]
        ] = {}
        engine._enqueue = self.enqueue

    # -- the heap interface the engine loop uses ------------------------
    def __bool__(self) -> bool:
        wakes = self._wakes
        if self._wake_i < len(wakes):
            t_w, s_w, v_w = wakes[self._wake_i]
            # Wakes of already-awake vertices are state no-ops (the
            # engine's _handle_wake returns early); fire them without a
            # choice point — they commute with everything except the
            # clock, which fingerprints exclude.
            if (
                self._engine._vstate[v_w][0]._awake
                and self._wake_enabled(t_w)
            ):
                self._wake_i += 1
                self._vparts.pop(v_w, None)
                self._next = (t_w, s_w, _WAKE, v_w)
                return True
        enabled = self._enabled_events()
        if not enabled:
            return False
        log = self.log
        free = len(enabled) > 1
        cp = ChoicePoint(
            len(log.choices), self._popped, self._engine._now,
            tuple(enabled), free, self,
        )
        if self._record_states:
            log.states.append(cp.fingerprint())
        idx = self._controller.choose(cp)
        if idx == ABORT:
            self._aborted = True
            return False
        if not 0 <= idx < len(enabled):
            raise SimulationError(
                f"controller chose event {idx} of {len(enabled)} enabled"
            )
        if free:
            log.choices.append(idx)
            log.branch_sizes.append(len(enabled))
        ev = enabled[idx]
        self._vparts.pop(ev.vertex, None)
        if ev.kind == "wake":
            self._wake_i += 1
            self._next = (ev.deadline, ev.seq, _WAKE, ev.vertex)
            return True
        chan = (ev.src, ev.vertex)
        self._cparts.pop(chan, None)
        q = self._channels[chan]
        if q[0].seq == ev.seq:
            msg = q.popleft()
        else:
            # Only reachable under the skip-fifo mutation.
            msg = next(m for m in q if m.seq == ev.seq)
            q.remove(msg)
        if not q:
            del self._channels[chan]
        tau = self._assign_time(ev)
        log.delays[msg.seq] = tau - msg.sent_at
        self._next = (tau, msg.seq, _DELIVER, msg)
        return True

    def pop(self) -> Tuple[float, int, int, Any]:
        """The event the last ``bool()`` chose."""
        self._popped += 1
        return self._next

    def __len__(self) -> int:
        """Pending events (queued messages plus unfired wakes), the
        frontier size the engine samples."""
        return (
            sum(map(len, self._channels.values()))
            + len(self._wakes) - self._wake_i
        )

    def enqueue(self, msg: Message) -> None:
        """Queue a send on its channel; its delivery time is assigned
        when the controller fires it."""
        chan = (msg.src, msg.dst)
        self._channels[chan].append(msg)
        self._cparts.pop(chan, None)

    def finish(self, processed: int) -> None:
        log = self.log
        log.steps = processed
        log.completed = not self._aborted
        log.final_state = self.fingerprint()

    # -- enabled-set construction --------------------------------------
    def _oldest_deadline(self) -> Optional[float]:
        """Deadline (sent_at + 1) of the oldest pending message."""
        oldest = None
        for q in self._channels.values():
            if q and (oldest is None or q[0].sent_at < oldest):
                oldest = q[0].sent_at
        return None if oldest is None else oldest + 1.0

    def _wake_enabled(self, t_wake: float) -> bool:
        """A wake may fire next unless an older pending message's
        deadline forces that delivery first (with GUARD slack so the
        delivery keeps timestamp room below the wake)."""
        d_min = self._oldest_deadline()
        return d_min is None or d_min > t_wake + GUARD

    def _enabled_events(self) -> List[EnabledEvent]:
        vstate = self._engine._vstate
        if self._mutation == MUTATION_SKIP_FIFO:
            msgs = [m for q in self._channels.values() for m in q]
        else:
            msgs = [q[0] for q in self._channels.values() if q]
        msgs.sort(key=lambda m: m.seq)
        enabled: List[EnabledEvent] = []
        if self._wake_i < len(self._wakes):
            t_w, s_w, v_w = self._wakes[self._wake_i]
            if self._wake_enabled(t_w):
                enabled.append(
                    EnabledEvent(
                        "wake", v_w, None, s_w, t_w, t_w, None,
                        vstate[v_w][0]._awake,
                    )
                )
        # A delivery needs a timestamp strictly between now and the
        # next pending wake; when the wake leaves no room (e.g. several
        # wakes scheduled at the same instant), only the wake is
        # enabled — mirroring the plain engine, where same-time events
        # fire in heap order and wakes precede the (strictly later)
        # deliveries.
        if self._wake_i < len(self._wakes):
            t_w = self._wakes[self._wake_i][0]
            if self._engine._now + STEP >= t_w:
                return enabled
        for m in msgs:
            enabled.append(
                EnabledEvent(
                    "deliver", m.dst, m.src, m.seq, m.sent_at,
                    m.sent_at + 1.0, m.payload, vstate[m.dst][0]._awake,
                )
            )
        return enabled

    def _assign_time(self, ev: EnabledEvent) -> float:
        """Delivery-time assignment: eager floor, lazy ceiling."""
        lo = self._engine._now + STEP
        if lo > ev.deadline:
            raise SimulationError(
                "controlled schedule exhausted the timestamp room below "
                f"the tau = 1 deadline of send seq {ev.seq} (too many "
                "events squeezed under one deadline)"
            )
        tau = lo
        if self._laziness > 0.0:
            hi = ev.deadline
            # The message being delivered is already out of its
            # channel, so this scans exactly the *other* pending sends.
            d_other = self._oldest_deadline()
            if d_other is not None and d_other - GUARD < hi:
                hi = d_other - GUARD
            if self._wake_i < len(self._wakes):
                t_w = self._wakes[self._wake_i][0]
                if t_w - GUARD < hi:
                    hi = t_w - GUARD
            if hi > lo:
                tau = lo + self._laziness * (hi - lo)
            # Float rounding can push the realized delay (tau - sent_at,
            # recomputed by the plain engine on replay) a few ulps past
            # the tau = 1 bound; nudge tau down until it passes.
            while tau - ev.sent_at > 1.0 and tau > lo:
                tau = math.nextafter(tau, lo)
        if (
            self._wake_i < len(self._wakes)
            and tau >= self._wakes[self._wake_i][0]
        ):
            raise SimulationError(
                "controlled schedule exhausted the timestamp room below "
                f"the pending wake at t={self._wakes[self._wake_i][0]:g}"
            )
        return tau

    # -- state fingerprinting ------------------------------------------
    def fingerprint(self) -> str:
        """Hash of everything that determines the run's *future*:
        per-node algorithm state, awake flags, rng streams, channel
        contents (in FIFO order), the wake-schedule position, and the
        monotone message/bit totals (so bound invariants stay sound
        under deduplication).  Event times and sequence numbers are
        deliberately excluded — they differ between schedules that are
        otherwise equivalent.
        """
        engine = self._engine
        id_of = engine.setup.id_of
        vstate = engine._vstate
        vparts = self._vparts
        nodes = []
        for v in self._order:
            part = vparts.get(v)
            if part is None:
                ctx, node = vstate[v]
                part = vparts[v] = repr(
                    (
                        id_of(v),
                        ctx._awake,
                        ctx.wake_cause,
                        _canon(node.__dict__),
                        _rng_token(ctx._rng),
                    )
                )
            nodes.append(part)
        cparts = self._cparts
        chans = []
        for chan, q in self._channels.items():
            if q:
                part = cparts.get(chan)
                if part is None:
                    key = (id_of(chan[0]), id_of(chan[1]))
                    part = cparts[chan] = (
                        key,
                        repr(key + (tuple(_canon(m.payload) for m in q),)),
                    )
                chans.append(part)
        # Channel id pairs are unique, so sorting by them is sorting the
        # whole (src_id, dst_id, payloads) tuples.  The blob is
        # repr((nodes, chans, wake position, messages, bits)), joined
        # from the cached parts.
        chans.sort()
        metrics = engine.metrics
        blob = "([%s], [%s], %r, %r, %r)" % (
            ", ".join(nodes),
            ", ".join(c for _, c in chans),
            self._wake_i,
            metrics.messages_total,
            metrics.bits_total,
        )
        return blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# Replay artifacts
# ----------------------------------------------------------------------

REPLAY_VERSION = 1
REPLAY_KIND = "repro-check-replay"

#: Where CLI-facing tools drop replay artifacts by default; reported by
#: ``repro cache info`` and purged by ``repro cache purge``.
DEFAULT_REPLAY_DIR = Path("results") / ".replays"


def make_replay(
    *,
    algorithm: str,
    n: int,
    log: ScheduleLog,
    schedule_times: Mapping,
    laziness: float = 0.0,
    mutation: Optional[str] = None,
    seed: int = 0,
    objective: Optional[str] = None,
    score: Optional[float] = None,
    invariant: Optional[str] = None,
    workload: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the JSON-able replay artifact for one recorded run.

    ``choices`` + ``laziness`` replay through :class:`ReplayController`
    (bit-exactly, including the planted ``mutation`` if any);
    ``delays`` replay through the *plain* engine via
    :class:`ReplayDelay` (valid only for mutation-free runs — a FIFO
    violation cannot be expressed as a DelayStrategy).

    ``salts`` stamps the artifact with the ``engine`` and ``check``
    subsystem code salts it was recorded under
    (:func:`repro.versioning.replay_salt_vector`): a replay is only
    bit-exact against the code that produced it, and the stamp is what
    lets ``repro cache info`` / ``purge --stale`` tell live replays
    from orphaned ones without re-running anything.
    """
    from repro.versioning import replay_salt_vector

    return {
        "version": REPLAY_VERSION,
        "kind": REPLAY_KIND,
        "salts": replay_salt_vector(),
        "algorithm": algorithm,
        "n": int(n),
        "seed": int(seed),
        "laziness": float(laziness),
        "mutation": mutation,
        "objective": objective,
        "score": score,
        "invariant": invariant,
        "workload": dict(workload or {}),
        "choices": [int(c) for c in log.choices],
        "delays": {str(k): float(v) for k, v in sorted(log.delays.items())},
        "wake_times": {repr(v): float(t) for v, t in schedule_times.items()},
        "steps": int(log.steps),
    }


def save_replay(replay: Dict[str, object], path) -> Path:
    """Write one replay artifact (pretty, key-sorted JSON)."""
    from repro.obs.metrics import get_registry

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(replay, indent=2, sort_keys=True, default=repr) + "\n",
        encoding="utf-8",
    )
    get_registry().counter("repro_replay_store_total", op="save").inc()
    return path


def load_replay(path) -> Dict[str, object]:
    """Read a replay artifact back; delay keys return to ints."""
    from repro.obs.metrics import get_registry

    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("kind") != REPLAY_KIND:
        raise SimulationError(f"{path} is not a {REPLAY_KIND} artifact")
    if data.get("version") != REPLAY_VERSION:
        raise SimulationError(
            f"{path}: unsupported replay version {data.get('version')!r}"
        )
    data["delays"] = {int(k): float(v) for k, v in data["delays"].items()}
    data["choices"] = [int(c) for c in data["choices"]]
    get_registry().counter("repro_replay_store_total", op="load").inc()
    return data


def replay_is_stale(data: Mapping) -> bool:
    """Whether a replay artifact was recorded under superseded engine
    or check code.  Loading a stale replay still works (the format is
    stable) but bit-exactness is no longer guaranteed; ``repro cache
    info`` reports these and ``purge --stale`` removes them.  Artifacts
    predating the salt stamp count as stale — their provenance is
    unknowable."""
    from repro.versioning import replay_salt_vector

    salts = data.get("salts")
    if not isinstance(salts, dict):
        return True
    return dict(salts) != replay_salt_vector()
