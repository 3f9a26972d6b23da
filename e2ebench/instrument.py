"""Outside-in layer spans: wrap the program's public layer entry points
for the duration of a traced pass, then put the originals back.

Nothing under ``src/`` is edited.  Each wrapper replaces one attribute
(a module function, a method, or a classmethod) with a function that
opens a span, calls the original and closes the span.  Names resolved
at call time (``from x import f`` inside a function body) are patched
on their defining module; names bound at import time are patched on
the importing module as well.  With no :func:`instrumented` block
active the program runs its own, unwrapped code.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Iterator, List, Tuple

from e2ebench.spans import CELL, Tracer


def _span_call(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(sid)

    return wrapper


def _topology_call(tracer: Tracer, fn: Callable) -> Callable:
    """``compiled_topology`` span that also counts fresh builds."""

    @functools.wraps(fn)
    def wrapper(workload, n, store=None, stats=None):
        local = {} if stats is None else stats
        before = local.get("build", 0)
        sid = tracer.open("graphs.topology")
        try:
            return fn(workload, n, store=store, stats=local)
        finally:
            tracer.close(sid)
            tracer.count("graphs.topology_builds", local.get("build", 0) - before)

    return wrapper


def _engine_run(tracer: Tracer, fn: Callable) -> Callable:
    """Engine ``run`` span that also counts processed events."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        sid = tracer.open("sim.engine")
        try:
            metrics = fn(self, *args, **kwargs)
        finally:
            tracer.close(sid)
        tracer.count("sim.events", metrics.events_processed)
        return metrics

    return wrapper


def _cell_key(tracer: Tracer, fn: Callable, keys: dict) -> Callable:
    """``cell_key`` span; the key becomes the cell id of this span and
    of every span that follows until the next cell starts."""

    @functools.wraps(fn)
    def wrapper(spec):
        sid = tracer.open("experiments.cell_key")
        try:
            key = fn(spec)
        finally:
            tracer.close(sid)
        keys[id(spec)] = tracer.cell = tracer.spans[sid][CELL] = key[:16]
        return key

    return wrapper


def _run_cell(tracer: Tracer, fn: Callable, keys: dict) -> Callable:
    """No span: a cache miss's execution is stamped with its key."""

    @functools.wraps(fn)
    def wrapper(spec, *args, **kwargs):
        tracer.cell = keys.get(id(spec))
        return fn(spec, *args, **kwargs)

    return wrapper


def _methods_named(root: type, attr: str) -> List[type]:
    """``root`` and its subclasses that define ``attr`` themselves."""
    seen, out, todo = set(), [], [root]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__:
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _patch_plan(tracer: Tracer) -> List[Tuple[object, str, object]]:
    """(owner, attribute, replacement) for every wrapped entry point."""
    import repro.check.explorer as explorer
    import repro.check.worlds as worlds
    import repro.experiments.parallel as parallel
    import repro.experiments.sweeps as sweeps
    import repro.graphs.compile as compile_
    import repro.models.knowledge as knowledge
    import repro.sim.runner as runner
    from repro.check.invariants import Invariant
    from repro.core.base import WakeUpAlgorithm
    from repro.models.ports import PortAssignment
    from repro.sim.async_engine import AsyncEngine
    from repro.sim.bulk import BulkSyncEngine
    from repro.sim.sync_engine import SyncEngine

    def span(owner, attr, name):
        return owner, attr, _span_call(tracer, name, getattr(owner, attr))

    def class_span(cls, attr, name):
        # classmethod: wrap the underlying function, keep the binding.
        fn = cls.__dict__[attr].__func__
        return cls, attr, classmethod(_span_call(tracer, name, fn))

    keys: dict = {}
    plan = [
        (parallel, "compiled_topology",
         _topology_call(tracer, parallel.compiled_topology)),
        (compile_, "compiled_topology",
         _topology_call(tracer, compile_.compiled_topology)),
        span(knowledge, "make_setup", "models.setup"),
        span(worlds, "make_setup", "models.setup"),
        span(knowledge, "assign_ids", "models.setup.ids"),
        span(compile_.CompiledTopology, "random_ports", "models.setup.ports"),
        class_span(PortAssignment, "random", "models.setup.ports"),
        span(runner, "run_wakeup", "sim.run_wakeup"),
        span(explorer, "run_wakeup", "sim.run_wakeup"),
        span(runner.WakeUpResult, "to_lean_dict", "sim.encode"),
        class_span(runner.WakeUpResult, "from_lean_dict", "sim.decode"),
        (parallel, "cell_key", _cell_key(tracer, parallel.cell_key, keys)),
        (parallel, "run_cell", _run_cell(tracer, parallel.run_cell, keys)),
        span(parallel.ParallelSweepExecutor, "run", "experiments.executor"),
        span(sweeps, "rows_from_outcomes", "experiments.aggregate"),
        span(explorer, "explore", "check.explore"),
        span(explorer._DfsController, "choose", "check.choose"),
    ]
    for engine in (AsyncEngine, SyncEngine, BulkSyncEngine):
        plan.append((engine, "run", _engine_run(tracer, engine.run)))
    # Every advice oracle and invariant that overrides its base; a
    # subclass that does not override resolves to a wrapped ancestor.
    for base, attr, name in (
        (WakeUpAlgorithm, "compute_advice", "core.advice"),
        (Invariant, "check", "check.invariants"),
    ):
        for cls in _methods_named(base, attr):
            if cls is not base:
                plan.append(span(cls, attr, name))
    return plan


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Install every layer wrapper for the block's duration."""
    plan = _patch_plan(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in plan]
    try:
        for owner, attr, replacement in plan:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        tracer.cell = None
