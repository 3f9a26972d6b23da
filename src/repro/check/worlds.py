"""Deterministic world factories for ``check`` / ``worstcase``.

A *world* is a zero-argument callable returning a
``(setup, algorithm, adversary)`` triple.  The explorer, shrinker, and
worst-case search re-execute runs and need bit-equal starting states,
so topology, wake set, stagger and the :class:`NetworkSetup` are
resolved exactly once.  Every call returns that same setup and
algorithm, which runs only read (a setup's lazy ports materialize on
the first run and stay fixed), and a fresh adversary.

The ``repro check`` / ``repro worstcase`` subcommands and the
explorer's reference tests share this one construction path.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Tuple

from repro.errors import ReproError
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule

#: Topologies :func:`build_check_world` accepts for ``graph``.
CHECK_GRAPHS = ("complete", "path", "cycle", "star", "er")

World = Callable[[], Tuple[object, object, Adversary]]


def build_check_world(
    algo,
    n: int,
    graph: str = "cycle",
    awake: int = 1,
    stagger: float = 0.0,
    degree: float = 3.0,
    seed: int = 0,
) -> Tuple[World, Dict]:
    """World factory over a named small topology.

    Returns ``(world, times)`` where ``times`` is the resolved wake
    schedule (vertex -> wake time) — callers embed it in replay
    artifacts.
    """
    from repro.graphs.generators import (
        complete_graph,
        connected_erdos_renyi,
        cycle_graph,
        path_graph,
        star_graph,
    )

    if graph == "er":
        g = connected_erdos_renyi(n, degree / max(1, n - 1), seed=seed)
    elif graph in CHECK_GRAPHS:
        g = {
            "complete": complete_graph,
            "path": path_graph,
            "cycle": cycle_graph,
            "star": star_graph,
        }[graph](n)
    else:
        raise ReproError(
            f"unknown check graph {graph!r}; known: {CHECK_GRAPHS}"
        )
    rng = random.Random(seed + 1)
    woken = rng.sample(sorted(g.vertices(), key=repr),
                       max(1, min(awake, n)))
    times = {v: i * stagger for i, v in enumerate(woken)}
    knowledge = Knowledge.KT1 if algo.requires_kt1 else Knowledge.KT0
    bandwidth = "CONGEST" if algo.congest_safe else "LOCAL"
    setup = make_setup(
        g, knowledge=knowledge, bandwidth=bandwidth, seed=seed + 2
    )

    def world():
        return (
            setup,
            algo,
            Adversary(WakeSchedule(dict(times)), UnitDelay()),
        )

    return world, times


def build_class_g_world(algo, n: int, seed: int = 0) -> Tuple[World, Dict]:
    """World factory over the Theorem-1 lower-bound topology."""
    from repro.lowerbounds.graph_g import build_class_g

    cg = build_class_g(n)
    knowledge = Knowledge.KT1 if algo.requires_kt1 else Knowledge.KT0
    times = {v: 0.0 for v in cg.centers}
    setup = cg.make_setup(
        seed=seed + 2, bandwidth="LOCAL", knowledge=knowledge
    )

    def world():
        return (
            setup,
            algo,
            Adversary(WakeSchedule(dict(times)), UnitDelay()),
        )

    return world, times
