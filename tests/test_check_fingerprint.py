"""Incremental state fingerprints equal the whole-state reference.

``ControlledSchedule.fingerprint`` caches one repr part per vertex and
per channel and drops a part when an event is dispatched to its vertex
or a send is queued on its channel.  The digests must not change: they
key the explorer's deduplication, its ``states`` set and every replay
comparison.  :func:`reference_fingerprint` below is the whole-state
hash the cache replaced, kept verbatim; the ``checked`` fixture wraps
the cached method and asserts both agree at every call, over every
world shape the other ``tests/test_check_*.py`` files explore or run.
"""

from hashlib import blake2b

import pytest

from repro.check.controller import (
    MUTATION_SKIP_FIFO,
    ControlledSchedule,
    RandomController,
    _canon,
    _rng_token,
)
from repro.check.explorer import explore, random_probe
from repro.check.worlds import build_check_world, build_class_g_world
from repro.check.worstcase import worstcase_search
from repro.core import get_algorithm
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.lowerbounds.graph_g import build_class_g
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.runner import run_wakeup


def reference_fingerprint(loop: ControlledSchedule) -> str:
    """The whole-state fingerprint: every node and channel re-hashed."""
    engine = loop._engine
    setup = engine.setup
    id_of = setup.id_of
    nodes = []
    for v in sorted(engine._vstate, key=id_of):
        ctx, node = engine._vstate[v]
        nodes.append(
            (
                id_of(v),
                ctx._awake,
                ctx.wake_cause,
                _canon(node.__dict__),
                _rng_token(ctx._rng),
            )
        )
    chans = []
    for (src, dst), q in loop._channels.items():
        if q:
            chans.append(
                (
                    id_of(src),
                    id_of(dst),
                    tuple(_canon(m.payload) for m in q),
                )
            )
    chans.sort()
    blob = repr(
        (
            nodes,
            chans,
            loop._wake_i,
            engine.metrics.messages_total,
            engine.metrics.bits_total,
        )
    )
    return blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


@pytest.fixture
def checked(monkeypatch):
    """Every ``ControlledSchedule.fingerprint`` call is compared with
    :func:`reference_fingerprint`; yields the list of compared calls."""
    cached = ControlledSchedule.fingerprint
    calls = []

    def fingerprint(self):
        got = cached(self)
        want = reference_fingerprint(self)
        assert got == want, f"cached fingerprint diverged at call {len(calls)}"
        calls.append(got)
        return got

    monkeypatch.setattr(ControlledSchedule, "fingerprint", fingerprint)
    return calls


def _world(graph_fn, n, algo, wakes, knowledge=Knowledge.KT0):
    def world():
        setup = make_setup(
            graph_fn(n), knowledge=knowledge, bandwidth="LOCAL", seed=1
        )
        return (
            setup,
            get_algorithm(algo),
            Adversary(WakeSchedule(dict(wakes)), UnitDelay()),
        )

    return world


def _classg_world(n):
    def world():
        cg = build_class_g(n)
        setup = cg.make_setup(
            seed=1, bandwidth="LOCAL", knowledge=Knowledge.KT0
        )
        return (
            setup,
            get_algorithm("flooding"),
            Adversary(
                WakeSchedule({v: 0.0 for v in cg.centers}), UnitDelay()
            ),
        )

    return world


#: The explored worlds of ``tests/test_check_explorer.py``.
EXPLORED = [
    (cycle_graph, 3, "flooding", {0: 0.0}, Knowledge.KT0),
    (cycle_graph, 4, "flooding", {0: 0.0}, Knowledge.KT0),
    (cycle_graph, 4, "flooding", {0: 0.0, 2: 0.3}, Knowledge.KT0),
    (star_graph, 4, "flooding", {1: 0.0}, Knowledge.KT0),
    (path_graph, 4, "echo-flooding", {0: 0.0}, Knowledge.KT0),
    (complete_graph, 3, "dfs-rank", {0: 0.0}, Knowledge.KT1),
    (complete_graph, 4, "flooding", {0: 0.0}, Knowledge.KT0),
]


class TestExploredWorlds:
    @pytest.mark.parametrize("graph_fn,n,algo,wakes,knowledge", EXPLORED)
    def test_every_explored_state_matches(self, checked, graph_fn, n,
                                          algo, wakes, knowledge):
        result = explore(
            _world(graph_fn, n, algo, wakes, knowledge), max_schedules=100
        )
        assert checked
        assert result.states <= set(checked)

    def test_skip_fifo_mutation(self, checked):
        world = _world(path_graph, 4, "echo-flooding", {0: 0.0})
        result = explore(world, mutation=MUTATION_SKIP_FIFO,
                         max_schedules=400)
        assert result.stats.violations > 0
        assert len(checked) > 100

    @pytest.mark.parametrize(
        "algorithm,graph,n",
        [("echo-flooding", "cycle", 5), ("flooding", "complete", 4)],
    )
    def test_cli_worlds(self, checked, algorithm, graph, n):
        world, _ = build_check_world(
            get_algorithm(algorithm), n, graph=graph
        )
        explore(world, max_schedules=20)
        assert len(checked) > 100

    def test_class_g_world(self, checked):
        world, _ = build_class_g_world(get_algorithm("flooding"), 4)
        # Twelve vertices: the space is far too large to exhaust, so a
        # state budget bounds the search.
        explore(world, max_states=500)
        assert len(checked) > 100


class TestControlledRuns:
    """Runs outside the explorer: random interleavings (which record a
    fingerprint at every choice point) and the worst-case search."""

    @pytest.mark.parametrize(
        "world",
        [
            _world(cycle_graph, 4, "flooding", {0: 0.0}),
            _world(cycle_graph, 6, "flooding", {0: 0.0}),
            _world(cycle_graph, 8, "flooding", {0: 0.0}),
            _world(complete_graph, 4, "flooding", {0: 0.0, 2: 0.4}),
            _world(complete_graph, 5, "flooding", {0: 0.0}),
            _world(complete_graph, 16, "flooding", {0: 0.0}),
            _world(path_graph, 5, "echo-flooding", {0: 0.0}),
            _classg_world(6),
        ],
        ids=["cycle4", "cycle6", "cycle8", "complete4-2wakes",
             "complete5", "complete16", "path5-echo", "classg6"],
    )
    @pytest.mark.parametrize("laziness", [0.0, 1.0])
    def test_random_run(self, checked, world, laziness):
        visited, _ = random_probe(world, seed=3, laziness=laziness)
        assert visited <= set(checked)
        assert len(checked) > 1

    def test_random_controller_under_mutation(self, checked):
        setup, algo, adv = _world(
            path_graph, 4, "echo-flooding", {0: 0.0}
        )()
        ctl = RandomController(seed=11, record_states=True)
        ctl.mutation = MUTATION_SKIP_FIFO
        run_wakeup(
            setup, algo, adv, engine="async", seed=0,
            require_all_awake=False, controller=ctl,
        )
        assert len(checked) == len(ctl.log.states) + 1

    @pytest.mark.parametrize("world", [_classg_world(6), _world(
        cycle_graph, 8, "flooding", {0: 0.0})], ids=["classg6", "cycle8"])
    def test_worstcase_time_search(self, checked, world):
        # The time objective runs at laziness 1.0: every delivery is
        # stretched to the edge of its legality envelope.
        wc = worstcase_search(world, "time", beam_width=2, horizon=4)
        assert wc.laziness == 1.0
        assert checked
