"""The setup plane: array-backed, lazily materialized ports and IDs.

The contract under test:

* the topology-backed port form (``CompiledTopology.random_ports``)
  draws exactly the assignment of a per-vertex shuffle of each
  neighbor list, on ER, star (a degree n-1 center), grid and a graph
  with a degree-0 vertex;
* ``make_setup`` with an int seed and with a caller-shared ``Random``
  builds the same setup, and the shared ``Random`` ends where it ends
  without ``compiled=``;
* bulk flooding and star-broadcast cells never run the shuffles, and
  ``with_advice`` copies share one materialization;
* ``assign_ids`` draws exactly what ``rng.randrange(space)`` draws and
  leaves the RNG in the same state;
* ``make_setup`` rejects a ``compiled`` that is not the graph's.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.sweeps import sweep_cells
from repro.graphs.compile import (
    CompiledTopology,
    clear_memory_cache,
    graph_csr,
)
from repro.graphs.generators import erdos_renyi, grid_graph, star_graph
from repro.graphs.graph import Graph
from repro.models.knowledge import assign_ids, make_setup
from repro.models.ports import MATERIALIZED, PortAssignment
from repro.obs.metrics import MetricsRegistry, set_global_registry
from repro.sim.bulk import HAS_BULK


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    clear_memory_cache()
    yield
    clear_memory_cache()


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    previous = set_global_registry(registry)
    try:
        yield registry
    finally:
        set_global_registry(previous)


def _materialized(registry) -> float:
    return registry.snapshot()["counters"].get(MATERIALIZED, 0.0)


def _with_isolated_vertex() -> Graph:
    g = grid_graph(3, 3)
    g.add_vertex("lonely")
    return g


GRAPHS = {
    "er": lambda: erdos_renyi(60, 0.1, seed=4),
    "star": lambda: star_graph(40),
    "grid": lambda: grid_graph(5, 6),
    "isolated": _with_isolated_vertex,
}


def _topology(graph: Graph) -> CompiledTopology:
    """An artifact over ``graph``'s CSR, without the awake-set BFS
    (which a degree-0 vertex would fail)."""
    verts, _, indptr, indices = graph_csr(graph)
    return CompiledTopology("", verts, indptr, indices, awake=(), rho_awk=0.0)


def _reference_orders(graph: Graph, rng: random.Random):
    """Port orders by shuffling each neighbor *label* list in vertex
    order: the stream every port form must consume identically."""
    orders = {}
    for v in graph.vertices():
        nbrs = graph.neighbors(v)
        rng.shuffle(nbrs)
        orders[v] = nbrs
    return orders


class TestArrayForm:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_agrees_with_random_and_reference(self, name, seed):
        topo = _topology(GRAPHS[name]())
        graph = topo.graph()
        ref_rng = random.Random(seed)
        reference = _reference_orders(graph, ref_rng)
        legacy = PortAssignment.random(graph, random.Random(seed))
        lazy = topo.random_ports(random.Random(seed).getstate())
        eager_rng = random.Random(seed)
        eager = topo.random_ports(eager_rng)
        assert eager_rng.getstate() == ref_rng.getstate()
        for pa in (legacy, lazy, eager):
            for v in graph.vertices():
                assert pa.degree(v) == graph.degree(v)
                assert pa.neighbors_in_port_order(v) == reference[v]
                for p in pa.ports(v):
                    u = pa.neighbor(v, p)
                    assert u == reference[v][p - 1]
                    assert pa.port(v, u) == p
                assert pa.table(v) == legacy.table(v)

    def test_query_errors(self):
        topo = _topology(grid_graph(2, 2))
        pa = topo.random_ports(random.Random(0).getstate())
        v = topo.verts[0]
        for call in (
            lambda: pa.neighbor(v, 0),
            lambda: pa.neighbor(v, 3),
            lambda: pa.neighbor("nope", 1),
            lambda: pa.port(v, v),
            lambda: pa.port("nope", v),
            lambda: pa.table("nope"),
        ):
            with pytest.raises(SimulationError):
                call()

    def test_asymmetric_adjacency_rejected_by_table(self):
        g = Graph([0, 1, 2])
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        del g._adj[2][1]  # 1 lists 2, but 2 no longer lists 1
        pa = PortAssignment(g, {0: [1], 1: [2, 0], 2: []})
        assert pa.table(0) == ((1,), (2,))
        with pytest.raises(SimulationError, match="asymmetric"):
            pa.table(1)


class TestMakeSetup:
    def test_int_seed_and_shared_rng_agree(self):
        topo = _topology(erdos_renyi(80, 0.08, seed=2))
        graph = topo.graph()
        legacy_rng = random.Random(11)
        legacy = make_setup(graph, seed=legacy_rng)
        shared_rng = random.Random(11)
        shared = make_setup(graph, seed=shared_rng, compiled=topo)
        owned = make_setup(graph, seed=11, compiled=topo)
        assert shared_rng.getstate() == legacy_rng.getstate()
        assert owned.ids == shared.ids == legacy.ids
        for v in graph.vertices():
            assert owned.ports.table(v) == legacy.ports.table(v)
            assert shared.ports.table(v) == legacy.ports.table(v)

    def test_degree_does_not_materialize(self, registry):
        topo = _topology(grid_graph(4, 4))
        setup = make_setup(topo.graph(), seed=5, compiled=topo)
        assert _materialized(registry) == 0
        for v in topo.verts:
            assert setup.ports.degree(v) == topo.graph().degree(v)
            assert list(setup.ports.ports(v)) == list(
                range(1, topo.graph().degree(v) + 1)
            )
        assert _materialized(registry) == 0
        setup.ports.neighbor(topo.verts[0], 1)
        assert _materialized(registry) == 1

    def test_with_advice_shares_one_materialization(self, registry):
        topo = _topology(erdos_renyi(50, 0.1, seed=9))
        setup = make_setup(topo.graph(), seed=1, compiled=topo)
        copy = setup.with_advice({})
        tables = {v: copy.ports.table(v) for v in topo.verts}
        assert {v: setup.ports.table(v) for v in topo.verts} == tables
        assert setup.neighbor_ids(topo.verts[0]) == copy.neighbor_ids(
            topo.verts[0]
        )
        assert _materialized(registry) == 1

    def test_compiled_of_another_graph_rejected(self):
        topo = _topology(grid_graph(3, 3))
        with pytest.raises(SimulationError, match="compiled"):
            make_setup(grid_graph(3, 3), seed=0, compiled=topo)


@pytest.mark.skipif(not HAS_BULK, reason="bulk lane needs numpy + scipy")
@pytest.mark.parametrize(
    "algorithm, knowledge",
    [("flooding", "KT0"), ("star-broadcast", "KT1")],
)
def test_bulk_cells_never_materialize_ports(registry, algorithm, knowledge):
    cells = sweep_cells(
        algorithm,
        {"kind": "er_single_wake", "avg_degree": 6.0, "seed": 3},
        [48, 96],
        engine="sync",
        backend="bulk",
        knowledge=knowledge,
        trials=2,
    )
    outcomes = ParallelSweepExecutor(workers=0, use_cache=False).run(cells)
    assert all(o.ok and o.result.engine == "bulk" for o in outcomes)
    assert _materialized(registry) == 0


def test_sync_cells_do_materialize_ports(registry):
    cells = sweep_cells(
        "flooding",
        {"kind": "er_single_wake", "avg_degree": 6.0, "seed": 3},
        [48],
        engine="sync",
        knowledge="KT0",
        trials=2,
    )
    outcomes = ParallelSweepExecutor(workers=0, use_cache=False).run(cells)
    assert all(o.ok for o in outcomes)
    assert _materialized(registry) == 2


def _reference_ids(graph, rng, space, fixed):
    ids = dict(fixed or {})
    used = set(ids.values())
    remaining = [v for v in graph.vertices() if v not in ids]
    pool = []
    while len(pool) < len(remaining):
        candidate = rng.randrange(space)
        if candidate not in used:
            used.add(candidate)
            pool.append(candidate)
    ids.update(zip(remaining, pool))
    return ids


@pytest.mark.parametrize("n", [1, 2, 3, 100, 4096])
@pytest.mark.parametrize("pin", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_assign_ids_matches_randrange(n, pin, seed):
    graph = Graph(range(n))
    fixed = {0: n * n - 1} if pin else None
    ref_rng = random.Random(seed)
    expected = _reference_ids(graph, ref_rng, max(n, n * n), fixed)
    rng = random.Random(seed)
    assert assign_ids(graph, rng, fixed=fixed) == expected
    assert rng.getstate() == ref_rng.getstate()
