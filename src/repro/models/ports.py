"""Port mappings (the KT0 / port-numbering substrate).

Under KT0 (Sec 1.1) a node v of degree d has ports 1..d, each leading to
a distinct neighbor via the bijection port_v : [d] -> N(v), and v has
*no prior knowledge* of the mapping.  The adversary chooses the mapping;
the KT0 lower bound (Theorem 1) samples it uniformly and independently
per node, which is exactly what :meth:`PortAssignment.random` does.

Storage is flat arrays over a CSR adjacency (a
:class:`~repro.graphs.compile.CompiledTopology`'s own arrays, or
:func:`~repro.graphs.compile.graph_csr` of a plain graph).  For row i
(vertex ``verts[i]``), slot ``indptr[i] + p - 1`` of ``_nbr`` holds the
index of the neighbor behind port p, and the same slot of ``_back`` the
port at that neighbor leading back to i.  Both derive from one
permutation of each row.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.errors import SimulationError
from repro.graphs.graph import Graph, Vertex

#: Counter of port assignments whose shuffles actually ran.
MATERIALIZED = "repro_setup_ports_materialized_total"


def _shuffle_rows(indptr: List[int], rng: random.Random) -> List[int]:
    """One ``rng.shuffle`` of each row's offsets ``0..d-1``, rows in
    order: the RNG consumption of shuffling every vertex's neighbor
    list, since ``random.shuffle`` depends only on the list length."""
    perm: List[int] = []
    for i in range(len(indptr) - 1):
        row = list(range(indptr[i + 1] - indptr[i]))
        rng.shuffle(row)
        perm += row
    _counter().inc()
    return perm


def _counter():
    # Imported lazily, as is repro.graphs.compile below: repro.obs
    # imports the engines, which import this package.
    from repro.obs.metrics import get_registry

    return get_registry().counter(MATERIALIZED)


class PortAssignment:
    """An explicit port bijection for every vertex of a graph.

    Ports are 1-based, matching the paper's convention
    (``1, ..., deg(v)``).
    """

    __slots__ = (
        "_verts",
        "_index",
        "_indptr",
        "_indices",
        "_pending",
        "_nbr",
        "_back",
        "_inverse",
        "_tables",
    )

    def __init__(self, graph: Graph, order: Dict[Vertex, List[Vertex]]):
        rev = self._bind_graph(graph)
        verts, indptr, indices = self._verts, self._indptr, self._indices
        perm: List[int] = []
        for i, v in enumerate(verts):
            nbrs = order.get(v)
            if nbrs is None:
                raise SimulationError(f"no port order for vertex {v!r}")
            row = indices[indptr[i] : indptr[i + 1]]
            offset = {verts[j]: k for k, j in enumerate(row)}
            ks = [offset.get(u, -1) for u in nbrs]
            if len(ks) != len(row) or -1 in ks or len(set(ks)) != len(ks):
                raise SimulationError(
                    f"port order at {v!r} is not a permutation of N(v)"
                )
            perm += ks
        self._build(perm, rev)

    def _bind(self, verts, index, indptr, indices) -> None:
        self._verts = verts
        self._index = index
        self._indptr = indptr
        self._indices = indices
        self._pending = None
        self._nbr: List[int] = []
        self._back: List[int] = []
        # Per-vertex views, built on first use: neighbor -> port
        # (port()) and the engines' send tables (table()).
        self._inverse: Dict[Vertex, Dict[Vertex, int]] = {}
        self._tables: Dict[Vertex, Tuple[Tuple[Vertex, ...], Tuple[int, ...]]] = {}

    def _bind_graph(self, graph: Graph) -> List[int]:
        """Bind to ``graph_csr(graph)``; returns its reverse-edge index."""
        from repro.graphs.compile import graph_csr, reverse_edges

        verts, index, indptr, indices = graph_csr(graph)
        self._bind(verts, index, indptr, indices)
        return reverse_edges(indptr, indices)

    def _build(self, perm: List[int], rev: List[int]) -> None:
        """Fill ``_nbr``/``_back`` from the row permutation ``perm``
        (port p of row i is CSR slot ``indptr[i] + perm[indptr[i] + p -
        1]``) and the reverse-edge index ``rev``.  A slot whose reverse
        edge is missing gets back port 0, which :meth:`table` rejects."""
        indptr = self._indptr
        slots: List[int] = []
        port_at = [0] * len(perm)
        for i in range(len(indptr) - 1):
            start = indptr[i]
            row = [start + k for k in perm[start : indptr[i + 1]]]
            for p, c in enumerate(row, 1):
                port_at[c] = p
            slots += row
        indices = self._indices
        self._nbr = [indices[c] for c in slots]
        self._back = [
            port_at[r] if r >= 0 else 0 for r in map(rev.__getitem__, slots)
        ]

    def _arrays(self) -> Tuple[List[int], List[int]]:
        """``(_nbr, _back)``, running the deferred shuffles first."""
        if self._pending is not None:
            state, rev = self._pending
            rng = random.Random()
            rng.setstate(state)
            self._build(_shuffle_rows(self._indptr, rng), rev())
            self._pending = None
        return self._nbr, self._back

    def _row(self, v: Vertex) -> Tuple[int, int]:
        i = self._index.get(v)
        if i is None:
            raise SimulationError(f"vertex {v!r} unknown")
        return self._indptr[i], self._indptr[i + 1]

    # -- constructors ----------------------------------------------------
    @classmethod
    def canonical(cls, graph: Graph) -> "PortAssignment":
        """Ports in adjacency insertion order (deterministic)."""
        return cls(graph, {v: graph.neighbors(v) for v in graph.vertices()})

    @classmethod
    def random(
        cls, graph: Graph, seed: random.Random | int | None = None
    ) -> "PortAssignment":
        """Uniformly random, mutually independent port mappings — the
        input distribution of the Theorem 1 lower bound."""
        rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        self = cls.__new__(cls)
        rev = self._bind_graph(graph)
        self._build(_shuffle_rows(self._indptr, rng), rev)
        return self

    @classmethod
    def shuffled(cls, topo, rng) -> "PortAssignment":
        """:meth:`random` over a compiled topology's CSR.

        ``rng`` is either a :class:`random.Random`, which shuffles now
        and advances exactly as :meth:`random` advances it, or a state
        from ``Random.getstate()``.  A state is kept and the shuffles
        run on the first query that needs ports; :meth:`degree` and
        :meth:`ports` read the CSR row bounds and never force them.
        The reverse-edge index is memoized on the topology.
        """
        self = cls.__new__(cls)
        self._bind(topo.verts, topo.vertex_index(), topo.indptr, topo.indices)
        if isinstance(rng, random.Random):
            self._build(_shuffle_rows(topo.indptr, rng), topo.reverse_edges())
        else:
            self._pending = (rng, topo.reverse_edges)
            # Touch the series, so a run that never shuffles reports 0.
            _counter()
        return self

    # -- queries -----------------------------------------------------------
    def degree(self, v: Vertex) -> int:
        """Number of ports (= degree) of v."""
        start, end = self._row(v)
        return end - start

    def neighbor(self, v: Vertex, port: int) -> Vertex:
        """port_v(port): the neighbor behind the given 1-based port."""
        start, end = self._row(v)
        if not 1 <= port <= end - start:
            raise SimulationError(
                f"port {port} out of range 1..{end - start} at {v!r}"
            )
        return self._verts[self._arrays()[0][start + port - 1]]

    def port(self, v: Vertex, u: Vertex) -> int:
        """port_v^{-1}(u): the 1-based port at v leading to neighbor u."""
        inverse = self._inverse.get(v)
        if inverse is None:
            i = self._index.get(v)
            if i is None:
                raise SimulationError(f"{u!r} is not a neighbor of {v!r}")
            verts = self._verts
            row = self._arrays()[0][self._indptr[i] : self._indptr[i + 1]]
            inverse = {verts[j]: p for p, j in enumerate(row, 1)}
            self._inverse[v] = inverse
        try:
            return inverse[u]
        except KeyError:
            raise SimulationError(f"{u!r} is not a neighbor of {v!r}") from None

    def ports(self, v: Vertex) -> range:
        """All 1-based ports of v."""
        return range(1, self.degree(v) + 1)

    def neighbors_in_port_order(self, v: Vertex) -> List[Vertex]:
        """v's neighbors listed by ascending port number."""
        start, end = self._row(v)
        verts = self._verts
        return [verts[j] for j in self._arrays()[0][start:end]]

    def table(self, v: Vertex) -> Tuple[Tuple[Vertex, ...], Tuple[int, ...]]:
        """The flat send table of v: ``(neighbors, back_ports)``.

        ``neighbors[p - 1]`` is ``port_v(p)`` and ``back_ports[p - 1]``
        is the port *at that neighbor* leading back to v — exactly the
        two lookups an engine needs per send.  The table is validated
        once (every neighbor must know a return port; a missing one
        means the adjacency is asymmetric) and cached, so the engines'
        inner loops are two list indexings with no per-send range or
        membership checks.
        """
        tab = self._tables.get(v)
        if tab is None:
            start, end = self._row(v)
            nbr, back = self._arrays()
            verts = self._verts
            neighbors = tuple([verts[j] for j in nbr[start:end]])
            back_ports = tuple(back[start:end])
            if 0 in back_ports:
                u = neighbors[back_ports.index(0)]
                raise SimulationError(
                    f"asymmetric adjacency at {v!r}: neighbor {u!r} "
                    f"has no return port to {v!r}"
                )
            tab = (neighbors, back_ports)
            self._tables[v] = tab
        return tab
