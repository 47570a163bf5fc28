"""Compiled CSR topology: the execution core of the columnar engine.

A :class:`CompiledTopology` is an immutable, array-based snapshot of a
:class:`~repro.graphs.graph.Graph` or :class:`~repro.graphs.digraph.DiGraph`:
nodes are mapped to dense ``0..n-1`` integers and the adjacency structure is
stored in compressed-sparse-row (CSR) form —

* ``indptr`` — ``n + 1`` offsets; the *communication* neighbours of node ``i``
  occupy positions ``indptr[i]:indptr[i + 1]`` of ``indices``;
* ``indices`` — neighbour indices, concatenated per node in the graph's
  insertion order (for digraphs: successors first, then the predecessors that
  are not also successors);
* ``weights`` — the weight carried at the same CSR position (for the extra
  predecessor entries of a digraph this is the weight of the reverse arc);
* ``degrees`` — per-node communication degree (``indptr`` deltas).

Hash-based containers make every neighbour scan pay dict overhead and every
per-link table pay tuple hashing; the CSR view replaces both with array
slices and integer arithmetic.  The round simulator, the structural property
helpers and the variant setup code all share one compiled view per graph via
:meth:`~repro.graphs.base.BaseGraph.freeze`.
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Iterator

Node = Hashable

_INDEX_TYPECODE = "q"  # 64-bit signed: node indices and CSR offsets
_WEIGHT_TYPECODE = "d"


class CompiledTopology:
    """Frozen CSR snapshot of a graph's communication topology."""

    __slots__ = (
        "n",
        "directed",
        "labels",
        "index",
        "indptr",
        "indices",
        "weights",
        "degrees",
        "arc_count",
        "edge_count",
        "_label_sets",
        "_position_maps",
        "_sorted_rows",
    )

    def __init__(
        self,
        labels: list[Node],
        indptr: array,
        indices: array,
        weights: array,
        edge_count: int,
        directed: bool,
    ) -> None:
        self.n = len(labels)
        self.directed = directed
        self.labels = labels
        self.index: dict[Node, int] = {v: i for i, v in enumerate(labels)}
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.degrees = array(
            _INDEX_TYPECODE,
            (indptr[i + 1] - indptr[i] for i in range(self.n)),
        )
        self.arc_count = len(indices)
        self.edge_count = edge_count
        self._label_sets: list[frozenset[Node] | None] = [None] * self.n
        self._position_maps: list[dict[int, int] | None] = [None] * self.n
        self._sorted_rows: list[tuple[int, ...]] | None = None

    # ------------------------------------------------------------- neighbours
    def neighbor_indices(self, i: int) -> array:
        """The CSR slice of communication neighbours of node index ``i``."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def neighbor_labels(self, i: int) -> list[Node]:
        labels = self.labels
        return [labels[j] for j in self.neighbor_indices(i)]

    def neighbor_label_set(self, i: int) -> frozenset[Node]:
        """Frozen label set of node ``i``'s neighbours (cached per node)."""
        cached = self._label_sets[i]
        if cached is None:
            cached = self._label_sets[i] = frozenset(self.neighbor_labels(i))
        return cached

    def neighbor_items(self, i: int) -> Iterator[tuple[Node, float]]:
        """Yield ``(neighbour label, weight)`` pairs in CSR order."""
        labels = self.labels
        lo, hi = self.indptr[i], self.indptr[i + 1]
        for pos in range(lo, hi):
            yield labels[self.indices[pos]], self.weights[pos]

    def degree_of(self, i: int) -> int:
        return self.degrees[i]

    def sorted_neighbor_rows(self) -> list[tuple[int, ...]]:
        """Per-node neighbour index rows, each sorted ascending (cached).

        CSR rows keep the graph's insertion order; consumers that must
        observe neighbours in ascending index order — the columnar engine's
        lazy inboxes replicate the reference engine's inbox key order with
        these — get the sorted rows materialised once per compiled view and
        shared across runs.
        """
        rows = self._sorted_rows
        if rows is None:
            indptr, indices = self.indptr, self.indices
            rows = self._sorted_rows = [
                tuple(sorted(indices[indptr[i] : indptr[i + 1]]))
                for i in range(self.n)
            ]
        return rows

    # ----------------------------------------------------------- flat buffers
    def flat_csr(self) -> tuple[memoryview, memoryview, memoryview]:
        """Zero-copy typed views of the ``(indptr, indices, weights)`` arrays.

        The views expose the CSR arrays through the buffer protocol with
        their native item types (64-bit signed offsets/indices, 64-bit float
        weights), so array-kernel consumers can wrap them without copying —
        e.g. ``numpy.frombuffer(indices_view, dtype=numpy.int64)`` — while
        the stdlib ``array`` objects remain the single source of truth.
        """
        return memoryview(self.indptr), memoryview(self.indices), memoryview(self.weights)

    def arc_position(self, src: int, dst: int) -> int:
        """Global CSR position of the link ``src -> dst``.

        Positions are unique per ordered link, dense in ``0..arc_count-1``,
        and stable for the lifetime of the compiled view — exactly what a
        preallocated per-link accounting array needs.  Raises ``KeyError``
        for non-adjacent pairs.
        """
        posmap = self._position_maps[src]
        if posmap is None:
            lo, hi = self.indptr[src], self.indptr[src + 1]
            posmap = self._position_maps[src] = {
                self.indices[pos]: pos for pos in range(lo, hi)
            }
        return posmap[dst]

    # ------------------------------------------------------------- traversals
    def bfs_levels(self, source: int, max_depth: int | None = None) -> array:
        """Hop distances from ``source`` over the CSR arrays (-1 = unreached)."""
        dist = array(_INDEX_TYPECODE, [-1]) * self.n
        dist[source] = 0
        frontier = [source]
        depth = 0
        indptr, indices = self.indptr, self.indices
        while frontier and (max_depth is None or depth < max_depth):
            depth += 1
            nxt: list[int] = []
            for u in frontier:
                for pos in range(indptr[u], indptr[u + 1]):
                    w = indices[pos]
                    if dist[w] < 0:
                        dist[w] = depth
                        nxt.append(w)
            frontier = nxt
        return dist

    def bfs_reach(self, source: int, max_depth: int | None = None) -> list[tuple[int, int]]:
        """``(node index, depth)`` pairs in discovery order, starting at depth 0.

        Same traversal as :meth:`bfs_levels` but returns only the reached
        nodes, so truncated searches cost O(reached), not O(n) output.
        """
        dist = array(_INDEX_TYPECODE, [-1]) * self.n
        dist[source] = 0
        reach = [(source, 0)]
        frontier = [source]
        depth = 0
        indptr, indices = self.indptr, self.indices
        while frontier and (max_depth is None or depth < max_depth):
            depth += 1
            nxt: list[int] = []
            for u in frontier:
                for pos in range(indptr[u], indptr[u + 1]):
                    w = indices[pos]
                    if dist[w] < 0:
                        dist[w] = depth
                        reach.append((w, depth))
                        nxt.append(w)
            frontier = nxt
        return reach

    def eccentricity(self, source: int) -> int:
        """Largest hop distance from ``source``; -1 if the graph is disconnected."""
        dist = self.bfs_levels(source)
        best = 0
        for d in dist:
            if d < 0:
                return -1
            if d > best:
                best = d
        return best

    # ---------------------------------------------------------------- dunders
    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"CompiledTopology(n={self.n}, arcs={self.arc_count}, {kind})"


class FrozenGraph:
    """Immutable graph view over a prebuilt :class:`CompiledTopology`.

    The ``freeze``-direct generator path (:func:`repro.graphs.generators.sparse_gnp_csr`)
    builds CSR arrays straight from an edge stream — at n = 10^6 the
    intermediate dict-of-sets adjacency of a mutable
    :class:`~repro.graphs.graph.Graph` costs gigabytes of peak RSS and most
    of the build time.  This wrapper gives such a topology the read-only
    graph surface the simulator stack consumes (``freeze()``,
    ``number_of_nodes``, ``nodes``, ``neighbors``, …) without ever
    materialising per-node hash containers; ``freeze()`` simply returns the
    wrapped compiled view, so every engine shares the same CSR arrays the
    generator produced.  Mutation is not supported — grow a regular
    :class:`~repro.graphs.graph.Graph` instead.
    """

    __slots__ = ("_topology",)

    directed = False

    def __init__(self, topology: CompiledTopology) -> None:
        self._topology = topology

    def freeze(self) -> CompiledTopology:
        """The wrapped compiled view (already built; never invalidated)."""
        return self._topology

    # ------------------------------------------------------------------ nodes
    def nodes(self) -> list[Node]:
        """The node labels in CSR (index) order."""
        return list(self._topology.labels)

    def number_of_nodes(self) -> int:
        """Number of nodes."""
        return self._topology.n

    def has_node(self, v: Node) -> bool:
        """Whether ``v`` is a node of the graph."""
        return v in self._topology.index

    # ------------------------------------------------------------------ edges
    def number_of_edges(self) -> int:
        """Number of undirected edges."""
        return self._topology.edge_count

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Yield each undirected edge once (smaller CSR index first)."""
        topo = self._topology
        labels = topo.labels
        indptr, indices = topo.indptr, topo.indices
        for i in range(topo.n):
            for pos in range(indptr[i], indptr[i + 1]):
                j = indices[pos]
                if i < j:
                    yield labels[i], labels[j]

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        topo = self._topology
        index = topo.index
        if u not in index or v not in index:
            return False
        i, j = index[u], index[v]
        try:
            topo.arc_position(i, j)
        except KeyError:
            return False
        return True

    def neighbors(self, v: Node) -> set[Node]:
        """The neighbour label set of node ``v``."""
        topo = self._topology
        return set(topo.neighbor_label_set(topo.index[v]))

    def degree(self, v: Node) -> int:
        """Number of neighbours of node ``v``."""
        topo = self._topology
        return topo.degrees[topo.index[v]]

    # ---------------------------------------------------------------- dunders
    def __contains__(self, v: Node) -> bool:
        return v in self._topology.index

    def __len__(self) -> int:
        return self._topology.n

    def __repr__(self) -> str:
        return (
            f"FrozenGraph(n={self.number_of_nodes()}, m={self.number_of_edges()})"
        )


def compile_adjacency(
    adj: dict[Node, dict[Node, float]], edge_count: int, directed: bool
) -> CompiledTopology:
    """Compile a dict-of-dicts adjacency structure into CSR form."""
    labels = list(adj)
    index = {v: i for i, v in enumerate(labels)}
    indptr = array(_INDEX_TYPECODE, [0]) * (len(labels) + 1)
    indices = array(_INDEX_TYPECODE)
    weights = array(_WEIGHT_TYPECODE)
    for i, v in enumerate(labels):
        nbrs = adj[v]
        indices.extend(index[u] for u in nbrs)
        weights.extend(nbrs.values())
        indptr[i + 1] = len(indices)
    return CompiledTopology(labels, indptr, indices, weights, edge_count, directed)


def compile_graph(graph: "object") -> CompiledTopology:
    """Compile an undirected :class:`~repro.graphs.graph.Graph`."""
    return compile_adjacency(graph._adj, graph.number_of_edges(), directed=False)


def compile_digraph(graph: "object") -> CompiledTopology:
    """Compile a :class:`~repro.graphs.digraph.DiGraph`.

    The CSR rows hold the *communication* neighbourhood (successors first,
    then predecessors that are not successors), matching the bidirectional
    links the simulator and the paper's Section 1.5 assume.  The weight of a
    predecessor-only entry is the weight of the reverse arc.
    """
    succ: dict[Node, dict[Node, float]] = graph._succ
    pred: dict[Node, dict[Node, float]] = graph._pred
    labels = list(succ)
    index = {v: i for i, v in enumerate(labels)}
    indptr = array(_INDEX_TYPECODE, [0]) * (len(labels) + 1)
    indices = array(_INDEX_TYPECODE)
    weights = array(_WEIGHT_TYPECODE)
    for i, v in enumerate(labels):
        out = succ[v]
        indices.extend(index[u] for u in out)
        weights.extend(out.values())
        for u, w in pred[v].items():
            if u not in out:
                indices.append(index[u])
                weights.append(w)
        indptr[i + 1] = len(indices)
    return CompiledTopology(
        labels, indptr, indices, weights, graph.number_of_edges(), directed=True
    )


def complete_overlay(labels: list[Node]) -> CompiledTopology:
    """Virtual clique topology: every node adjacent to every other node.

    Used by the Congested Clique communication model, whose messages travel
    on an implicit complete graph regardless of the input graph's edges.
    Neighbours of node ``i`` appear in label order (skipping ``i`` itself),
    which is the same deterministic order both simulator engines observe.
    All overlay links carry weight 1.0.
    """
    n = len(labels)
    indptr = array(_INDEX_TYPECODE, [0]) * (n + 1)
    indices = array(_INDEX_TYPECODE)
    for i in range(n):
        indices.extend(j for j in range(n) if j != i)
        indptr[i + 1] = len(indices)
    weights = array(_WEIGHT_TYPECODE, [1.0]) * len(indices)
    return CompiledTopology(
        list(labels), indptr, indices, weights, n * (n - 1) // 2, directed=False
    )


__all__ = [
    "CompiledTopology",
    "FrozenGraph",
    "compile_adjacency",
    "compile_digraph",
    "compile_graph",
    "complete_overlay",
]
