"""Partition-based triangle listing on the Congested Clique (E21 workload).

Reproduces the group-partition listing scheme of Censor-Hillel,
Leitersdorf and Vulakh (arXiv 2205.09245, the related-work line of
PAPERS.md) at reproduction scale:

* the vertex set splits into ``k = floor(n^(1/3))`` contiguous groups
  (``group(i) = i * k // n``), so every unordered group *triple*
  ``a <= b <= c`` — there are ``C(k+2, 3) <= n`` of them — is owned by one
  **responsible node**, the triple's rank in lexicographic order;
* every edge ``{u, v}`` (owned by its smaller endpoint) is replicated to
  the ``<= k`` responsible nodes whose triple contains both endpoint
  groups, packed as the single integer ``u * n + v`` so the engines'
  payload size tables cache it like any int;
* each responsible node rebuilds its sub-adjacency from the received
  edges and lists exactly the triangles whose *sorted group triple* equals
  its own — every triangle has one such triple, so the union over nodes
  lists each triangle exactly once, with no global deduplication round.

Two delivery modes exercise the PR's two new communication layers:
``direct`` sends every replica straight over the clique overlay, one
message per link per round (the round count is the maximum per-link
multiplicity, computed centrally); ``routed`` ships the same multiset
through the Lenzen-style primitive of
:mod:`repro.core.clique_routing`.  Both modes produce the identical
triangle set — :func:`brute_force_triangles` is the oracle the E21
scenarios check against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Any

from repro.distributed.models import CommunicationModel, congested_clique_model
from repro.distributed.node import NodeContext
from repro.distributed.program import Inbox, NodeProgram
from repro.distributed.simulator import DEFAULT_ENGINE, Simulator
from repro.graphs.graph import Graph, Node

LISTING_MODES = ("direct", "routed")


def group_count(n: int) -> int:
    """``floor(n^(1/3))``, exactly (no float error at perfect cubes)."""
    k = max(1, round(n ** (1 / 3)))
    while k**3 > n:
        k -= 1
    while (k + 1) ** 3 <= n:
        k += 1
    return max(1, k)


def vertex_group(i: int, n: int, k: int) -> int:
    """Group of vertex index ``i`` under the contiguous k-way partition."""
    return i * k // n


def group_triples(k: int) -> list[tuple[int, int, int]]:
    """Every unordered group triple ``a <= b <= c`` in lexicographic order."""
    return list(combinations_with_replacement(range(k), 3))


def brute_force_triangles(graph: Graph) -> set[tuple[int, int, int]]:
    """The oracle: all triangles ``(u, v, w)`` with ``u < v < w`` by index."""
    topo = graph.freeze()
    n = topo.n
    index = topo.index
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for lbl in topo.neighbor_label_set(i):
            adj[i].add(index[lbl])
    out: set[tuple[int, int, int]] = set()
    for u in range(n):
        for v in adj[u]:
            if v <= u:
                continue
            for w in adj[u] & adj[v]:
                if w > v:
                    out.add((u, v, w))
    return out


def _listing_plan(topo) -> tuple[int, list[tuple[int, int, int]], dict[int, list[tuple[int, int]]]]:
    """The centrally computed replication plan of one listing instance.

    Returns ``(k, triples, outboxes)`` where ``outboxes[src]`` lists the
    ``(responsible node index, packed edge)`` replicas edge-owner ``src``
    must deliver.  Deterministic: edges are walked in ascending
    ``(u, v)`` index order, replicas in ascending third-group order.
    """
    n = topo.n
    index = topo.index
    k = group_count(n)
    triples = group_triples(k)
    triple_rank = {t: r for r, t in enumerate(triples)}
    outboxes: dict[int, list[tuple[int, int]]] = {}
    for u in range(n):
        gu = vertex_group(u, n, k)
        row = sorted(index[lbl] for lbl in topo.neighbor_label_set(u))
        for v in row:
            if v <= u:
                continue  # the smaller endpoint owns the edge
            gv = vertex_group(v, n, k)
            a, b = (gu, gv) if gu <= gv else (gv, gu)
            packed = u * n + v
            replicas = outboxes.setdefault(u, [])
            for w in range(k):
                t = tuple(sorted((a, b, w)))
                replicas.append((triple_rank[t], packed))
    return k, triples, outboxes


def _triangles_from_edges(
    packed_edges: list[int], n: int, k: int, triple: tuple[int, int, int]
) -> list[tuple[int, int, int]]:
    """Triangles among ``packed_edges`` whose group triple equals ``triple``."""
    adj: dict[int, set[int]] = {}
    edges: set[tuple[int, int]] = set()
    for packed in packed_edges:
        u, v = divmod(packed, n)
        if (u, v) in edges:
            continue
        edges.add((u, v))
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    out: list[tuple[int, int, int]] = []
    for u, v in sorted(edges):
        common = adj[u] & adj[v]
        for w in sorted(common):
            if w <= v:
                continue
            groups = tuple(
                sorted(
                    (
                        vertex_group(u, n, k),
                        vertex_group(v, n, k),
                        vertex_group(w, n, k),
                    )
                )
            )
            if groups == triple:
                out.append((u, v, w))
    return out


class DirectListingProgram(NodeProgram):
    """Direct-mode executor: one replica per link per round.

    The centrally computed plan hands every owner its replica list grouped
    by responsible node; each round the owner sends the head of each
    per-destination queue (at most one message per link per round — the
    clique bandwidth discipline), for the globally maximal queue length of
    rounds.  Responsible nodes accumulate packed edges and list their
    triple's triangles one round after the last send slot.
    """

    def __init__(
        self,
        node: Node,
        my_index: int,
        replicas: list[tuple[int, int]],
        send_rounds: int,
        n: int,
        k: int,
        triple: tuple[int, int, int] | None,
        labels: list[Node],
    ) -> None:
        self.node = node
        self.me = my_index
        self.send_rounds = send_rounds
        self.n = n
        self.k = k
        self.triple = triple
        self.labels = labels
        self.edges: list[int] = []
        # Per-destination FIFO queues in ascending destination order.
        queues: dict[int, list[int]] = {}
        for dst, packed in replicas:
            if dst == my_index:
                self.edges.append(packed)  # local replica: no message
            else:
                queues.setdefault(dst, []).append(packed)
        self.queues = queues

    def _emit(self, ctx: NodeContext, slot: int) -> None:
        labels = self.labels
        for dst in sorted(self.queues):
            queue = self.queues[dst]
            if slot < len(queue):
                ctx.send(labels[dst], queue[slot])

    def on_start(self, ctx: NodeContext) -> None:
        if self.send_rounds:
            self._emit(ctx, 0)
        else:
            self._finish(ctx)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        edges = self.edges
        for _, payloads in inbox.items():
            edges.extend(payloads)
        slot = ctx.round
        if slot < self.send_rounds:
            self._emit(ctx, slot)
            return
        self._finish(ctx)

    def _finish(self, ctx: NodeContext) -> None:
        if self.triple is None:
            ctx.set_output([])
        else:
            ctx.set_output(
                _triangles_from_edges(self.edges, self.n, self.k, self.triple)
            )
        ctx.halt()


@dataclass
class ListingResult:
    """The listed triangle set plus partition and run statistics."""

    triangles: set[tuple[int, int, int]]
    k: int
    responsible: int
    replicas: int
    mode: str
    rounds: int
    metrics: Any = field(repr=False, default=None)


def run_clique_listing(
    graph: Graph,
    mode: str = "direct",
    seed: int | None = 0,
    model: CommunicationModel | None = None,
    engine: str = DEFAULT_ENGINE,
    adversary=None,
) -> ListingResult:
    """List every triangle of ``graph`` on the clique overlay.

    ``mode`` selects the delivery layer: ``"direct"`` sends replicas
    straight to their responsible nodes (one per link per round);
    ``"routed"`` ships the identical multiset through the Lenzen-style
    routing primitive.  Both return the same triangle set — the E21
    scenarios pin it against :func:`brute_force_triangles`.
    """
    if mode not in LISTING_MODES:
        raise ValueError(f"unknown listing mode {mode!r} (known: {LISTING_MODES})")
    topo = graph.freeze()
    n = topo.n
    labels = list(topo.labels)
    k, triples, outboxes = _listing_plan(topo)
    replica_count = sum(len(msgs) for msgs in outboxes.values())
    if model is None:
        model = congested_clique_model(max(n, 2), enforce=False)

    if mode == "routed":
        triple_of: dict[int, tuple[int, int, int]] = dict(enumerate(triples))

        def finisher_for(i: int):
            triple = triple_of.get(i)
            if triple is None:
                return lambda received: []
            return lambda received: _triangles_from_edges(received, n, k, triple)

        outputs, rounds, metrics = _run_routed(
            graph, outboxes, labels, topo, model, seed, engine, adversary,
            finisher_for,
        )
    else:
        # Rounds = maximum per-link multiplicity (self-replicas are local
        # and occupy no slot).
        send_rounds = 0
        for src, msgs in outboxes.items():
            per_dst: dict[int, int] = {}
            for dst, _ in msgs:
                if dst != src:
                    per_dst[dst] = per_dst.get(dst, 0) + 1
            if per_dst:
                send_rounds = max(send_rounds, max(per_dst.values()))

        def factory(v: Node) -> DirectListingProgram:
            i = topo.index[v]
            return DirectListingProgram(
                v,
                i,
                outboxes.get(i, []),
                send_rounds,
                n,
                k,
                triples[i] if i < len(triples) else None,
                labels,
            )

        sim = Simulator(
            graph, factory, model=model, seed=seed, engine=engine, adversary=adversary
        )
        run = sim.run(max_rounds=send_rounds + 3)
        rounds = run.metrics.rounds
        metrics = run.metrics
        outputs = run.outputs

    triangles: set[tuple[int, int, int]] = set()
    for out in outputs.values():
        if out:
            triangles.update(tuple(t) for t in out)
    return ListingResult(
        triangles=triangles,
        k=k,
        responsible=len(triples),
        replicas=replica_count,
        mode=mode,
        rounds=rounds,
        metrics=metrics,
    )


def _run_routed(
    graph, outboxes, labels, topo, model, seed, engine, adversary, finisher_for
):
    """Routed mode: per-node finishers over the shared routing primitive."""
    from repro.core.clique_routing import (
        CliqueRoutingProgram,
        plan_clique_routing,
    )

    n = topo.n
    schedule = plan_clique_routing(
        n, {src: [dst for dst, _ in msgs] for src, msgs in outboxes.items()}
    )
    rank = dict(topo.index)

    def factory(v: Node) -> CliqueRoutingProgram:
        i = topo.index[v]
        return CliqueRoutingProgram(
            v, i, outboxes.get(i, []), schedule, labels, rank,
            finish=finisher_for(i),
        )

    sim = Simulator(
        graph, factory, model=model, seed=seed, engine=engine, adversary=adversary
    )
    run = sim.run(max_rounds=schedule.total_rounds + 2)
    return run.outputs, run.metrics.rounds, run.metrics


__all__ = [
    "DirectListingProgram",
    "LISTING_MODES",
    "ListingResult",
    "brute_force_triangles",
    "group_count",
    "group_triples",
    "run_clique_listing",
    "vertex_group",
]
