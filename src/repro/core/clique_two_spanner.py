"""Congested Clique 2-spanner in O(log n) rounds (Parter-Yogev style).

Parter and Yogev ("Congested Clique Algorithms for Graph Spanners",
arXiv:1805.05404) build spanners in the Congested Clique by repeatedly
sampling *hitting sets* of cluster centres with geometrically growing
probability, exploiting the all-to-all O(log n)-bit links to coordinate the
sampling globally in O(1) rounds per level.  This module implements that
scheme for 2-spanners:

* **Levels** ``t = 0 .. ceil(log2 n)``: every vertex elects itself a centre
  independently with probability ``min(1, 2^t / n)`` and announces the
  election with a 1-word broadcast over the clique.
* **Attach**: every vertex picks the first elected centre in its
  input-graph neighbourhood (smallest by ``repr``), adds that star edge to
  the spanner, and broadcasts the centre's identity.
* **Cover**: an input edge ``{u, v}`` is 2-spanned as soon as the attach
  histories ``A(u) ∪ {u}`` and ``A(v) ∪ {v}`` intersect: a common centre
  ``w`` gives the path ``u-w-v``, while ``v ∈ A(u)`` (or ``u ∈ A(v)``)
  means the edge itself was added.  Both endpoints deduce coverage from the
  same broadcasts, so they agree without extra communication.
* **Cleanup**: after the final level (election probability 1) each vertex
  adds its still-uncovered incident edges directly — the smaller endpoint
  owns the edge — which makes the output a valid 2-spanner unconditionally.

Every message is a constant number of words, so the run fits the Congested
Clique budget with ``enforce=True``; the whole algorithm takes exactly
``2 * ceil(log2 n) + 2`` rounds.  Dense common neighbourhoods are covered at
low levels by few centres, which is where the spanner compresses; the E17
benchmark compares rounds/bits against the paper's CONGEST 2-spanner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.distributed.adversary import Adversary
from repro.distributed.models import CommunicationModel, congested_clique_model
from repro.distributed.node import NodeContext
from repro.distributed.program import Inbox, NodeProgram
from repro.distributed.simulator import DEFAULT_ENGINE, Simulator
from repro.graphs.graph import Edge, Graph, Node, edge_key


def clique_spanner_levels(n: int) -> int:
    """Number of sampling levels: ``ceil(log2 n) + 1`` (final level has p=1)."""
    if n < 2:
        return 1
    return (n - 1).bit_length() + 1


def clique_spanner_round_bound(n: int) -> int:
    """Round count of the algorithm: two rounds per level.

    Exact for any graph with at least one edge; vertices without neighbours
    halt in ``on_start``, so an edgeless graph finishes in 0 rounds.
    """
    return 2 * clique_spanner_levels(n)


@dataclass
class CliqueSpannerResult:
    """Union of the per-vertex spanner edges plus run statistics."""

    edges: set[Edge]
    rounds: int
    levels: int
    metrics: Any
    node_outputs: dict[Node, Any] = field(repr=False, default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.edges)


class CliqueTwoSpannerProgram(NodeProgram):
    """Per-vertex program: elect / attach two-round pipeline per level."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.levels = 0
        self.graph_nbrs: frozenset[Node] = frozenset()
        self.attached: set[Node] = set()  # centres I added a star edge to
        self.nbr_attached: dict[Node, set[Node]] = {}
        self.uncovered: set[Edge] = set()
        self.my_edges: set[Edge] = set()

    # ------------------------------------------------------------------ start
    def on_start(self, ctx: NodeContext) -> None:
        self.levels = clique_spanner_levels(ctx.n)
        self.graph_nbrs = ctx.graph_neighbors
        if not self.graph_nbrs:
            ctx.set_output({"edges": []})
            ctx.halt()
            return
        self.nbr_attached = {u: set() for u in self.graph_nbrs}
        self.uncovered = {edge_key(self.node, u) for u in self.graph_nbrs}
        self._elect(ctx, level=0)

    # ------------------------------------------------------------------ rounds
    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        r = ctx.round
        if r % 2 == 1:
            # Attach round for level (r-1)//2: react to the elections.
            self._attach(ctx, inbox)
            return
        # Even round: digest the attach broadcasts of level r//2 - 1 ...
        self._absorb_attaches(inbox)
        self._update_coverage()
        level = r // 2
        if level < self.levels:
            # ... and elect for the next level.
            self._elect(ctx, level)
        else:
            # All levels done: add the leftovers directly (smaller endpoint
            # owns the edge) and finish.
            for e in self.uncovered:
                if e[0] == self.node:
                    self.my_edges.add(e)
            ctx.set_output({"edges": sorted(self.my_edges, key=repr)})
            ctx.halt()

    # ----------------------------------------------------------------- phases
    def _elect(self, ctx: NodeContext, level: int) -> None:
        numerator = 1 << level  # p = min(1, 2^level / n)
        if numerator >= ctx.n or ctx.rng.random() < numerator / ctx.n:
            ctx.broadcast(("e",))

    def _attach(self, ctx: NodeContext, inbox: Inbox) -> None:
        if not self.uncovered:
            return  # attaching can only help my own incident edges
        elected = [u for u in inbox if u in self.graph_nbrs]
        if not elected:
            return
        centre = min(elected, key=repr)
        self.attached.add(centre)
        self.my_edges.add(edge_key(self.node, centre))
        ctx.broadcast(self._attach_payload(centre))

    def _attach_payload(self, centre: Node) -> Any:
        """Wire form of my attach announcement (coded variants add a checksum)."""
        return ("a", centre)

    def _attach_centre(self, msg: Any) -> Any:
        """Centre carried by an attach message, or ``None`` to discard it.

        The shape check makes the program *live* under a payload-corrupting
        adversary (a damaged message is discarded instead of crashing the
        vertex) but not *sound*: a forged ``("a", wrong_centre)`` is
        accepted, which is exactly the coverage-soundness hole the coded
        subclass closes.  Fault-free and loss-only runs never produce a
        malformed attach message, so their behaviour is unchanged.
        """
        if type(msg) is tuple and len(msg) == 2 and msg[0] == "a":
            return msg[1]
        return None

    def _absorb_attaches(self, inbox: Inbox) -> None:
        for sender, payloads in inbox.items():
            history = self.nbr_attached.get(sender)
            if history is None:
                continue  # attach of a non-neighbour: irrelevant to my edges
            for msg in payloads:
                centre = self._attach_centre(msg)
                if centre is None:
                    continue
                try:
                    history.add(centre)
                except TypeError:
                    continue  # forged unhashable centre: discard

    def _update_coverage(self) -> None:
        if not self.uncovered:
            return
        mine = self.attached | {self.node}
        done = []
        for e in self.uncovered:
            other = e[1] if e[0] == self.node else e[0]
            if other in mine or not mine.isdisjoint(self.nbr_attached[other]):
                done.append(e)
        self.uncovered.difference_update(done)


# ---------------------------------------------------------------------- runner
def run_clique_two_spanner(
    graph: Graph,
    seed: int | None = None,
    model: CommunicationModel | None = None,
    max_rounds: int = 10_000,
    engine: str = DEFAULT_ENGINE,
    adversary: Adversary | None = None,
) -> CliqueSpannerResult:
    """Run the Congested Clique 2-spanner and collect the union of outputs.

    ``model`` defaults to an enforcing
    :class:`~repro.distributed.models.CongestedCliqueModel`; the algorithm's
    messages are a constant number of words, so enforcement never trips.

    The level schedule is round-driven, so an ``adversary`` dropping
    messages never stalls the run, and coverage beliefs are *sound* under
    loss — a vertex only marks an edge covered from attach announcements it
    actually received, and the cleanup phase adds whatever still looks
    uncovered — so the output stays a valid 2-spanner under pure message
    loss, merely with more edges (E19 pins this).  Crash faults do break
    validity for edges whose owning endpoint died; see the E19 survivor
    check.
    """
    n = graph.number_of_nodes()
    model = model if model is not None else congested_clique_model(n)

    sim = Simulator(
        graph,
        lambda v: CliqueTwoSpannerProgram(v),
        model=model,
        seed=seed,
        engine=engine,
        adversary=adversary,
    )
    run = sim.run(max_rounds=max_rounds)

    edges: set[Edge] = set()
    for output in run.outputs.values():
        if output:
            edges.update(edge_key(*e) for e in output["edges"])
    return CliqueSpannerResult(
        edges=edges,
        rounds=run.rounds,
        levels=clique_spanner_levels(n),
        metrics=run.metrics,
        node_outputs=run.outputs,
    )


__all__ = [
    "CliqueSpannerResult",
    "CliqueTwoSpannerProgram",
    "clique_spanner_levels",
    "clique_spanner_round_bound",
    "run_clique_two_spanner",
]
