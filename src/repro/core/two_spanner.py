"""Distributed minimum 2-spanner approximation (paper Section 4, Theorem 1.3).

The algorithm runs on the LOCAL-model round simulator as a per-vertex
program.  Each *iteration* of the paper's pseudo-code is a fixed pipeline of
seven communication rounds:

====================  ========================================================
phase                 message broadcast in that round
====================  ========================================================
``cover``             pairs of my neighbours newly covered *via me* (both of
                      the pair's star edges are now spanner edges at me)
``report``            my incident target edges that became covered, my done flag
``density``           my rounded density, exact density and max incident weight
``max``               component-wise maxima of the density phase over my
                      closed neighbourhood (gives everyone its 2-hop maxima)
``candidate``         if I am a candidate: my chosen star, |C_v| and a random
                      rank r_v in {1..n^4}
``vote``              one vote per uncovered incident edge, sent by the edge's
                      smaller endpoint to the winning candidate
``add``               stars that gathered >= |C_v|/8 votes; edges added
                      directly by terminating vertices (step 7)
====================  ========================================================

The same program implements the unweighted, weighted and client-server
variants through :mod:`repro.core.variants`.  The directed variant has its own
program (:mod:`repro.core.directed_two_spanner`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from repro.core.star_selection import StarSelectionState, choose_candidate_star
from repro.core.variants import NodeSetup, SpannerVariant, UnweightedVariant
from repro.distributed.models import CommunicationModel, local_model
from repro.distributed.node import NodeContext
from repro.distributed.program import Inbox, NodeProgram
from repro.distributed.simulator import DEFAULT_ENGINE, Simulator
from repro.graphs.client_server import ClientServerInstance
from repro.graphs.graph import Edge, Graph, Node, edge_key
from repro.spanner.stars import (
    densest_star,
    rounded_up_power_of_two,
    spanned_edges,
)

PHASES = ("cover", "report", "density", "max", "candidate", "vote", "add")
ROUNDS_PER_ITERATION = len(PHASES)


@dataclass
class TwoSpannerOptions:
    """Tunable knobs of the algorithm (defaults follow the paper).

    ``densest_method`` selects the densest-star solver ('exact' reproduces the
    paper's polynomial flow computation; 'peeling' is the fast 2-approximate
    mode).  ``vote_fraction`` is the 1/8 acceptance threshold of step 5.
    ``follow_paper_rule`` toggles the Section 4.1 star re-selection rule (the
    E15 ablation disables it).  ``threshold_divisor`` overrides the variant's
    rho/4 star-density threshold when set.
    """

    densest_method: str = "exact"
    vote_fraction: Fraction = Fraction(1, 8)
    threshold_divisor: int | None = None
    follow_paper_rule: bool = True
    max_iterations: int = 2_000


@dataclass
class TwoSpannerResult:
    """Union of all per-vertex outputs plus run statistics."""

    edges: set[Edge]
    rounds: int
    iterations: int
    metrics: Any
    fallback_count: int
    node_outputs: dict[Node, Any] = field(repr=False, default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.edges)

    def cost(self, graph: Graph) -> float:
        return sum(graph.weight(u, v) for u, v in self.edges)


class TwoSpannerProgram(NodeProgram):
    """The per-vertex program implementing one iteration pipeline per 7 rounds."""

    def __init__(
        self,
        node: Node,
        setup: NodeSetup,
        variant: SpannerVariant,
        options: TwoSpannerOptions,
    ) -> None:
        self.node = node
        self.setup = setup
        self.variant = variant
        self.options = options
        self.divisor = (
            options.threshold_divisor
            if options.threshold_divisor is not None
            else variant.threshold_divisor
        )

        # --- knowledge ---------------------------------------------------
        self.target_edges_2nbhd: set[Edge] = set(setup.target_incident)
        self.covered: set[Edge] = set()
        self.incident_spanner: set[Edge] = set(setup.initial_spanner)
        self.my_spanner: set[Edge] = set(setup.initial_spanner)
        self.neighbor_done: dict[Node, bool] = {u: False for u in setup.neighbors}

        # --- bookkeeping ---------------------------------------------------
        self.phase_index = 0
        self.iteration = 0
        self.locally_done = False
        self.done_broadcasts = 0
        self.selection_state = StarSelectionState()
        self.announced_covered_via: set[Edge] = set()
        self.reported_covered: set[Edge] = set()
        self._cover_scanned_list: list[Node] = []
        self._cover_scanned_set: set[Node] = set()
        self._density_cache: tuple[frozenset[Edge], tuple[Fraction, Fraction]] | None = None

        # --- per-iteration transient state --------------------------------
        self.current_hv: set[Edge] = set()
        self.rho: Fraction = Fraction(0)
        self.rho_rounded: Fraction = Fraction(0)
        self.one_hop_max: tuple[Fraction, Fraction, Fraction] | None = None
        self.is_candidate = False
        self.is_finishing = False
        self.candidate_leaves: frozenset[Node] = frozenset()
        self.candidate_cv: set[Edge] = set()
        self.votes_received: set[Edge] = set()

    # ------------------------------------------------------------------ start
    def on_start(self, ctx: NodeContext) -> None:
        if not self.setup.neighbors:
            ctx.set_output(self._output())
            ctx.halt()
            return
        hello = {
            "kind": "hello",
            "targets": sorted(self.setup.target_incident, key=repr),
        }
        ctx.broadcast(hello)

    # ------------------------------------------------------------------ rounds
    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        if ctx.round == 1:
            self._process_hello(inbox)
            self._send_cover(ctx)
            self.phase_index = 1
            return

        phase = PHASES[self.phase_index]
        handler = getattr(self, f"_phase_{phase}")
        handler(ctx, inbox)
        if not ctx.halted:
            self.phase_index = (self.phase_index + 1) % ROUNDS_PER_ITERATION

    # --------------------------------------------------------------- handlers
    def _process_hello(self, inbox: Inbox) -> None:
        for _, payloads in inbox.items():
            for msg in payloads:
                # Target edges travel as canonical keys; no re-canonicalisation.
                self.target_edges_2nbhd.update(msg["targets"])
        # Edges of the initial spanner are covered from the start.
        self.covered |= self.incident_spanner

    # phase "cover": process ADD messages, announce pairs covered via me.
    def _phase_cover(self, ctx: NodeContext, inbox: Inbox) -> None:
        for sender, payloads in inbox.items():
            for msg in payloads:
                if msg.get("kind") == "added_star":
                    if self.node in msg["leaves"]:
                        self.incident_spanner.add(edge_key(self.node, sender))
                elif msg.get("kind") == "added_edges":
                    for e in msg["edges"]:
                        if self.node in e:
                            self.incident_spanner.add(e)
                        self.covered.add(e)
        self.covered |= self.incident_spanner
        self._send_cover(ctx)

    def _send_cover(self, ctx: NodeContext) -> None:
        # Spanner neighbours only grow, so every pair of already-scanned
        # neighbours was handled by an earlier call (announced, or not a
        # target then and never a target later); only pairs touching a fresh
        # neighbour can yield a new announcement.
        newly: list[Edge] = []
        spanner_nbrs = {
            (u if w == self.node else w) for u, w in self.incident_spanner
        }
        fresh = [u for u in spanner_nbrs if u not in self._cover_scanned_set]
        if fresh:
            known = self._cover_scanned_list
            for a, u in enumerate(fresh):
                for w in known:
                    self._announce_pair(u, w, newly)
                for w in fresh[a + 1 :]:
                    self._announce_pair(u, w, newly)
            known.extend(fresh)
            self._cover_scanned_set.update(fresh)
        ctx.broadcast({"kind": "cover", "pairs": newly})

    def _announce_pair(self, u: Node, w: Node, newly: list[Edge]) -> None:
        if repr(u) == repr(w):
            return  # distinct nodes with equal reprs are never paired
        pair = edge_key(u, w)
        if pair in self.target_edges_2nbhd and pair not in self.announced_covered_via:
            newly.append(pair)
            self.announced_covered_via.add(pair)
            self.covered.add(pair)

    # phase "report": process COVER messages, report newly covered incident targets.
    def _phase_report(self, ctx: NodeContext, inbox: Inbox) -> None:
        for _, payloads in inbox.items():
            for msg in payloads:
                for e in msg.get("pairs", []):
                    if self.node in e or (e[0] in self.setup.neighbors and e[1] in self.setup.neighbors):
                        self.covered.add(e)

        if (
            self.locally_done
            and self.done_broadcasts >= 1
            and all(self.neighbor_done.values())
        ):
            ctx.set_output(self._output())
            ctx.halt()
            return

        self.iteration += 1
        if self.iteration > self.options.max_iterations:
            raise RuntimeError(
                f"2-spanner algorithm exceeded {self.options.max_iterations} iterations"
            )
        newly_covered = sorted(
            (e for e in self.setup.target_incident if e in self.covered and e not in self.reported_covered),
            key=repr,
        )
        self.reported_covered.update(newly_covered)
        ctx.broadcast({"kind": "report", "covered": newly_covered, "done": self.locally_done})
        if self.locally_done:
            self.done_broadcasts += 1

    # phase "density": process REPORT messages, broadcast densities.
    def _phase_density(self, ctx: NodeContext, inbox: Inbox) -> None:
        for sender, payloads in inbox.items():
            for msg in payloads:
                self.neighbor_done[sender] = bool(msg.get("done", False))
                self.covered.update(msg.get("covered", ()))

        self.current_hv = {
            e
            for e in self.target_edges_2nbhd
            if e not in self.covered
            and e[0] in self.setup.star_pool
            and e[1] in self.setup.star_pool
        }
        self.rho, self.rho_rounded = self._densities()
        ctx.broadcast(
            {
                "kind": "density",
                "rho": self.rho,
                "rho_rounded": self.rho_rounded,
                "wmax": self.setup.wmax_incident,
            }
        )

    def _densities(self) -> tuple[Fraction, Fraction]:
        key = frozenset(self.current_hv)
        if self._density_cache is not None and self._density_cache[0] == key:
            return self._density_cache[1]
        if not self.current_hv:
            result = (Fraction(0), Fraction(0))
        else:
            weights = self.setup.leaf_weights
            leaves, density = densest_star(
                self.setup.star_pool,
                self.current_hv,
                weights,
                method=self.options.densest_method,
            )
            result = (density, rounded_up_power_of_two(density))
        self._density_cache = (key, result)
        return result

    # phase "max": forward component-wise maxima of the density messages.
    def _phase_max(self, ctx: NodeContext, inbox: Inbox) -> None:
        rho_max = self.rho
        rounded_max = self.rho_rounded
        wmax = self.setup.wmax_incident
        for _, payloads in inbox.items():
            for msg in payloads:
                rho_max = max(rho_max, msg["rho"])
                rounded_max = max(rounded_max, msg["rho_rounded"])
                wmax = max(wmax, msg["wmax"])
        self.one_hop_max = (rho_max, rounded_max, wmax)
        ctx.broadcast(
            {"kind": "max", "rho": rho_max, "rho_rounded": rounded_max, "wmax": wmax}
        )

    # phase "candidate": decide candidacy / termination, announce chosen stars.
    def _phase_candidate(self, ctx: NodeContext, inbox: Inbox) -> None:
        assert self.one_hop_max is not None
        rho_max2, rounded_max2, wmax2 = self.one_hop_max
        for _, payloads in inbox.items():
            for msg in payloads:
                rho_max2 = max(rho_max2, msg["rho"])
                rounded_max2 = max(rounded_max2, msg["rho_rounded"])
                wmax2 = max(wmax2, msg["wmax"])

        threshold = self.variant.finish_threshold(wmax2)
        self.is_candidate = False
        self.is_finishing = False
        self.candidate_leaves = frozenset()
        self.candidate_cv = set()
        self.votes_received = set()

        if not self.locally_done and rho_max2 < threshold:
            self.is_finishing = True
            return
        if (
            not self.locally_done
            and self.rho >= threshold
            and self.rho_rounded >= rounded_max2
        ):
            self.is_candidate = True
            self.candidate_leaves = choose_candidate_star(
                set(self.setup.star_pool),
                self.current_hv,
                self.rho_rounded,
                self.selection_state,
                self.iteration,
                leaf_weights=self.setup.leaf_weights,
                threshold_divisor=self.divisor,
                method=self.options.densest_method,
                follow_paper_rule=self.options.follow_paper_rule,
                force_include=self.setup.zero_weight_leaves,
            )
            self.candidate_cv = spanned_edges(self.candidate_leaves, self.current_hv)
            rank = ctx.rng.randint(1, max(2, ctx.n**4))
            ctx.broadcast(
                {
                    "kind": "candidate",
                    "leaves": sorted(self.candidate_leaves, key=repr),
                    "cv_size": len(self.candidate_cv),
                    "rank": rank,
                    "center": self.node,
                }
            )

    # phase "vote": every uncovered incident edge votes for one candidate.
    def _phase_vote(self, ctx: NodeContext, inbox: Inbox) -> None:
        announcements: list[tuple[int, Any, Node, frozenset[Node]]] = []
        for sender, payloads in inbox.items():
            for msg in payloads:
                if msg.get("kind") != "candidate":
                    continue
                announcements.append(
                    (msg["rank"], repr(msg["center"]), sender, frozenset(msg["leaves"]))
                )
        if not announcements:
            return
        votes: dict[Node, list[Edge]] = {}
        for e in self.setup.target_incident:
            if e in self.covered:
                continue
            other = e[0] if e[1] == self.node else e[1]
            if repr(self.node) > repr(other):
                continue  # the smaller endpoint is responsible for this edge's vote
            spanning = [
                (rank, center_repr, sender)
                for rank, center_repr, sender, leaves in announcements
                if self.node in leaves and other in leaves
            ]
            if not spanning:
                continue
            _, _, winner = min(spanning)
            votes.setdefault(winner, []).append(e)
        for winner, edges in votes.items():
            ctx.send(winner, {"kind": "vote", "edges": sorted(edges, key=repr)})

    # phase "add": candidates with enough votes add their stars; finishing vertices
    # add their remaining uncovered incident edges directly (step 7).
    def _phase_add(self, ctx: NodeContext, inbox: Inbox) -> None:
        for _, payloads in inbox.items():
            for msg in payloads:
                if msg.get("kind") != "vote":
                    continue
                for e in msg["edges"]:
                    if e in self.candidate_cv:
                        self.votes_received.add(e)

        if self.is_candidate and self.candidate_cv:
            needed = Fraction(len(self.candidate_cv)) * self.options.vote_fraction
            if Fraction(len(self.votes_received)) >= needed:
                star_edges = {edge_key(self.node, leaf) for leaf in self.candidate_leaves}
                self.my_spanner |= star_edges
                self.incident_spanner |= star_edges
                self.covered |= star_edges
                ctx.broadcast(
                    {"kind": "added_star", "leaves": sorted(self.candidate_leaves, key=repr)}
                )

        if self.is_finishing:
            direct = sorted(
                (e for e in self.setup.direct_add_allowed if e not in self.covered),
                key=repr,
            )
            if direct:
                self.my_spanner.update(direct)
                self.incident_spanner.update(direct)
                self.covered.update(direct)
                ctx.broadcast({"kind": "added_edges", "edges": direct})
            self.locally_done = True

    # ------------------------------------------------------------------ output
    def _output(self) -> dict[str, Any]:
        return {
            "edges": sorted(self.my_spanner, key=repr),
            "iterations": self.iteration,
            "fallbacks": self.selection_state.fallback_count,
        }


# ---------------------------------------------------------------------- runner
def run_two_spanner(
    graph: Graph,
    variant: SpannerVariant | None = None,
    options: TwoSpannerOptions | None = None,
    seed: int | None = None,
    model: CommunicationModel | None = None,
    max_rounds: int = 200_000,
    engine: str = DEFAULT_ENGINE,
    adversary=None,
) -> TwoSpannerResult:
    """Run the distributed 2-spanner algorithm on ``graph`` and collect the result.

    The returned edge set is the union of the per-vertex outputs; ``rounds``
    counts simulator rounds (7 per algorithm iteration plus setup/termination)
    and ``iterations`` is the largest iteration index any vertex reached.
    ``engine`` selects the simulator engine (the throughput benchmark compares
    ``columnar`` against ``reference``); results are identical for a fixed seed.
    ``adversary`` forwards a fault policy to the simulator; this algorithm's
    handshake phases assume reliable delivery, so use it for golden-stability
    checks (``NoAdversary``) rather than fault sweeps.
    """
    variant = variant if variant is not None else UnweightedVariant()
    options = options if options is not None else TwoSpannerOptions()
    model = model if model is not None else local_model(graph.number_of_nodes())

    def factory(v: Node) -> TwoSpannerProgram:
        return TwoSpannerProgram(v, variant.node_setup(graph, v), variant, options)

    sim = Simulator(
        graph, factory, model=model, seed=seed, engine=engine, adversary=adversary
    )
    run = sim.run(max_rounds=max_rounds)

    edges: set[Edge] = set()
    iterations = 0
    fallbacks = 0
    for output in run.outputs.values():
        if not output:
            continue
        edges.update(edge_key(*e) for e in output["edges"])
        iterations = max(iterations, output["iterations"])
        fallbacks += output["fallbacks"]
    return TwoSpannerResult(
        edges=edges,
        rounds=run.rounds,
        iterations=iterations,
        metrics=run.metrics,
        fallback_count=fallbacks,
        node_outputs=run.outputs,
    )


def client_server_two_spanner(
    instance: ClientServerInstance,
    options: TwoSpannerOptions | None = None,
    seed: int | None = None,
    max_rounds: int = 200_000,
) -> TwoSpannerResult:
    """Convenience wrapper running the client-server variant on an instance."""
    from repro.core.variants import ClientServerVariant

    variant = ClientServerVariant(instance)
    return run_two_spanner(
        instance.graph, variant=variant, options=options, seed=seed, max_rounds=max_rounds
    )
