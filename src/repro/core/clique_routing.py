"""Lenzen-style routing and targeted-traffic workloads for the clique overlay.

The Congested Clique algorithms of the related-work line (Censor-Hillel,
Leitersdorf, Vulakh; arXiv 2205.09245) assume Lenzen's routing theorem as a
black box: any instance in which every node is the source and the
destination of at most ``n`` messages can be delivered in ``O(1)`` rounds.
This module reproduces the primitive in the repo's simulator as a reusable
two-phase program plus a deterministic, centrally computed schedule:

* **phase 1 (balancing)** — source ``s`` sends the ``j``-th message of the
  current batch to intermediate ``(s + 1 + j) mod n`` framed as
  ``(dst_index, payload)``; at most one message per link per round, and
  every intermediate receives at most one frame per source;
* **phase 2 (delivery)** — every intermediate keeps one FIFO queue per
  final destination and forwards one queue head per destination per round,
  for the batch's precomputed number of rounds.

The schedule (:func:`plan_clique_routing`) is computed once from the global
instance — batch count, per-batch phase-2 round count, total rounds — and
handed to every program, exactly the role the routing theorem's global
coordination plays in the paper.  Instances whose per-batch phase-2 load
exceeds an optional cap raise :class:`RoutingOverflowError` at planning
time; the program raises the same error if a queue survives its batch (a
schedule violation, impossible for a planner-produced schedule).

Self-addressed messages and frames whose intermediate already is the final
destination never touch the network: they are delivered locally, exactly as
a node "routing to itself" costs nothing in the model.

The module also hosts :class:`TargetedFanoutProgram` — the deterministic
targeted-traffic generator used by the E21 throughput scenarios, the
differential engine-parity suite and ``benchmarks/bench_e21_clique_listing.py``
— because it exercises precisely the columnar engine's ``ctx.send`` fast
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.distributed.errors import SimulationError
from repro.distributed.models import CommunicationModel, congested_clique_model
from repro.distributed.node import NodeContext
from repro.distributed.program import Inbox, NodeProgram
from repro.distributed.simulator import DEFAULT_ENGINE, Simulator
from repro.graphs.graph import Graph, Node

#: Fold modulus of the fan-out checksum (a Mersenne prime: cheap, collision
#: resistant enough for a differential fingerprint).
CHECKSUM_MOD = (1 << 61) - 1


class RoutingOverflowError(SimulationError):
    """A routing instance exceeds the schedule's capacity.

    Raised by :func:`plan_clique_routing` when a batch needs more phase-2
    rounds than ``max_phase2_rounds`` allows, and defensively by the
    program when a phase-2 queue survives its batch (a schedule violation).
    """


@dataclass(frozen=True)
class RoutingSchedule:
    """Centrally computed round plan of one routing instance.

    ``phase2_rounds[b]`` is the number of delivery rounds batch ``b``
    needs — the maximum, over (intermediate, destination) pairs, of frames
    batch ``b`` parks at that intermediate for that destination.  The
    program's total communication slots are ``sum(1 + r for r in
    phase2_rounds)`` and the run completes one round later (the round that
    drains the last inbox).
    """

    n: int
    num_batches: int
    phase2_rounds: tuple[int, ...]

    @property
    def total_rounds(self) -> int:
        """Simulator rounds a run of this schedule takes (incl. final drain)."""
        return sum(1 + r for r in self.phase2_rounds) + 1


def _intermediate(src: int, j: int, n: int) -> int:
    """Phase-1 target of the ``j``-th frame of ``src`` (never ``src`` itself)."""
    return (src + 1 + j) % n


def plan_clique_routing(
    n: int,
    outboxes: dict[int, list[int]],
    max_phase2_rounds: int | None = None,
) -> RoutingSchedule:
    """Compute the deterministic two-phase schedule of a routing instance.

    ``outboxes`` maps each source index to the list of destination indices
    of its messages (payloads are irrelevant to the schedule).  Messages
    with ``dst == src`` are local deliveries and occupy no slot.  Sources
    with more than ``n - 1`` routed messages are split into batches of
    ``n - 1`` (one frame per link in phase 1); batches are aligned across
    sources, so every batch is itself a valid ≤ n-messages-per-source
    instance — the routing theorem's precondition.
    """
    if n < 2:
        routed = any(d != s for s, dsts in outboxes.items() for d in dsts)
        if routed:
            raise RoutingOverflowError("routing needs at least 2 nodes")
        return RoutingSchedule(n=n, num_batches=0, phase2_rounds=())

    per_batch = n - 1
    num_batches = 0
    for src, dsts in outboxes.items():
        routed = sum(1 for d in dsts if d != src)
        if routed:
            num_batches = max(num_batches, -(-routed // per_batch))

    phase2: list[int] = []
    for b in range(num_batches):
        # loads[(intermediate, dst)] -> frames parked for that pair.
        loads: dict[tuple[int, int], int] = {}
        worst = 0
        for src, dsts in outboxes.items():
            routed = [d for d in dsts if d != src]
            j = 0
            for d in routed[b * per_batch : (b + 1) * per_batch]:
                mid = _intermediate(src, j, n)
                j += 1
                if mid == d:
                    continue  # delivered at the end of phase 1, no queue slot
                key = (mid, d)
                load = loads.get(key, 0) + 1
                loads[key] = load
                if load > worst:
                    worst = load
        if max_phase2_rounds is not None and worst > max_phase2_rounds:
            raise RoutingOverflowError(
                f"batch {b} needs {worst} phase-2 rounds, cap is "
                f"{max_phase2_rounds} (skewed destination load)"
            )
        phase2.append(worst)
    return RoutingSchedule(n=n, num_batches=num_batches, phase2_rounds=tuple(phase2))


class CliqueRoutingProgram(NodeProgram):
    """Per-node executor of a :class:`RoutingSchedule`.

    Every node follows the same global action timeline — phase-1 round of
    batch ``b``, then ``phase2_rounds[b]`` delivery rounds, for each batch
    — so no control messages are needed; the schedule *is* the
    coordination.  Received payloads accumulate in arrival order (within a
    round: ascending sender, per-link send order — the engines' inbox
    contract) and become the node's output, or the result of ``finish``
    when the caller supplies one (e.g. the clique-listing workload turns
    received edges into triangles).
    """

    def __init__(
        self,
        node: Node,
        my_index: int,
        messages: list[tuple[int, Any]],
        schedule: RoutingSchedule,
        labels: list[Node],
        rank: dict[Node, int],
        finish: Callable[[list[Any]], Any] | None = None,
    ) -> None:
        self.node = node
        self.me = my_index
        self.schedule = schedule
        self.labels = labels
        self.rank = rank
        self.finish = finish
        self.received: list[Any] = []
        # Routed frames, batched; self-addressed payloads deliver locally.
        self.routed: list[tuple[int, Any]] = []
        for dst, payload in messages:
            if dst == my_index:
                self.received.append(payload)
            else:
                self.routed.append((dst, payload))
        # Global action timeline: slot 0 fires in on_start, slot i in round i.
        actions: list[tuple[str, int]] = []
        for b in range(schedule.num_batches):
            actions.append(("p1", b))
            for _ in range(schedule.phase2_rounds[b]):
                actions.append(("p2", b))
        self.actions = actions
        self.queues: dict[int, list[Any]] = {}

    # ------------------------------------------------------------------ sends
    def _send_phase1(self, ctx: NodeContext, batch: int) -> None:
        n = self.schedule.n
        per_batch = n - 1
        labels = self.labels
        lo = batch * per_batch
        for j, (dst, payload) in enumerate(self.routed[lo : lo + per_batch]):
            mid = _intermediate(self.me, j, n)
            if mid == dst:
                # The balancing hop already is the destination: hand the
                # payload over as a bare frame, skipping its queue slot.
                ctx.send(labels[mid], (1, payload))
            else:
                ctx.send(labels[mid], (0, dst, payload))

    def _send_phase2(self, ctx: NodeContext) -> None:
        labels = self.labels
        for dst in sorted(self.queues):
            queue = self.queues[dst]
            if queue:
                ctx.send(labels[dst], (1, queue.pop(0)))

    def _ingest(self, inbox: Inbox, prev_action: tuple[str, int]) -> None:
        kind = prev_action[0]
        received = self.received
        queues = self.queues
        rank = self.rank
        # Ascending sender index: the columnar engine already delivers in
        # this order, the explicit sort makes the reference engine agree.
        for _, payloads in sorted(inbox.items(), key=lambda kv: rank[kv[0]]):
            for frame in payloads:
                if frame[0] == 1:
                    received.append(frame[1])
                elif kind == "p1":
                    _, dst, payload = frame
                    queues.setdefault(dst, []).append(payload)
                else:  # pragma: no cover - schedule violation
                    raise RoutingOverflowError(
                        f"node {self.node!r}: phase-1 frame arrived in a "
                        f"phase-2 slot"
                    )

    # ----------------------------------------------------------------- driver
    def on_start(self, ctx: NodeContext) -> None:
        if not self.actions:
            self._complete(ctx)
            return
        kind, batch = self.actions[0]
        if kind == "p1":
            self._send_phase1(ctx, batch)
        else:
            self._send_phase2(ctx)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        actions = self.actions
        slot = ctx.round
        self._ingest(inbox, actions[slot - 1])
        if slot >= len(actions):
            if any(self.queues.values()):
                raise RoutingOverflowError(
                    f"node {self.node!r}: {sum(map(len, self.queues.values()))} "
                    f"frame(s) survived the schedule"
                )
            self._complete(ctx)
            return
        kind, batch = actions[slot]
        if kind == "p1":
            if any(self.queues.values()):
                raise RoutingOverflowError(
                    f"node {self.node!r}: queue not drained at batch {batch} boundary"
                )
            self._send_phase1(ctx, batch)
        else:
            self._send_phase2(ctx)

    def _complete(self, ctx: NodeContext) -> None:
        out = self.received if self.finish is None else self.finish(self.received)
        ctx.set_output(out)
        ctx.halt()


@dataclass
class RoutingResult:
    """Per-node delivered payloads plus run statistics."""

    outputs: dict[Node, Any]
    schedule: RoutingSchedule
    rounds: int
    metrics: Any = field(repr=False, default=None)


def run_clique_routing(
    graph: Graph,
    messages: dict[int, list[tuple[int, Any]]],
    seed: int | None = 0,
    model: CommunicationModel | None = None,
    engine: str = DEFAULT_ENGINE,
    adversary=None,
    max_phase2_rounds: int | None = None,
    finish: Callable[[list[Any]], Any] | None = None,
) -> RoutingResult:
    """Route ``messages`` over the clique overlay of ``graph`` and collect.

    ``messages`` maps source *indices* (positions in the frozen topology's
    label order) to ``(destination index, payload)`` lists.  The overlay is
    the Congested Clique of the graph's vertex set, so the input graph's
    edges only matter to overlay accounting, not to reachability.  The
    returned outputs map node labels to their delivered payload lists (or
    to ``finish(received)`` when a finisher is supplied).
    """
    topo = graph.freeze()
    n = topo.n
    labels = list(topo.labels)
    schedule = plan_clique_routing(
        n,
        {src: [dst for dst, _ in msgs] for src, msgs in messages.items()},
        max_phase2_rounds=max_phase2_rounds,
    )
    if model is None:
        model = congested_clique_model(max(n, 2), enforce=False)
    rank = dict(topo.index)

    def factory(v: Node) -> CliqueRoutingProgram:
        i = topo.index[v]
        return CliqueRoutingProgram(
            v, i, messages.get(i, []), schedule, labels, rank, finish=finish
        )

    sim = Simulator(
        graph, factory, model=model, seed=seed, engine=engine, adversary=adversary
    )
    run = sim.run(max_rounds=schedule.total_rounds + 2)
    return RoutingResult(
        outputs=run.outputs,
        schedule=schedule,
        rounds=run.metrics.rounds,
        metrics=run.metrics,
    )


# ------------------------------------------------------------------- fan-out
class TargetedFanoutProgram(NodeProgram):
    """Deterministic targeted fan-out: the E21 throughput workload.

    Every round, every node sends one small int payload to each of its
    first ``fanout`` ascending neighbours and folds everything it hears
    into a running checksum.  Payload values live in a small space
    (``payload = (node + 13 * round) % 1021``) so the engines' payload
    size tables see heavy reuse — the traffic shape the targeted fast path
    is built for.  Pure ``ctx.send`` traffic: no broadcasts, valid on any
    model that admits targeted sends.
    """

    def __init__(self, node: Node, fanout: int, rounds: int) -> None:
        self.node = node
        self.fanout = fanout
        self.rounds = rounds
        self.checksum = 0
        self.heard = 0
        self.targets: list[Node] | None = None

    def _emit(self, ctx: NodeContext, round_no: int) -> None:
        if self.targets is None:
            self.targets = sorted(ctx.neighbors)[: self.fanout]
        base = (ctx.node_id if isinstance(ctx.node_id, int) else 0) + 13 * round_no
        for offset, dst in enumerate(self.targets):
            ctx.send(dst, (base + offset) % 1021)

    def on_start(self, ctx: NodeContext) -> None:
        self._emit(ctx, 0)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        checksum = self.checksum
        heard = self.heard
        for _, payloads in inbox.items():
            for payload in payloads:
                checksum = (checksum * 31 + payload + 1) % CHECKSUM_MOD
                heard += 1
        self.checksum = checksum
        self.heard = heard
        if ctx.round >= self.rounds:
            ctx.set_output((checksum, heard))
            ctx.halt()
            return
        self._emit(ctx, ctx.round)


@dataclass
class FanoutResult:
    """Folded checksum of a fan-out run plus statistics."""

    checksum: int
    heard: int
    rounds: int
    metrics: Any = field(repr=False, default=None)


def run_targeted_fanout(
    graph: Graph,
    fanout: int = 8,
    rounds: int = 24,
    seed: int | None = 0,
    model: CommunicationModel | None = None,
    engine: str = DEFAULT_ENGINE,
    adversary=None,
) -> FanoutResult:
    """Run the targeted fan-out workload and fold the global checksum.

    The checksum folds every node's ``(local checksum, messages heard)``
    output in ascending label order, so two runs agree iff every delivered
    payload (and its order) agreed — the differential fingerprint the
    engine-parity tests and the E21 bench compare.
    """
    from repro.distributed.models import local_model

    if model is None:
        model = local_model(graph.number_of_nodes())

    sim = Simulator(
        graph,
        lambda v: TargetedFanoutProgram(v, fanout, rounds),
        model=model,
        seed=seed,
        engine=engine,
        adversary=adversary,
    )
    run = sim.run(max_rounds=rounds + 2)
    checksum = 0
    heard = 0
    for v in sorted(run.outputs, key=repr):
        out = run.outputs[v]
        if out is None:
            continue
        local, local_heard = out
        checksum = (checksum * 1000003 + local) % CHECKSUM_MOD
        heard += local_heard
    return FanoutResult(
        checksum=checksum, heard=heard, rounds=run.metrics.rounds, metrics=run.metrics
    )


__all__ = [
    "CHECKSUM_MOD",
    "CliqueRoutingProgram",
    "FanoutResult",
    "RoutingOverflowError",
    "RoutingResult",
    "RoutingSchedule",
    "TargetedFanoutProgram",
    "plan_clique_routing",
    "run_clique_routing",
    "run_targeted_fanout",
]
