"""Synchronous round simulator for the pluggable communication-model layer.

The simulator executes one :class:`~repro.distributed.program.NodeProgram`
instance per vertex of a communication graph, in lock-step rounds.  It is the
"simple round simulator" substrate on which every distributed algorithm in
this reproduction runs, and it is also the measurement instrument: it counts
rounds, messages, bits, bandwidth violations and (optionally) the bits
crossing a designated vertex cut — the quantity the paper's two-party
lower-bound reductions charge to Alice and Bob.

Which links exist, how many bits they carry per round and which send
patterns are admitted is owned by a
:class:`~repro.distributed.models.CommunicationModel` policy object (LOCAL,
CONGEST, broadcast-CONGEST or Congested Clique).  Overlay models (the
clique) decouple the *communication* topology from the input graph: messages
travel on a virtual complete graph while programs still compute on the input
graph exposed as ``ctx.graph_neighbors``.

Two engines share the public API and produce identical results:

* ``columnar`` (default) — the flat-array engine
  (:mod:`repro.distributed.columnar`), running on the model's compiled
  communication topology
  (:meth:`~repro.distributed.models.CommunicationModel.communication_topology`):
  contexts and programs live in dense lists, an active-set scheduler skips
  halted vertices, and broadcast rounds intern each sender's one payload
  by reference.  Accounting reduces over preallocated per-node count
  columns (NumPy kernels when importable, stdlib ``array`` otherwise —
  identical results), payload sizes come from a run-lifetime
  :class:`~repro.distributed.encoding.PayloadSizeTable`, per-round
  counters flush once through a
  :class:`~repro.distributed.metrics.RoundTally`, and fault-free delivery
  hands each receiver a lazy CSR-backed inbox view instead of building
  dicts.  Rounds with targeted traffic take the targeted fast path
  (:mod:`repro.distributed.targeted`), and runs whose programs opt in are
  lowered to whole-round array kernels (:mod:`repro.distributed.vectorize`).
* ``reference`` — the original dict-of-dicts engine: one ``(dst, payload)``
  tuple per message, per-link dicts rebuilt every round.  It is the
  differential-testing oracle every columnar path is checked against
  bit-for-bit, and the baseline the throughput benchmarks measure
  speedups against.

Fault injection composes orthogonally with both the models and the engines:
an :class:`~repro.distributed.adversary.Adversary` policy may destroy
admitted messages in flight (drops, throttling) or crash-stop nodes.  All
engines share one delivery-filter seam — the filter is consulted per
message after send-side accounting and before inbox insertion, plus once
per round before programs execute (crash schedules force-halt there) — so
engine-to-engine bit-for-bit equality holds *under the same adversary*,
and a ``None``/:class:`~repro.distributed.adversary.NoAdversary` adversary
leaves every hot path untouched.  Payload-transforming filters
(``filt.transforms``, e.g. the corruption adversary) additionally disable
the shared-payload-by-reference broadcast fan-out: each engine detects the
flag once per run and materializes per-edge payloads, calling
``filt.transform`` between the delivery decision and the receiver-liveness
check at every seam.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass
from typing import Any

from repro.distributed.adversary import Adversary, DeliveryFilter
from repro.distributed.columnar import build_columnar_collect
from repro.distributed.encoding import BitsMemo, congest_budget_bits
from repro.distributed.errors import BandwidthExceededError, RoundLimitExceededError
from repro.distributed.metrics import Metrics
from repro.distributed.models import CommunicationModel, LocalModel, Model, ModelConfig
from repro.distributed.node import NodeContext
from repro.distributed.program import NodeProgram
from repro.distributed.vectorize import try_lower
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph

Node = Hashable
ProgramFactory = Callable[[Node], NodeProgram]

ENGINES = ("columnar", "reference")

#: The engine every entry point runs on unless told otherwise.
DEFAULT_ENGINE = "columnar"


@dataclass
class RunResult:
    """Outcome of one simulation: per-node outputs plus communication metrics."""

    outputs: dict[Node, Any]
    metrics: Metrics
    completed: bool

    @property
    def rounds(self) -> int:
        """Number of synchronous rounds the simulation executed."""
        return self.metrics.rounds

    def as_dict(self) -> dict[str, Any]:
        """Summary of the run for benchmarks and reports.

        Per-node outputs are summarised (not embedded) so the dictionary is
        small enough for ``pytest-benchmark`` extra-info records.
        """
        return {
            "completed": self.completed,
            "rounds": self.rounds,
            "nodes": len(self.outputs),
            "outputs_set": sum(1 for v in self.outputs.values() if v is not None),
            "metrics": self.metrics.as_dict(),
        }


class Simulator:
    """Runs a node program on every vertex of a communication graph.

    Parameters
    ----------
    graph:
        The input graph.  For a :class:`~repro.graphs.DiGraph` the
        *communication* links are bidirectional (as in the paper, Section
        1.5), i.e. a node can message both in- and out-neighbours.  Overlay
        models (Congested Clique) communicate over a virtual complete graph
        instead, while programs keep computing on this input graph.
    program_factory:
        Called once per vertex to create that vertex's program instance.
    model:
        A :class:`~repro.distributed.models.CommunicationModel` policy
        (default LOCAL): bandwidth budget, admission rules, topology.
    seed:
        Seeds the per-node private randomness deterministically.
    cut:
        Optional set of vertices forming "Alice's side"; bits of messages
        crossing between this set and its complement are tallied separately
        (used by the lower-bound reduction harness).
    engine:
        ``"columnar"`` (the flat-array engine, default; NumPy-accelerated
        when NumPy is importable, stdlib otherwise) or ``"reference"``
        (the dict-based oracle).  Both produce identical outputs and
        metrics for a fixed seed, for broadcast and targeted traffic
        alike, and admit the same programs: one broadcast per node per
        round, and broadcast-only models reject ``ctx.send``.
    streaming_metrics:
        When true, run with ``Metrics(streaming=True)``: the
        ``bits_per_round`` history is capped (oldest buckets evicted into
        a running peak) while every scalar counter stays exact — intended
        for mega-scale runs where an O(rounds) history is unwelcome.
        Default off, preserving the golden-run dictionaries.
    adversary:
        Optional :class:`~repro.distributed.adversary.Adversary` fault
        policy (drops, crash-stop schedules, throttling).  ``None`` or
        :class:`~repro.distributed.adversary.NoAdversary` installs no
        delivery filter at all — byte-for-byte the fault-free behaviour.
        Fault decisions depend only on ``(round, src, dst)`` and the
        simulator seed, so the engine-parity contract extends to faulty
        runs: both engines agree bit-for-bit under the same adversary.
    vectorize:
        Whether the columnar engine may lower whole rounds to array
        kernels (:mod:`repro.distributed.vectorize`) when every program
        instance is the same opted-in
        :class:`~repro.distributed.vectorize.VectorProgram` class and the
        run admits it (non-transforming adversary, exact-``int`` labels).
        Lowered runs are bit-for-bit identical to stepped runs; the knob
        (default on) exists so benchmarks and the E23 physics twins can
        force the stepped path.  ``lowered`` reports, after ``run()``,
        whether lowering actually engaged.
    """

    __slots__ = (
        "graph",
        "program_factory",
        "model",
        "seed",
        "cut",
        "engine",
        "adversary",
        "streaming_metrics",
        "vectorize",
        "lowered",
        "topology",
    )

    def __init__(
        self,
        graph: Graph | DiGraph,
        program_factory: ProgramFactory,
        model: CommunicationModel | None = None,
        seed: int | None = None,
        cut: Iterable[Node] | None = None,
        engine: str = DEFAULT_ENGINE,
        adversary: Adversary | None = None,
        streaming_metrics: bool = False,
        vectorize: bool = True,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.graph = graph
        self.program_factory = program_factory
        self.model = model if model is not None else LocalModel(graph.number_of_nodes())
        self.seed = seed
        self.cut = set(cut) if cut is not None else None
        self.engine = engine
        self.adversary = adversary
        self.streaming_metrics = streaming_metrics
        self.vectorize = vectorize
        self.lowered = False
        self.topology = self.model.communication_topology(graph)

    def _new_metrics(self) -> Metrics:
        """Fresh metrics block for one run, honouring ``streaming_metrics``.

        The single construction point for both engines, so the streaming
        knob can never apply to one engine and not the other.
        """
        return Metrics(streaming=True) if self.streaming_metrics else Metrics()

    def _bind_adversary(self, metrics: Metrics) -> DeliveryFilter | None:
        """Seed fault counters and build this run's delivery filter (or None).

        The one place both engines obtain their filter, so the
        "no adversary == untouched hot path" rule can never diverge
        between them.
        """
        adversary = self.adversary
        if adversary is None or adversary.is_null:
            return None
        adversary.init_metrics(metrics)
        return adversary.bind(self.seed, metrics)

    # --------------------------------------------------------------------- run
    def run(self, max_rounds: int = 10_000, raise_on_limit: bool = True) -> RunResult:
        """Execute the program until every node halts or ``max_rounds`` elapse."""
        # Re-derive the communication topology so a graph mutated between
        # construction and run() is observed identically by both engines
        # (freeze() is cached when the graph is unchanged).
        self.topology = self.model.communication_topology(self.graph)
        self.lowered = False
        if self.engine == "reference":
            return self._run_reference(max_rounds, raise_on_limit)
        return self._run_columnar(max_rounds, raise_on_limit)

    def _drive(
        self,
        contexts: list[NodeContext],
        programs: list[NodeProgram],
        collect: Callable[[Iterable[int]], list[dict[Node, list[Any]] | None]],
        metrics: Metrics,
        max_rounds: int,
        raise_on_limit: bool,
        filt: DeliveryFilter | None = None,
    ) -> list[int]:
        """The stepped columnar engine's round loop.

        Runs ``on_start`` on every program, then alternates program rounds
        with ``collect`` (which drains the queued traffic of the given
        senders and returns sparse inboxes) until every node halts.  An
        active adversary filter sees each round begin before any program
        executes (crash schedules force-halt contexts there, which the loop
        then skips).  Returns the final active set (empty iff the run
        completed).
        """
        n = len(contexts)
        for i in range(n):
            programs[i].on_start(contexts[i])

        # Bind the round handlers once: the loop below runs n times per round
        # at E20 scale and the repeated method lookup is measurable.
        handlers = [program.on_round for program in programs]
        pending = collect(range(n))
        active = [i for i in range(n) if not contexts[i].halted]

        while active:
            if metrics.rounds >= max_rounds:
                if raise_on_limit:
                    raise RoundLimitExceededError(
                        f"simulation exceeded {max_rounds} rounds"
                    )
                break
            metrics.start_round()
            current_round = metrics.rounds
            if filt is not None:
                filt.on_round_begin(current_round, (contexts[i] for i in active))
            for i in active:
                ctx = contexts[i]
                if ctx.halted:
                    continue  # crash-stopped at the top of this round
                ctx.round = current_round
                inbox = pending[i]
                handlers[i](ctx, inbox if inbox is not None else {})
            pending = collect(active)
            active = [i for i in active if not contexts[i].halted]
        return active

    def _build_contexts(
        self,
    ) -> tuple[
        list[NodeContext],
        list[NodeProgram],
        list[frozenset[Node]] | None,
        list[bool],
    ]:
        """Seed RNGs and build contexts/programs for the columnar engine.

        The master RNG is drawn once per vertex in topology label order —
        the same order the reference engine draws in, so the per-node
        streams (and hence the bit-for-bit engine-parity contract) agree.
        Overlay models expose the input graph's adjacency separately:
        overlay labels reuse ``graph.freeze()`` order, hence the index
        spaces coincide.

        The contexts share one targeted-traffic signal cell (returned as
        the fourth element): ``ctx.send`` flags it, so the engine learns in
        O(1) whether a round needs the targeted collection path —
        pure-broadcast rounds never pay a per-sender scan.
        """
        topo = self.topology
        model = self.model
        n = topo.n
        labels = topo.labels
        master = random.Random(self.seed)
        node_seeds = [master.randrange(2**63) for _ in range(n)]

        graph_sets: list[frozenset[Node]] | None = None
        if model.uses_overlay:
            graph_topo = self.graph.freeze()
            graph_sets = [graph_topo.neighbor_label_set(i) for i in range(n)]
        broadcast_only = model.broadcast_only
        model_name = model.name
        tsignal = [False]

        contexts: list[NodeContext] = []
        programs: list[NodeProgram] = []
        for i in range(n):
            ctx = NodeContext(
                node_id=labels[i],
                neighbors=topo.neighbor_label_set(i),
                n=n,
                rng=node_seeds[i],
                graph_neighbors=graph_sets[i] if graph_sets is not None else None,
                broadcast_only=broadcast_only,
                columnar=True,
                engine_label=self.engine,
                model_name=model_name,
            )
            ctx._t_signal = tsignal
            contexts.append(ctx)
            programs.append(self.program_factory(labels[i]))
        return contexts, programs, graph_sets, tsignal

    # ------------------------------------------------------- columnar engine
    def _run_columnar(self, max_rounds: int, raise_on_limit: bool) -> RunResult:
        """Flat-array engine (see :mod:`repro.distributed.columnar`).

        Either lowers the whole run to array kernels
        (:func:`~repro.distributed.vectorize.try_lower`) or steps it: the
        shared round loop (:meth:`_drive`) with each round's traffic
        collected by the kernels of
        :func:`~repro.distributed.columnar.build_columnar_collect` —
        vectorised accounting over per-node count columns, a run-lifetime
        payload size table, one metrics flush per round, and lazy
        CSR-backed inbox views in place of per-delivery dict inserts.
        Rounds with targeted traffic delegate to the targeted fast path
        (:func:`~repro.distributed.targeted.build_targeted_collect`),
        sharing this engine's payload size table.  Bit-for-bit identical to
        the reference engine for every program under every communication
        model and adversary.
        """
        topo = self.topology
        n = topo.n
        labels = topo.labels
        contexts, programs, graph_sets, tsignal = self._build_contexts()

        metrics = self._new_metrics()
        self.model.init_metrics(metrics)
        filt = self._bind_adversary(metrics)

        # Program lowering (the E23 fast path): when every program is the
        # same opted-in VectorProgram class and the run admits it, whole
        # rounds execute as array kernels with zero per-node Python calls —
        # bit-for-bit identical to the stepped path below.  ``lowered``
        # records the decision for callers (benchmarks, the E23 twins).
        lowered = (
            try_lower(self, contexts, programs, metrics, graph_sets, filt)
            if self.vectorize
            else None
        )
        self.lowered = lowered is not None
        if lowered is not None:
            active = lowered.execute(max_rounds, raise_on_limit)
        else:
            collect = build_columnar_collect(
                self, contexts, metrics, graph_sets, filt, tsignal
            )
            active = self._drive(
                contexts, programs, collect, metrics, max_rounds, raise_on_limit, filt
            )
        outputs = {labels[i]: contexts[i].output for i in range(n)}
        return RunResult(outputs=outputs, metrics=metrics, completed=not active)

    # ------------------------------------------------------ reference engine
    def _run_reference(self, max_rounds: int, raise_on_limit: bool) -> RunResult:
        """The original dict-based engine, kept as the differential oracle."""
        model = self.model
        nodes = list(self.graph.nodes())
        n = len(nodes)
        neighbors = model.reference_neighbors(self.graph)
        master = random.Random(self.seed)
        node_seeds = {v: master.randrange(2**63) for v in nodes}

        graph_neighbors: dict[Node, frozenset[Node]] | None = None
        if model.uses_overlay:
            graph_topo = self.graph.freeze()
            graph_neighbors = {
                v: graph_topo.neighbor_label_set(graph_topo.index[v]) for v in nodes
            }
        broadcast_only = model.broadcast_only

        contexts: dict[Node, NodeContext] = {}
        programs: dict[Node, NodeProgram] = {}
        for v in nodes:
            contexts[v] = NodeContext(
                node_id=v,
                neighbors=neighbors[v],
                n=n,
                rng=random.Random(node_seeds[v]),
                graph_neighbors=graph_neighbors[v] if graph_neighbors is not None else None,
                broadcast_only=broadcast_only,
                engine_label="reference",
                model_name=model.name,
            )
            programs[v] = self.program_factory(v)

        metrics = self._new_metrics()
        model.init_metrics(metrics)
        filt = self._bind_adversary(metrics)
        for v in nodes:
            programs[v].on_start(contexts[v])

        pending = self._collect_messages(contexts, metrics, graph_neighbors, filt)
        completed = all(ctx.halted for ctx in contexts.values())

        while not completed:
            if metrics.rounds >= max_rounds:
                if raise_on_limit:
                    raise RoundLimitExceededError(
                        f"simulation exceeded {max_rounds} rounds"
                    )
                break
            metrics.start_round()
            if filt is not None:
                filt.on_round_begin(
                    metrics.rounds,
                    (ctx for ctx in contexts.values() if not ctx.halted),
                )
            for v in nodes:
                ctx = contexts[v]
                if ctx.halted:
                    continue
                ctx.round = metrics.rounds
                inbox = pending.get(v, {})
                programs[v].on_round(ctx, inbox)
            pending = self._collect_messages(contexts, metrics, graph_neighbors, filt)
            completed = all(ctx.halted for ctx in contexts.values())

        outputs = {v: contexts[v].output for v in nodes}
        return RunResult(outputs=outputs, metrics=metrics, completed=completed)

    def _collect_messages(
        self,
        contexts: dict[Node, NodeContext],
        metrics: Metrics,
        graph_neighbors: dict[Node, frozenset[Node]] | None = None,
        filt: DeliveryFilter | None = None,
    ) -> dict[Node, dict[Node, list[Any]]]:
        """Reference-engine collection: per-link dicts rebuilt every round."""
        inboxes: dict[Node, dict[Node, list[Any]]] = {}
        budget = self.model.bandwidth_bits
        count_broadcasts = self.model.broadcast_only
        per_link_bits: dict[tuple[Node, Node], int] = {}
        # One identity-keyed memo per delivery pass (exactly the BitsMemo
        # validity window): a broadcast payload queued deg times is sized once.
        measure = BitsMemo().measure
        transforms = filt is not None and filt.transforms

        for src, ctx in contexts.items():
            outbox = ctx._drain_outbox()
            if outbox and count_broadcasts:
                metrics.bump("broadcast_payloads")
            src_graph_set = graph_neighbors[src] if graph_neighbors is not None else None
            for dst, payload in outbox:
                bits = measure(payload)
                crosses = self.cut is not None and ((src in self.cut) != (dst in self.cut))
                metrics.record_message(bits, crosses)
                if src_graph_set is not None and dst not in src_graph_set:
                    metrics.bump("virtual_link_messages")
                if budget is not None:
                    link = (src, dst)
                    per_link_bits[link] = per_link_bits.get(link, 0) + bits
                    if per_link_bits[link] > budget:
                        metrics.bandwidth_violations += 1
                        if self.model.enforce:
                            raise BandwidthExceededError(
                                f"message(s) on link {src!r}->{dst!r} use "
                                f"{per_link_bits[link]} bits, budget is {budget} "
                                f"({self.model.name})"
                            )
                if filt is not None:
                    if not filt.deliver(src, dst, bits):
                        continue
                    if transforms:
                        payload = filt.transform(src, dst, payload, bits)
                if contexts[dst].halted:
                    continue
                inboxes.setdefault(dst, {}).setdefault(src, []).append(payload)
        return inboxes


def run_program(
    graph: Graph | DiGraph,
    program_factory: ProgramFactory,
    model: CommunicationModel | None = None,
    seed: int | None = None,
    max_rounds: int = 10_000,
    cut: Iterable[Node] | None = None,
    engine: str = DEFAULT_ENGINE,
    adversary: Adversary | None = None,
    streaming_metrics: bool = False,
    vectorize: bool = True,
) -> RunResult:
    """Convenience wrapper: build a :class:`Simulator` and run it once."""
    sim = Simulator(
        graph,
        program_factory,
        model=model,
        seed=seed,
        cut=cut,
        engine=engine,
        adversary=adversary,
        streaming_metrics=streaming_metrics,
        vectorize=vectorize,
    )
    return sim.run(max_rounds=max_rounds)


def congest_overhead_report(result: RunResult, n: int, logn_factor: int = 32) -> dict[str, float]:
    """How far a run's messages exceed the CONGEST budget.

    The paper notes (Section 1.3) that a direct CONGEST implementation of the
    2-spanner algorithm incurs an O(Delta) overhead; this helper quantifies
    the measured ratio ``max_message_bits / budget`` for a LOCAL run.
    """
    budget = congest_budget_bits(n, logn_factor)
    return {
        "budget_bits": float(budget),
        "max_message_bits": float(result.metrics.max_message_bits),
        "overhead_factor": result.metrics.max_message_bits / budget if budget else float("inf"),
    }


__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "Model",
    "ModelConfig",
    "RunResult",
    "Simulator",
    "congest_overhead_report",
    "run_program",
]
