"""Communication-model policy layer: LOCAL, CONGEST, broadcast-CONGEST, Clique.

Each model of synchronous distributed computing is a *policy object* (a
:class:`CommunicationModel` subclass) owning the three choices that
distinguish the models in the literature:

* **bandwidth budgeting** — how many bits may cross one link per round
  (:attr:`~CommunicationModel.bandwidth_bits`, ``None`` = unbounded);
* **message admission** — which send patterns a node may use
  (:attr:`~CommunicationModel.broadcast_only` models force one identical
  payload to every neighbour per round);
* **communication topology** — which graph the messages travel on
  (:meth:`~CommunicationModel.communication_topology`; clique models
  communicate over an implicit complete graph, decoupled from the input
  graph the algorithm computes on).

The four shipped models:

* ``LOCAL`` (Linial 1992; Peleg 2000) — unbounded messages on the input
  graph.  The paper's Theorem 1.3 algorithm runs here.
* ``CONGEST`` (Peleg 2000) — O(log n) bits per edge per round on the input
  graph.  The paper's separation results (Theorems 1.1, 2.8-2.10) are
  precisely about the LOCAL/CONGEST difference.
* ``BROADCAST-CONGEST`` — CONGEST bandwidth, but each node must send one
  identical O(log n)-bit message to *all* neighbours per round (the model
  of many lower bounds, e.g. Drucker-Kuhn-Oshman 2014).
* ``CONGESTED-CLIQUE`` (Lotker-Pavlov-Patt-Shamir-Peleg 2005) — every pair
  of nodes may exchange O(log n) bits per round regardless of the input
  graph's edges; nodes still only *know* their input-graph neighbourhood.
  Spanner algorithms in this model are studied by Parter and Yogev,
  "Congested Clique Algorithms for Graph Spanners" (arXiv:1805.05404), and
  robust computation in it by Censor-Hillel, Fischer, Ghinea and Gilboa
  (arXiv:2508.08740).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, ClassVar

from repro.distributed.encoding import congest_budget_bits
from repro.graphs.topology import CompiledTopology, complete_overlay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Hashable

    from repro.graphs.base import BaseGraph

    Node = Hashable


class Model(enum.Enum):
    """The synchronous models of distributed graph algorithms supported."""

    LOCAL = "LOCAL"
    CONGEST = "CONGEST"
    BROADCAST_CONGEST = "BROADCAST-CONGEST"
    CONGESTED_CLIQUE = "CONGESTED-CLIQUE"


class CommunicationModel:
    """Base policy: bandwidth, admission and topology of one communication model.

    ``enforce`` controls what happens when a message exceeds the bandwidth
    budget: if True the simulator raises
    :class:`~repro.distributed.errors.BandwidthExceededError`; if False the
    violation is only recorded in the metrics (useful when measuring the
    overhead a LOCAL algorithm would incur under a bounded-bandwidth model).
    Admission violations (e.g. a targeted ``send`` in a broadcast-only
    model) always raise — they are structural, not a budget overflow.
    """

    __slots__ = ("n", "enforce")

    model: ClassVar[Model]
    #: admission policy: one identical payload to all neighbours per round.
    broadcast_only: ClassVar[bool] = False
    #: True when messages travel on a virtual overlay, not the input graph.
    uses_overlay: ClassVar[bool] = False
    #: per-model metric counters this policy maintains (pre-seeded to 0).
    counters: ClassVar[tuple[str, ...]] = ()

    def __init__(self, n: int, enforce: bool = True) -> None:
        self.n = n
        self.enforce = enforce

    # ------------------------------------------------------------- bandwidth
    @property
    def bandwidth_bits(self) -> int | None:
        """Per-link per-round bit budget; ``None`` means unbounded."""
        return None

    # -------------------------------------------------------------- topology
    def communication_topology(self, graph: "BaseGraph") -> CompiledTopology:
        """The compiled topology messages travel on (columnar engine).

        The default is the input graph itself; overlay models override.
        """
        return graph.freeze()

    def reference_neighbors(self, graph: "BaseGraph") -> dict["Node", frozenset["Node"]]:
        """Per-node communication neighbour sets for the reference engine.

        Kept verbatim from the seed engine for non-overlay models so that
        fixed-seed runs stay bit-for-bit identical.
        """
        return {v: frozenset(graph.neighbors(v)) for v in graph.nodes()}

    # --------------------------------------------------------------- metrics
    def init_metrics(self, metrics) -> None:
        """Pre-seed this model's counters so they appear even when zero."""
        for key in self.counters:
            metrics.per_model.setdefault(key, 0)

    # ---------------------------------------------------------------- dunder
    @property
    def name(self) -> str:
        """The model's literature name (e.g. ``"BROADCAST-CONGEST"``)."""
        return self.model.value

    def _key(self) -> tuple:
        return (type(self), self.n, self.enforce)

    def __eq__(self, other: object) -> bool:
        # Value semantics, as the frozen-dataclass ModelConfig had.
        return isinstance(other, CommunicationModel) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, enforce={self.enforce})"


class LocalModel(CommunicationModel):
    """LOCAL: unbounded messages between input-graph neighbours."""

    __slots__ = ()

    model = Model.LOCAL


class CongestModel(CommunicationModel):
    """CONGEST: ``logn_factor * ceil(log2 n)`` bits per edge per round."""

    __slots__ = ("logn_factor",)

    model = Model.CONGEST

    def __init__(self, n: int, enforce: bool = True, logn_factor: int = 32) -> None:
        super().__init__(n, enforce)
        self.logn_factor = logn_factor

    @property
    def bandwidth_bits(self) -> int | None:
        """The CONGEST per-link budget: ``logn_factor * ceil(log2 n)`` bits."""
        return congest_budget_bits(self.n, self.logn_factor)

    def _key(self) -> tuple:
        return (type(self), self.n, self.enforce, self.logn_factor)


class BroadcastCongestModel(CongestModel):
    """Broadcast-CONGEST: CONGEST bandwidth, one broadcast payload per round.

    A node may queue at most one payload per round and it is delivered to
    every neighbour; targeted sends raise
    :class:`~repro.distributed.errors.MessageAdmissionError`.  The metrics
    gain a ``broadcast_payloads`` counter: one per node per round whose
    broadcast *delivered* messages (a degree-0 node's broadcast carries
    nothing and is not counted).
    """

    __slots__ = ()

    model = Model.BROADCAST_CONGEST
    broadcast_only = True
    counters = ("broadcast_payloads",)


class CongestedCliqueModel(CongestModel):
    """Congested Clique: all-to-all O(log n)-bit links over a virtual clique.

    Communication happens on a complete-graph overlay materialised as a
    :class:`~repro.graphs.topology.CompiledTopology` over the input graph's
    vertex set; nodes still only *know* their input-graph neighbourhood
    (exposed as ``ctx.graph_neighbors``).  The metrics gain a
    ``virtual_link_messages`` counter: messages sent over overlay links
    that are not edges of the input graph.
    """

    __slots__ = ("_overlay",)

    model = Model.CONGESTED_CLIQUE
    uses_overlay = True
    counters = ("virtual_link_messages",)

    def __init__(self, n: int, enforce: bool = True, logn_factor: int = 32) -> None:
        super().__init__(n, enforce, logn_factor)
        self._overlay: tuple[tuple["Node", ...], CompiledTopology] | None = None

    def communication_topology(self, graph: "BaseGraph") -> CompiledTopology:
        labels = graph.freeze().labels
        key = tuple(labels)
        if self._overlay is None or self._overlay[0] != key:
            self._overlay = (key, complete_overlay(labels))
        return self._overlay[1]

    def reference_neighbors(self, graph: "BaseGraph") -> dict["Node", frozenset["Node"]]:
        nodes = list(graph.nodes())
        return {v: frozenset(u for u in nodes if u != v) for v in nodes}


_MODEL_CLASSES: dict[Model, type[CommunicationModel]] = {
    Model.LOCAL: LocalModel,
    Model.CONGEST: CongestModel,
    Model.BROADCAST_CONGEST: BroadcastCongestModel,
    Model.CONGESTED_CLIQUE: CongestedCliqueModel,
}


def ModelConfig(
    model: Model, n: int, enforce: bool = True, logn_factor: int = 32
) -> CommunicationModel:
    """Backwards-compatible factory (pre-policy API) returning a policy object.

    ``ModelConfig`` used to be a frozen dataclass; it is now a function, so
    construction calls and value equality/hashing of the results still work,
    but ``isinstance(x, ModelConfig)`` does not — test against
    :class:`CommunicationModel` (or a concrete policy class) instead.
    """
    cls = _MODEL_CLASSES[model]
    if cls is LocalModel:
        return LocalModel(n, enforce)
    return cls(n, enforce, logn_factor)


def local_model(n: int) -> LocalModel:
    """A LOCAL policy for an ``n``-node graph (unbounded bandwidth)."""
    return LocalModel(n)


def congest_model(n: int, enforce: bool = True, logn_factor: int = 32) -> CongestModel:
    """A CONGEST policy: O(log n) bits per link per round on the input graph."""
    return CongestModel(n, enforce=enforce, logn_factor=logn_factor)


def broadcast_congest_model(
    n: int, enforce: bool = True, logn_factor: int = 32
) -> BroadcastCongestModel:
    """A broadcast-CONGEST policy: one O(log n)-bit broadcast per round."""
    return BroadcastCongestModel(n, enforce=enforce, logn_factor=logn_factor)


def congested_clique_model(
    n: int, enforce: bool = True, logn_factor: int = 32
) -> CongestedCliqueModel:
    """A Congested Clique policy: all-to-all O(log n)-bit overlay links."""
    return CongestedCliqueModel(n, enforce=enforce, logn_factor=logn_factor)


__all__ = [
    "BroadcastCongestModel",
    "CommunicationModel",
    "CongestModel",
    "CongestedCliqueModel",
    "LocalModel",
    "Model",
    "ModelConfig",
    "broadcast_congest_model",
    "congest_model",
    "congested_clique_model",
    "local_model",
]
