"""Coded robust workloads: soundness under payload corruption (E22).

The retransmitting :class:`~repro.core.flood_max.RobustFloodMaxProgram`
provably *terminates* under arbitrary message loss, but it trusts message
*content*: under a payload-corrupting adversary
(:class:`~repro.distributed.adversary.CorruptAdversary`) a single flipped
bit can forge a label larger than every genuine one, and the retransmitting
flood happily elects the forgery — live, but unsound.  This module adds the
coding defenses, in the spirit of the LDC-based robust Congested Clique
line (Censor-Hillel, Fischer, Gelles, Soto): spend redundancy per message
to restore soundness, and measure the rounds/bits cost in the E22 family.

Two codes ship, both built on the canonical wire image codec of
:mod:`repro.distributed.encoding` (single-bit flips are the adversary's
primitive, so "corrects/detects one flipped bit per message" is the design
point):

* **k-repetition with majority vote** (:class:`RedundantFloodMaxProgram`)
  — the order-0 Reed-Muller code.  A message carries ``k`` copies of the
  value; one flipped bit damages at most one copy (or destroys the whole
  frame, an erasure), so for odd ``k >= 3`` the majority is always the
  value actually sent.  Cost: ``k`` times the payload bits.
* **checksum-as-erasure** (:class:`CodedFloodMaxProgram`,
  :class:`CodedCliqueTwoSpannerProgram`) — a 32-bit BLAKE2 checksum of the
  value's wire image rides along; a forged message fails verification and
  is *discarded*, turning corruption into loss — which the retransmitting
  (flood-max) or round-driven (spanner) structure already absorbs.  Cost:
  one word per message, detection instead of correction.

Soundness gives termination for free: every accepted value is one some
vertex genuinely sent, so by induction every ``best`` is a real node label,
the at-most-``n - 1``-increases argument of
:func:`~repro.core.flood_max.robust_flood_max_round_bound` survives, and
the coded floods keep the plain variant's round bound.  The uncoded program
has no such bound under corruption — forged labels add increases — which is
why :func:`~repro.core.flood_max.run_robust_flood_max` must be given an
explicit ``max_rounds`` when driven under a corrupting adversary.
"""

from __future__ import annotations

from typing import Any

from repro.core.clique_two_spanner import (
    CliqueSpannerResult,
    CliqueTwoSpannerProgram,
    clique_spanner_levels,
)
from repro.core.flood_max import FloodMaxResult, RobustFloodMaxProgram, _summarise
from repro.distributed.adversary import Adversary
from repro.distributed.encoding import UnencodablePayloadError, payload_checksum
from repro.distributed.models import (
    CommunicationModel,
    broadcast_congest_model,
    congested_clique_model,
)
from repro.distributed.node import NodeContext
from repro.distributed.program import Inbox, Node
from repro.distributed.simulator import DEFAULT_ENGINE, Simulator
from repro.distributed.vectorize import EngineView, MaxFloodKernel
from repro.graphs.graph import Graph, edge_key


def decode_repetition(message: Any, copies: int) -> Any:
    """Majority-decode a ``copies``-tuple repetition frame; ``None`` = erasure.

    Votes are counted with *exact-type* equality (``True == 1`` and
    ``1 == 1.0`` must not pool their votes — the same aliasing trap the
    size tables guard against) and need a strict majority.  A single
    flipped bit damages at most one copy, so for odd ``copies >= 3`` the
    decoded value is always the value the frame was built from; frames
    whose framing was hit decode to something that fails the shape check
    and come back as an erasure.
    """
    if type(message) is not tuple or len(message) != copies:
        return None
    for candidate in message:
        ctype = type(candidate)
        votes = sum(
            1 for other in message if type(other) is ctype and other == candidate
        )
        if 2 * votes > copies:
            return candidate
    return None


def decode_checksum(message: Any) -> Any:
    """Verify a ``(value, checksum)`` frame; ``None`` = erasure.

    Accepts exactly the frames :func:`encode_checksum` built: a 2-tuple
    whose second entry is the 32-bit wire-image checksum of the first.  A
    flipped bit in either half (or in the framing) fails verification, so
    every accepted value is one a vertex genuinely sent — corruption is
    converted into loss.
    """
    if type(message) is not tuple or len(message) != 2:
        return None
    value, check = message
    if type(check) is not int:
        return None
    try:
        if payload_checksum(value) != check:
            return None
    except UnencodablePayloadError:
        return None
    return value


def encode_checksum(value: Any) -> tuple[Any, int]:
    """The ``(value, checksum)`` frame :func:`decode_checksum` verifies."""
    return (value, payload_checksum(value))


class RedundantFloodMaxProgram(RobustFloodMaxProgram):
    """Retransmitting flood-max over ``copies``-repetition frames.

    Same patience-driven structure as the plain robust variant, but every
    broadcast carries ``copies`` copies of the value and every received
    frame is majority-decoded — so a corrupting adversary flipping one bit
    per message can only erase frames, never forge a label, and survivors
    still agree on the *true* maximum.  Decoded values are additionally
    required to be exact ints (the label type of every shipped graph), so
    damaged non-label residue can never enter the fold.
    """

    def __init__(self, node: Node, patience: int, copies: int = 3) -> None:
        super().__init__(node, patience)
        if copies < 3 or copies % 2 == 0:
            raise ValueError(f"copies must be an odd int >= 3, got {copies!r}")
        self.copies = copies

    def on_start(self, ctx: NodeContext) -> None:
        """Broadcast my own label's repetition frame."""
        ctx.broadcast((self.best,) * self.copies)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        """Majority-decode, fold, halt after ``patience`` quiet rounds."""
        best = self.best
        copies = self.copies
        for payloads in inbox.values():
            for message in payloads:
                value = decode_repetition(message, copies)
                if type(value) is int and value > best:
                    best = value
        if best > self.best:
            self.best = best
            self.stable = 0
        else:
            self.stable += 1
        if self.stable >= self.patience:
            ctx.set_output(self.best)
            ctx.halt()
            return
        ctx.broadcast((best,) * copies)

    @classmethod
    def vector_kernel(cls, programs, view: EngineView) -> MaxFloodKernel | None:
        """Lower a homogeneous repetition-coded flood to the max-fold kernel.

        Sound without a transforming filter in the loop (which
        :func:`repro.distributed.vectorize.try_lower` already rules out):
        undamaged ``copies``-repetition frames always majority-decode to the
        integer they were built from, so the decode step degenerates to the
        identity and the fold is the same integer max — only the payload
        *size* differs, which the kernel prices with the closed-form
        :func:`repro.distributed.vectorize.repetition_frame_bits`.
        """
        if cls is not RedundantFloodMaxProgram:
            return None
        patience = programs[0].patience
        copies = programs[0].copies
        labels = view.labels
        for i, program in enumerate(programs):
            if (
                program.patience != patience
                or program.copies != copies
                or program.best != labels[i]
                or program.stable != 0
            ):
                return None
        return MaxFloodKernel(patience=patience, copies=copies)


class CodedFloodMaxProgram(RobustFloodMaxProgram):
    """Retransmitting flood-max over checksummed ``(value, checksum)`` frames.

    The cheap point on the redundancy curve: one extra word per message
    buys *detection* — forged frames are discarded (erasures), and the
    retransmitting structure recovers them like any other loss.  Sound for
    the same reason as the repetition code (every accepted value was
    genuinely sent), at roughly a third of its bit cost.
    """

    def on_start(self, ctx: NodeContext) -> None:
        """Broadcast my own label's checksummed frame."""
        ctx.broadcast(encode_checksum(self.best))

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        """Verify checksums, fold surviving values, halt when quiet."""
        best = self.best
        for payloads in inbox.values():
            for message in payloads:
                value = decode_checksum(message)
                if type(value) is int and value > best:
                    best = value
        if best > self.best:
            self.best = best
            self.stable = 0
        else:
            self.stable += 1
        if self.stable >= self.patience:
            ctx.set_output(self.best)
            ctx.halt()
            return
        ctx.broadcast(encode_checksum(best))


class CodedCliqueTwoSpannerProgram(CliqueTwoSpannerProgram):
    """Clique 2-spanner with checksummed attach announcements.

    Election messages carry no content (presence *is* the signal), so the
    only corruptible channel of the plain program is the attach broadcast:
    a forged ``("a", wrong_centre)`` poisons a neighbour's coverage belief
    and the final edge set may fail to 2-span.  This variant checksums the
    attach frame and discards forgeries, restoring the sound-under-faults
    coverage rule — corrupted announcements degrade to losses, which the
    cleanup phase already absorbs (the spanner just keeps more edges).
    """

    def _attach_payload(self, centre: Node) -> Any:
        """Checksummed attach frame ``("a", centre, checksum)``."""
        return ("a", centre, payload_checksum(("a", centre)))

    def _attach_centre(self, msg: Any) -> Any:
        """Centre of a verified attach frame, or ``None`` for forgeries."""
        if type(msg) is not tuple or len(msg) != 3 or msg[0] != "a":
            return None
        centre, check = msg[1], msg[2]
        if type(check) is not int:
            return None
        try:
            if payload_checksum(("a", centre)) != check:
                return None
        except UnencodablePayloadError:
            return None
        return centre


def run_redundant_flood_max(
    graph: Graph,
    patience: int,
    copies: int = 3,
    model: CommunicationModel | None = None,
    seed: int | None = None,
    engine: str = DEFAULT_ENGINE,
    adversary: Adversary | None = None,
    max_rounds: int | None = None,
    vectorize: bool = True,
) -> FloodMaxResult:
    """Run the ``copies``-repetition coded flood-max (sound under corruption).

    ``max_rounds`` defaults to the plain robust bound
    ``n * patience + 1`` — valid here because majority decoding only ever
    admits genuinely sent labels, so the at-most-``n - 1``-increases
    argument survives corruption.
    """
    from repro.core.flood_max import robust_flood_max_round_bound

    n = graph.number_of_nodes()
    model = model if model is not None else broadcast_congest_model(n)
    if max_rounds is None:
        max_rounds = robust_flood_max_round_bound(n, patience)
    sim = Simulator(
        graph,
        lambda v: RedundantFloodMaxProgram(v, patience, copies),
        model=model,
        seed=seed,
        engine=engine,
        adversary=adversary,
        vectorize=vectorize,
    )
    return _summarise(sim.run(max_rounds=max_rounds))


def run_coded_flood_max(
    graph: Graph,
    patience: int,
    model: CommunicationModel | None = None,
    seed: int | None = None,
    engine: str = DEFAULT_ENGINE,
    adversary: Adversary | None = None,
    max_rounds: int | None = None,
) -> FloodMaxResult:
    """Run the checksum-coded flood-max (corruption degraded to erasures)."""
    from repro.core.flood_max import robust_flood_max_round_bound

    n = graph.number_of_nodes()
    model = model if model is not None else broadcast_congest_model(n)
    if max_rounds is None:
        max_rounds = robust_flood_max_round_bound(n, patience)
    sim = Simulator(
        graph,
        lambda v: CodedFloodMaxProgram(v, patience),
        model=model,
        seed=seed,
        engine=engine,
        adversary=adversary,
    )
    return _summarise(sim.run(max_rounds=max_rounds))


def run_coded_clique_two_spanner(
    graph: Graph,
    seed: int | None = None,
    model: CommunicationModel | None = None,
    max_rounds: int = 10_000,
    engine: str = DEFAULT_ENGINE,
    adversary: Adversary | None = None,
) -> CliqueSpannerResult:
    """Run the checksummed-attach clique 2-spanner (valid under corruption)."""
    n = graph.number_of_nodes()
    model = model if model is not None else congested_clique_model(n)
    sim = Simulator(
        graph,
        lambda v: CodedCliqueTwoSpannerProgram(v),
        model=model,
        seed=seed,
        engine=engine,
        adversary=adversary,
    )
    run = sim.run(max_rounds=max_rounds)
    edges = set()
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
    "CodedCliqueTwoSpannerProgram",
    "CodedFloodMaxProgram",
    "RedundantFloodMaxProgram",
    "decode_checksum",
    "decode_repetition",
    "encode_checksum",
    "run_coded_clique_two_spanner",
    "run_coded_flood_max",
    "run_redundant_flood_max",
]
