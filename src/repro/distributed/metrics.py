"""Communication metrics for the round simulator.

:class:`Metrics` is the aggregate counter block both engines fill in.
:class:`RoundTally` is the columnar engine's preallocated flat per-round
counter block — kernels write slots of one 64-bit array and
:meth:`RoundTally.flush` folds them into :class:`Metrics` once per round,
through :func:`flush_round_tally`, the seam every columnar collection path
(broadcast, targeted, lowered) shares.  ``Metrics(streaming=True)`` bounds
the otherwise O(rounds) ``bits_per_round`` history for mega-scale runs.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field


def flush_round_tally(
    metrics: "Metrics",
    messages: int,
    bits_total: int,
    max_bits: int,
    cut_messages: int,
    cut_bits: int,
    violations: int,
    broadcast_payloads: int,
    virtual_messages: int,
) -> None:
    """Fold one delivery pass's locally-accumulated counters into ``metrics``.

    The columnar collection paths accumulate per-pass counts in plain locals
    or :class:`RoundTally` slots (the hot loops must not pay attribute access
    per message) and flush them here — once per round, and once more before
    an enforcement raise.  Every path sharing this function is part of the
    bit-for-bit engine-parity contract: a counter added for one path is
    necessarily added for all of them.
    """
    metrics.messages_sent += messages
    metrics.bits_sent += bits_total
    metrics.max_message_bits = max_bits
    metrics.cut_messages += cut_messages
    metrics.cut_bits += cut_bits
    metrics.bandwidth_violations += violations
    metrics.bits_per_round[-1] += bits_total
    if broadcast_payloads:
        metrics.bump("broadcast_payloads", broadcast_payloads)
    if virtual_messages:
        metrics.bump("virtual_link_messages", virtual_messages)


class RoundTally:
    """Preallocated flat per-round counter block for the columnar engine.

    The columnar kernels accumulate one round's deliveries into the slots of
    a single 64-bit ``array("q")`` (no per-message attribute access, and a
    NumPy kernel can deposit its reduced scalars directly), then
    :meth:`flush` folds the block into :class:`Metrics` through the shared
    :func:`flush_round_tally` seam — once per round, plus once more before
    an enforcement raise, exactly like the targeted path's plain-local
    accumulators.  :meth:`reset` re-arms the block between rounds in one
    slice assignment; ``max_bits`` is seeded with the run's current maximum
    because :func:`flush_round_tally` stores that slot absolutely.
    """

    __slots__ = ("counts",)

    #: slot indices of ``counts`` (kept dense so ``flush`` is one unpack).
    MESSAGES, BITS, MAX_BITS, CUT_MESSAGES, CUT_BITS = 0, 1, 2, 3, 4
    VIOLATIONS, BROADCASTS, VIRTUAL = 5, 6, 7
    SLOTS = 8

    _ZERO = array("q", [0]) * SLOTS

    def __init__(self) -> None:
        self.counts = array("q", self._ZERO)

    def reset(self, max_bits: int) -> None:
        """Zero every slot and seed ``MAX_BITS`` with the run's current maximum."""
        counts = self.counts
        counts[:] = self._ZERO
        counts[self.MAX_BITS] = max_bits

    def flush(self, metrics: "Metrics") -> None:
        """Fold the block into ``metrics`` via :func:`flush_round_tally`."""
        flush_round_tally(metrics, *self.counts)


@dataclass
class Metrics:
    """Aggregate communication statistics for one simulation run.

    ``cut_bits`` is only populated when the simulator is asked to track a
    vertex cut (used by the two-party lower-bound reductions of Sections 2-3,
    where Alice and Bob must exchange every bit that crosses the cut).

    ``bits_per_round`` starts with a round-0 bucket: messages queued in
    ``on_start`` are collected before the first ``start_round()`` and land
    there, so ``sum(bits_per_round) == bits_sent`` always holds and the
    bucket for round ``r`` is ``bits_per_round[r]``.

    ``per_model`` holds counters owned by the communication-model policy
    (e.g. ``broadcast_payloads`` under broadcast-CONGEST,
    ``virtual_link_messages`` under the Congested Clique); it stays empty —
    and :meth:`as_dict` unchanged — under LOCAL / CONGEST, preserving the
    golden-run contract.

    ``per_adversary`` holds fault counters owned by the adversary policy
    (:mod:`repro.distributed.adversary`): ``adversary_dropped_messages``,
    ``adversary_crashed_nodes`` and friends.  It follows the same pattern
    as ``per_model`` — empty (and :meth:`as_dict` unchanged) for fault-free
    runs, including runs with an explicit ``NoAdversary`` installed, so the
    golden dictionaries never gain keys.

    ``streaming=True`` opts into bounded-memory history for mega-scale /
    service-mode runs: ``bits_per_round`` becomes a ``deque`` capped at
    ``history_cap`` buckets (oldest rounds evicted) while the running
    aggregates — every scalar counter above plus :meth:`peak_round_bits`
    and the count in ``rounds`` — keep covering the whole run.  Every
    scalar counter, :meth:`as_dict` and the retained history suffix are
    bit-for-bit identical to a non-streaming run; only the evicted prefix
    of ``bits_per_round`` (and hence ``sum(bits_per_round)``) differs.
    The default is off, so goldens and the engine-parity fixtures are
    untouched.
    """

    rounds: int = 0
    messages_sent: int = 0
    bits_sent: int = 0
    max_message_bits: int = 0
    bandwidth_violations: int = 0
    cut_messages: int = 0
    cut_bits: int = 0
    bits_per_round: list[int] = field(default_factory=lambda: [0])
    per_model: dict[str, int] = field(default_factory=dict)
    per_adversary: dict[str, int] = field(default_factory=dict)
    streaming: bool = False
    history_cap: int = 1024
    _round_bits_peak: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        """Convert the history to a capped deque when streaming is requested."""
        if self.streaming:
            if self.history_cap < 1:
                raise ValueError(
                    f"history_cap must be >= 1, got {self.history_cap!r}"
                )
            self.bits_per_round = deque(self.bits_per_round, maxlen=self.history_cap)

    def record_message(self, bits: int, crosses_cut: bool) -> None:
        """Tally one delivered message of ``bits`` bits (reference engine)."""
        self.messages_sent += 1
        self.bits_sent += bits
        self.max_message_bits = max(self.max_message_bits, bits)
        self.bits_per_round[-1] += bits
        if crosses_cut:
            self.cut_messages += 1
            self.cut_bits += bits

    def start_round(self) -> None:
        """Advance the round counter and open a fresh ``bits_per_round`` bucket.

        In streaming mode the bucket about to be evicted by the capped deque
        is folded into the running peak first, so :meth:`peak_round_bits`
        stays exact over the whole run while the history stays bounded.
        """
        self.rounds += 1
        history = self.bits_per_round
        if self.streaming and len(history) == history.maxlen:
            evicted = history[0]
            if evicted > self._round_bits_peak:
                self._round_bits_peak = evicted
        history.append(0)

    def peak_round_bits(self) -> int:
        """Largest single-round bit total of the run (exact in both modes)."""
        return max(self._round_bits_peak, max(self.bits_per_round, default=0))

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a model-owned counter (created on first use)."""
        self.per_model[counter] = self.per_model.get(counter, 0) + amount

    def bump_fault(self, counter: str, amount: int = 1) -> None:
        """Increment an adversary-owned fault counter (created on first use)."""
        self.per_adversary[counter] = self.per_adversary.get(counter, 0) + amount

    def as_dict(self) -> dict[str, int]:
        """All aggregate counters as a flat dictionary.

        Benchmarks and reports should consume this instead of poking
        individual attributes, so that adding a counter is a one-line change.
        Model-owned counters are merged in after the core ones, then the
        adversary-owned fault counters; a policy counter whose name shadows
        an earlier counter (e.g. ``rounds``) would silently corrupt the
        report, so collisions raise instead.
        """
        out = {
            "rounds": self.rounds,
            "messages_sent": self.messages_sent,
            "bits_sent": self.bits_sent,
            "max_message_bits": self.max_message_bits,
            "bandwidth_violations": self.bandwidth_violations,
            "cut_messages": self.cut_messages,
            "cut_bits": self.cut_bits,
        }
        for owner, counters in (
            ("per_model", self.per_model),
            ("per_adversary", self.per_adversary),
        ):
            for key, value in counters.items():
                if key in out:
                    raise ValueError(
                        f"{owner} counter {key!r} collides with another Metrics counter"
                    )
                out[key] = value
        return out

    def summary(self) -> dict[str, int]:
        """Backwards-compatible alias of :meth:`as_dict`."""
        return self.as_dict()
