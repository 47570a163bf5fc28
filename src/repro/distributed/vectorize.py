"""Program lowering: whole-round vectorized node-program kernels (E23).

The columnar engine (PR 6) made delivery and accounting flat-array work,
but every round still re-enters Python once per node: ``on_round`` runs
``n`` times per round, so a mega-scale flood-max run spends most of its
wall time in interpreter dispatch, not physics.  This module removes that
loop for programs that opt in.

A lowerable program class implements the **VectorProgram protocol**:

* :meth:`VectorProgram.vector_kernel` — a classmethod receiving every
  program instance of the run plus the :class:`EngineView`; it validates
  that the instances are homogeneous (same configuration, untouched
  per-node state) and returns a :class:`VectorKernel`, or ``None`` to
  decline;
* the kernel declares its flat column state (:meth:`VectorKernel.state_columns`)
  and executes whole rounds (:meth:`VectorKernel.vector_round`) against the
  view's CSR neighbour arrays and shared payload columns — e.g. flood-max
  becomes one ``np.maximum.reduceat`` plus a halt-mask update per round;
* the program's ordinary ``on_round`` is the **exact per-node fallback**:
  whenever lowering is declined the columnar engine runs the stepped path,
  bit-for-bit identically.

The columnar engine attempts lowering (:func:`try_lower`) when

* every program instance is the *exact same* opted-in class,
* the delivery filter is absent or non-transforming (drop and crash
  adversaries are supported through the existing per-sender
  ``deliver_mask`` seam; the corruption adversary forces the fallback),
* every vertex label is an exact ``int`` fitting 64 bits (the label type
  of every shipped graph family).

Parity contract: a lowered run is **bit-for-bit identical** to the stepped
columnar run (and hence to the reference oracle) — outputs,
``Metrics.as_dict()``, ``bits_per_round``, fault counters, enforcement
raises — under all four communication models and under drop/crash
adversaries.  The load-bearing details:

* accounting reuses the columnar engine's kernels verbatim: mask
  dot-products over per-node degree/cut/overlay count columns, one
  :class:`~repro.distributed.metrics.RoundTally` flush per collection pass
  (including the round-0 pass and the final empty pass), absolute
  ``max_message_bits`` store, and the sender-ordered enforcement walk with
  the stepped engine's partially-flushed metrics and message text;
* payload sizes come from closed forms (:func:`int_payload_bits`,
  :func:`repetition_frame_bits`) pinned by tests to equal
  :func:`~repro.distributed.encoding.estimate_bits` on every value the
  kernels emit — ``estimate_bits`` itself never runs inside
  ``vector_round`` (reprolint REP006 enforces this);
* the master RNG is consumed by the ordinary context construction before
  lowering is attempted, so seeded behaviour matches the stepped engines;
* adversary seams fire exactly like the stepped columnar engine: the
  filter sees each round begin before any state updates (crash schedules
  force-halt contexts there), and ``deliver_mask`` is called once per
  sender, in ascending sender order, with the sorted neighbour label row;
* NumPy is an optional accelerator, never a dependency: with NumPy absent
  or disabled (``REPRO_DISABLE_NUMPY``) the stdlib-``array`` kernels
  produce identical results — slower, never different.
"""

from __future__ import annotations

import os
from array import array
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable

from repro.distributed.columnar import _crossing_counts, _virtual_counts
from repro.distributed.errors import BandwidthExceededError, RoundLimitExceededError
from repro.distributed.metrics import Metrics, RoundTally, flush_round_tally

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.adversary import DeliveryFilter
    from repro.distributed.node import NodeContext
    from repro.distributed.program import NodeProgram
    from repro.distributed.simulator import Simulator

# NumPy is an optional accelerator, never a dependency: absent (or disabled
# through the environment) the stdlib kernels take over with identical
# results.  The module global is re-read on every run so tests can
# monkeypatch it to exercise the fallback.
if os.environ.get("REPRO_DISABLE_NUMPY"):  # pragma: no cover - env-driven
    _np = None
else:
    try:
        import numpy as _np
    except ImportError:  # pragma: no cover - depends on environment
        _np = None

#: int64 bounds: labels outside this range decline lowering, and the
#: minimum doubles as the "nothing heard" fold identity (safe because the
#: fold is a pure max — an identity-valued *delivered* label folds to the
#: identity, and ``heard > best`` is then false exactly as in the stepped
#: per-node fold).
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def int_payload_bits(value: int) -> int:
    """Closed-form wire size of an exact-``int`` broadcast payload.

    Equals :func:`~repro.distributed.encoding.estimate_bits` on every
    ``int``: magnitude bits (at least one, so 0 is representable) plus a
    sign bit.  The lowered kernels use this (cached per distinct value)
    instead of calling ``estimate_bits`` per sender per round.
    """
    bits = value.bit_length()
    return (bits if bits else 1) + 1


def repetition_frame_bits(value: int, copies: int) -> int:
    """Closed-form wire size of a ``copies``-tuple repetition frame.

    Equals :func:`~repro.distributed.encoding.estimate_bits` on
    ``(value,) * copies``: sequence framing plus per-item framing and the
    item's own size — the payload class of
    :class:`~repro.core.robust_coding.RedundantFloodMaxProgram`.
    """
    return 2 + copies * (2 + int_payload_bits(value))


def _np_payload_bits(np, values, copies: int | None):
    """Vectorized closed forms over a *nonnegative* ``int64`` value column.

    Bit-for-bit :func:`int_payload_bits` (or :func:`repetition_frame_bits`
    with ``copies``) per entry: the bit length is accumulated with at most
    64 whole-column shift passes, so no float log is ever trusted near a
    power-of-two boundary.
    """
    x = values.copy()
    bit_length = np.zeros(x.shape[0], dtype=np.int64)
    nonzero = x > 0
    while nonzero.any():
        bit_length += nonzero
        x >>= 1
        nonzero = x > 0
    payload = np.where(bit_length == 0, 1, bit_length) + 1
    if copies is None:
        return payload
    return 2 + copies * (2 + payload)


class VectorProgram:
    """Opt-in mixin: a node program class that can lower whole rounds.

    Subclasses override :meth:`vector_kernel`.  The columnar engine calls
    it once per run (after building contexts and binding the adversary)
    when every program instance is the exact same class; returning ``None``
    declines lowering and the run proceeds on the stepped per-node path —
    the program's ``on_round`` is the exact fallback, so declining is
    always safe.
    """

    __slots__ = ()

    @classmethod
    def vector_kernel(
        cls, programs: "list[NodeProgram]", view: "EngineView"
    ) -> "VectorKernel | None":
        """Return a :class:`VectorKernel` for ``programs``, or ``None``.

        Implementations must verify homogeneity — identical configuration
        across instances and untouched per-node state — because the kernel
        replaces every instance's execution wholesale.  Subclasses that do
        not re-implement the protocol must be declined here (guard on
        ``cls``), never silently lowered with the parent's semantics.
        """
        return None


class VectorKernel:
    """One lowered run's whole-round executor state (program semantics).

    A kernel owns the program-side columns (e.g. flood-max's ``best``) and
    implements :meth:`on_start` and :meth:`vector_round`; the
    :class:`EngineView` owns everything engine-side — delivery, adversary
    masks, metrics accounting, context synchronisation.  Kernels must not
    call :func:`~repro.distributed.encoding.estimate_bits` or loop per
    message inside :meth:`vector_round` (reprolint REP006 treats these
    functions as hot paths); payload sizes come from closed forms cached
    per distinct value.
    """

    __slots__ = ()

    def state_columns(self) -> dict[str, Any]:
        """Name -> flat column mapping of this kernel's per-node state."""
        raise NotImplementedError

    def on_start(self, view: "EngineView") -> None:
        """Vectorized ``on_start``: seed columns, queue round-0 broadcasts."""
        raise NotImplementedError

    def vector_round(self, view: "EngineView") -> None:
        """Execute one whole round: fold, update state, retire, re-queue."""
        raise NotImplementedError


class EngineView:
    """Engine-side state of one lowered columnar run.

    Exposes to kernels: the CSR topology (``rows``, ``indptr``,
    ``degrees``, ``labels``), the NumPy module snapshot (``np``, possibly
    ``None``), the liveness column (``alive`` plus ``alive_np``), the fold
    primitive :meth:`fold_max`, the broadcast queue
    (:meth:`queue_broadcast_alive` over the ``best_bits`` column) and the
    retirement seam :meth:`retire` (the only per-node Python in a lowered
    run: each node is touched once when it halts).  Everything else —
    accounting kernels, adversary masks, the round loop — is internal.
    """

    __slots__ = (
        "sim",
        "contexts",
        "metrics",
        "graph_sets",
        "filt",
        "np",
        "n",
        "labels",
        "index",
        "rows",
        "indptr",
        "indices",
        "degrees",
        "n_connected",
        "alive",
        "alive_count",
        "sent",
        "sent_count",
        "bits_col",
        "heard_col",
        "senders_list",
        "round",
        "cut_counts",
        "virtual_counts",
        "mask_rows",
        "mask_flat",
        "tally",
        "_kernel",
        "_ninf_template",
        "_zero_bytes",
        "_zero_arcs",
        "alive_np",
        "sent_np",
        "bits_np",
        "deg_np",
        "cut_np",
        "virt_np",
        "nonempty_np",
        "all_rows_np",
        "reduce_idx",
        "t_idx",
    )

    def __init__(
        self,
        sim: "Simulator",
        contexts: "list[NodeContext]",
        metrics: Metrics,
        graph_sets,
        filt: "DeliveryFilter | None",
    ) -> None:
        np = _np  # snapshot per run; tests monkeypatch the module global
        self.sim = sim
        self.contexts = contexts
        self.metrics = metrics
        self.graph_sets = graph_sets
        self.filt = filt
        self.np = np
        topo = sim.topology
        n = topo.n
        self.n = n
        self.labels = topo.labels
        self.index = topo.index
        self.rows = topo.sorted_neighbor_rows()
        self.indptr = topo.indptr
        self.indices = topo.indices
        self.degrees = list(topo.degrees)
        self.n_connected = sum(1 for deg in self.degrees if deg)
        self.alive = bytearray(n)
        self.alive_count = 0
        self.sent = bytearray(n)
        self.sent_count = 0
        self.bits_col = array("q", [0]) * n
        self.heard_col = array("q", [0]) * n
        self.senders_list: list[int] | None = None
        self.round = 0
        cut = sim.cut
        self.cut_counts = (
            _crossing_counts(topo, [self.labels[i] in cut for i in range(n)])
            if cut is not None
            else None
        )
        self.virtual_counts = (
            _virtual_counts(topo, graph_sets) if graph_sets is not None else None
        )
        self.mask_rows: list[list[Any]] | None = None
        self.mask_flat: bytearray | None = None
        self.tally = RoundTally()
        self._kernel: VectorKernel | None = None
        self._ninf_template = array("q", [INT64_MIN]) * n
        self._zero_bytes = bytes(n)
        self._zero_arcs = bytes(self.indptr[n])
        if filt is not None:
            self.mask_rows = [[self.labels[j] for j in row] for row in self.rows]
            self.mask_flat = bytearray(self.indptr[n])

        self.alive_np = self.sent_np = self.bits_np = self.deg_np = None
        self.cut_np = self.virt_np = self.nonempty_np = None
        self.all_rows_np = self.reduce_idx = self.t_idx = None
        if np is not None:
            self.deg_np = np.frombuffer(topo.degrees, dtype=np.int64)
            self.bits_np = np.frombuffer(self.bits_col, dtype=np.int64)
            self.alive_np = np.frombuffer(self.alive, dtype=np.uint8).view(np.bool_)
            self.sent_np = np.frombuffer(self.sent, dtype=np.uint8).view(np.bool_)
            self.nonempty_np = self.deg_np > 0
            if self.cut_counts is not None:
                self.cut_np = np.frombuffer(self.cut_counts, dtype=np.int64)
            if self.virtual_counts is not None:
                self.virt_np = np.frombuffer(self.virtual_counts, dtype=np.int64)
            m2 = self.indptr[n]
            self.all_rows_np = np.fromiter(
                chain.from_iterable(self.rows), dtype=np.int64, count=m2
            )
            if m2:
                self.reduce_idx = np.minimum(
                    np.fromiter((self.indptr[i] for i in range(n)), np.int64, n),
                    m2 - 1,
                )
            if filt is not None and m2:
                # Receiver-side arc p (receiver i, neighbour j) maps to
                # sender-side arc t_idx[p] (sender j's sorted row, entry i):
                # lexsort by (neighbour, receiver) enumerates arcs in
                # sender-major order, i.e. exactly the deliver_mask layout.
                rec = np.repeat(
                    np.arange(n, dtype=np.int64),
                    np.diff(np.asarray(self.indptr, dtype=np.int64)),
                )
                perm = np.lexsort((rec, self.all_rows_np))
                t_idx = np.empty(m2, dtype=np.int64)
                t_idx[perm] = np.arange(m2, dtype=np.int64)
                self.t_idx = t_idx

    # ------------------------------------------------------------ kernel API
    def fold_max(self, bits=None):
        """Per-receiver max over the payloads delivered this round.

        Returns ``None`` when no traffic is pending; otherwise a column
        (NumPy ``int64`` array or stdlib ``array("q")``) whose entry ``i``
        is the max payload delivered to receiver ``i``, with
        :data:`INT64_MIN` marking "nothing delivered".  Entries of
        zero-degree receivers are unspecified — gate on degree.  The
        delivered set honours the adversary masks computed by the previous
        collection pass, so decisions and fault counters match the stepped
        engine exactly.

        With ``bits`` (a per-sender wire-size NumPy column; NumPy path
        only) the return is a ``(heard, heard_bits)`` pair: the bits column
        is folded through the same delivery mask, with 0 marking "nothing
        delivered".  Valid only when wire size is monotone nondecreasing in
        payload value (all-nonnegative payloads): then the folded max bits
        *is* the wire size of the folded max payload, and kernels can
        refresh sizes with no per-node Python at all.
        """
        if not self.sent_count:
            return None
        np = self.np
        best = self._kernel.payload_column()
        if np is not None:
            if self.all_rows_np is None or not len(self.all_rows_np):
                return None
            gathered = best[self.all_rows_np]
            dmask = None
            if self.filt is not None:
                dmask = (
                    np.frombuffer(self.mask_flat, dtype=np.uint8)
                    .view(np.bool_)[self.t_idx]
                )
            elif self.sent_count != self.n_connected:
                dmask = self.sent_np[self.all_rows_np]
            vals = gathered if dmask is None else np.where(dmask, gathered, INT64_MIN)
            heard = np.maximum.reduceat(vals, self.reduce_idx)
            if bits is None:
                return heard
            gathered_bits = bits[self.all_rows_np]
            if dmask is not None:
                gathered_bits = np.where(dmask, gathered_bits, 0)
            return heard, np.maximum.reduceat(gathered_bits, self.reduce_idx)
        heard = self.heard_col
        heard[:] = self._ninf_template
        rows = self.rows
        senders = self._senders()
        if self.filt is None:
            for j in senders:
                v = best[j]
                for i in rows[j]:
                    if v > heard[i]:
                        heard[i] = v
        else:
            mask = self.mask_flat
            indptr = self.indptr
            for j in senders:
                v = best[j]
                base = indptr[j]
                row = rows[j]
                for pos in range(len(row)):
                    if mask[base + pos]:
                        i = row[pos]
                        if v > heard[i]:
                            heard[i] = v
        return heard

    def retire(self, node_ids: list[int], outputs: list[Any]) -> None:
        """Halt ``node_ids`` voluntarily with ``outputs`` (context sync).

        The one per-node Python seam of a lowered run: each node passes
        through here exactly once, when it halts.  Crash-stopped nodes
        never do (the adversary halts their contexts directly and they
        keep output ``None``, exactly like the stepped engines).
        """
        contexts = self.contexts
        alive = self.alive
        for i, out in zip(node_ids, outputs):
            ctx = contexts[i]
            ctx.output = out
            ctx.halted = True
            alive[i] = 0
        self.alive_count -= len(node_ids)

    def queue_broadcast_alive(self) -> None:
        """Queue a broadcast from every live node for the next delivery pass.

        The payload column is the kernel's (``payload_column``); only the
        sender flags are computed here.  Zero-degree broadcasters are
        excluded from the sender set — the stepped engines treat their
        broadcasts as no-ops (no metrics, no payload counter).
        """
        np = self.np
        if np is not None:
            self.sent_np[:] = self.alive_np & self.nonempty_np
            self.sent_count = int(np.count_nonzero(self.sent_np))
            self.senders_list = None
            return
        sent = self.sent
        sent[:] = self._zero_bytes
        alive = self.alive
        degrees = self.degrees
        senders: list[int] = []
        append = senders.append
        for i in range(self.n):
            if alive[i] and degrees[i]:
                sent[i] = 1
                append(i)
        self.senders_list = senders
        self.sent_count = len(senders)

    def clear_broadcasts(self) -> None:
        """Queue nothing for the next delivery pass (terminal rounds)."""
        self.sent[:] = self._zero_bytes
        self.sent_count = 0
        self.senders_list = []

    # ------------------------------------------------------------- internals
    def _senders(self) -> list[int]:
        """Ascending sender indices of the queued pass (built lazily)."""
        senders = self.senders_list
        if senders is None:
            sent = self.sent
            senders = self.senders_list = [i for i in range(self.n) if sent[i]]
        return senders

    def _accumulate_ordered(self, senders: list[int]) -> tuple:
        """Sender-order accounting walk; raises on an enforced violation.

        A verbatim twin of the stepped columnar engine's ordered kernel, so
        enforcement raises carry bit-for-bit the same partially-flushed
        metrics and message text.
        """
        sim = self.sim
        model = sim.model
        budget = model.bandwidth_bits
        enforce = model.enforce
        broadcast_only = model.broadcast_only
        metrics = self.metrics
        tally = self.tally
        bits_col = self.bits_col
        degrees = self.degrees
        cut_counts = self.cut_counts
        virtual_counts = self.virtual_counts
        labels = self.labels
        indptr, indices = self.indptr, self.indices
        messages = 0
        bits_total = 0
        max_bits = tally.counts[RoundTally.MAX_BITS]
        cut_messages = 0
        cut_bits = 0
        violations = 0
        virtual = 0
        for k in range(len(senders)):
            src_i = senders[k]
            bits = bits_col[src_i]
            deg = degrees[src_i]
            messages += deg
            bits_total += deg * bits
            if bits > max_bits:
                max_bits = bits
            if cut_counts is not None:
                crossing = cut_counts[src_i]
                if crossing:
                    cut_messages += crossing
                    cut_bits += crossing * bits
            if virtual_counts is not None:
                virtual += virtual_counts[src_i]
            if budget is not None and bits > budget:
                violations += deg
                if enforce:
                    flush_round_tally(
                        metrics, messages, bits_total, max_bits, cut_messages,
                        cut_bits, violations,
                        (k + 1) if broadcast_only else 0, virtual,
                    )
                    src = labels[src_i]
                    first = labels[indices[indptr[src_i]]]
                    raise BandwidthExceededError(
                        f"message(s) on link {src!r}->{first!r} use "
                        f"{bits} bits, budget is {budget} "
                        f"({model.name})"
                    )
        return messages, bits_total, max_bits, cut_messages, cut_bits, violations, virtual

    def _collect(self) -> None:
        """One delivery pass: accounting flush plus adversary mask capture.

        The lowered twin of the columnar engine's ``collect``: same
        accounting kernels over the same columns, same unconditional
        per-pass tally flush, same per-sender ``deliver_mask`` seam (in
        ascending sender order, sorted label rows) — only inbox
        materialisation is replaced by the flat delivery mask
        :meth:`fold_max` consumes next round.
        """
        np = self.np
        metrics = self.metrics
        tally = self.tally
        model = self.sim.model
        budget = model.bandwidth_bits
        tally.reset(metrics.max_message_bits)
        counts = tally.counts
        scount = self.sent_count
        if scount:
            if np is not None:
                mask = self.sent_np
                bits_np = self.bits_np
                deg_np = self.deg_np
                if budget is not None:
                    over = (bits_np > budget) & mask
                    if over.any():
                        if model.enforce:
                            self._accumulate_ordered(self._senders())  # raises
                        counts[RoundTally.VIOLATIONS] = int(deg_np.dot(over))
                counts[RoundTally.MESSAGES] = int(deg_np.dot(mask))
                weighted = bits_np * deg_np
                counts[RoundTally.BITS] = int(weighted.dot(mask))
                max_bits = int((bits_np * mask).max())
                if max_bits > counts[RoundTally.MAX_BITS]:
                    counts[RoundTally.MAX_BITS] = max_bits
                if self.cut_np is not None:
                    counts[RoundTally.CUT_MESSAGES] = int(self.cut_np.dot(mask))
                    counts[RoundTally.CUT_BITS] = int((bits_np * self.cut_np).dot(mask))
                if self.virt_np is not None:
                    counts[RoundTally.VIRTUAL] = int(self.virt_np.dot(mask))
            else:
                (
                    counts[RoundTally.MESSAGES], counts[RoundTally.BITS],
                    counts[RoundTally.MAX_BITS], counts[RoundTally.CUT_MESSAGES],
                    counts[RoundTally.CUT_BITS], counts[RoundTally.VIOLATIONS],
                    counts[RoundTally.VIRTUAL],
                ) = self._accumulate_ordered(self._senders())
            if model.broadcast_only:
                counts[RoundTally.BROADCASTS] = scount
        tally.flush(metrics)

        filt = self.filt
        if filt is not None:
            mask_flat = self.mask_flat
            mask_flat[:] = self._zero_arcs
            if scount:
                deliver_mask = filt.deliver_mask
                labels = self.labels
                mask_rows = self.mask_rows
                bits_col = self.bits_col
                indptr = self.indptr
                for src_i in self._senders():
                    row_mask = deliver_mask(
                        labels[src_i], mask_rows[src_i], bits_col[src_i]
                    )
                    base = indptr[src_i]
                    mask_flat[base : base + len(row_mask)] = row_mask

    def _active_contexts(self):
        """Still-active contexts in ascending index order (adversary hook)."""
        contexts = self.contexts
        alive = self.alive
        return (contexts[i] for i in range(self.n) if alive[i])

    def _sync_crashes(self) -> None:
        """Fold force-halts from ``on_round_begin`` back into the columns."""
        contexts = self.contexts
        alive = self.alive
        crashed = 0
        for i in range(self.n):
            if alive[i] and contexts[i].halted:
                alive[i] = 0
                crashed += 1
        self.alive_count -= crashed

    def execute(self, max_rounds: int, raise_on_limit: bool) -> list[int]:
        """Run the lowered round loop; returns the final active index list.

        A twin of :meth:`~repro.distributed.simulator.Simulator._drive`:
        start programs (vectorized), collect round-0 traffic, then
        alternate whole-round kernels with delivery passes until every
        node halts or the round limit trips — same limit semantics, same
        per-pass metrics flush cadence, same adversary hook placement.
        """
        kernel = self._kernel
        metrics = self.metrics
        filt = self.filt
        kernel.on_start(self)
        self._collect()
        while self.alive_count:
            if metrics.rounds >= max_rounds:
                if raise_on_limit:
                    raise RoundLimitExceededError(
                        f"simulation exceeded {max_rounds} rounds"
                    )
                break
            metrics.start_round()
            self.round = metrics.rounds
            if filt is not None:
                filt.on_round_begin(self.round, self._active_contexts())
                self._sync_crashes()
            kernel.vector_round(self)
            self._collect()
        if not self.alive_count:
            return []
        alive = self.alive
        return [i for i in range(self.n) if alive[i]]


class MaxFloodKernel(VectorKernel):
    """Whole-round kernel of the max-flood program family.

    Covers the three shipped lowerable programs — the state is one
    ``best`` label column (plus a ``stable`` counter column for the
    patience-driven variants), a round is one fold
    (:meth:`EngineView.fold_max`), a masked column update and a halt-mask
    check:

    * ``rounds=R`` — :class:`~repro.core.flood_max.FloodMaxProgram`:
      every live node broadcasts each round and all halt together at
      round ``R`` with their current best as output;
    * ``patience=P`` — :class:`~repro.core.flood_max.RobustFloodMaxProgram`:
      a node halts (without broadcasting that round) once its best has
      been stable for ``P`` consecutive rounds;
    * ``copies=k`` with ``patience`` —
      :class:`~repro.core.robust_coding.RedundantFloodMaxProgram`: same
      dynamics, but payloads are ``k``-repetition frames, so only the
      wire-size closed form changes (an undamaged frame majority-decodes
      to its value, and the drop/crash adversaries the lowered path
      admits never damage frames).
    """

    __slots__ = (
        "rounds", "patience", "copies", "best", "stable", "_size_cache", "_monotone",
    )

    def __init__(
        self,
        rounds: int | None = None,
        patience: int | None = None,
        copies: int | None = None,
    ) -> None:
        if (rounds is None) == (patience is None):
            raise ValueError("exactly one of rounds/patience must be given")
        self.rounds = rounds
        self.patience = patience
        self.copies = copies
        self.best: Any = None
        self.stable: Any = None
        self._size_cache: dict[int, int] = {}
        # All-nonnegative labels make wire size monotone in the payload, so
        # sizes can ride the same reduceat fold as the payloads (NumPy path).
        self._monotone = False

    def state_columns(self) -> dict[str, Any]:
        """``best`` (and ``stable`` for the patience variants) columns."""
        columns = {"best": self.best}
        if self.patience is not None:
            columns["stable"] = self.stable
        return columns

    def payload_column(self):
        """The per-node broadcast value column (labels fold as ints)."""
        return self.best

    def _refresh_bits(self, view: EngineView, idxs, values) -> None:
        """Recompute wire sizes for the nodes whose payload changed.

        Closed-form sizing with a per-distinct-value cache: in steady
        state (no best-value changes) this loop body never runs, which is
        what makes the lowered rounds payload-size free.
        """
        cache = self._size_cache
        bits_col = view.bits_col
        copies = self.copies
        for i, v in zip(idxs, values):
            b = cache.get(v)
            if b is None:
                if copies is None:
                    b = int_payload_bits(v)
                else:
                    b = repetition_frame_bits(v, copies)
                cache[v] = b
            bits_col[i] = b

    def on_start(self, view: EngineView) -> None:
        """Vectorized ``on_start``: seed columns, queue the round-0 flood."""
        np = view.np
        n = view.n
        labels = view.labels
        view.alive[:] = b"\x01" * n
        view.alive_count = n
        if np is not None:
            self.best = np.fromiter(labels, dtype=np.int64, count=n)
            if self.patience is not None:
                self.stable = np.zeros(n, dtype=np.int64)
            self._monotone = bool(n == 0 or self.best.min() >= 0)
        else:
            self.best = array("q", labels)
            if self.patience is not None:
                self.stable = array("q", [0]) * n
        if self.rounds is not None and self.rounds <= 0:
            # Zero-budget flood-max: output the own label and halt in
            # on_start, queueing no traffic at all.
            view.retire(list(range(n)), list(labels))
            view.clear_broadcasts()
            return
        if self._monotone:
            view.bits_np[:] = _np_payload_bits(np, self.best, self.copies)
        else:
            self._refresh_bits(view, range(n), labels)
        view.queue_broadcast_alive()

    def vector_round(self, view: EngineView) -> None:
        """One whole round: fold, update best/stable, retire, re-queue."""
        np = view.np
        best = self.best
        heard_bits = None
        if np is not None and self._monotone:
            folded = view.fold_max(bits=view.bits_np)
            heard = None
            if folded is not None:
                heard, heard_bits = folded
        else:
            heard = view.fold_max()
        if np is not None:
            alive = view.alive_np
            improved = None
            if heard is not None:
                improved = alive & view.nonempty_np & (heard > best)
                if not improved.any():
                    improved = None
            if improved is not None:
                best[improved] = heard[improved]
                if heard_bits is not None:
                    view.bits_np[improved] = heard_bits[improved]
                else:
                    self._refresh_bits(
                        view, np.nonzero(improved)[0].tolist(), best[improved].tolist()
                    )
            if self.patience is not None:
                stable = self.stable
                stable += 1
                if improved is not None:
                    stable[improved] = 0
                halters = alive & (stable >= self.patience)
                if halters.any():
                    view.retire(
                        np.nonzero(halters)[0].tolist(), best[halters].tolist()
                    )
            elif view.round >= self.rounds:
                idxs = np.nonzero(alive)[0].tolist()
                view.retire(idxs, best[alive].tolist())
                view.clear_broadcasts()
                return
            view.queue_broadcast_alive()
            return
        alive = view.alive
        n = view.n
        changed: list[int] = []
        changed_vals: list[int] = []
        if heard is not None:
            for i in range(n):
                if alive[i]:
                    h = heard[i]
                    if h > best[i]:
                        best[i] = h
                        changed.append(i)
                        changed_vals.append(h)
        if changed:
            self._refresh_bits(view, changed, changed_vals)
        if self.patience is not None:
            stable = self.stable
            patience = self.patience
            improved = set(changed)
            halt_ids: list[int] = []
            halt_outs: list[int] = []
            for i in range(n):
                if not alive[i]:
                    continue
                if i in improved:
                    stable[i] = 0
                    continue
                s = stable[i] + 1
                stable[i] = s
                if s >= patience:
                    halt_ids.append(i)
                    halt_outs.append(best[i])
            if halt_ids:
                view.retire(halt_ids, halt_outs)
        elif view.round >= self.rounds:
            halt_ids = [i for i in range(n) if alive[i]]
            view.retire(halt_ids, [best[i] for i in halt_ids])
            view.clear_broadcasts()
            return
        view.queue_broadcast_alive()


def try_lower(
    sim: "Simulator",
    contexts: "list[NodeContext]",
    programs: "list[NodeProgram]",
    metrics: Metrics,
    graph_sets,
    filt: "DeliveryFilter | None",
) -> EngineView | None:
    """Attempt to lower a columnar run; returns the armed view or ``None``.

    Lowering engages when every program instance is the exact same
    :class:`VectorProgram` class (which then validates homogeneity and
    supplies the kernel), the delivery filter is absent or
    non-transforming, and every vertex label is an exact 64-bit ``int``.
    Any refusal returns ``None`` and the caller runs the stepped columnar
    path — the per-node fallback the protocol guarantees is exact.
    """
    if not programs:
        return None
    first = programs[0]
    if not isinstance(first, VectorProgram):
        return None
    cls = first.__class__
    for program in programs:
        if program.__class__ is not cls:
            return None
    if filt is not None and filt.transforms:
        return None
    for lbl in sim.topology.labels:
        if lbl.__class__ is not int or not (INT64_MIN <= lbl <= INT64_MAX):
            return None
    view = EngineView(sim, contexts, metrics, graph_sets, filt)
    kernel = cls.vector_kernel(programs, view)
    if kernel is None:
        return None
    view._kernel = kernel
    return view


__all__ = [
    "EngineView",
    "INT64_MAX",
    "INT64_MIN",
    "MaxFloodKernel",
    "VectorKernel",
    "VectorProgram",
    "int_payload_bits",
    "repetition_frame_bits",
    "try_lower",
]
