"""Columnar simulator engine: flat-array delivery kernels over CSR rows.

Broadcast rounds exploit the one-broadcast-per-node-per-round admission
rule: each sender's payload is interned once, so per-message work collapses
into per-sender work, and this module removes the per-*delivery* Python
loop too (no inbox dict insert per receiver).  One round of broadcast
traffic becomes a handful of flat-array operations —

* **gather** — each sender's interned payload is drained into persistent
  per-round columns: a ``sent`` flag byte per node, a 64-bit size slot
  (``bits_col``) and one single-payload list per sender, shared by all
  of its receivers;
* **size table** — payload sizes come from a run-lifetime
  :class:`~repro.distributed.encoding.PayloadSizeTable` keyed by
  ``(exact type, value)`` (with a dedicated exact-``int`` fast dictionary),
  so :func:`~repro.distributed.encoding.estimate_bits` runs once per
  distinct payload value per run, not once per sender per round;
* **accounting kernels** — messages / bits / cut / overlay / violation
  totals are mask dot-products over preallocated per-node count columns
  (NumPy when importable, a tight stdlib loop otherwise) deposited in a
  preallocated :class:`~repro.distributed.metrics.RoundTally` that is
  flushed into :class:`~repro.distributed.metrics.Metrics` once per round;
* **delivery** — no inbox dicts are built: every receiver owns one
  persistent :class:`ColumnarInbox` view over the shared round state.  In
  the common every-node-broadcasts round the payload lists of *all*
  receivers are materialised by a single NumPy fancy-index over the
  concatenated (sorted) neighbour rows and each ``values()`` call is a
  C-level list slice; otherwise ``values()`` filters the receiver's row
  against the ``sent`` column.

NumPy is strictly optional: when it is missing (or disabled via the
``REPRO_DISABLE_NUMPY`` environment variable) the stdlib kernels produce
bit-for-bit identical results — slower, never different.

Rounds that contain targeted sends are not collected here at all: the
contexts flag a shared signal cell and the engine delegates the whole
round to the shared targeted fast path
(:mod:`repro.distributed.targeted`), which reuses this run's payload size
table.  The kernels below therefore only ever see pure-broadcast rounds.

Parity contract (the gate this engine ships under): the columnar engine is
bit-for-bit identical to the ``reference`` engine — outputs,
``Metrics.as_dict()``, ``bits_per_round`` — for every program under all
four communication models and under every adversary.  The load-bearing
details of the broadcast kernels:

* inbox key order — the reference engine inserts senders in ascending
  node order, so :class:`ColumnarInbox` iterates the *sorted* neighbour rows
  (:meth:`~repro.graphs.topology.CompiledTopology.sorted_neighbor_rows`),
  never raw CSR order;
* adversaries — an active delivery filter is consulted once per sender via
  :meth:`~repro.distributed.adversary.DeliveryFilter.deliver_mask` (for
  drops, a keyed-hash mask over ``(round, src, dst)``), and delivery falls
  back to eager inbox dicts so stateful filters observe every decision;
  decisions are order-independent by the adversary design rules, so
  counters and inboxes match the reference engine exactly;
* enforcement — when a payload exceeds an enforcing model's budget the
  engine re-walks the senders in order and raises
  :class:`~repro.distributed.errors.BandwidthExceededError`, with the
  metrics flushed through the violating sender and the link to its first
  CSR neighbour named in the message (the reference engine names the
  first link in its ``frozenset`` order, which can differ when a node has
  several neighbours).

The single-payload inbox lists are *shared* between
receivers, and the inbox views are valid only for the round they were
collected for (the engine reuses the underlying buffers): programs must
treat inboxes as read-only and must not stash them across rounds — which
every shipped program already satisfies.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.distributed.encoding import PayloadSizeTable, estimate_bits
from repro.distributed.errors import BandwidthExceededError
from repro.distributed.metrics import Metrics, RoundTally, flush_round_tally
from repro.distributed.node import NO_BROADCAST, NodeContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.adversary import DeliveryFilter
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


def have_numpy() -> bool:
    """Whether the columnar engine will use its NumPy kernels on this run."""
    return _np is not None


class _RoundState:
    """One run's shared send-state, rebuilt in place every collection pass.

    All :class:`ColumnarInbox` views of a run alias one instance, so
    resetting the round costs a few slice assignments instead of
    re-constructing one view per receiver per round.  The primary store is
    the ``pays`` payload *column* (payload object per sender index); the
    Mapping contract's per-sender singleton lists (``plists``) are
    materialised lazily via :meth:`ensure_plists`, only on rounds where a
    program actually uses the dict-like accessors — a pure fold like
    flood-max's :meth:`ColumnarInbox.max_heard` never pays for them.

    ``flat`` caches the round's bulk-gathered payload lists and
    ``pays_flat`` the bulk-gathered raw payloads (both aligned with the
    concatenated sorted neighbour rows, hence sliceable by CSR ``indptr``
    bounds); each is built on first access and only for all-senders rounds.
    Stale column entries are guarded by the ``sent`` flags, so per-round
    reset clears only ``sent`` and the caches.
    """

    __slots__ = (
        "pays",
        "plists",
        "plists_valid",
        "senders",
        "sent",
        "labels",
        "index",
        "all_sent",
        "ints_only",
        "flat",
        "build_flat",
        "pays_flat",
        "build_pays_flat",
        "row_max",
        "build_row_max",
    )

    def __init__(self, n: int, labels: list[Any], index: dict[Any, int]) -> None:
        # Initialised to 0 (an int), not None: isolated vertices never send,
        # so their column slots must stay convertible when the whole column
        # is lowered to an int64 array for the reduceat fold kernel.
        self.pays: list[Any] = [0] * n
        self.plists: list[list[Any] | None] = [None] * n
        self.plists_valid = False
        self.senders: list[int] = []
        self.sent = bytearray(n)
        self.labels = labels
        self.index = index
        self.all_sent = False
        self.ints_only = False
        self.flat: list[list[Any]] | None = None
        self.build_flat: Callable[[], list[list[Any]]] | None = None
        self.pays_flat: list[Any] | None = None
        self.build_pays_flat: Callable[[], list[Any]] | None = None
        self.row_max: list[int] | None = None
        self.build_row_max: Callable[[], list[int] | None] | None = None

    def ensure_plists(self) -> list[list[Any] | None]:
        """Materialise the round's per-sender singleton payload lists.

        One list per sender is shared by all its receivers.  Entries of
        non-senders may be stale from an earlier round; every consumer
        filters through the ``sent`` flags (or, on all-sent rounds, touches
        sender rows only), so they are never observed.
        """
        plists = self.plists
        if not self.plists_valid:
            pays = self.pays
            for j in self.senders:
                plists[j] = [pays[j]]
            self.plists_valid = True
        return plists


class ColumnarInbox(Mapping):
    """Read-only inbox view: one receiver's window onto the round state.

    Instead of one dict entry per delivered message, every receiver owns
    one of these for the whole run: iteration walks the receiver's
    ascending-sorted neighbour row and keeps the neighbours that broadcast
    this round (``sent`` flag column), resolving payload lists straight out
    of the shared :class:`_RoundState`.  Key order therefore equals the
    reference engine's insertion order (ascending sender), which the
    parity contract requires.  When every node broadcast, ``values()``
    degenerates to a C-level slice of the round's bulk-gathered flat
    payload list.

    Views alias buffers the engine rewrites each round: read them only
    during the round they were handed to ``on_round`` for, and treat the
    (receiver-shared) payload lists as read-only — the engine's inbox
    contract.
    """

    __slots__ = ("_row", "_lo", "_hi", "_i", "_st")

    def __init__(
        self, row: tuple[int, ...], lo: int, hi: int, i: int, st: _RoundState
    ) -> None:
        self._row = row
        self._lo = lo
        self._hi = hi
        self._i = i
        self._st = st

    def __iter__(self):
        st = self._st
        labels = st.labels
        if st.all_sent:
            return iter([labels[j] for j in self._row])
        sent = st.sent
        return iter([labels[j] for j in self._row if sent[j]])

    def __len__(self) -> int:
        st = self._st
        if st.all_sent:
            return len(self._row)
        sent = st.sent
        total = 0
        for j in self._row:
            if sent[j]:
                total += 1
        return total

    def __bool__(self) -> bool:
        # ``if inbox:`` short-circuits at the first broadcasting neighbour
        # instead of counting them all through ``__len__``.
        st = self._st
        if st.all_sent:
            return bool(self._row)
        sent = st.sent
        return any(sent[j] for j in self._row)

    def __getitem__(self, src: Any) -> list[Any]:
        st = self._st
        j = st.index.get(src, -1)
        if j >= 0 and st.sent[j] and j in self._row:
            plist = st.ensure_plists()[j]
            if plist is not None:
                return plist
        raise KeyError(src)

    def values(self):
        """The payload lists of this round's broadcasting neighbours."""
        st = self._st
        flat = st.flat
        if flat is not None:
            # ``flat`` is only ever set on an all-sent round: hot path, one
            # C-level slice at this receiver's CSR bounds.
            return flat[self._lo : self._hi]
        if st.all_sent:
            if st.build_flat is not None:
                return st.build_flat()[self._lo : self._hi]
            plists = st.ensure_plists()
            return [plists[j] for j in self._row]
        sent = st.sent
        plists = st.ensure_plists()
        return [plists[j] for j in self._row if sent[j]]

    def items(self):
        """``(sender label, payload list)`` pairs in ascending sender order."""
        st = self._st
        labels = st.labels
        plists = st.ensure_plists()
        if st.all_sent:
            return [(labels[j], plists[j]) for j in self._row]
        sent = st.sent
        return [(labels[j], plists[j]) for j in self._row if sent[j]]

    def max_heard(self, default: Any) -> Any:
        """Fold-pushdown: max of ``default`` and the delivered payloads.

        The columnar counterpart of
        ``max(chain.from_iterable(inbox.values()), default)`` for
        broadcast workloads with totally ordered payloads (flood-max's
        vertex labels): the fold runs as one C-level ``max`` over a slice
        of the round's flat *payload* column, skipping the Mapping
        facade's singleton-list materialisation entirely.  Engine-agnostic
        programs dispatch on the inbox type — dict inboxes (the reference
        engine and the columnar adversary path) take
        the generic itertools fold, columnar views take this accessor —
        and the result is identical either way, which the engine-parity
        tests pin down.
        """
        st = self._st
        row_max = st.row_max
        if row_max is not None:
            # Fastest path: the whole round's per-receiver maxima were
            # computed by one ``np.maximum.reduceat`` over the flat int64
            # payload column (entries of empty rows are garbage, hence the
            # degree guard).
            if self._lo == self._hi:
                return default
            heard = row_max[self._i]
            return heard if heard > default else default
        if st.all_sent:
            if st.ints_only and st.build_row_max is not None:
                row_max = st.build_row_max()
                if row_max is not None:
                    if self._lo == self._hi:
                        return default
                    heard = row_max[self._i]
                    return heard if heard > default else default
            flat = st.pays_flat
            if flat is not None:
                vals = flat[self._lo : self._hi]
            elif st.build_pays_flat is not None:
                vals = st.build_pays_flat()[self._lo : self._hi]
            else:
                pays = st.pays
                vals = [pays[j] for j in self._row]
        else:
            pays = st.pays
            sent = st.sent
            vals = [pays[j] for j in self._row if sent[j]]
        if vals:
            heard = max(vals)
            return heard if heard > default else default
        return default


def _crossing_counts(topo, flags: list[bool]) -> array:
    """Per-node count of CSR neighbours whose ``flags`` side differs."""
    indptr, indices = topo.indptr, topo.indices
    counts = array("q", [0]) * topo.n
    for i in range(topo.n):
        mine = flags[i]
        counts[i] = sum(
            1 for pos in range(indptr[i], indptr[i + 1]) if flags[indices[pos]] != mine
        )
    return counts


def _virtual_counts(topo, graph_sets) -> array:
    """Per-node count of CSR neighbours that are not input-graph neighbours."""
    labels = topo.labels
    indptr, indices = topo.indptr, topo.indices
    counts = array("q", [0]) * topo.n
    for i in range(topo.n):
        gset = graph_sets[i]
        counts[i] = sum(
            1
            for pos in range(indptr[i], indptr[i + 1])
            if labels[indices[pos]] not in gset
        )
    return counts


def build_columnar_collect(
    sim: "Simulator",
    contexts: list[NodeContext],
    metrics: Metrics,
    graph_sets,
    filt: "DeliveryFilter | None",
    tsignal: list[bool],
) -> Callable[[Iterable[int]], list[Any]]:
    """Build the columnar engine's per-round ``collect`` callable.

    Precomputes the run-lifetime columns (sorted neighbour rows, degree /
    cut-crossing / overlay count arrays, the payload size table, the
    per-receiver inbox views and the
    :class:`~repro.distributed.metrics.RoundTally`) and returns the closure
    :meth:`~repro.distributed.simulator.Simulator._drive` calls once per
    round.  ``sim`` supplies the compiled topology, model and cut exactly
    as the reference engine sees them.  ``tsignal`` is the contexts' shared
    targeted-traffic signal cell: rounds that saw a ``ctx.send`` delegate
    to the shared targeted fast path
    (:func:`~repro.distributed.targeted.build_targeted_collect`, built
    lazily on first use and sharing this engine's payload size table).
    """
    np = _np  # snapshot per run; tests monkeypatch the module global
    topo = sim.topology
    model = sim.model
    n = topo.n
    labels = topo.labels
    index = topo.index
    cut = sim.cut
    budget = model.bandwidth_bits
    enforce = model.enforce
    broadcast_only = model.broadcast_only
    indptr, indices = topo.indptr, topo.indices

    rows = topo.sorted_neighbor_rows()
    degrees = list(topo.degrees)
    # Degree-0 vertices are skipped by the gather loop *and* appear in no
    # receiver's row, so the all-sent fast path triggers whenever every
    # positive-degree vertex broadcast — not only when all ``n`` did.
    n_connected = sum(1 for deg in degrees if deg)

    cut_counts = None
    if cut is not None:
        cut_counts = _crossing_counts(topo, [labels[i] in cut for i in range(n)])
    virtual_counts = None
    if graph_sets is not None:
        virtual_counts = _virtual_counts(topo, graph_sets)

    size_table = PayloadSizeTable()
    int_sizes = size_table.int_sizes
    size_cap = size_table.cap
    measure = size_table.measure
    tally = RoundTally()
    MESSAGES, BITS, MAX_BITS = RoundTally.MESSAGES, RoundTally.BITS, RoundTally.MAX_BITS
    CUT_MESSAGES, CUT_BITS = RoundTally.CUT_MESSAGES, RoundTally.CUT_BITS
    VIOLATIONS, BROADCASTS = RoundTally.VIOLATIONS, RoundTally.BROADCASTS
    VIRTUAL = RoundTally.VIRTUAL

    # Persistent per-round columns: the sent-flag byte per node, the payload
    # size slot per node and the payload object column (the Mapping
    # facade's singleton lists materialise lazily from it, see
    # ``_RoundState.ensure_plists``).
    state = _RoundState(n, labels, index)
    sent = state.sent
    pays = state.pays
    bits_col = array("q", [0]) * n
    zero_bytes = bytes(n)
    none_list: list[Any] = [None] * n

    deg_np = cut_np = virt_np = None
    sent_np = bits_np = obj_np = all_rows_np = None
    if np is not None:
        deg_np = np.frombuffer(topo.degrees, dtype=np.int64)
        bits_np = np.frombuffer(bits_col, dtype=np.int64)
        # Zero-copy boolean view of the sent column; the bytearray is never
        # resized, so the exported buffer stays valid for the whole run.
        sent_np = np.frombuffer(sent, dtype=np.uint8).view(np.bool_)
        if cut_counts is not None:
            cut_np = np.frombuffer(cut_counts, dtype=np.int64)
        if virtual_counts is not None:
            virt_np = np.frombuffer(virtual_counts, dtype=np.int64)

    views: list[ColumnarInbox] | None = None
    if filt is None:
        # Sorted rows have the same per-node lengths as the CSR rows, so the
        # concatenated sorted-row offsets are exactly ``indptr`` — the flat
        # bulk-gather below can be sliced by plain CSR bounds.
        views = [
            ColumnarInbox(rows[i], indptr[i], indptr[i + 1], i, state)
            for i in range(n)
        ]
        if np is not None:
            from itertools import chain

            all_rows_np = np.fromiter(
                chain.from_iterable(rows), dtype=np.int64, count=indptr[n]
            )
            obj_np = np.empty(n, dtype=object)

            def build_flat() -> list[list[Any]]:
                """Bulk-gather every receiver's payload lists in two C passes."""
                obj_np[:] = state.ensure_plists()
                flat = state.flat = obj_np[all_rows_np].tolist()
                return flat

            def build_pays_flat() -> list[Any]:
                """Bulk-gather every receiver's raw payloads (fold pushdown)."""
                obj_np[:] = pays
                flat = state.pays_flat = obj_np[all_rows_np].tolist()
                return flat

            state.build_flat = build_flat
            state.build_pays_flat = build_pays_flat

            if indptr[n]:
                # Segment starts for the per-receiver max kernel.  reduceat
                # requires in-range indices, so empty rows (isolated
                # vertices, including a possible trailing one) are clipped;
                # their garbage entries are never read — ``max_heard``
                # guards on an empty row first.
                reduce_idx = np.minimum(
                    np.fromiter((indptr[i] for i in range(n)), np.int64, n),
                    indptr[n] - 1,
                )

                def build_row_max() -> list[int] | None:
                    """Per-receiver payload maxima in one C reduction.

                    Lowers the round's payload column to int64 and folds
                    every receiver's row with ``np.maximum.reduceat``.
                    Returns ``None`` (and clears the round's ``ints_only``
                    flag so the fallback is not retried per receiver) when
                    the column does not fit int64.
                    """
                    try:
                        ints = np.fromiter(pays, dtype=np.int64, count=n)
                    except (OverflowError, TypeError, ValueError):
                        state.ints_only = False
                        return None
                    gathered = ints[all_rows_np]
                    row_max = np.maximum.reduceat(gathered, reduce_idx).tolist()
                    state.row_max = row_max
                    return row_max

                state.build_row_max = build_row_max

    # Adversary path only: neighbour label rows handed to deliver_mask.
    mask_rows: list[list[Any]] | None = None
    if filt is not None:
        mask_rows = [[labels[j] for j in row] for row in rows]

    def accumulate_ordered(senders: list[int]) -> tuple:
        """Sender-order accumulation; raises mid-walk on an enforced violation.

        This is both the stdlib accounting kernel and the enforcement path:
        it walks senders in ascending order, so when an enforcing model's
        budget is exceeded the metrics are flushed through the first
        violating sender and the raise names that sender's first link —
        the same on the NumPy and stdlib paths and on the lowered path.
        """
        messages = 0
        bits_total = 0
        max_bits = tally.counts[MAX_BITS]
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

    # The degree-0 guard in the gather loop exists only for graphs that
    # actually contain isolated vertices; compile it out otherwise.
    has_isolated = n_connected != n

    # Targeted fast path, built on first use so broadcast-only programs
    # never construct it.
    targeted_collect: list[Callable[[Iterable[int]], list[Any]] | None] = [None]

    def collect(sender_ids: Iterable[int]) -> list[Any]:
        if tsignal[0]:
            # At least one ctx.send this round: the whole round (broadcasts
            # included, replayed at their outbox positions) goes through the
            # shared targeted-delivery path, reusing this run's size table.
            tsignal[0] = False
            targeted = targeted_collect[0]
            if targeted is None:
                from repro.distributed.targeted import build_targeted_collect

                targeted = targeted_collect[0] = build_targeted_collect(
                    sim, contexts, metrics, graph_sets, filt, size_table
                )
            return targeted(sender_ids)
        # ---- reset the persistent round columns.  Stale ``pays``/
        # ``plists`` entries are guarded by the ``sent`` flags, so only the
        # flags and the round caches need clearing (C-level slice write).
        sent[:] = zero_bytes
        state.all_sent = False
        state.flat = None
        state.pays_flat = None
        state.row_max = None
        state.plists_valid = False

        # ---- gather: drain interned payloads into the round's columns.
        # Hot names are re-bound as locals: the loop body runs once per
        # sender per round, and LOAD_FAST beats cell/global loads there.
        ctxs = contexts
        degs = degrees
        isizes = int_sizes
        probe_int = isizes.get
        gen_measure = measure
        no_bcast = NO_BROADCAST
        sent_l = sent
        bits_l = bits_col
        pays_l = pays
        isolated = has_isolated
        ints_only = True
        senders: list[int] = []
        senders_append = senders.append
        for src_i in sender_ids:
            ctx = ctxs[src_i]
            payload = ctx._broadcast_payload
            if payload is no_bcast:
                continue
            ctx._broadcast_payload = no_bcast
            if isolated and not degs[src_i]:
                # Degree-0 broadcast: a no-op, exactly like the reference
                # engine's empty outbox (no metrics, no payload counter).
                continue
            # Inlined PayloadSizeTable fast path: exact ints (the dominant
            # broadcast payload class) hit one dict probe, everything else
            # takes the generic value-keyed table.
            if payload.__class__ is int:
                bits = probe_int(payload)
                if bits is None:
                    # This *is* the PayloadSizeTable int fast path, inlined;
                    # the direct call only runs on a table miss.
                    bits = estimate_bits(payload)  # reprolint: disable=REP006
                    if len(isizes) < size_cap:
                        isizes[payload] = bits
            else:
                bits = gen_measure(payload)
                ints_only = False
            senders_append(src_i)
            sent_l[src_i] = 1
            bits_l[src_i] = bits
            pays_l[src_i] = payload
        state.senders = senders
        state.ints_only = ints_only

        # ---- accounting kernels -> RoundTally, flushed once.
        tally.reset(metrics.max_message_bits)
        counts = tally.counts
        if senders:
            if np is not None:
                mask = sent_np
                if budget is not None:
                    over = (bits_np > budget) & mask
                    if over.any():
                        if enforce:
                            accumulate_ordered(senders)  # raises
                        counts[VIOLATIONS] = int(deg_np.dot(over))
                counts[MESSAGES] = int(deg_np.dot(mask))
                weighted = bits_np * deg_np
                counts[BITS] = int(weighted.dot(mask))
                max_bits = int((bits_np * mask).max())
                if max_bits > counts[MAX_BITS]:
                    counts[MAX_BITS] = max_bits
                if cut_np is not None:
                    counts[CUT_MESSAGES] = int(cut_np.dot(mask))
                    counts[CUT_BITS] = int((bits_np * cut_np).dot(mask))
                if virt_np is not None:
                    counts[VIRTUAL] = int(virt_np.dot(mask))
            else:
                (
                    counts[MESSAGES], counts[BITS], counts[MAX_BITS],
                    counts[CUT_MESSAGES], counts[CUT_BITS],
                    counts[VIOLATIONS], counts[VIRTUAL],
                ) = accumulate_ordered(senders)
            if broadcast_only:
                counts[BROADCASTS] = len(senders)
        tally.flush(metrics)

        # ---- delivery: persistent lazy views (fault-free) or masked dicts.
        if not senders:
            return none_list
        if filt is None:
            state.all_sent = len(senders) == n_connected
            return views
        # Adversary seam: one deliver_mask call per sender (keyed-hash mask
        # for drops, a deliver() loop otherwise), then eager dict
        # insertion so both engines observe identical inbox contents.
        # Filter before the liveness check, as the reference engine does.
        halted = [ctx.halted for ctx in contexts]
        eager: list[dict[Any, list[Any]] | None] = [None] * n
        deliver_mask = filt.deliver_mask
        if not filt.transforms:
            for src_i in senders:
                src = labels[src_i]
                bits = bits_col[src_i]
                mask = deliver_mask(src, mask_rows[src_i], bits)
                # One singleton list per sender, shared by all its receivers
                # — the fault-free path's interning.
                plist = [pays[src_i]]
                row = rows[src_i]
                for pos in range(len(row)):
                    if not mask[pos]:
                        continue
                    j = row[pos]
                    if halted[j]:
                        continue
                    box = eager[j]
                    if box is None:
                        eager[j] = {src: plist}
                    else:
                        box[src] = plist
            return eager
        # Transforming adversary: the broadcast may arrive differently at
        # each neighbour, so the shared singleton list is invalid — call
        # transform per admitted edge (deliver -> transform -> liveness,
        # the canonical seam order) and materialize one list per edge.
        transform = filt.transform
        for src_i in senders:
            src = labels[src_i]
            bits = bits_col[src_i]
            dst_row = mask_rows[src_i]
            mask = deliver_mask(src, dst_row, bits)
            payload = pays[src_i]
            row = rows[src_i]
            for pos in range(len(row)):
                if not mask[pos]:
                    continue
                tpay = transform(src, dst_row[pos], payload, bits)
                j = row[pos]
                if halted[j]:
                    continue
                box = eager[j]
                if box is None:
                    eager[j] = {src: [tpay]}
                else:
                    box[src] = [tpay]
        return eager

    return collect


__all__ = ["ColumnarInbox", "build_columnar_collect", "have_numpy"]
