"""Targeted-send fast path of the columnar engine.

Congested Clique workloads — the setting the source paper actually lives
in — are targeted end to end.  This module is the columnar engine's
collection path for them: it consumes the per-sender grouped outboxes
(:class:`~repro.distributed.node.NodeContext` ``_t_dsts`` / ``_t_pays``
struct-of-arrays columns) which ``ctx.send`` appends to.

A round that saw at least one targeted send (the contexts flag a shared
one-element signal cell, so pure-broadcast rounds pay nothing) is collected
here instead of by the engine's broadcast kernels:

* **gather** — senders are walked in ascending index order (the order the
  reference oracle inserts inbox keys in); each sender's destination /
  payload columns are drained into flat per-round columns by C-level list
  extends, destinations resolve to dense indices through the compiled
  topology (label identity is detected once per run, making resolution a
  no-op for the shipped 0..n-1 graph families), and a round's broadcast —
  mixed rounds are legal — is expanded into the same columns at the
  position ``ctx.broadcast`` was called at (``_t_bpos``), so per-link
  message order is exactly the reference engine's outbox order;
* **sizing** — payload sizes come from the engine's run-lifetime
  :class:`~repro.distributed.encoding.PayloadSizeTable` via one C-level
  ``map`` per sender group, not one Python call per message per round;
* **accounting** — messages / bits / max / cut / overlay / violation
  totals reduce over the flat columns with NumPy kernels when available
  (per-link CONGEST admission becomes a grouped prefix-sum over a stable
  argsort of packed ``src * n + dst`` link keys) and flush once per round
  through the shared :class:`~repro.distributed.metrics.RoundTally` /
  :func:`~repro.distributed.metrics.flush_round_tally` seam;
* **delivery** — fault-free NumPy rounds scatter the payload column into
  per-receiver inbox segments with one stable ``argsort`` by destination
  (CSR-style: one contiguous column slice per receiver, zero per-message
  Python work) and hand every receiver a lazy :class:`TargetedInbox`
  Mapping view over its segment; the stdlib fallback and every adversary
  round take the ordered per-message path below instead.

The ordered path (:func:`build_targeted_collect`'s ``_ordered_collect``)
is the bit-for-bit reference: it walks the gathered stream exactly like
the reference engine's collection loop — accounting per message, per-link
budget totals, enforcement raising mid-stream with partially flushed
metrics, the PR 5 adversary seam consulted per message
(:meth:`~repro.distributed.adversary.DeliveryFilter.deliver`, or one
:meth:`~repro.distributed.adversary.DeliveryFilter.deliver_mask` call for
a broadcast segment's uniform-size row) *before* the receiver-liveness
check — and builds eager inbox dicts.  The NumPy kernels must
agree with it exactly; when a violation must raise under an enforcing
model, the vectorised path detects it cheaply and re-runs the ordered walk
so the raised error and the partially flushed metrics match the oracle.

Parity contract (the gate the fast path ships under): for any program, on
rounds containing targeted traffic, columnar runs are bit-for-bit
identical to the ``reference`` engine — outputs, ``Metrics.as_dict()``,
``bits_per_round`` — under all communication models that admit targeted
sends and under every adversary.  Two deliberate representation
differences, shared with the broadcast kernels: fault-free NumPy
rounds hand receivers :class:`TargetedInbox` views (not dicts), and
payload lists may be shared between receivers of one broadcast — programs
treat inboxes as read-only and do not stash them across rounds.  One
documented divergence: on an *enforcing* model, a mixed
broadcast-plus-targeted round expands the broadcast in compiled-topology
CSR order rather than the reference engine's ``frozenset`` iteration order,
so when several links violate at once the named link may differ (the
raise, the exception type and the totals-at-raise semantics are
identical); pure-targeted rounds enforce in exact oracle order.

NumPy is strictly optional, exactly as in
:mod:`repro.distributed.columnar`: absent (or disabled via
``REPRO_DISABLE_NUMPY``) the stdlib path produces identical results —
slower, never different.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.distributed.encoding import PayloadSizeTable
from repro.distributed.errors import BandwidthExceededError
from repro.distributed.metrics import Metrics, RoundTally, flush_round_tally
from repro.distributed.node import NO_BROADCAST, NodeContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.adversary import DeliveryFilter
    from repro.distributed.simulator import Simulator

# Optional accelerator, never a dependency — the same contract (and the
# same monkeypatch point for the fallback-parity tests) as the columnar
# module's ``_np`` global.
if os.environ.get("REPRO_DISABLE_NUMPY"):  # pragma: no cover - env-driven
    _np = None
else:
    try:
        import numpy as _np
    except ImportError:  # pragma: no cover - depends on environment
        _np = None


def have_targeted_numpy() -> bool:
    """Whether the targeted fast path will use its NumPy kernels on this run."""
    return _np is not None


#: Distinct-from-everything sentinel for the run-grouping loop (``None`` is
#: a legal sender label in principle, so equality with it must not match).
_NO_SRC: Any = object()

#: The type-scan target of the gather's exact-int payload sizing fast path.
_INT_ONLY = frozenset((int,))


class TargetedInbox(Mapping):
    """Read-only inbox view over one receiver's scatter segment.

    The fault-free NumPy delivery kernel sorts the round's messages by
    destination (stable, so each receiver's segment keeps ascending-sender,
    outbox-order message order — the reference engine's insertion order) and
    hands each receiver one of these views instead of building a dict per
    receiver.  The Mapping facade materialises the per-sender payload
    lists lazily, once, on first dict-style access: a program that only
    folds (:meth:`max_heard`) or never reads its inbox pays nothing.

    Views alias the round's scatter columns and are valid only for the
    round they were handed to ``on_round`` for; payload lists are shared
    with the engine — the columnar engine's read-only inbox contract.
    """

    __slots__ = ("_srcs", "_pays", "_lo", "_hi", "_items")

    def __init__(self, srcs: list[Any], pays: list[Any], lo: int, hi: int) -> None:
        self._srcs = srcs
        self._pays = pays
        self._lo = lo
        self._hi = hi
        self._items: list[tuple[Any, list[Any]]] | None = None

    def _ensure_items(self) -> list[tuple[Any, list[Any]]]:
        """Group the segment's (ascending, pre-sorted) senders into runs."""
        items = self._items
        if items is None:
            srcs = self._srcs
            pays = self._pays
            items = []
            append = items.append
            prev: Any = _NO_SRC
            plist: list[Any] = []
            for k in range(self._lo, self._hi):
                src = srcs[k]
                if prev is _NO_SRC or src != prev:
                    plist = [pays[k]]
                    append((src, plist))
                    prev = src
                else:
                    plist.append(pays[k])
            self._items = items
        return items

    def __iter__(self):
        return iter([src for src, _ in self._ensure_items()])

    def __len__(self) -> int:
        return len(self._ensure_items())

    def __bool__(self) -> bool:
        # ``if inbox:`` is the universal emptiness idiom in node programs;
        # answering it must not force the sender grouping (a view handed to
        # a fold-only receiver would otherwise pay the full facade cost).
        return self._hi > self._lo

    def __getitem__(self, src: Any) -> list[Any]:
        for sender, plist in self._ensure_items():
            if sender == src:
                return plist
        raise KeyError(src)

    def items(self):
        """``(sender label, payload list)`` pairs in ascending sender order.

        Returns the view's cached run list directly (read-only contract):
        one grouping pass serves every accessor of the round.
        """
        return self._ensure_items()

    def values(self):
        """The payload lists, in ascending sender order."""
        return [plist for _, plist in self._ensure_items()]

    def max_heard(self, default: Any) -> Any:
        """Fold-pushdown: max of ``default`` and every delivered payload.

        The targeted counterpart of
        :meth:`~repro.distributed.columnar.ColumnarInbox.max_heard`: one
        C-level ``max`` over the receiver's contiguous payload segment,
        skipping the Mapping facade entirely.
        """
        lo, hi = self._lo, self._hi
        if lo == hi:
            return default
        heard = max(self._pays[lo:hi])
        return heard if heard > default else default


def build_targeted_collect(
    sim: "Simulator",
    contexts: list[NodeContext],
    metrics: Metrics,
    graph_sets,
    filt: "DeliveryFilter | None",
    size_table: PayloadSizeTable,
) -> Callable[[Iterable[int]], list[Any]]:
    """Build the targeted-round ``collect`` callable.

    Invoked lazily by the columnar engine the first time a run actually
    sees a targeted send (broadcast-only runs never pay for it).  ``sim``
    supplies the compiled topology, model and cut exactly as the reference
    engine sees them; ``size_table`` is the columnar engine's run-lifetime
    payload size cache, shared with this path.
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
    indptr, indices = topo.indptr, topo.indices
    measure = size_table.measure
    int_probe = size_table.int_sizes.__getitem__
    index_get = index.__getitem__

    # Label identity: every shipped graph family labels vertices by their
    # dense index, making destination resolution a C-level list extend.
    identity = all(labels[i] == i for i in range(n))

    cut_side: list[bool] | None = None
    if cut is not None:
        cut_side = [labels[i] in cut for i in range(n)]

    # Per-sender neighbour index rows for broadcast expansion on mixed
    # rounds, decoded from the CSR slice once per sender per run.
    rows_cache: list[list[int] | None] = [None] * n

    def nbr_row(src_i: int) -> list[int]:
        row = rows_cache[src_i]
        if row is None:
            row = rows_cache[src_i] = list(indices[indptr[src_i] : indptr[src_i + 1]])
        return row

    tally = RoundTally()
    MESSAGES, BITS, MAX_BITS = RoundTally.MESSAGES, RoundTally.BITS, RoundTally.MAX_BITS
    CUT_MESSAGES, CUT_BITS = RoundTally.CUT_MESSAGES, RoundTally.CUT_BITS
    VIOLATIONS, VIRTUAL = RoundTally.VIOLATIONS, RoundTally.VIRTUAL

    # NumPy-only run-lifetime columns, built lazily on first use.
    side_np = None
    labels_np = None
    graph_keys_np = None

    def _graph_keys():
        """Sorted packed ``src * n + dst`` keys of every input-graph arc."""
        nonlocal graph_keys_np
        if graph_keys_np is None:
            keys = []
            for i in range(n):
                base = i * n
                for lbl in graph_sets[i]:
                    keys.append(base + index_get(lbl))
            arr = np.fromiter(keys, np.int64, len(keys))
            arr.sort()
            graph_keys_np = arr
        return graph_keys_np

    def _ordered_collect(
        groups: list[tuple[int, int, int, int, int]],
        t_dst: list[int],
        t_pay: list[Any],
        t_bits: list[int],
        deliver: bool,
    ) -> list[dict[Any, list[Any]] | None] | None:
        """The oracle-order path: per-message accounting, filtering, delivery.

        Walks the gathered stream exactly like the reference engine's
        collection loop (ascending senders, outbox order within a sender),
        so enforcement raises, adversary decisions and inbox contents are
        bit-for-bit the oracle's.  Serves as the stdlib kernel, the
        adversary path and the enforcement replay (``deliver=False`` —
        accounting only, used when the vectorised kernels detected a
        violation that must raise).
        """
        inboxes: list[dict[Any, list[Any]] | None] | None = None
        halted: list[bool] | None = None
        if deliver:
            inboxes = [None] * n
            halted = [ctx.halted for ctx in contexts]
        # A transforming filter rewrites payloads in their per-edge column
        # slots (each flat-column entry belongs to exactly one edge, so the
        # write is per-edge materialization for free).  Deliver -> transform
        # -> liveness, the canonical seam order of every engine.
        transforms = filt is not None and filt.transforms

        messages = 0
        bits_total = 0
        max_bits = metrics.max_message_bits
        cut_messages = 0
        cut_bits = 0
        violations = 0
        virtual = 0

        for src_i, start, end, b_lo, b_hi in groups:
            src = labels[src_i]
            src_side = cut_side[src_i] if cut_side is not None else False
            gset = graph_sets[src_i] if graph_sets is not None else None
            link: dict[int, int] | None = {} if budget is not None else None
            # One deliver_mask consult covers a broadcast segment (uniform
            # payload size, the PR 5/6 bulk seam), built lazily when the
            # walk first enters the segment; everything else goes through
            # the per-message deliver seam.
            mask = None
            k = start
            while k < end:
                dst_i = t_dst[k]
                bits = t_bits[k]
                messages += 1
                bits_total += bits
                if bits > max_bits:
                    max_bits = bits
                if cut_side is not None and src_side != cut_side[dst_i]:
                    cut_messages += 1
                    cut_bits += bits
                if gset is not None and labels[dst_i] not in gset:
                    virtual += 1
                if link is not None:
                    total = link.get(dst_i, 0) + bits
                    link[dst_i] = total
                    if total > budget:
                        violations += 1
                        if enforce:
                            flush_round_tally(
                                metrics, messages, bits_total, max_bits,
                                cut_messages, cut_bits, violations, 0, virtual,
                            )
                            raise BandwidthExceededError(
                                f"message(s) on link {src!r}->{labels[dst_i]!r} "
                                f"use {total} bits, budget is {budget} "
                                f"({model.name})"
                            )
                if filt is not None:
                    if b_lo <= k < b_hi:
                        if mask is None:
                            mask = filt.deliver_mask(
                                src, [labels[j] for j in t_dst[b_lo:b_hi]], bits
                            )
                        delivered = mask[k - b_lo]
                    else:
                        delivered = filt.deliver(src, labels[dst_i], bits)
                    if not delivered:
                        k += 1
                        continue
                    if transforms:
                        t_pay[k] = filt.transform(src, labels[dst_i], t_pay[k], bits)
                    if halted is not None and halted[dst_i]:
                        k += 1
                        continue
                if deliver:
                    box = inboxes[dst_i]
                    if box is None:
                        inboxes[dst_i] = {src: [t_pay[k]]}
                    else:
                        plist = box.get(src)
                        if plist is None:
                            box[src] = [t_pay[k]]
                        else:
                            plist.append(t_pay[k])
                k += 1

        flush_round_tally(
            metrics, messages, bits_total, max_bits, cut_messages, cut_bits,
            violations, 0, virtual,
        )
        return inboxes

    def collect(sender_ids: Iterable[int]) -> list[Any]:
        """Collect one targeted round: gather, account, deliver."""
        nonlocal side_np, labels_np
        # ---- gather: drain the per-sender grouped outboxes (and any mixed
        # broadcast) into flat per-round columns, senders ascending.
        groups: list[tuple[int, int, int, int, int]] = []
        groups_append = groups.append
        t_dst: list[int] = []
        t_pay: list[Any] = []
        t_bits: list[int] = []
        t_dst_extend = t_dst.extend
        t_pay_extend = t_pay.extend
        t_bits_extend = t_bits.extend
        ctxs = contexts
        no_bcast = NO_BROADCAST
        ident = identity
        get_i = index_get
        meas = measure
        probe = int_probe
        INT_ONLY = _INT_ONLY

        def extend_sizes(plist: list[Any]) -> None:
            # Exact-int payload columns (the dominant targeted payload
            # class) size through one C-level map over the interned int
            # table; a cold value — or any other payload shape — falls back
            # to the generic measure, which interns ints as it goes.  The
            # type scan is load-bearing: ``bool``/``float`` payloads are
            # hash-equal to ints (``True == 1``, ``1.0 == 1``) and would
            # silently take the wrong size from a blind table probe.
            if set(map(type, plist)) == INT_ONLY:
                first = plist[0]
                count = len(plist)
                if count > 2 and plist.count(first) == count:
                    # Uniform segment (one value fanned out to many
                    # destinations — the dominant shape): one probe, one
                    # C-level list repeat.
                    t_bits_extend([meas(first)] * count)
                    return
                pos = len(t_bits)
                try:
                    t_bits_extend(map(probe, plist))
                    return
                except KeyError:
                    del t_bits[pos:]
            t_bits_extend(map(meas, plist))

        for src_i in sender_ids:
            ctx = ctxs[src_i]
            tdsts = ctx._t_dsts
            bpay = ctx._broadcast_payload
            if not tdsts and bpay is no_bcast:
                continue
            tpays = ctx._t_pays
            ctx._t_dsts = []
            ctx._t_pays = []
            start = len(t_dst)
            if bpay is no_bcast:
                # Pure targeted sender: three C-level column extends.
                # ``_t_bpos`` may hold a stale value here, but it is only
                # ever read in the broadcast branch below, and broadcast()
                # always writes it fresh before setting ``_broadcast_payload``.
                if ident:
                    t_dst_extend(tdsts)
                else:
                    t_dst_extend(map(get_i, tdsts))
                t_pay_extend(tpays)
                extend_sizes(tpays)
                groups_append((src_i, start, len(t_dst), 0, 0))
                continue
            # Sender broadcast this round (possibly mixed with targeted
            # sends): expand the broadcast into the columns at its call
            # position so per-link message order matches the oracle.
            bpos = ctx._t_bpos
            ctx._t_bpos = -1
            ctx._broadcast_payload = no_bcast
            if bpos < 0:
                bpos = 0
            if bpos:
                pre_d = tdsts[:bpos]
                pre_p = tpays[:bpos]
                if ident:
                    t_dst_extend(pre_d)
                else:
                    t_dst_extend(map(get_i, pre_d))
                t_pay_extend(pre_p)
                extend_sizes(pre_p)
            row = nbr_row(src_i)
            deg = len(row)
            b_lo = len(t_dst)
            if deg:
                b_bits = meas(bpay)
                t_dst_extend(row)
                t_pay_extend([bpay] * deg)
                t_bits_extend([b_bits] * deg)
            b_hi = len(t_dst)
            if bpos < len(tdsts):
                post_d = tdsts[bpos:]
                post_p = tpays[bpos:]
                if ident:
                    t_dst_extend(post_d)
                else:
                    t_dst_extend(map(get_i, post_d))
                t_pay_extend(post_p)
                extend_sizes(post_p)
            groups_append((src_i, start, len(t_dst), b_lo, b_hi))

        m = len(t_dst)
        if not m:
            flush_round_tally(metrics, 0, 0, metrics.max_message_bits, 0, 0, 0, 0, 0)
            return [None] * n

        # ---- ordered path: stdlib kernels, and every adversary round
        # (stateful filters observe per-message decisions, exactly like the
        # columnar engine's eager adversary fallback).
        if np is None or filt is not None:
            return _ordered_collect(groups, t_dst, t_pay, t_bits, deliver=True)

        # ---- NumPy accounting kernels over the flat columns.
        t_bits_np = np.fromiter(t_bits, np.int64, m)
        t_dst_np = np.fromiter(t_dst, np.int64, m)
        g = len(groups)
        src_arr = np.fromiter((grp[0] for grp in groups), np.int64, g)
        cnt_arr = np.fromiter((grp[2] - grp[1] for grp in groups), np.int64, g)
        t_src_np = np.repeat(src_arr, cnt_arr)

        tally.reset(metrics.max_message_bits)
        counts = tally.counts
        counts[MESSAGES] = m
        counts[BITS] = int(t_bits_np.sum())
        mx = int(t_bits_np.max())
        if mx > counts[MAX_BITS]:
            counts[MAX_BITS] = mx
        if cut_side is not None:
            if side_np is None:
                side_np = np.fromiter(cut_side, np.bool_, n)
            crossing = side_np[t_src_np] != side_np[t_dst_np]
            counts[CUT_MESSAGES] = int(crossing.sum())
            counts[CUT_BITS] = int(t_bits_np[crossing].sum())
        if graph_sets is not None:
            key = t_src_np * n + t_dst_np
            gk = _graph_keys()
            if len(gk):
                pos = np.searchsorted(gk, key)
                member = gk[np.minimum(pos, len(gk) - 1)] == key
                counts[VIRTUAL] = m - int(member.sum())
            else:
                counts[VIRTUAL] = m
        # One stable argsort by destination serves both the per-link budget
        # accounting and the delivery scatter: each receiver's messages form
        # a contiguous segment (ascending sender, outbox order preserved),
        # so (dst, src) link groups are contiguous runs in the sorted stream
        # and keep their within-link send order.
        order = np.argsort(t_dst_np, kind="stable")
        sorted_dst = t_dst_np[order]
        src_sorted = t_src_np[order]
        if budget is not None:
            # Per-link prefix sums over the shared sorted stream: "the
            # message that tips a link past its budget" is counted exactly
            # as the oracle counts it (within-link order is stream order).
            bs = t_bits_np[order]
            boundary = np.empty(m, np.bool_)
            boundary[0] = True
            if m > 1:
                boundary[1:] = (sorted_dst[1:] != sorted_dst[:-1]) | (
                    src_sorted[1:] != src_sorted[:-1]
                )
            csum = np.cumsum(bs)
            starts = np.flatnonzero(boundary)
            base = np.zeros(len(starts), np.int64)
            if len(starts) > 1:
                base[1:] = csum[starts[1:] - 1]
            prefix = csum - base[np.cumsum(boundary) - 1]
            violations = int((prefix > budget).sum())
            if violations:
                if enforce:
                    # Re-walk in oracle order; raises with the partially
                    # flushed metrics of the first violating message.
                    _ordered_collect(groups, t_dst, t_pay, t_bits, deliver=False)
                counts[VIOLATIONS] = violations
        tally.flush(metrics)

        # ---- delivery: CSR-style scatter into per-receiver inbox columns,
        # served through lazy TargetedInbox views — no per-message Python.
        obj = np.empty(m, dtype=object)
        obj[:] = t_pay
        s_pays = obj[order].tolist()
        if identity:
            s_srcs = src_sorted.tolist()
        else:
            if labels_np is None:
                labels_np = np.empty(n, dtype=object)
                labels_np[:] = labels
            s_srcs = labels_np[src_sorted].tolist()
        boundary = np.empty(m, np.bool_)
        boundary[0] = True
        if m > 1:
            boundary[1:] = sorted_dst[1:] != sorted_dst[:-1]
        seg_starts = np.flatnonzero(boundary)
        receivers = sorted_dst[seg_starts].tolist()
        seg_list = seg_starts.tolist()
        seg_list.append(m)
        inboxes: list[Any] = [None] * n
        for r in range(len(receivers)):
            inboxes[receivers[r]] = TargetedInbox(
                s_srcs, s_pays, seg_list[r], seg_list[r + 1]
            )
        return inboxes

    return collect


__all__ = ["TargetedInbox", "build_targeted_collect", "have_targeted_numpy"]
