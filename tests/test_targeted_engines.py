"""Differential and unit tests for the columnar engine's targeted-send fast path.

The contract under test: the ``columnar`` engine carries ``ctx.send``
traffic bit-for-bit identically to the ``reference`` oracle — outputs,
``Metrics.as_dict()`` (hence per-round bit tallies), completion and
enforcement error text — across all four communication models, for
pure-targeted and mixed targeted/broadcast rounds (the broadcast/targeted
interleave order within a sender's outbox), under every adversary class
(whose keyed hashes must therefore fire on exactly the same
(src, dst, round) links on both engines), and with NumPy monkeypatched
away.

Plus unit coverage for :class:`~repro.distributed.targeted.TargetedInbox`,
the lazy Mapping view the fault-free NumPy kernel hands receivers.
"""

import pytest

from repro.distributed import (
    ENGINES,
    BandwidthExceededError,
    MessageAdmissionError,
    NodeProgram,
    Simulator,
    TargetedInbox,
    broadcast_congest_model,
    congest_model,
    congested_clique_model,
    local_model,
)
from repro.distributed import columnar as columnar_module
from repro.distributed import targeted as targeted_module
from repro.distributed import vectorize as vectorize_module
from repro.distributed.adversary import build_adversary
from repro.graphs import gnp_random_graph, path_graph

N = 24

MODELS = {
    "local": lambda: local_model(N),
    "congest": lambda: congest_model(N, enforce=False),
    "congest-enforcing": lambda: congest_model(N, enforce=True),
    "clique": lambda: congested_clique_model(N, enforce=False),
}

#: One spec per fault class; the drop/crash salts land mid-run on N=24.
ADVERSARIES = [None, "drop:0.2:3", "crash:4@2,17@3", "budget:48"]


class FanoutProgram(NodeProgram):
    """Targeted fan-out with an optional mixed broadcast/targeted round.

    Even rounds of the mixed variant interleave pre-broadcast sends, a
    broadcast, and post-broadcast sends — the exact shape that exercises
    the engines' broadcast-position bookkeeping.
    """

    def __init__(self, node_id, k=3, rounds=5, mix_broadcast=False):
        self.k = k
        self.rounds = rounds
        self.best = 0
        self.mix = mix_broadcast

    def on_start(self, ctx):
        for dst in sorted(ctx.neighbors)[: self.k]:
            ctx.send(dst, ctx.node_id + 1)

    def on_round(self, ctx, inbox):
        for _, plist in sorted(inbox.items()):
            for p in plist:
                if p > self.best:
                    self.best = p
        if ctx.round >= self.rounds:
            ctx.set_output(self.best)
            ctx.halt()
            return
        nbrs = sorted(ctx.neighbors)
        if self.mix and ctx.round % 2 == 0:
            for dst in nbrs[: self.k // 2]:
                ctx.send(dst, self.best)
            ctx.broadcast(self.best + 1)
            for dst in nbrs[self.k // 2 : self.k]:
                ctx.send(dst, self.best + 2)
        else:
            for dst in nbrs[: self.k]:
                ctx.send(dst, self.best + ctx.round)


def _run(engine, model, mix, adversary=None):
    graph = gnp_random_graph(N, 0.3, seed=7)
    sim = Simulator(
        graph,
        lambda v: FanoutProgram(v, mix_broadcast=mix),
        model=model,
        seed=11,
        engine=engine,
        adversary=build_adversary(adversary) if adversary else None,
    )
    result = sim.run(max_rounds=50)
    return {
        "outputs": dict(sorted(result.outputs.items())),
        "metrics": result.metrics.as_dict(),
        "completed": result.completed,
    }


def _outcome(engine, model_key, mix, adversary):
    """Result dict, or the raised exception — compared across engines."""
    try:
        return _run(engine, MODELS[model_key](), mix, adversary)
    except (BandwidthExceededError, MessageAdmissionError) as error:
        return error


def _assert_same_outcome(got, expected):
    if isinstance(expected, Exception):
        # Enforcement parity: same exception type AND same message (the
        # violating link is named identically).
        assert type(got) is type(expected)
        assert str(got) == str(expected)
    else:
        assert got == expected


def _disable_numpy(monkeypatch):
    """Send every columnar kernel down its stdlib path (``REPRO_DISABLE_NUMPY=1``)."""
    for module in (columnar_module, targeted_module, vectorize_module):
        monkeypatch.setattr(module, "_np", None)


@pytest.mark.parametrize("adversary", ADVERSARIES, ids=lambda a: a or "fault-free")
@pytest.mark.parametrize("mix", [False, True], ids=["targeted", "mixed"])
@pytest.mark.parametrize("model_key", sorted(MODELS))
def test_columnar_matches_reference_bit_for_bit(model_key, mix, adversary):
    expected = _outcome("reference", model_key, mix, adversary)
    got = _outcome("columnar", model_key, mix, adversary)
    _assert_same_outcome(got, expected)


@pytest.mark.parametrize("adversary", ADVERSARIES, ids=lambda a: a or "fault-free")
@pytest.mark.parametrize("mix", [False, True], ids=["targeted", "mixed"])
@pytest.mark.parametrize("model_key", sorted(MODELS))
def test_columnar_matches_reference_bit_for_bit_without_numpy(
    model_key, mix, adversary, monkeypatch
):
    # The same matrix on the stdlib scatter kernels: the pure-Python
    # fallback must match the oracle on every model and fault class, not
    # only agree with the NumPy path on one cell.
    _disable_numpy(monkeypatch)
    expected = _outcome("reference", model_key, mix, adversary)
    got = _outcome("columnar", model_key, mix, adversary)
    _assert_same_outcome(got, expected)


@pytest.mark.parametrize("adversary", ADVERSARIES, ids=lambda a: a or "fault-free")
def test_no_numpy_fallback_matches_numpy_path(adversary, monkeypatch):
    with_numpy = _outcome("columnar", "clique", True, adversary)
    monkeypatch.setattr(targeted_module, "_np", None)
    without = _outcome("columnar", "clique", True, adversary)
    _assert_same_outcome(without, with_numpy)


@pytest.mark.parametrize("engine", ENGINES)
def test_broadcast_only_model_rejects_send_semantically(engine):
    class Sender(NodeProgram):
        def __init__(self, v):
            pass

        def on_start(self, ctx):
            ctx.send(min(ctx.neighbors), 1)

        def on_round(self, ctx, inbox):
            ctx.halt()

    sim = Simulator(
        path_graph(4),
        Sender,
        model=broadcast_congest_model(4),
        seed=0,
        engine=engine,
    )
    with pytest.raises(MessageAdmissionError, match="broadcast-only model"):
        sim.run(max_rounds=5)


class TestTargetedInbox:
    """Unit coverage for the lazy scatter-segment Mapping view."""

    def _view(self):
        # One receiver's segment [2, 6) of a round's scatter columns,
        # senders pre-sorted ascending with a run of repeats.
        srcs = [0, 0, 1, 1, 1, 4, 9, 9]
        pays = [10, 11, 20, 21, 22, 40, 90, 91]
        return TargetedInbox(srcs, pays, 2, 7)

    def test_items_groups_runs_in_sender_order(self):
        assert self._view().items() == [(1, [20, 21, 22]), (4, [40]), (9, [90])]

    def test_mapping_facade(self):
        view = self._view()
        assert list(view) == [1, 4, 9]
        assert len(view) == 3
        assert view[4] == [40]
        assert 1 in view and 0 not in view
        with pytest.raises(KeyError):
            view[0]
        assert view.values() == [[20, 21, 22], [40], [90]]
        assert dict(view) == {1: [20, 21, 22], 4: [40], 9: [90]}

    def test_empty_segment(self):
        view = TargetedInbox([], [], 0, 0)
        assert len(view) == 0
        assert view.items() == []
        assert view.max_heard(-5) == -5

    def test_max_heard_skips_facade(self):
        view = self._view()
        assert view.max_heard(0) == 90
        assert view.max_heard(1000) == 1000
        # Fold did not have to materialise the run list first.
        assert TargetedInbox([1], [7], 0, 1).max_heard(3) == 7
