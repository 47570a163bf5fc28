"""Differential, admission, size-table and fallback tests for the columnar engine.

The columnar engine (the default) ships under one gate: bit-for-bit
identity with the ``reference`` oracle (outputs, ``Metrics.as_dict()``,
``bits_per_round``) for broadcast programs across all four communication
models *and* under the drop/crash/budget adversaries, lowered and stepped
alike, including an n=20000 differential on the mega-scale workload itself;
both engines admit exactly the same programs; the payload size table must
agree with ``estimate_bits`` on every payload shape; and the
stdlib-``array`` kernels must produce identical results with NumPy
monkeypatched away.
"""

import pytest

from repro.core import run_clique_two_spanner, run_flood_max
from repro.core.flood_max import FloodMaxProgram
from repro.distributed import (
    DEFAULT_ENGINE,
    BandwidthExceededError,
    BroadcastNodeProgram,
    ENGINES,
    FunctionProgram,
    MessageAdmissionError,
    NodeProgram,
    Simulator,
    broadcast_congest_model,
    congest_model,
    congested_clique_model,
    local_model,
    run_program,
)
from repro.distributed import columnar as columnar_module
from repro.distributed import targeted as targeted_module
from repro.distributed import vectorize as vectorize_module
from repro.distributed.adversary import build_adversary
from repro.distributed.columnar import ColumnarInbox, have_numpy
from repro.distributed.encoding import PayloadSizeTable, estimate_bits
from repro.graphs import Graph, gnp_random_graph, path_graph, sparse_gnp_graph, star_graph

ALL_MODELS = [
    lambda n: local_model(n),
    lambda n: congest_model(n, enforce=False),
    lambda n: broadcast_congest_model(n, enforce=False),
    lambda n: congested_clique_model(n, enforce=False),
]

#: Canonical adversary specs: one per fault class of the PR-5 layer.
ADVERSARIES = ["drop:0.2", "crash:3@1,11@2,24@3", "budget:16"]


class MappingConsumer(NodeProgram):
    """Exercises the full Mapping facade of the inbox every round.

    Touches ``items()``, ``values()``, ``__getitem__``, ``__contains__``,
    ``__len__``, key iteration order and the RNG, with tuple payloads — the
    widest read surface a broadcast program can put on an inbox view.
    """

    def __init__(self, v):
        self.v = v
        self.seen = []

    def on_start(self, ctx):
        ctx.broadcast((self.v, "tag"))

    def on_round(self, ctx, inbox):
        keys = list(inbox)
        assert keys == sorted(keys), "inbox keys must come in ascending order"
        assert len(inbox) == len(keys)
        for src in keys:
            assert src in inbox
            payloads = inbox[src]
            assert payloads == [(src, "tag")] or payloads[0][0] == src
        assert [list(v) for v in inbox.values()] == [inbox[k] for k in keys]
        assert [(k, inbox[k]) for k in keys] == list(inbox.items())
        self.seen.append((tuple(keys), ctx.rng.random()))
        if ctx.round >= 3:
            ctx.set_output(self.seen)
            ctx.halt()
        else:
            ctx.broadcast((self.v, "tag"))


class EchoOnce(BroadcastNodeProgram):
    """Broadcast one payload at start, record the senders heard, halt."""

    def __init__(self, payload):
        self.payload = payload

    def on_start(self, ctx):
        ctx.broadcast(self.payload)

    def on_broadcast_round(self, ctx, heard):
        ctx.set_output(sorted(heard, key=repr))
        ctx.halt()


class BigLabelFloodMax(NodeProgram):
    """Flood-max over labels far above int64: the reduceat overflow fallback."""

    OFFSET = 1 << 70

    def __init__(self, v, rounds):
        self.best = v + self.OFFSET
        self.rounds = rounds

    def on_start(self, ctx):
        ctx.broadcast(self.best)

    def on_round(self, ctx, inbox):
        best = self.best
        if inbox.__class__ is dict:
            for payloads in inbox.values():
                for value in payloads:
                    if value > best:
                        best = value
        else:
            best = inbox.max_heard(best)
        self.best = best
        if ctx.round >= self.rounds:
            ctx.set_output(best)
            ctx.halt()
        else:
            ctx.broadcast(best)


def _run(
    graph, factory, model, engine, seed=1, cut=None, adversary=None, vectorize=True
):
    adv = build_adversary(adversary) if adversary else None
    return Simulator(
        graph,
        factory,
        model=model,
        seed=seed,
        cut=cut,
        engine=engine,
        adversary=adv,
        vectorize=vectorize,
    ).run()


def _assert_identical(a, b):
    assert a.outputs == b.outputs
    assert a.metrics.as_dict() == b.metrics.as_dict()
    assert list(a.metrics.bits_per_round) == list(b.metrics.bits_per_round)
    assert a.completed == b.completed
    assert a.rounds == b.rounds


class TestColumnarDifferential:
    """Bit-for-bit identity with the reference oracle, all models, all faults."""

    @pytest.mark.parametrize("model_factory", ALL_MODELS)
    def test_flood_max_identical_across_engines(self, model_factory):
        # Flood-max lowers by default, so the stepped twin pins the third
        # leg of the parity matrix: reference == stepped == lowered.
        g = gnp_random_graph(40, 0.15, seed=5)

        def run(engine, vectorize=True):
            return _run(
                g, lambda v: FloodMaxProgram(v, 5), model_factory(40), engine,
                seed=9, vectorize=vectorize,
            )

        reference = run("reference")
        _assert_identical(run("columnar"), reference)
        _assert_identical(run("columnar", vectorize=False), reference)

    @pytest.mark.parametrize("model_factory", ALL_MODELS)
    @pytest.mark.parametrize(
        "factory",
        [lambda v: MappingConsumer(v), lambda v: EchoOnce(("x", 7))],
        ids=["mapping-consumer", "broadcast-program"],
    )
    def test_inbox_readers_identical_across_engines(self, model_factory, factory):
        g = gnp_random_graph(25, 0.3, seed=2)
        runs = {
            engine: _run(g, factory, model_factory(25), engine)
            for engine in ENGINES
        }
        _assert_identical(runs["columnar"], runs["reference"])

    @pytest.mark.parametrize("model_factory", ALL_MODELS)
    @pytest.mark.parametrize("adversary", ADVERSARIES)
    def test_adversaries_identical_across_engines(self, model_factory, adversary):
        # Fresh adversary per engine (they are stateful); same spec, same
        # seed, so decisions — and hence inboxes and fault counters — must
        # coincide exactly.
        g = gnp_random_graph(30, 0.2, seed=6)
        runs = {
            engine: _run(
                g,
                lambda v: FloodMaxProgram(v, 6),
                model_factory(30),
                engine,
                seed=4,
                adversary=adversary,
            )
            for engine in ENGINES
        }
        _assert_identical(runs["columnar"], runs["reference"])

    def test_cut_accounting_identical(self):
        g = gnp_random_graph(30, 0.25, seed=4)
        cut = set(range(15))
        runs = {
            engine: _run(
                g,
                lambda v: FloodMaxProgram(v, 4),
                congest_model(30, enforce=False),
                engine,
                cut=cut,
            )
            for engine in ENGINES
        }
        assert runs["columnar"].metrics.cut_bits == runs["reference"].metrics.cut_bits > 0
        _assert_identical(runs["columnar"], runs["reference"])

    def test_violation_counting_identical(self):
        big = tuple(range(500))

        def on_start(ctx):
            ctx.broadcast(big)
            ctx.set_output(True)
            ctx.halt()

        g = gnp_random_graph(12, 0.4, seed=8)
        runs = {
            engine: _run(
                g,
                lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                congest_model(12, enforce=False),
                engine,
            )
            for engine in ENGINES
        }
        assert runs["columnar"].metrics.bandwidth_violations > 0
        _assert_identical(runs["columnar"], runs["reference"])

    def test_mixed_payload_classes_identical(self):
        # Even vertices broadcast ints, odd ones tuples: the round is not
        # ints-only, so the engine must fall off the int64 fold kernel and
        # still deliver identical inboxes.
        class Mixed(NodeProgram):
            def __init__(self, v):
                self.v = v

            def on_start(self, ctx):
                ctx.broadcast(self.v if self.v % 2 == 0 else (self.v, self.v))

            def on_round(self, ctx, inbox):
                ctx.set_output(sorted((k, tuple(map(repr, p))) for k, p in inbox.items()))
                ctx.halt()

        g = gnp_random_graph(24, 0.3, seed=3)
        runs = {
            engine: _run(g, lambda v: Mixed(v), local_model(24), engine)
            for engine in ENGINES
        }
        _assert_identical(runs["columnar"], runs["reference"])

    def test_big_label_overflow_falls_back_identically(self):
        # Labels above 2^63 break the int64 lowering of the reduceat kernel;
        # the engine must memoise the failure and fold in pure Python with
        # identical results.
        g = gnp_random_graph(20, 0.3, seed=7)
        runs = {
            engine: _run(
                g, lambda v: BigLabelFloodMax(v, 4), broadcast_congest_model(20), engine
            )
            for engine in ENGINES
        }
        _assert_identical(runs["columnar"], runs["reference"])
        leader = 19 + BigLabelFloodMax.OFFSET
        assert set(runs["columnar"].outputs.values()) == {leader}

    def test_clique_spanner_runs_under_columnar(self):
        g = gnp_random_graph(48, 0.2, seed=3)
        columnar = run_clique_two_spanner(g, seed=2, engine="columnar")
        reference = run_clique_two_spanner(g, seed=2, engine="reference")
        assert columnar.edges == reference.edges
        assert columnar.rounds == reference.rounds
        assert columnar.metrics.as_dict() == reference.metrics.as_dict()

    def test_early_halters_stop_receiving_but_traffic_is_counted(self):
        class Impatient(NodeProgram):
            def __init__(self, v):
                self.v = v

            def on_start(self, ctx):
                ctx.broadcast(("hi", self.v))

            def on_round(self, ctx, inbox):
                if self.v == 0 or ctx.round >= 3:
                    ctx.set_output(sorted(inbox, key=repr))
                    ctx.halt()
                else:
                    ctx.broadcast(("again", self.v))

        g = star_graph(6)
        runs = {
            engine: _run(g, lambda v: Impatient(v), local_model(7), engine, seed=0)
            for engine in ENGINES
        }
        _assert_identical(runs["columnar"], runs["reference"])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_degree_zero_broadcast_is_a_no_op(self, engine):
        g = Graph()
        g.add_node("lonely")

        def on_start(ctx):
            ctx.broadcast("into the void")
            ctx.set_output("done")
            ctx.halt()

        result = run_program(
            g,
            lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
            model=broadcast_congest_model(1),
            engine=engine,
        )
        assert result.metrics.messages_sent == 0
        assert result.metrics.as_dict().get("broadcast_payloads", 0) == 0


@pytest.fixture(scope="module")
def scale_graph():
    """The n=20000 differential instance (sparse, so the oracle stays fast)."""
    return sparse_gnp_graph(20000, 1.5e-4, seed=7, connect=True)


class TestScaleDifferential:
    """The acceptance gate: columnar == reference at n=20000, faults included.

    The congested-clique overlay is excluded *by physics*, not by engine: at
    n=20000 it materialises ~4*10^8 overlay arcs, infeasible for every
    engine alike.  The model matrix at n=20000 therefore covers the three
    graph-topology models; all four models are pinned at moderate n above.
    """

    MODELS = [
        lambda n: local_model(n),
        lambda n: congest_model(n, enforce=False),
        lambda n: broadcast_congest_model(n),
    ]

    @pytest.mark.parametrize("model_factory", MODELS)
    def test_flood_max_identical_at_scale(self, scale_graph, model_factory):
        runs = {
            engine: _run(
                scale_graph,
                lambda v: FloodMaxProgram(v, 4),
                model_factory(20000),
                engine,
                seed=3,
            )
            for engine in ENGINES
        }
        _assert_identical(runs["columnar"], runs["reference"])

    @pytest.mark.parametrize(
        "adversary", ["drop:0.05", "crash:40@1,17000@2,9999@3", "budget:24"]
    )
    def test_adversaries_identical_at_scale(self, scale_graph, adversary):
        runs = {
            engine: _run(
                scale_graph,
                lambda v: FloodMaxProgram(v, 4),
                broadcast_congest_model(20000),
                engine,
                seed=3,
                adversary=adversary,
            )
            for engine in ENGINES
        }
        _assert_identical(runs["columnar"], runs["reference"])


class Slotted:
    """A slotted payload (no ``__dict__``): two int fields."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class DictPayload:
    """A plain ``__dict__`` payload."""

    def __init__(self, x, label):
        self.x = x
        self.label = label


class TestPayloadSizeTable:
    """The size table must agree with ``estimate_bits`` on every shape."""

    PRIMITIVES = [
        None, True, False, 0, 1, -5, 255, 2**40, -(2**70), 1.5, "abc", "", b"xy",
    ]

    @pytest.mark.parametrize("payload", PRIMITIVES, ids=repr)
    def test_primitives_match_estimate_bits(self, payload):
        table = PayloadSizeTable()
        expected = estimate_bits(payload)
        assert table.measure(payload) == expected
        assert table.measure(payload) == expected  # cached hit, same answer

    def test_bool_int_float_aliasing_kept_distinct(self):
        # True == 1 == 1.0 but their encodings differ; the value-keyed table
        # must key by exact type or one would poison the others.
        table = PayloadSizeTable()
        assert table.measure(True) == estimate_bits(True) == 1
        assert table.measure(1) == estimate_bits(1) == 2
        assert table.measure(1.0) == estimate_bits(1.0) == 64

    def test_slots_and_dict_payloads_match_estimate_bits(self):
        table = PayloadSizeTable()
        slotted = Slotted(7, 300)
        plain = DictPayload(9, "mds")
        assert table.measure(slotted) == estimate_bits(slotted)
        assert table.measure(plain) == estimate_bits(plain)
        # Slots are real fields: bigger than the opaque 64-bit fallback guess
        # would suggest for the larger field values.
        assert estimate_bits(slotted) == estimate_bits({"a": 7, "b": 300})

    def test_containers_match_estimate_bits(self):
        table = PayloadSizeTable()
        for payload in [(1, 2), [3, "x"], frozenset({4}), {"k": 5}]:
            assert table.measure(payload) == estimate_bits(payload)

    def test_cap_bounds_interning_without_changing_answers(self):
        table = PayloadSizeTable(cap=2)
        values = [10, 200, 3000, 40000, 2**33]
        assert [table.measure(v) for v in values] == [estimate_bits(v) for v in values]
        assert len(table.int_sizes) <= 2


class TestNumpyAbsentFallback:
    """The stdlib-``array`` kernels are exercised and bit-for-bit identical."""

    @pytest.mark.parametrize("vectorize", [True, False], ids=["lowered", "stepped"])
    def test_flood_max_identical_without_numpy(self, vectorize, monkeypatch):
        for module in (columnar_module, targeted_module, vectorize_module):
            monkeypatch.setattr(module, "_np", None)
        assert not have_numpy()
        g = gnp_random_graph(35, 0.2, seed=12)
        fallback = _run(
            g, lambda v: FloodMaxProgram(v, 5), broadcast_congest_model(35),
            "columnar", seed=2, vectorize=vectorize,
        )
        reference = _run(
            g, lambda v: FloodMaxProgram(v, 5), broadcast_congest_model(35),
            "reference", seed=2,
        )
        _assert_identical(fallback, reference)

    @pytest.mark.parametrize("vectorize", [True, False], ids=["lowered", "stepped"])
    @pytest.mark.parametrize("model_factory", ALL_MODELS)
    @pytest.mark.parametrize("adversary", [None] + ADVERSARIES, ids=lambda a: a or "fault-free")
    def test_parity_matrix_without_numpy(
        self, adversary, model_factory, vectorize, monkeypatch
    ):
        # The whole model x fault matrix on the stdlib kernels, both legs
        # of the columnar engine against the oracle.
        for module in (columnar_module, targeted_module, vectorize_module):
            monkeypatch.setattr(module, "_np", None)
        g = gnp_random_graph(30, 0.2, seed=6)
        runs = {
            engine: _run(
                g,
                lambda v: FloodMaxProgram(v, 6),
                model_factory(30),
                engine,
                seed=4,
                adversary=adversary,
                vectorize=vectorize,
            )
            for engine in ENGINES
        }
        _assert_identical(runs["columnar"], runs["reference"])

    def test_mapping_consumer_and_adversary_without_numpy(self, monkeypatch):
        monkeypatch.setattr(columnar_module, "_np", None)
        g = gnp_random_graph(25, 0.3, seed=2)
        for adversary in [None, "drop:0.2"]:
            fallback = _run(
                g, lambda v: MappingConsumer(v), local_model(25), "columnar",
                adversary=adversary,
            )
            reference = _run(
                g, lambda v: MappingConsumer(v), local_model(25), "reference",
                adversary=adversary,
            )
            _assert_identical(fallback, reference)

    @pytest.mark.parametrize("vectorize", [True, False], ids=["lowered", "stepped"])
    def test_cut_and_violations_without_numpy(self, vectorize, monkeypatch):
        for module in (columnar_module, targeted_module, vectorize_module):
            monkeypatch.setattr(module, "_np", None)
        g = gnp_random_graph(30, 0.25, seed=4)
        # logn_factor=1: a 5-bit budget that most labels overflow.
        runs = {
            engine: _run(
                g,
                lambda v: FloodMaxProgram(v, 4),
                congest_model(30, enforce=False, logn_factor=1),
                engine,
                cut=set(range(15)),
                vectorize=vectorize,
            )
            for engine in ENGINES
        }
        assert runs["columnar"].metrics.bandwidth_violations > 0
        assert runs["columnar"].metrics.cut_messages > 0
        _assert_identical(runs["columnar"], runs["reference"])


class TestColumnarAdmission:
    """Both engines admit exactly the same programs; only semantic rules remain."""

    def test_registered_engine(self):
        assert ENGINES == ("columnar", "reference")
        assert DEFAULT_ENGINE == "columnar"

    @pytest.mark.parametrize("engine", ["indexed", "batch", "bogus"])
    def test_unknown_engine_rejected_naming_the_remaining_two(self, engine):
        with pytest.raises(ValueError, match="unknown engine") as info:
            Simulator(path_graph(3), lambda v: FloodMaxProgram(v, 1), engine=engine)
        assert "'columnar', 'reference'" in str(info.value)

    @pytest.mark.parametrize(
        "model_factory", [congest_model, congested_clique_model], ids=["congest", "clique"]
    )
    def test_targeted_send_accepted_and_matches_reference(self, model_factory):
        # Targeted sends take the targeted fast path on every model that
        # admits them (overlay models included), matching the oracle.
        def on_start(ctx):
            ctx.send(min(ctx.neighbors), ctx.node_id + 1)
            ctx.set_output(ctx.node_id)
            ctx.halt()

        runs = {
            engine: run_program(
                path_graph(4),
                lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                model=model_factory(4),
                engine=engine,
            )
            for engine in ENGINES
        }
        assert runs["columnar"].outputs == runs["reference"].outputs
        assert runs["columnar"].metrics.as_dict() == runs["reference"].metrics.as_dict()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_broadcast_only_model_rejects_targeted_send_naming_model(self, engine):
        def on_start(ctx):
            ctx.send(next(iter(ctx.neighbors)), 1)

        with pytest.raises(MessageAdmissionError, match="broadcast-only model"):
            run_program(
                path_graph(4),
                lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                model=broadcast_congest_model(4),
                engine=engine,
            )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("model_factory", [local_model, congest_model], ids=["local", "congest"])
    def test_second_broadcast_per_round_rejected(self, model_factory, engine):
        def on_start(ctx):
            ctx.broadcast(1)
            ctx.broadcast(2)

        with pytest.raises(MessageAdmissionError, match="one broadcast per node per round"):
            run_program(
                path_graph(4),
                lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                model=model_factory(4),
                engine=engine,
            )

    def test_enforced_bandwidth_violation_raises_like_reference(self):
        # Node 0 of a path has a single link, so both engines name the same
        # violating link; the message text is part of the contract.
        big = tuple(range(10_000))

        def on_start(ctx):
            ctx.broadcast(big)

        def attempt(engine):
            with pytest.raises(BandwidthExceededError) as info:
                run_program(
                    path_graph(4),
                    lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                    model=congest_model(4, enforce=True),
                    engine=engine,
                )
            return str(info.value)

        message = attempt("columnar")
        assert message.startswith("message(s) on link 0->1 use ")
        assert message == attempt("reference")


class TestFloodMax:
    """The flood-max workload's own contract, on both engines."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_converges_to_max_label(self, engine):
        g = gnp_random_graph(50, 0.2, seed=11)
        result = run_flood_max(g, rounds=6, seed=1, engine=engine)
        assert result.converged
        assert result.leader == 49
        assert result.rounds == 6

    def test_insufficient_rounds_do_not_converge(self):
        g = path_graph(30)  # diameter 29 >> 2 rounds
        result = run_flood_max(g, rounds=2, seed=1)
        assert not result.converged
        assert result.leader is None

    def test_zero_rounds_outputs_own_label(self):
        g = path_graph(3)
        result = run_flood_max(g, rounds=0, seed=1)
        assert result.node_outputs == {0: 0, 1: 1, 2: 2}
        assert result.metrics.messages_sent == 0


class TestStreamingMetrics:
    """Opt-in bounded history: scalars exact, default behaviour untouched."""

    def test_streaming_run_matches_scalar_counters(self):
        g = gnp_random_graph(40, 0.15, seed=5)
        plain = run_flood_max(g, rounds=5, seed=9, engine="columnar")
        streaming = run_flood_max(
            g, rounds=5, seed=9, engine="columnar", streaming_metrics=True
        )
        assert streaming.node_outputs == plain.node_outputs
        assert streaming.metrics.as_dict() == plain.metrics.as_dict()
        assert streaming.metrics.peak_round_bits() == plain.metrics.peak_round_bits()
        assert list(streaming.metrics.bits_per_round) == list(
            plain.metrics.bits_per_round
        )

    def test_default_history_is_a_plain_list(self):
        g = path_graph(5)
        result = run_flood_max(g, rounds=3, seed=1, engine="columnar")
        assert isinstance(result.metrics.bits_per_round, list)


class TestColumnarInboxUnit:
    """Direct checks of the view the engine hands to programs."""

    def test_max_heard_matches_generic_fold(self):
        # One program folds via max_heard, the control re-derives the same
        # maximum through the Mapping facade in the same round: both paths
        # observe the identical delivered set.
        class Probe(NodeProgram):
            def __init__(self, v):
                self.v = v

            def on_start(self, ctx):
                ctx.broadcast(self.v * 3)

            def on_round(self, ctx, inbox):
                assert isinstance(inbox, ColumnarInbox)
                generic = max(
                    (value for plist in inbox.values() for value in plist),
                    default=-1,
                )
                assert inbox.max_heard(-1) == generic
                assert inbox.max_heard(10**9) == 10**9
                ctx.set_output(generic)
                ctx.halt()

        g = gnp_random_graph(20, 0.3, seed=1)
        result = run_program(
            g, lambda v: Probe(v), model=broadcast_congest_model(20), engine="columnar"
        )
        assert result.completed

    def test_getitem_raises_for_silent_neighbours(self):
        class Half(NodeProgram):
            def __init__(self, v):
                self.v = v

            def on_start(self, ctx):
                if self.v % 2 == 0:
                    ctx.broadcast(self.v)

            def on_round(self, ctx, inbox):
                for src in ctx.neighbors:
                    if src % 2 == 0:
                        assert inbox[src] == [src]
                    else:
                        with pytest.raises(KeyError):
                            inbox[src]
                        assert src not in inbox
                ctx.set_output(len(inbox))
                ctx.halt()

        result = run_program(
            path_graph(6),
            lambda v: Half(v),
            model=broadcast_congest_model(6),
            engine="columnar",
        )
        assert result.completed
