"""Tests for the pluggable communication-model policy layer."""

import pytest

from repro.distributed import (
    BroadcastCongestModel,
    BroadcastNodeProgram,
    CongestModel,
    CongestedCliqueModel,
    FunctionProgram,
    LocalModel,
    ENGINES,
    MessageAdmissionError,
    Metrics,
    Model,
    ModelConfig,
    NodeProgram,
    NotANeighborError,
    broadcast_congest_model,
    congest_budget_bits,
    congest_model,
    congested_clique_model,
    local_model,
    run_program,
)
from repro.graphs import gnp_random_graph, path_graph, star_graph
from repro.graphs.topology import complete_overlay

ALL_MODELS = [local_model, congest_model, broadcast_congest_model, congested_clique_model]


class TestPolicyObjects:
    def test_factories_return_policy_subclasses(self):
        assert isinstance(local_model(10), LocalModel)
        assert isinstance(congest_model(10), CongestModel)
        assert isinstance(broadcast_congest_model(10), BroadcastCongestModel)
        assert isinstance(congested_clique_model(10), CongestedCliqueModel)

    def test_bandwidth_budgets(self):
        assert local_model(100).bandwidth_bits is None
        for factory in (congest_model, broadcast_congest_model, congested_clique_model):
            assert factory(100).bandwidth_bits == congest_budget_bits(100)
            assert factory(100, logn_factor=8).bandwidth_bits == congest_budget_bits(100, 8)

    def test_admission_and_overlay_flags(self):
        assert not local_model(5).broadcast_only and not local_model(5).uses_overlay
        assert not congest_model(5).broadcast_only and not congest_model(5).uses_overlay
        assert broadcast_congest_model(5).broadcast_only
        assert not broadcast_congest_model(5).uses_overlay
        assert congested_clique_model(5).uses_overlay
        assert not congested_clique_model(5).broadcast_only

    def test_model_config_compat_factory(self):
        for member, cls in [
            (Model.LOCAL, LocalModel),
            (Model.CONGEST, CongestModel),
            (Model.BROADCAST_CONGEST, BroadcastCongestModel),
            (Model.CONGESTED_CLIQUE, CongestedCliqueModel),
        ]:
            policy = ModelConfig(model=member, n=12, enforce=False)
            assert type(policy) is cls
            assert policy.model is member
            assert policy.n == 12 and policy.enforce is False

    def test_value_equality_and_hashing(self):
        # The pre-policy ModelConfig was a frozen dataclass; keep value
        # semantics so configs still work as cache keys.
        assert congest_model(10) == congest_model(10)
        assert hash(congest_model(10)) == hash(congest_model(10))
        assert congest_model(10) != congest_model(11)
        assert congest_model(10) != congest_model(10, logn_factor=8)
        assert congest_model(10) != broadcast_congest_model(10)
        assert local_model(10) != congest_model(10)
        assert len({congested_clique_model(5), congested_clique_model(5)}) == 1

    def test_clique_topology_is_complete_and_cached(self):
        g = gnp_random_graph(9, 0.2, seed=1)
        model = congested_clique_model(9)
        topo = model.communication_topology(g)
        assert topo is model.communication_topology(g)  # cached per label set
        assert topo.n == 9 and topo.arc_count == 9 * 8
        for i in range(topo.n):
            assert len(topo.neighbor_label_set(i)) == 8

    def test_complete_overlay_labels(self):
        topo = complete_overlay(["a", "b", "c"])
        assert topo.neighbor_label_set(0) == frozenset({"b", "c"})
        assert topo.edge_count == 3


class EchoOnce(NodeProgram):
    """Broadcast one payload at start, halt after one round."""

    def __init__(self, payload):
        self.payload = payload

    def on_start(self, ctx):
        ctx.broadcast(self.payload)

    def on_round(self, ctx, inbox):
        ctx.set_output(sorted(inbox, key=repr))
        ctx.halt()


class TestBroadcastAdmission:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_targeted_send_rejected(self, engine):
        def on_start(ctx):
            ctx.send(next(iter(ctx.neighbors)), 1)

        with pytest.raises(MessageAdmissionError):
            run_program(
                path_graph(4),
                lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                model=broadcast_congest_model(4),
                engine=engine,
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_second_broadcast_in_round_rejected(self, engine):
        def on_start(ctx):
            ctx.broadcast(1)
            ctx.broadcast(2)

        with pytest.raises(MessageAdmissionError):
            run_program(
                path_graph(4),
                lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                model=broadcast_congest_model(4),
                engine=engine,
            )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "model_factory", [broadcast_congest_model, local_model], ids=["bcongest", "local"]
    )
    def test_double_broadcast_rejected_even_with_no_neighbors(self, model_factory, engine):
        from repro.graphs import Graph

        g = Graph()
        g.add_node("lonely")

        def on_start(ctx):
            ctx.broadcast(1)  # queues nothing (degree 0) ...
            ctx.broadcast(2)  # ... but still violates one-per-round

        # One broadcast per node per round is a rule of every model, so the
        # oracle and the default engine agree even where sends are free.
        with pytest.raises(MessageAdmissionError):
            run_program(
                g,
                lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                model=model_factory(1),
                engine=engine,
            )

    def test_broadcast_program_rejects_multi_payload_inbox(self):
        class Listener(BroadcastNodeProgram):
            def on_start(self, ctx):
                pass

            def on_broadcast_round(self, ctx, heard):
                ctx.set_output(heard)
                ctx.halt()

        def noisy_start(ctx):
            ctx.broadcast(1)
            ctx.broadcast(2)  # legal under plain CONGEST ...

        def factory(v):
            if v == 0:
                return FunctionProgram(noisy_start, lambda ctx, inbox: None)
            return Listener()

        # ... but a BroadcastNodeProgram refuses the ambiguous inbox.
        with pytest.raises(MessageAdmissionError):
            run_program(path_graph(2), factory, model=congest_model(2))

    def test_one_broadcast_per_round_allowed_each_round(self):
        class TwoRounds(BroadcastNodeProgram):
            def on_start(self, ctx):
                ctx.broadcast(("hello", 1))

            def on_broadcast_round(self, ctx, heard):
                if ctx.round == 1:
                    assert all(not isinstance(p, list) for p in heard.values())
                    ctx.broadcast(("hello", 2))
                else:
                    ctx.set_output(sorted(heard.values()))
                    ctx.halt()

        result = run_program(
            path_graph(5), lambda v: TwoRounds(), model=broadcast_congest_model(5)
        )
        assert result.completed

    def test_broadcast_payload_counter_matches_engines(self):
        g = gnp_random_graph(20, 0.3, seed=4)
        runs = {
            engine: run_program(
                g,
                lambda v: EchoOnce(("x", 1)),
                model=broadcast_congest_model(20),
                seed=1,
                engine=engine,
            )
            for engine in ENGINES
        }
        for run in runs.values():
            assert run.metrics.per_model["broadcast_payloads"] == 20
            assert run.metrics.as_dict()["broadcast_payloads"] == 20
        assert runs["columnar"].metrics.as_dict() == runs["reference"].metrics.as_dict()

    def test_counter_preseeded_even_when_silent(self):
        def on_start(ctx):
            ctx.set_output(None)
            ctx.halt()

        result = run_program(
            path_graph(3),
            lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
            model=broadcast_congest_model(3),
        )
        assert result.metrics.as_dict()["broadcast_payloads"] == 0


class TestCongestedClique:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_all_pairs_reachable_and_graph_neighbors_exposed(self, engine):
        g = path_graph(5)  # sparse input graph, complete communication graph

        class Probe(NodeProgram):
            def on_start(self, ctx):
                assert len(ctx.neighbors) == ctx.n - 1
                assert ctx.graph_neighbors < ctx.neighbors
                # Clique links exist even between non input-graph neighbours.
                for dst in ctx.neighbors:
                    ctx.send(dst, ("ping", 0))

            def on_round(self, ctx, inbox):
                ctx.set_output(len(inbox))
                ctx.halt()

        result = run_program(g, lambda v: Probe(), model=congested_clique_model(5), engine=engine)
        assert set(result.outputs.values()) == {4}

    def test_virtual_link_counter_matches_engines(self):
        g = path_graph(6)  # 5 graph arcs per direction, 30 overlay links
        runs = {
            engine: run_program(
                g,
                lambda v: EchoOnce(1),
                model=congested_clique_model(6),
                seed=0,
                engine=engine,
            )
            for engine in ENGINES
        }
        for run in runs.values():
            metrics = run.metrics.as_dict()
            assert metrics["messages_sent"] == 30
            assert metrics["virtual_link_messages"] == 30 - 10
        assert runs["columnar"].metrics.as_dict() == runs["reference"].metrics.as_dict()

    def test_local_congest_have_no_per_model_keys(self):
        # The golden-run contract: legacy models keep the legacy dict shape.
        for factory in (local_model, congest_model):
            result = run_program(path_graph(4), lambda v: EchoOnce(1), model=factory(4))
            assert set(result.metrics.as_dict()) == {
                "rounds",
                "messages_sent",
                "bits_sent",
                "max_message_bits",
                "bandwidth_violations",
                "cut_messages",
                "cut_bits",
            }

    def test_non_overlay_send_still_restricted(self):
        def on_start(ctx):
            ctx.send("not-there", 1)

        with pytest.raises(NotANeighborError):
            run_program(
                path_graph(3),
                lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                model=congest_model(3),
            )


class TestEnforcementAcrossModels:
    """enforce=False bandwidth-violation counting, all models, both engines."""

    OVERSIZED = tuple(range(10_000))

    def _factory(self):
        def on_start(ctx):
            ctx.broadcast(TestEnforcementAcrossModels.OVERSIZED)
            ctx.set_output(True)
            ctx.halt()

        return lambda v: FunctionProgram(on_start, lambda ctx, inbox: None)

    @pytest.mark.parametrize(
        "factory", [congest_model, broadcast_congest_model, congested_clique_model]
    )
    def test_unenforced_violations_differential(self, factory):
        g = gnp_random_graph(10, 0.4, seed=8)
        runs = {
            engine: run_program(
                g,
                self._factory(),
                model=factory(10, enforce=False),
                seed=3,
                engine=engine,
            )
            for engine in ENGINES
        }
        assert runs["columnar"].metrics.bandwidth_violations > 0
        assert (
            runs["columnar"].metrics.bandwidth_violations
            == runs["reference"].metrics.bandwidth_violations
        )
        assert runs["columnar"].metrics.as_dict() == runs["reference"].metrics.as_dict()

    def test_local_never_violates(self):
        for engine in ENGINES:
            result = run_program(
                path_graph(4), self._factory(), model=local_model(4), engine=engine
            )
            assert result.metrics.bandwidth_violations == 0

    @pytest.mark.parametrize(
        "factory", [congest_model, broadcast_congest_model, congested_clique_model]
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_enforced_violation_raises(self, factory, engine):
        from repro.distributed import BandwidthExceededError

        with pytest.raises(BandwidthExceededError):
            run_program(
                path_graph(4),
                self._factory(),
                model=factory(4, enforce=True),
                engine=engine,
            )


class TestMetricsRoundZero:
    def test_record_message_before_start_round_is_kept(self):
        m = Metrics()
        m.record_message(5, crosses_cut=False)
        assert m.bits_per_round == [5]
        assert m.bits_sent == 5
        m.start_round()
        m.record_message(3, crosses_cut=False)
        assert m.bits_per_round == [5, 3]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_bits_per_round_totals_match_bits_sent(self, engine):
        class Chatty(NodeProgram):
            def on_start(self, ctx):
                ctx.broadcast(("start", 123))  # round-0 traffic

            def on_round(self, ctx, inbox):
                if ctx.round < 3:
                    ctx.broadcast(("round", ctx.round))
                else:
                    ctx.set_output(True)
                    ctx.halt()

        result = run_program(star_graph(6), lambda v: Chatty(), engine=engine)
        bpr = result.metrics.bits_per_round
        assert bpr[0] > 0  # on_start messages no longer dropped
        assert sum(bpr) == result.metrics.bits_sent
        assert len(bpr) == result.metrics.rounds + 1

    @pytest.mark.parametrize("model_factory", ALL_MODELS)
    def test_round_zero_bits_on_all_models(self, model_factory):
        result = run_program(
            path_graph(4), lambda v: EchoOnce(("m", 7)), model=model_factory(4), seed=0
        )
        assert result.metrics.bits_per_round[0] == result.metrics.bits_sent - sum(
            result.metrics.bits_per_round[1:]
        )
        assert result.metrics.bits_per_round[0] > 0


class TestRunResultAsDict:
    def test_as_dict_summarises_run(self):
        result = run_program(path_graph(4), lambda v: EchoOnce(1), seed=0)
        summary = result.as_dict()
        assert summary["completed"] is True
        assert summary["rounds"] == result.rounds
        assert summary["nodes"] == 4
        assert summary["outputs_set"] == 4
        assert summary["metrics"] == result.metrics.as_dict()
