"""Differential and unit tests for whole-round program lowering (E23).

The lowering layer (``repro.distributed.vectorize``) ships under the
tightest gate in the repo: a lowered run must be **bit-for-bit identical**
to the stepped columnar run and the reference oracle — outputs,
``Metrics.as_dict()``, ``bits_per_round``, fault counters — across all four
communication models, under the drop/crash adversaries, with NumPy
monkeypatched away, and on negative-label instances that force the
non-monotone size path.  Every refusal seam (corruption, mixed program
classes, tampered state, heterogeneous config, non-int labels,
``vectorize=False``) must fall back to stepping, visibly
(``Simulator.lowered``) and exactly.  The closed-form payload sizes the
kernels use are pinned against ``estimate_bits``, and the satellite
infrastructure (graph memoization, the O(n + m) Barabási–Albert CSR
family) is covered here too.
"""

import pytest

from repro.core.flood_max import (
    FloodMaxProgram,
    RobustFloodMaxProgram,
    run_flood_max,
)
from repro.distributed import (
    Simulator,
    broadcast_congest_model,
    congest_model,
    congested_clique_model,
    local_model,
)
from repro.distributed import columnar as columnar_module
from repro.distributed import vectorize as vectorize_module
from repro.distributed.adversary import build_adversary
from repro.distributed.encoding import estimate_bits
from repro.distributed.vectorize import (
    _np_payload_bits,
    int_payload_bits,
    repetition_frame_bits,
)
from repro.core.robust_coding import CodedFloodMaxProgram, RedundantFloodMaxProgram
from repro.experiments import families
from repro.experiments.families import build_graph, clear_graph_memo, family_spec_hash
from repro.graphs import Graph, barabasi_albert_csr, gnp_random_graph

ALL_MODELS = [
    lambda n: local_model(n),
    lambda n: congest_model(n, enforce=False),
    lambda n: broadcast_congest_model(n, enforce=False),
    lambda n: congested_clique_model(n, enforce=False),
]

#: The three shipped lowerable workloads (redundant = repetition frames).
WORKLOADS = {
    "fixed": lambda v: FloodMaxProgram(v, 6),
    "robust": lambda v: RobustFloodMaxProgram(v, 3),
    "redundant": lambda v: RedundantFloodMaxProgram(v, 3, 3),
}


def _run(graph, factory, model, engine, seed=1, adversary=None, vectorize=True):
    """Run and return ``(simulator, result)`` so tests can read ``lowered``."""
    adv = build_adversary(adversary) if adversary else None
    sim = Simulator(
        graph,
        factory,
        model=model,
        seed=seed,
        engine=engine,
        adversary=adv,
        vectorize=vectorize,
    )
    return sim, sim.run()


def _assert_identical(a, b):
    assert a.outputs == b.outputs
    assert a.metrics.as_dict() == b.metrics.as_dict()
    assert list(a.metrics.bits_per_round) == list(b.metrics.bits_per_round)
    assert a.completed == b.completed
    assert a.rounds == b.rounds


class TestLoweredDifferential:
    """Lowered == stepped == reference, all models, all lowerable workloads."""

    @pytest.mark.parametrize("model_factory", ALL_MODELS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS), ids=str)
    def test_identical_across_models(self, model_factory, workload):
        g = gnp_random_graph(40, 0.15, seed=5)
        factory = WORKLOADS[workload]
        lowered_sim, lowered = _run(g, factory, model_factory(40), "columnar", seed=9)
        stepped_sim, stepped = _run(
            g, factory, model_factory(40), "columnar", seed=9, vectorize=False
        )
        _, reference = _run(g, factory, model_factory(40), "reference", seed=9)
        assert lowered_sim.lowered
        assert not stepped_sim.lowered
        _assert_identical(lowered, stepped)
        _assert_identical(lowered, reference)

    @pytest.mark.parametrize("adversary", ["drop:0.2", "crash:3@1,11@2,24@3"])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS), ids=str)
    def test_identical_under_drop_and_crash(self, adversary, workload):
        # Fresh adversary per engine (they are stateful); same spec, same
        # seed, so delivery decisions and fault counters must coincide.
        g = gnp_random_graph(30, 0.2, seed=6)
        factory = WORKLOADS[workload]
        runs = {}
        for engine, vectorize in (("columnar", True), ("reference", True)):
            sim, result = _run(
                g,
                factory,
                broadcast_congest_model(30, enforce=False),
                engine,
                seed=4,
                adversary=adversary,
                vectorize=vectorize,
            )
            runs[engine] = result
            if engine == "columnar":
                assert sim.lowered
        _assert_identical(runs["columnar"], runs["reference"])

    @pytest.mark.parametrize("seed", range(5))
    def test_multi_seed_sweep_under_drop(self, seed):
        g = gnp_random_graph(35, 0.18, seed=seed)
        lowered_sim, lowered = _run(
            g,
            WORKLOADS["robust"],
            broadcast_congest_model(35),
            "columnar",
            seed=seed,
            adversary="drop:0.15",
        )
        _, stepped = _run(
            g,
            WORKLOADS["robust"],
            broadcast_congest_model(35),
            "columnar",
            seed=seed,
            adversary="drop:0.15",
            vectorize=False,
        )
        assert lowered_sim.lowered
        _assert_identical(lowered, stepped)

    def test_negative_labels_take_the_non_monotone_path(self):
        # Negative labels break wire-size monotonicity (bit_length(-5) >
        # bit_length(1)), so the kernel must refresh sizes per distinct
        # value instead of folding them — still lowered, still identical.
        g = Graph()
        labels = [-9, -7, -5, -3, -1, 0, 2, 4]
        for a, b in zip(labels, labels[1:]):
            g.add_edge(a, b)
        g.add_edge(labels[0], labels[-1])
        factory = lambda v: FloodMaxProgram(v, 6)  # noqa: E731
        lowered_sim, lowered = _run(
            g, factory, broadcast_congest_model(8), "columnar", seed=2
        )
        _, reference = _run(g, factory, broadcast_congest_model(8), "reference", seed=2)
        assert lowered_sim.lowered
        _assert_identical(lowered, reference)
        assert set(lowered.outputs.values()) == {4}


class TestLoweringDecision:
    """Every refusal seam declines visibly and falls back exactly."""

    def _parity_with_reference(self, g, factory, adversary=None, expect_lowered=False):
        sim, columnar = _run(
            g,
            factory,
            broadcast_congest_model(g.number_of_nodes(), enforce=False),
            "columnar",
            seed=3,
            adversary=adversary,
        )
        _, reference = _run(
            g,
            factory,
            broadcast_congest_model(g.number_of_nodes(), enforce=False),
            "reference",
            seed=3,
            adversary=adversary,
        )
        assert sim.lowered == expect_lowered
        _assert_identical(columnar, reference)

    def test_vectorize_false_steps(self):
        g = gnp_random_graph(25, 0.25, seed=1)
        sim, _ = _run(
            g,
            WORKLOADS["fixed"],
            broadcast_congest_model(25),
            "columnar",
            vectorize=False,
        )
        assert not sim.lowered

    def test_transforming_adversary_declines(self):
        # Corruption mutates payloads in flight; the flat fold cannot model
        # that, so the run must step — and still match the oracle exactly.
        g = gnp_random_graph(25, 0.25, seed=1)
        self._parity_with_reference(
            g, WORKLOADS["redundant"], adversary="corrupt:0.1"
        )

    def test_subclass_without_optin_declines(self):
        # CodedFloodMaxProgram subclasses RobustFloodMaxProgram but encodes
        # checksummed frames; the parent's vector_kernel guards on ``cls``
        # and must decline rather than lower with the parent's semantics.
        g = gnp_random_graph(25, 0.25, seed=1)
        self._parity_with_reference(g, lambda v: CodedFloodMaxProgram(v, 3))

    def test_mixed_program_classes_decline(self):
        g = gnp_random_graph(24, 0.25, seed=2)
        factory = lambda v: (  # noqa: E731
            FloodMaxProgram(v, 6) if v % 2 == 0 else RobustFloodMaxProgram(v, 3)
        )
        self._parity_with_reference(g, factory)

    def test_tampered_initial_state_declines(self):
        # best != own label means per-node state was touched before the run;
        # the kernel cannot reproduce it wholesale, so lowering declines.
        g = gnp_random_graph(20, 0.3, seed=4)
        self._parity_with_reference(g, lambda v: FloodMaxProgram(min(v, 3), 6))

    def test_heterogeneous_config_declines(self):
        g = gnp_random_graph(20, 0.3, seed=4)
        self._parity_with_reference(
            g, lambda v: FloodMaxProgram(v, 6 if v % 2 == 0 else 7)
        )

    def test_non_int_labels_decline(self):
        g = Graph()
        names = ["ant", "bee", "cat", "dog", "elk"]
        for a, b in zip(names, names[1:]):
            g.add_edge(a, b)
        self._parity_with_reference(g, lambda v: FloodMaxProgram(v, 4))

    def test_labels_beyond_int64_decline(self):
        g = Graph()
        labels = [(1 << 70) + i for i in range(5)]
        for a, b in zip(labels, labels[1:]):
            g.add_edge(a, b)
        self._parity_with_reference(g, lambda v: FloodMaxProgram(v, 4))

    def test_zero_round_budget_lowers_and_halts_in_on_start(self):
        g = gnp_random_graph(15, 0.3, seed=5)
        factory = lambda v: FloodMaxProgram(v, 0)  # noqa: E731
        sim, lowered = _run(g, factory, broadcast_congest_model(15), "columnar")
        _, reference = _run(g, factory, broadcast_congest_model(15), "reference")
        assert sim.lowered
        _assert_identical(lowered, reference)
        assert lowered.metrics.messages_sent == 0


class TestNumpyAbsentLowering:
    """The stdlib-``array`` kernels lower too, bit-for-bit."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS), ids=str)
    def test_identical_without_numpy(self, monkeypatch, workload):
        monkeypatch.setattr(vectorize_module, "_np", None)
        monkeypatch.setattr(columnar_module, "_np", None)
        g = gnp_random_graph(30, 0.2, seed=12)
        factory = WORKLOADS[workload]
        sim, fallback = _run(
            g, factory, broadcast_congest_model(30), "columnar", seed=2
        )
        _, reference = _run(g, factory, broadcast_congest_model(30), "reference", seed=2)
        assert sim.lowered  # lowering engages without NumPy, just slower
        _assert_identical(fallback, reference)

    @pytest.mark.parametrize("adversary", ["drop:0.2", "crash:3@1,11@2"])
    def test_adversaries_without_numpy(self, monkeypatch, adversary):
        monkeypatch.setattr(vectorize_module, "_np", None)
        monkeypatch.setattr(columnar_module, "_np", None)
        g = gnp_random_graph(28, 0.2, seed=7)
        sim, fallback = _run(
            g,
            WORKLOADS["robust"],
            broadcast_congest_model(28, enforce=False),
            "columnar",
            seed=5,
            adversary=adversary,
        )
        _, reference = _run(
            g,
            WORKLOADS["robust"],
            broadcast_congest_model(28, enforce=False),
            "reference",
            seed=5,
            adversary=adversary,
        )
        assert sim.lowered
        _assert_identical(fallback, reference)


class TestClosedFormSizes:
    """The kernels' closed forms must equal ``estimate_bits`` everywhere."""

    VALUES = (
        list(range(-1025, 1026))
        + [2**k + d for k in range(10, 72, 6) for d in (-1, 0, 1)]
        + [-(2**40), 2**62, -(2**62)]
    )

    def test_int_payload_bits_matches_estimate_bits(self):
        for v in self.VALUES:
            assert int_payload_bits(v) == estimate_bits(v), v

    @pytest.mark.parametrize("copies", [3, 5, 7])
    def test_repetition_frame_bits_matches_estimate_bits(self, copies):
        for v in self.VALUES[:: 7]:
            assert repetition_frame_bits(v, copies) == estimate_bits(
                (v,) * copies
            ), (v, copies)

    def test_np_payload_bits_matches_scalar_forms(self):
        np = pytest.importorskip("numpy")
        values = np.array(
            [0, 1, 2, 3, 4, 255, 256, 1023, 1024, 2**40 - 1, 2**40, 2**62],
            dtype=np.int64,
        )
        plain = _np_payload_bits(np, values, None)
        assert plain.tolist() == [int_payload_bits(int(v)) for v in values]
        framed = _np_payload_bits(np, values, 3)
        assert framed.tolist() == [
            repetition_frame_bits(int(v), 3) for v in values
        ]


class TestBarabasiAlbertCSR:
    """The O(n + m) preferential-attachment family: exact and deterministic."""

    def test_deterministic_per_seed(self):
        a = barabasi_albert_csr(300, 4, seed=11)
        b = barabasi_albert_csr(300, 4, seed=11)
        other = barabasi_albert_csr(300, 4, seed=12)
        assert a.freeze().indptr == b.freeze().indptr
        assert a.freeze().indices == b.freeze().indices
        assert other.freeze().indices != a.freeze().indices

    def test_structure(self):
        n, m = 500, 3
        g = barabasi_albert_csr(n, m, seed=2)
        topo = g.freeze()
        assert g.number_of_nodes() == n
        # Seed clique on m+1 nodes, then every later node attaches to
        # exactly m distinct targets.
        assert g.number_of_edges() == (m + 1) * m // 2 + m * (n - m - 1)
        indptr, indices = topo.indptr, topo.indices
        for i in range(n):
            row = list(indices[indptr[i] : indptr[i + 1]])
            assert row == sorted(set(row)), f"row {i} not sorted/deduped"
            assert i not in row, f"self-loop at {i}"

    def test_connected_and_runs_lowered(self):
        g = barabasi_albert_csr(400, 3, seed=9)
        result = run_flood_max(g, rounds=12, seed=1, engine="columnar")
        assert result.converged
        assert result.leader == 399


class TestGraphMemoization:
    """Frozen-CSR families are memoized per worker; mutable ones never are."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        clear_graph_memo()
        yield
        clear_graph_memo()

    def test_frozen_family_memoized(self):
        spec = ("barabasi_albert_csr", 200, 3, 5)
        first = build_graph(spec)
        assert build_graph(spec) is first
        assert build_graph(list(spec)) is first  # tuple/list shape-agnostic
        clear_graph_memo()
        assert build_graph(spec) is not first

    def test_mutable_family_rebuilt(self):
        spec = ("gnp", 30, 0.2, 1)
        assert build_graph(spec) is not build_graph(spec)
        assert not families._TOPOLOGY_MEMO

    def test_memo_is_bounded(self):
        for seed in range(families._TOPOLOGY_MEMO_CAP + 2):
            build_graph(("barabasi_albert_csr", 100, 3, seed))
        assert len(families._TOPOLOGY_MEMO) <= families._TOPOLOGY_MEMO_CAP

    def test_spec_hash_is_content_only(self):
        spec = ("sparse_gnp_csr", 1000, 0.01, 7)
        assert family_spec_hash(spec) == family_spec_hash(list(spec))
        assert family_spec_hash(spec) != family_spec_hash(("sparse_gnp_csr", 1000, 0.01, 8))
