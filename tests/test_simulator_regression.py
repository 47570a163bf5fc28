"""Golden-output regression tests for the simulator's default engine.

``tests/data/golden_runs.json`` was captured by running the *seed* (pre-CSR)
simulator on fixed-seed G(n, p) instances.  The rebuilt engine must reproduce
every output edge set, round count, iteration count and metric counter
bit-for-bit; these tests pin that contract so future engine work cannot
silently change results.  A differential test additionally checks the
default engine against the retained ``reference`` engine on fresh
workloads.

One deliberate re-capture: when ``estimate_bits`` learned to encode
``__slots__``-only payloads (it used to flat-bill 64 bits, under-billing the
``Fraction`` densities the spanner algorithm broadcasts), ``bits_sent`` /
``max_message_bits`` in the spanner goldens were regenerated under the
corrected accounting.  Every physics field — edges, rounds, iterations,
fallbacks, dominators — and the whole MDS record were verified unchanged
before the rewrite, and both engines still agree bit-for-bit.
"""

import json
import pathlib

import pytest

from repro.core.mds import MDSOptions, MDSProgram, run_mds
from repro.core.two_spanner import run_two_spanner
from repro.core.variants import WeightedVariant
from repro.distributed import NoAdversary, NodeProgram, Simulator, congest_model
from repro.graphs import assign_weights_from_choices, gnp_random_graph

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_runs.json"


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as f:
        return json.load(f)


def spanner_record(result):
    return {
        "edges": sorted([list(e) for e in result.edges]),
        "rounds": result.rounds,
        "iterations": result.iterations,
        "fallbacks": result.fallback_count,
        "metrics": result.metrics.as_dict(),
    }


class TestGoldenOutputs:
    def test_unweighted_n40(self, golden):
        g = gnp_random_graph(40, 0.15, seed=3)
        assert spanner_record(run_two_spanner(g, seed=1)) == golden["unweighted_n40_p015_s3_seed1"]

    def test_unweighted_n60(self, golden):
        g = gnp_random_graph(60, 0.10, seed=11)
        assert spanner_record(run_two_spanner(g, seed=7)) == golden["unweighted_n60_p010_s11_seed7"]

    def test_weighted_n40(self, golden):
        g = gnp_random_graph(40, 0.20, seed=5)
        assign_weights_from_choices(g, [1.0, 2.0, 4.0], seed=9)
        result = run_two_spanner(g, variant=WeightedVariant(), seed=2)
        assert spanner_record(result) == golden["weighted_n40_p020_s5_seed2"]

    def test_mds_n50(self, golden):
        g = gnp_random_graph(50, 0.10, seed=2)
        result = run_mds(g, seed=4)
        record = {
            "dominators": sorted(result.dominators),
            "rounds": result.rounds,
            "iterations": result.iterations,
            "metrics": result.metrics.as_dict(),
        }
        assert record == golden["mds_n50_p010_s2_seed4"]


class TestGoldenStabilityUnderNoAdversary:
    """Installing the identity adversary must not perturb a single golden bit.

    The adversary layer's contract is that ``NoAdversary`` (like passing no
    adversary) leaves every engine's hot path untouched and never merges
    fault counters into ``Metrics.as_dict()`` — so the LOCAL/CONGEST golden
    records, captured long before the layer existed, must still match
    bit-for-bit with the policy explicitly installed.
    """

    def test_spanner_golden_with_explicit_no_adversary(self, golden):
        g = gnp_random_graph(40, 0.15, seed=3)
        result = run_two_spanner(g, seed=1, adversary=NoAdversary())
        assert spanner_record(result) == golden["unweighted_n40_p015_s3_seed1"]
        assert result.metrics.per_adversary == {}

    def test_mds_golden_with_explicit_no_adversary(self, golden):
        g = gnp_random_graph(50, 0.10, seed=2)
        result = run_mds(g, seed=4, adversary=NoAdversary())
        record = {
            "dominators": sorted(result.dominators),
            "rounds": result.rounds,
            "iterations": result.iterations,
            "metrics": result.metrics.as_dict(),
        }
        assert record == golden["mds_n50_p010_s2_seed4"]


class FloodMax(NodeProgram):
    """Every node learns the maximum identifier in its component."""

    def on_start(self, ctx):
        self.best = ctx.node_id
        ctx.broadcast(self.best)

    def on_round(self, ctx, inbox):
        improved = False
        for _, payloads in inbox.items():
            for value in payloads:
                if value > self.best:
                    self.best = value
                    improved = True
        if improved:
            ctx.broadcast(self.best)
        else:
            ctx.set_output(self.best)
            ctx.halt()


class TestEngineEquivalence:
    """Default engine vs reference engine on identical inputs."""

    def _run_both(self, graph, factory, **kwargs):
        new = Simulator(graph, factory, **kwargs).run()
        ref = Simulator(graph, factory, engine="reference", **kwargs).run()
        return new, ref

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flood_max(self, seed):
        g = gnp_random_graph(35, 0.12, seed=seed)
        new, ref = self._run_both(g, lambda v: FloodMax(), seed=seed)
        assert new.outputs == ref.outputs
        assert new.completed == ref.completed
        assert new.metrics.as_dict() == ref.metrics.as_dict()
        assert new.metrics.bits_per_round == ref.metrics.bits_per_round

    def test_mds_program_in_congest(self):
        g = gnp_random_graph(30, 0.15, seed=6)
        topo = g.freeze()
        options = MDSOptions()

        def factory(v):
            return MDSProgram(v, topo.neighbor_label_set(topo.index[v]), options)

        new, ref = self._run_both(
            g, factory, seed=3, model=congest_model(30, enforce=True)
        )
        assert new.outputs == ref.outputs
        assert new.metrics.as_dict() == ref.metrics.as_dict()

    def test_cut_accounting_matches(self):
        g = gnp_random_graph(24, 0.2, seed=9)
        cut = set(range(12))
        new, ref = self._run_both(g, lambda v: FloodMax(), seed=1, cut=cut)
        assert new.metrics.cut_bits == ref.metrics.cut_bits
        assert new.metrics.cut_messages == ref.metrics.cut_messages
