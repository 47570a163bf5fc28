"""Tests for the Congested Clique 2-spanner workload (E17 algorithm)."""

import pytest

from repro.core import (
    clique_spanner_levels,
    clique_spanner_round_bound,
    run_clique_two_spanner,
)
from repro.graphs import Graph, complete_graph, gnp_random_graph, star_graph
from repro.spanner import is_k_spanner


class TestCliqueTwoSpanner:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_2_spanner_on_gnp(self, seed):
        g = gnp_random_graph(40, 0.25, seed=seed)
        result = run_clique_two_spanner(g, seed=seed)
        assert is_k_spanner(g, result.edges, 2)
        assert result.rounds == clique_spanner_round_bound(40)

    def test_round_count_is_logarithmic(self):
        for n in (16, 33, 64):
            g = gnp_random_graph(n, 0.3, seed=7)
            result = run_clique_two_spanner(g, seed=1)
            assert result.rounds == 2 * clique_spanner_levels(n)
            assert result.rounds <= 2 * ((n - 1).bit_length() + 1)

    def test_engines_identical(self):
        g = gnp_random_graph(30, 0.3, seed=11)
        a = run_clique_two_spanner(g, seed=5)
        b = run_clique_two_spanner(g, seed=5, engine="reference")
        assert a.edges == b.edges
        assert a.rounds == b.rounds
        assert a.metrics.as_dict() == b.metrics.as_dict()

    def test_fits_clique_bandwidth(self):
        # Default model enforces the O(log n) budget; a violation would raise.
        g = gnp_random_graph(50, 0.2, seed=3)
        result = run_clique_two_spanner(g, seed=9)
        assert result.metrics.bandwidth_violations == 0

    def test_compresses_dense_graphs(self):
        g = complete_graph(24)
        result = run_clique_two_spanner(g, seed=4)
        assert is_k_spanner(g, result.edges, 2)
        assert result.size < g.number_of_edges()

    def test_star_graph_kept_whole(self):
        # A star is its own unique 2-spanner: nothing can be dropped.
        g = star_graph(9)
        result = run_clique_two_spanner(g, seed=0)
        assert is_k_spanner(g, result.edges, 2)

    def test_isolated_and_tiny_graphs(self):
        g = Graph()
        g.add_node("a")
        result = run_clique_two_spanner(g, seed=0)
        assert result.edges == set()

        g2 = Graph()
        g2.add_edge(1, 2)
        g2.add_node(3)
        result2 = run_clique_two_spanner(g2, seed=0)
        assert result2.edges == {(1, 2)}

    def test_uses_virtual_links(self):
        g = gnp_random_graph(20, 0.15, seed=2)
        result = run_clique_two_spanner(g, seed=1)
        assert result.metrics.per_model["virtual_link_messages"] > 0
