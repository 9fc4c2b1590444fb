"""Synthetic graph generators: structure, determinism, planted properties."""

import numpy as np
import pytest

from repro.graph import (
    chain_graph,
    complete_graph,
    grid_graph,
    power_law_community_graph,
    star_graph,
)


class TestDeterministicGenerators:
    def test_star(self):
        g = star_graph(6)
        assert g.num_nodes == 7
        assert g.num_edges == 12
        assert g.is_undirected()

    def test_chain(self):
        g = chain_graph(5)
        assert g.num_edges == 8
        assert g.degree(0) == 1 and g.degree(2) == 2

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 20
        assert (g.degree() == 4).all()

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_nodes == 12
        # corner degree 2, edge degree 3, interior degree 4
        assert g.degree(0) == 2
        assert sorted(np.unique(g.degree())) == [2, 3, 4]


class TestPowerLawCommunityGraph:
    def test_basic_shape(self, community_graph):
        g = community_graph.graph
        assert g.num_nodes == 800
        assert g.is_undirected()
        assert community_graph.communities.shape == (800,)
        assert community_graph.weights.shape == (800,)

    def test_heavy_tailed_degrees(self, community_graph):
        deg = community_graph.graph.degree()
        # hubs far above the mean indicate a heavy tail
        assert deg.max() > 6 * deg.mean()

    def test_homophily_above_random(self, community_graph):
        g = community_graph.graph
        comm = community_graph.communities
        ei = g.edge_index()
        same = (comm[ei[0]] == comm[ei[1]]).mean()
        assert same > 0.5  # random would be ~1/4 with 4 communities

    def test_hub_mixing_reduces_hub_homophily(self):
        gen = power_law_community_graph(
            2000, 16.0, num_communities=4, hub_mixing=0.8,
            rng=np.random.default_rng(3),
        )
        g, comm = gen.graph, gen.communities
        deg = g.degree()
        ei = g.edge_index()
        same = comm[ei[0]] == comm[ei[1]]
        hub_nodes = deg > np.quantile(deg, 0.9)
        hub_edges = hub_nodes[ei[0]]
        assert same[hub_edges].mean() < same[~hub_edges].mean()

    def test_deterministic_given_rng_seed(self):
        a = power_law_community_graph(300, 8.0, rng=np.random.default_rng(5))
        b = power_law_community_graph(300, 8.0, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.graph.indices, b.graph.indices)
        np.testing.assert_array_equal(a.communities, b.communities)

    def test_every_community_nonempty(self, community_graph):
        counts = np.bincount(community_graph.communities, minlength=4)
        assert (counts > 0).all()

    def test_no_self_loops(self, community_graph):
        ei = community_graph.graph.edge_index()
        assert (ei[0] != ei[1]).all()

    def test_avg_degree_near_target(self):
        gen = power_law_community_graph(2000, 20.0, rng=np.random.default_rng(11))
        avg = gen.graph.num_edges / gen.graph.num_nodes
        # symmetrization + dedup shifts it, but the order must hold
        assert 10.0 < avg < 45.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            power_law_community_graph(3, 4.0, num_communities=10)
        with pytest.raises(ValueError):
            power_law_community_graph(100, 4.0, intra_prob=1.5)
