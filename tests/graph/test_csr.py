"""CSRGraph invariants and derived-graph operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    CSRGraph,
    chain_graph,
    complete_graph,
    from_edge_index,
    grid_graph,
    star_graph,
)


@st.composite
def random_edge_graph(draw):
    n = draw(st.integers(min_value=1, max_value=15))
    m = draw(st.integers(min_value=0, max_value=40))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    edge_index = np.array([src, dst], dtype=np.int64).reshape(2, -1)
    return from_edge_index(edge_index, n), edge_index, n


class TestValidation:
    def test_rejects_bad_indptr_start(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0]), 1)

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1]), 2)

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([5]), 1)

    def test_rejects_mismatched_edge_count(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 3]), np.array([0]), 1)

    def test_infers_num_nodes(self):
        g = CSRGraph(np.array([0, 1, 1]), np.array([1]))
        assert g.num_nodes == 2


class TestAccessors:
    def test_star_neighbors(self):
        g = star_graph(4)
        assert set(g.neighbors(0)) == {1, 2, 3, 4}
        assert g.degree(0) == 4
        assert g.degree(1) == 1

    def test_degree_vector(self):
        g = chain_graph(4)
        np.testing.assert_array_equal(g.degree(), [1, 2, 2, 1])

    def test_edges_iterator_counts(self):
        g = complete_graph(4)
        assert len(list(g.edges())) == 12

    def test_edge_index_roundtrip(self):
        g = grid_graph(3, 3)
        rebuilt = from_edge_index(g.edge_index(), g.num_nodes, coalesce=False)
        np.testing.assert_array_equal(rebuilt.indptr, g.indptr)
        np.testing.assert_array_equal(rebuilt.indices, g.indices)

    def test_memory_bytes_positive(self):
        assert chain_graph(5).memory_bytes() > 0


class TestDerived:
    def test_reverse_of_directed_edge(self):
        edge_index = np.array([[0], [1]])
        g = from_edge_index(edge_index, 2)
        r = g.reverse()
        assert list(r.neighbors(1)) == [0]
        assert len(r.neighbors(0)) == 0

    @settings(max_examples=30, deadline=None)
    @given(random_edge_graph())
    def test_reverse_twice_is_identity(self, case):
        g, _, _ = case
        rr = g.reverse().reverse()
        np.testing.assert_array_equal(np.sort(rr.edge_index()[0]), np.sort(g.edge_index()[0]))
        assert rr.num_edges == g.num_edges

    def test_undirected_detection(self):
        assert chain_graph(5).is_undirected()
        assert not from_edge_index(np.array([[0], [1]]), 2).is_undirected()

    @settings(max_examples=30, deadline=None)
    @given(random_edge_graph())
    def test_degree_sums_to_edges(self, case):
        g, _, _ = case
        assert int(g.degree().sum()) == g.num_edges
