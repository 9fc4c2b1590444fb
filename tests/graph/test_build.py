"""COO->CSR builders: coalescing, symmetrization, self-loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# The largest node count whose keys ``src * num_nodes + dst`` fit in int64.
MAX_KEYED_NODES = 3_037_000_499

from repro.graph import (
    add_self_loops,
    coalesce_edge_index,
    from_edge_index,
    remove_self_loops,
    to_undirected_edge_index,
)


class TestCoalesce:
    def test_removes_duplicates(self):
        ei = np.array([[0, 0, 1], [1, 1, 0]])
        out = coalesce_edge_index(ei, 2)
        assert out.shape == (2, 2)

    def test_sorted_by_src_then_dst(self):
        ei = np.array([[1, 0, 1], [0, 1, 2]])
        out = coalesce_edge_index(ei, 3)
        keys = out[0] * 3 + out[1]
        assert (np.diff(keys) > 0).all()

    def test_empty(self):
        out = coalesce_edge_index(np.empty((2, 0), dtype=np.int64), 3)
        assert out.shape == (2, 0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            coalesce_edge_index(np.zeros((3, 4), dtype=np.int64), 5)


class TestSelfLoops:
    def test_remove(self):
        ei = np.array([[0, 1, 2], [0, 2, 2]])
        out = remove_self_loops(ei)
        np.testing.assert_array_equal(out, [[1], [2]])

    def test_add(self):
        ei = np.array([[0], [1]])
        out = add_self_loops(ei, 3)
        assert out.shape == (2, 4)
        loops = out[:, 1:]
        np.testing.assert_array_equal(loops[0], loops[1])


class TestUndirected:
    def test_reverse_edges_added(self):
        ei = np.array([[0], [1]])
        out = to_undirected_edge_index(ei, 2)
        assert out.shape == (2, 2)
        g = from_edge_index(out, 2, coalesce=False)
        assert g.is_undirected()

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 10),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30),
    )
    def test_always_symmetric(self, n, pairs):
        pairs = [(a % n, b % n) for a, b in pairs]
        if not pairs:
            pairs = [(0, 1)]
        ei = np.array(pairs).T
        g = from_edge_index(ei, n, undirected=True)
        assert g.is_undirected()


class TestFromEdgeIndex:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_edge_index(np.array([[0], [7]]), 3)

    def test_adjacency_matches_input(self):
        ei = np.array([[0, 0, 2], [1, 2, 0]])
        g = from_edge_index(ei, 3)
        assert set(g.neighbors(0)) == {1, 2}
        assert set(g.neighbors(2)) == {0}
        assert g.degree(1) == 0

    def test_coalesce_flag(self):
        ei = np.array([[0, 0], [1, 1]])
        assert from_edge_index(ei, 2, coalesce=True).num_edges == 1
        assert from_edge_index(ei, 2, coalesce=False).num_edges == 2


class TestBadIds:
    def test_coalesce_rejects_a_negative_id(self):
        with pytest.raises(ValueError, match="negative node id"):
            coalesce_edge_index(np.array([[0, -1, 2], [1, 2, 0]]), 3)

    def test_undirected_rejects_an_id_past_num_nodes(self):
        with pytest.raises(ValueError, match="not below num_nodes"):
            to_undirected_edge_index(np.array([[0, 3], [1, 2]]), 3)

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_from_edge_index_rejects_a_negative_source(self, coalesce):
        with pytest.raises(ValueError, match="negative node id"):
            from_edge_index(np.array([[0, -1], [1, 2]]), 3, coalesce=coalesce)

    def test_keys_that_would_overflow_int64_are_refused(self):
        ei = np.array([[MAX_KEYED_NODES], [MAX_KEYED_NODES - 1]])
        with pytest.raises(ValueError, match="overflow int64"):
            coalesce_edge_index(ei, MAX_KEYED_NODES + 1)
        with pytest.raises(ValueError, match="overflow int64"):
            to_undirected_edge_index(ei, MAX_KEYED_NODES + 1)

    def test_the_largest_keyed_graph_still_coalesces(self):
        last = MAX_KEYED_NODES - 1
        ei = np.array([[last, last, 0], [last, last, last]])
        out = to_undirected_edge_index(ei, MAX_KEYED_NODES)
        np.testing.assert_array_equal(out, [[0, last, last], [last, 0, last]])


# ----------------------------------------------------------------------
# The one-sort builders against a reference: ``np.unique`` plus a stable
# argsort, the way the builders were written before they sorted once.
# ----------------------------------------------------------------------
def _reference_coalesce(ei, n):
    if ei.shape[1] == 0:
        return ei
    key = np.unique(ei[0] * n + ei[1])
    return np.stack([key // n, key % n])


def _reference_undirected(ei, n):
    return _reference_coalesce(np.concatenate([ei, ei[::-1]], axis=1), n)


def _reference_csr(ei, n, undirected, coalesce):
    if undirected:
        ei = _reference_undirected(ei, n)
    elif coalesce:
        ei = _reference_coalesce(ei, n)
    src, dst = ei
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.argsort(src, kind="stable")]


@st.composite
def edge_lists(draw, max_nodes):
    """A ``(2, E)`` edge array with duplicates and self-loops, and its
    node count (one, a few, or anything up to ``max_nodes``)."""
    n = draw(st.one_of(st.just(1), st.integers(2, 6), st.integers(1, max_nodes), st.just(max_nodes)))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.one_of(st.tuples(node, node), node.map(lambda v: (v, v))), max_size=40))
    if pairs:
        pairs = draw(st.permutations(pairs + draw(st.lists(st.sampled_from(pairs), max_size=10))))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2).T, n


def _assert_same_int64(got, want):
    assert got.dtype == np.int64 and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(case=edge_lists(MAX_KEYED_NODES))
def test_coalesce_and_undirected_match_the_unique_reference(case):
    ei, n = case
    _assert_same_int64(coalesce_edge_index(ei, n), _reference_coalesce(ei, n))
    _assert_same_int64(to_undirected_edge_index(ei, n), _reference_undirected(ei, n))


@pytest.mark.parametrize("undirected, coalesce", [(False, True), (True, True), (True, False), (False, False)])
@settings(max_examples=60, deadline=None)
@given(case=edge_lists(5000))
def test_from_edge_index_matches_the_argsort_reference(undirected, coalesce, case):
    ei, n = case
    g = from_edge_index(ei, n, undirected=undirected, coalesce=coalesce)
    indptr, indices = _reference_csr(ei, n, undirected, coalesce)
    _assert_same_int64(g.indptr, indptr)
    _assert_same_int64(g.indices, indices)
