"""MFG structural invariants and validation errors."""

import numpy as np
import pytest

from repro.sampling import MFG, Adj


def simple_mfg():
    # batch of 2 targets; hop adds node 2 and 3.
    inner = Adj.from_edge_index(np.array([[2, 3, 0], [0, 1, 1]]), (4, 2))
    outer = Adj.from_edge_index(np.array([[4, 5], [2, 3]]), (6, 4))
    return MFG(n_id=np.arange(6), adjs=[outer, inner], batch_size=2)


class TestAdj:
    def test_unpacks_like_pyg(self):
        adj = Adj.from_edge_index(np.array([[0], [0]]), (1, 1))
        edge_index, e_id, size = adj
        assert size == (1, 1) and e_id is None
        assert edge_index.dtype == np.int64
        np.testing.assert_array_equal(edge_index, [[0], [0]])

    def test_rejects_bad_edge_index_shape(self):
        with pytest.raises(ValueError):
            Adj.from_edge_index(np.zeros((3, 2), dtype=np.int64), (2, 2))

    def test_from_edge_index_rejects_dst_out_of_range(self):
        with pytest.raises(ValueError, match="destination"):
            Adj.from_edge_index(np.array([[0], [3]]), (4, 2))

    @pytest.mark.parametrize("bad", [9, 4, -1])
    def test_rejects_out_of_range_indices(self, bad):
        with pytest.raises(ValueError, match="source"):
            Adj(np.array([0, 1, 1]), np.array([bad]), (4, 2))

    def test_rejects_non_monotone_indptr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Adj(np.array([0, 2, 1, 3]), np.array([0, 1, 2]), (4, 3))

    @pytest.mark.parametrize("indptr", [[0, 1], [0, 0, 1, 1]])
    def test_rejects_wrong_indptr_length(self, indptr):
        with pytest.raises(ValueError, match="n_dst \\+ 1"):
            Adj(np.array(indptr), np.array([0]), (4, 2))

    @pytest.mark.parametrize("indptr", [[1, 1, 2], [0, 1, 1]])
    def test_rejects_indptr_not_spanning_the_edges(self, indptr):
        with pytest.raises(ValueError, match="run from 0"):
            Adj(np.array(indptr), np.array([0, 1]), (4, 2))

    def test_rejects_destinations_beyond_the_sources(self):
        with pytest.raises(ValueError, match="prefix"):
            Adj(np.array([0, 0, 0, 0]), np.array([], dtype=np.int64), (2, 3))

    def test_from_edge_index_groups_by_destination_stably(self):
        adj = Adj.from_edge_index(np.array([[5, 1, 2, 3], [1, 0, 1, 0]]), (6, 2))
        np.testing.assert_array_equal(adj.indptr, [0, 2, 4])
        np.testing.assert_array_equal(adj.indices, [1, 3, 5, 2])
        np.testing.assert_array_equal(adj.edge_index, [[1, 3, 5, 2], [0, 0, 1, 1]])

    def test_nbytes(self):
        adj = Adj(np.array([0, 2, 5]), np.zeros(5, dtype=np.int64), (5, 2))
        assert adj.indptr.dtype == adj.indices.dtype == np.int32
        assert adj.nbytes() == (3 + 5) * 4


class TestMFG:
    def test_valid_mfg_passes(self):
        simple_mfg().validate()

    def test_target_ids(self):
        np.testing.assert_array_equal(simple_mfg().target_ids(), [0, 1])

    def test_counts(self):
        mfg = simple_mfg()
        assert mfg.num_layers == 2
        assert mfg.num_input_nodes == 6
        assert mfg.total_edges() == 5

    def test_rejects_non_telescoping(self):
        bad = simple_mfg()
        bad.adjs[0] = Adj.from_edge_index(np.array([[4], [2]]), (6, 3))
        with pytest.raises(ValueError, match="telescope"):
            bad.validate()

    def test_rejects_wrong_batch_size(self):
        mfg = simple_mfg()
        mfg.batch_size = 3
        with pytest.raises(ValueError):
            mfg.validate()

    def test_rejects_duplicate_n_id(self):
        mfg = simple_mfg()
        mfg.n_id = np.array([0, 1, 2, 3, 4, 4])
        with pytest.raises(ValueError, match="duplicates"):
            mfg.validate()

    def test_rejects_n_id_length_mismatch(self):
        mfg = simple_mfg()
        mfg.n_id = np.arange(7)
        with pytest.raises(ValueError, match="n_id"):
            mfg.validate()

    def test_rejects_empty_layers(self):
        with pytest.raises(ValueError):
            MFG(n_id=np.arange(2), adjs=[], batch_size=2).validate()
