"""The CSR-native aggregation plan against the sort-built COO plan.

A sampled layer reaches :class:`AggregationPlan` as the CSR its
:class:`~repro.sampling.mfg.Adj` holds, and the plan takes it as is.  The
reference below is the COO formulation the plan replaced — a ``bincount``,
a stable ``argsort`` of ``dst`` for the gather and edge operators, and a
stable ``argsort`` of ``src`` for the scatter operator — written out here.
Every operator and per-edge view of the CSR plan must be ``array_equal`` to
it, on layers with no edges, empty destination rows, sources with no edges
and a single destination.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.mfg import Adj
from repro.tensor.plan import AggregationPlan, csr_index_dtype


class CooReference:
    """The sort-built plan: what every operator must equal."""

    def __init__(self, src, dst, n_src, n_dst):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        self.src, self.dst, self.n_src, self.n_dst = src, dst, n_src, n_dst
        self.counts = np.bincount(dst, minlength=n_dst).astype(np.int64)
        self.perm = np.argsort(dst, kind="stable")
        sorted_dst = dst[self.perm]
        if len(sorted_dst):
            boundaries = np.flatnonzero(np.diff(sorted_dst)) + 1
            self.starts = np.concatenate([[0], boundaries]).astype(np.int64)
            self.seg_ids = sorted_dst[self.starts]
        else:
            self.starts = self.seg_ids = np.empty(0, dtype=np.int64)
        indptr = np.concatenate([[0], np.cumsum(self.counts)])
        self.gather = (indptr, src[self.perm], (n_dst, n_src))
        self.edge = (indptr, self.perm, (n_dst, len(src)))
        src_perm = np.argsort(src, kind="stable")
        src_indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n_src))])
        self.scatter = (src_indptr, dst[src_perm], (n_src, n_dst))

    def with_self_loops(self):
        loops = np.arange(self.n_dst, dtype=np.int64)
        return CooReference(
            np.concatenate([self.src, loops]),
            np.concatenate([self.dst, loops]),
            self.n_src,
            self.n_dst,
        )


def assert_operator_equal(got, want):
    np.testing.assert_array_equal(got.indptr, want[0])
    np.testing.assert_array_equal(got.indices, want[1])
    assert tuple(got.shape) == want[2]
    assert got.indptr.dtype == got.indices.dtype


def assert_plan_equal(plan, ref, loops=True):
    np.testing.assert_array_equal(plan.counts, ref.counts)
    np.testing.assert_array_equal(plan.src, ref.src)
    np.testing.assert_array_equal(plan.dst, ref.dst)
    np.testing.assert_array_equal(plan.perm, ref.perm)
    np.testing.assert_array_equal(plan.starts, ref.starts)
    np.testing.assert_array_equal(plan.seg_ids, ref.seg_ids)
    assert_operator_equal(plan.gather_matrix(), ref.gather)
    assert_operator_equal(plan.edge_matrix(), ref.edge)
    assert_operator_equal(plan.scatter_matrix(), ref.scatter)
    if loops:
        assert_plan_equal(plan.with_self_loops(), ref.with_self_loops(), loops=False)


@st.composite
def csr_layers(draw):
    """``(indptr, indices, n_src, n_dst)``: empty rows, sourceless nodes,
    ``E = 0`` and ``n_dst = 1`` all occur."""
    n_dst = draw(st.integers(1, 6))
    n_src = n_dst + draw(st.integers(0, 6))
    counts = draw(st.lists(st.integers(0, 4), min_size=n_dst, max_size=n_dst))
    indices = draw(
        st.lists(st.integers(0, n_src - 1), min_size=sum(counts), max_size=sum(counts))
    )
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return indptr, np.array(indices, dtype=np.int64), n_src, n_dst


def coo_of(indptr, indices, n_dst):
    return indices, np.repeat(np.arange(n_dst), np.diff(indptr))


class TestCsrPlanMatchesCooReference:
    @settings(max_examples=150, deadline=None)
    @given(csr_layers())
    def test_adj_plan(self, layer):
        indptr, indices, n_src, n_dst = layer
        plan = Adj(indptr, indices, (n_src, n_dst)).build_plan()
        src, dst = coo_of(indptr, indices, n_dst)
        assert_plan_equal(plan, CooReference(src, dst, n_src, n_dst))

    @settings(max_examples=100, deadline=None)
    @given(csr_layers())
    def test_from_csr_takes_the_arrays_as_is(self, layer):
        indptr, indices, n_src, n_dst = layer
        dtype = csr_index_dtype(n_src, len(indices))
        indptr, indices = indptr.astype(dtype), indices.astype(dtype)
        plan = AggregationPlan.from_csr(indptr, indices, n_src, n_dst)
        gather = plan.gather_matrix()
        assert gather.indptr is indptr and gather.indices is indices
        assert plan.src is indices
        src, dst = coo_of(indptr, indices, n_dst)
        assert_plan_equal(plan, CooReference(src, dst, n_src, n_dst))

    @settings(max_examples=100, deadline=None)
    @given(csr_layers(), st.randoms(use_true_random=False))
    def test_coo_constructor_in_any_edge_order(self, layer, random):
        indptr, indices, n_src, n_dst = layer
        src, dst = coo_of(indptr, indices, n_dst)
        order = list(range(len(src)))
        random.shuffle(order)
        src, dst = src[order], dst[order]
        ref = CooReference(src, dst, n_src, n_dst)
        assert_plan_equal(AggregationPlan(src, dst, n_src, n_dst), ref)
        # An Adj groups the raw edges by destination with one stable sort:
        # the gather operator (and so every forward) is the COO plan's.
        adj = Adj.from_edge_index(np.stack([src, dst]), (n_src, n_dst))
        assert_operator_equal(adj.build_plan().gather_matrix(), ref.gather)

    @settings(max_examples=60, deadline=None)
    @given(csr_layers(), st.randoms(use_true_random=False))
    def test_segment_order_reads_a_csr_plan_in_place(self, layer, random):
        """A CSR plan's edge order is its storage order: its values are
        already in ``perm`` order and are not copied (nor ``perm`` built);
        a COO plan's are gathered through its ``perm``."""
        indptr, indices, n_src, n_dst = layer
        values = np.arange(2 * len(indices), dtype=np.float32).reshape(-1, 2)
        plan = Adj(indptr, indices, (n_src, n_dst)).build_plan()
        assert plan.segment_order(values) is values and plan._perm is None
        src, dst = coo_of(indptr, indices, n_dst)
        order = list(range(len(src)))
        random.shuffle(order)
        coo = AggregationPlan(src[order], dst[order], n_src, n_dst)
        np.testing.assert_array_equal(coo.segment_order(values), values[coo.perm])

    def test_lazy_views_are_unbuilt_until_read(self):
        plan = Adj(np.array([0, 2, 2, 3]), np.array([1, 0, 3]), (4, 3)).build_plan()
        plan.gather_matrix()
        plan.scatter_matrix()
        plan.edge_matrix()
        assert plan._dst is plan._perm is plan._starts is plan._seg_ids is None
        np.testing.assert_array_equal(plan.seg_ids, [0, 2])
        np.testing.assert_array_equal(plan.starts, [0, 2])


class TestIndexDtypeRule:
    INT32_MAX = np.iinfo(np.int32).max

    @pytest.mark.parametrize(
        "n_cols, num_edges, want",
        [
            (0, 0, np.int32),
            (INT32_MAX - 1, 0, np.int32),
            (0, INT32_MAX - 1, np.int32),
            (INT32_MAX - 1, INT32_MAX - 1, np.int32),
            (INT32_MAX, 0, np.int64),
            (0, INT32_MAX, np.int64),
            (2**31, 5, np.int64),
            (5, 2**40, np.int64),
        ],
    )
    def test_boundary(self, n_cols, num_edges, want):
        assert csr_index_dtype(n_cols, num_edges) == want

    def test_adj_narrows_wide_inputs_and_keeps_narrow_ones(self):
        adj = Adj(np.array([0, 1], dtype=np.int64), np.array([2], dtype=np.int64), (3, 1))
        assert adj.indptr.dtype == adj.indices.dtype == np.int32
        indices = np.array([2], dtype=np.int32)
        assert Adj(np.array([0, 1], dtype=np.int32), indices, (3, 1)).indices is indices
