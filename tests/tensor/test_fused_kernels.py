"""Plan/fused kernels vs the reference formulation: bitwise twins.

Every model path aggregates through the plan/fused kernels and every
``Linear`` is one fused tape node; the per-call kernels
(``kernels.segment_*``, ``scatter_add_rows``) and the explicit
``x @ w.T + b`` chain are the slow reference they must match bit for bit.
These tests pin:

- every plan/fused kernel against its reference counterpart with
  ``np.array_equal`` (not allclose) across random shapes, empty segments,
  single-edge segments, float32/float64 and non-contiguous inputs;
- the fused linear forward/backward against the explicit op chain at the
  autograd level;
- ``compute_scope`` and the empty ``Workspace`` stand-ins the e2e
  benchmark enters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import (
    AggregationPlan,
    Tensor,
    Workspace,
    compute_scope,
    functional as F,
    kernels,
    workspace_scope,
)


@st.composite
def plan_case(draw):
    """Random edge list + features, covering the awkward regimes."""
    n_src = draw(st.integers(min_value=1, max_value=16))
    n_dst = draw(st.integers(min_value=1, max_value=n_src))
    n_edges = draw(st.integers(min_value=0, max_value=60))
    n_cols = draw(st.integers(min_value=1, max_value=6))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    noncontig = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_src, size=n_edges).astype(np.int64)
    dst = rng.integers(0, n_dst, size=n_edges).astype(np.int64)
    x = rng.normal(size=(n_src, n_cols)).astype(dtype)
    if noncontig:
        # Column-sliced view of a wider array: stride > itemsize.
        wide = rng.normal(size=(n_src, 2 * n_cols)).astype(dtype)
        wide[:, ::2] = x
        x = wide[:, ::2]
    plan = AggregationPlan(src, dst, n_src, n_dst)
    return x, src, dst, plan


class TestPlanKernelsBitwise:
    @settings(max_examples=80, deadline=None)
    @given(plan_case())
    def test_plan_segment_sum(self, case):
        x, src, dst, plan = case
        messages = x[src]
        legacy = kernels.segment_sum(messages, dst, plan.n_dst)
        np.testing.assert_array_equal(kernels.plan_segment_sum(messages, plan), legacy)

    @settings(max_examples=80, deadline=None)
    @given(plan_case())
    def test_plan_segment_mean(self, case):
        x, src, dst, plan = case
        messages = x[src]
        legacy = kernels.segment_mean(messages, dst, plan.n_dst)
        np.testing.assert_array_equal(kernels.plan_segment_mean(messages, plan), legacy)

    @settings(max_examples=80, deadline=None)
    @given(plan_case())
    def test_plan_segment_max(self, case):
        x, src, dst, plan = case
        messages = x[src]
        legacy_out, legacy_arg = kernels.segment_max(messages, dst, plan.n_dst)
        out, arg = kernels.plan_segment_max(messages, plan)
        np.testing.assert_array_equal(out, legacy_out)
        np.testing.assert_array_equal(arg, legacy_arg)
        out2, arg2 = kernels.plan_segment_max(messages, plan, compute_argmax=False)
        np.testing.assert_array_equal(out2, legacy_out)
        assert arg2 is None

    @settings(max_examples=80, deadline=None)
    @given(plan_case())
    def test_fused_gather_segment_sum(self, case):
        x, src, dst, plan = case
        legacy = kernels.segment_sum(x[src], dst, plan.n_dst)
        np.testing.assert_array_equal(kernels.fused_gather_segment_sum(x, plan), legacy)

    @settings(max_examples=80, deadline=None)
    @given(plan_case())
    def test_fused_gather_segment_mean(self, case):
        x, src, dst, plan = case
        legacy = kernels.segment_mean(x[src], dst, plan.n_dst)
        np.testing.assert_array_equal(
            kernels.fused_gather_segment_mean(x, plan), legacy
        )

    @settings(max_examples=80, deadline=None)
    @given(plan_case())
    def test_fused_gather_scatter_add(self, case):
        x, src, dst, plan = case
        rng = np.random.default_rng(7)
        g = rng.normal(size=(plan.n_dst, x.shape[1])).astype(x.dtype)
        legacy = kernels.scatter_add_rows(g[dst], src, plan.n_src)
        np.testing.assert_array_equal(kernels.fused_gather_scatter_add(g, plan), legacy)

    def test_1d_plan_sum(self):
        rng = np.random.default_rng(0)
        dst = rng.integers(0, 5, size=30).astype(np.int64)
        src = rng.integers(0, 8, size=30).astype(np.int64)
        plan = AggregationPlan(src, dst, 8, 5)
        vals = rng.normal(size=30).astype(np.float64)
        legacy = kernels.segment_sum(vals, dst, 5)
        np.testing.assert_array_equal(kernels.plan_segment_sum(vals, plan), legacy)

    def test_single_edge_segments(self):
        # Every destination has exactly one incoming edge.
        src = np.array([3, 1, 0], dtype=np.int64)
        dst = np.array([0, 1, 2], dtype=np.int64)
        plan = AggregationPlan(src, dst, 4, 3)
        x = np.arange(8, dtype=np.float32).reshape(4, 2)
        np.testing.assert_array_equal(kernels.fused_gather_segment_sum(x, plan), x[src])

    def test_empty_edge_list(self):
        plan = AggregationPlan(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 4, 3
        )
        x = np.ones((4, 2), dtype=np.float32)
        assert (kernels.fused_gather_segment_sum(x, plan) == 0).all()
        assert (kernels.plan_segment_sum(np.empty((0, 2), np.float32), plan) == 0).all()
        g = np.ones((3, 2), dtype=np.float32)
        assert (kernels.fused_gather_scatter_add(g, plan) == 0).all()

    def test_plan_shape_mismatch_rejected(self):
        plan = AggregationPlan(
            np.array([0], dtype=np.int64), np.array([0], dtype=np.int64), 2, 1
        )
        with pytest.raises(ValueError):
            kernels.plan_segment_sum(np.zeros((3, 2), np.float32), plan)

    def test_scatter_add_rejects_fewer_rows_than_sources(self):
        """Fewer output rows than the plan has sources cannot hold every
        source's gradient: a ValueError naming both numbers (rows past
        ``n_src`` are fine and stay zero)."""
        plan = AggregationPlan(
            np.array([0, 3], dtype=np.int64), np.array([0, 1], dtype=np.int64), 4, 2
        )
        g = np.ones((2, 3), dtype=np.float32)
        with pytest.raises(ValueError, match=r"n_rows \(3\).*source rows \(4\)"):
            kernels.fused_gather_scatter_add(g, plan, n_rows=3)
        padded = kernels.fused_gather_scatter_add(g, plan, n_rows=6)
        np.testing.assert_array_equal(
            padded, kernels.scatter_add_rows(g[plan.dst], plan.src, 6)
        )


class TestPlanObject:
    def test_with_self_loops_memoized(self):
        plan = AggregationPlan(
            np.array([2, 1], dtype=np.int64), np.array([0, 1], dtype=np.int64), 3, 2
        )
        aug = plan.with_self_loops()
        assert aug is plan.with_self_loops()
        assert aug.num_edges == plan.num_edges + plan.n_dst
        np.testing.assert_array_equal(aug.src[-2:], [0, 1])
        np.testing.assert_array_equal(aug.dst[-2:], [0, 1])

    def test_from_edge_index_and_validation(self):
        ei = np.array([[0, 1], [1, 0]], dtype=np.int64)
        plan = AggregationPlan.from_edge_index(ei, (2, 2))
        assert plan.num_edges == 2
        with pytest.raises(ValueError):
            AggregationPlan.from_edge_index(np.zeros((3, 2), np.int64), (2, 2))
        with pytest.raises(ValueError):
            AggregationPlan(np.zeros(2, np.int64), np.zeros(3, np.int64), 4, 4)

    def test_counts_and_nbytes(self):
        plan = AggregationPlan(
            np.array([0, 1, 2], dtype=np.int64),
            np.array([1, 1, 0], dtype=np.int64),
            3,
            2,
        )
        np.testing.assert_array_equal(plan.counts, [1, 2])
        assert plan.nbytes() > 0


def _autograd_pair(x_np, plan, op):
    """Run ``op`` on a fresh leaf tensor; return (out, grad) arrays."""
    x = Tensor(x_np.copy(), requires_grad=True)
    out = op(x, plan)
    out.backward(np.ones_like(out.data))
    return out.data.copy(), x.grad.copy()


class TestFunctionalPlanPaths:
    """Autograd-level equality: the plan kwarg must not change any bit."""

    def _random_case(self, seed, dtype=np.float32):
        rng = np.random.default_rng(seed)
        n_src, n_dst, n_edges, n_cols = 9, 6, 25, 4
        src = rng.integers(0, n_src, size=n_edges).astype(np.int64)
        dst = rng.integers(0, n_dst, size=n_edges).astype(np.int64)
        x = rng.normal(size=(n_src, n_cols)).astype(dtype)
        return x, src, dst, AggregationPlan(src, dst, n_src, n_dst)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("agg", ["sum", "mean"])
    def test_gather_segment_matches_unfused(self, agg, dtype):
        x, src, dst, plan = self._random_case(3, dtype)
        fused_op = getattr(F, f"gather_segment_{agg}")
        seg_op = getattr(F, f"segment_{agg}")

        def unfused(t, _):
            return seg_op(F.gather_rows(t, src), dst, plan.n_dst)

        out_f, grad_f = _autograd_pair(x, plan, fused_op)
        out_l, grad_l = _autograd_pair(x, plan, unfused)
        np.testing.assert_array_equal(out_f, out_l)
        np.testing.assert_array_equal(grad_f, grad_l)

    @pytest.mark.parametrize("agg", ["sum", "mean"])
    def test_gather_segment_grad_takes_input_dtype(self, agg):
        """float32 input, float64 upstream (GIN's ``x * (1 + eps)`` upcasts):
        the input gradient is rounded to float32 before it meets the other
        contribution, exactly as the reference chain's ``gather_rows`` does."""
        x, src, dst, plan = self._random_case(3, np.float32)
        scale = Tensor(np.random.default_rng(2).normal(size=(plan.n_dst, x.shape[1])))
        fused_op = getattr(F, f"gather_segment_{agg}")
        seg_op = getattr(F, f"segment_{agg}")

        def fused(t, p):
            return fused_op(t, p) * scale + t[: p.n_dst]

        def unfused(t, p):
            return seg_op(F.gather_rows(t, src), dst, p.n_dst) * scale + t[: p.n_dst]

        out_f, grad_f = _autograd_pair(x, plan, fused)
        out_l, grad_l = _autograd_pair(x, plan, unfused)
        assert out_f.dtype == np.float64 and grad_f.dtype == np.float32
        np.testing.assert_array_equal(out_f, out_l)
        np.testing.assert_array_equal(grad_f, grad_l)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_segment_softmax_plan_matches(self, dtype):
        rng = np.random.default_rng(11)
        n_dst, n_edges = 5, 40
        dst = rng.integers(0, n_dst, size=n_edges).astype(np.int64)
        plan = AggregationPlan(
            rng.integers(0, 7, size=n_edges).astype(np.int64), dst, 7, n_dst
        )
        logits = rng.normal(size=n_edges).astype(dtype)

        def with_plan(t, p):
            return F.segment_softmax(t, dst, n_dst, plan=p)

        def without_plan(t, _):
            return F.segment_softmax(t, dst, n_dst)

        out_f, grad_f = _autograd_pair(logits, plan, with_plan)
        out_l, grad_l = _autograd_pair(logits, plan, without_plan)
        np.testing.assert_array_equal(out_f, out_l)
        np.testing.assert_array_equal(grad_f, grad_l)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("agg", ["sum", "mean", "max"])
    def test_segment_ops_plan_kwarg_matches(self, agg, dtype):
        x, src, dst, plan = self._random_case(5, dtype)
        messages = x[src]
        seg_op = getattr(F, f"segment_{agg}")

        def with_plan(t, p):
            return seg_op(t, dst, plan.n_dst, plan=p)

        def without_plan(t, _):
            return seg_op(t, dst, plan.n_dst)

        out_f, grad_f = _autograd_pair(messages, plan, with_plan)
        out_l, grad_l = _autograd_pair(messages, plan, without_plan)
        np.testing.assert_array_equal(out_f, out_l)
        np.testing.assert_array_equal(grad_f, grad_l)


class TestFusedLinear:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("relu", [True, False])
    def test_matches_legacy_chain(self, bias, relu, dtype):
        rng = np.random.default_rng(17)
        x_np = rng.normal(size=(12, 7)).astype(dtype)
        w_np = rng.normal(size=(5, 7)).astype(dtype)
        b_np = rng.normal(size=(5,)).astype(dtype) if bias else None

        def run(fused):
            x = Tensor(x_np.copy(), requires_grad=True)
            w = Tensor(w_np.copy(), requires_grad=True)
            b = Tensor(b_np.copy(), requires_grad=True) if bias else None
            if fused:
                out = F.linear(x, w, b)
            else:  # the explicit chain, written out
                out = x @ w.T
                if bias:
                    out = out + b
            if relu:  # an activation after the linear, as the models apply it
                out = out.relu()
            out.backward(np.ones_like(out.data))
            return (
                out.data.copy(),
                x.grad.copy(),
                w.grad.copy(),
                b.grad.copy() if bias else None,
            )

        fused_res = run(True)
        legacy_res = run(False)
        for got, want in zip(fused_res, legacy_res):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)

    def test_kernel_forward_values(self):
        x = np.array([[1.0, -2.0]], dtype=np.float32)
        w = np.array([[3.0, 1.0]], dtype=np.float32)
        b = np.array([4.0], dtype=np.float32)
        np.testing.assert_array_equal(kernels.linear_forward(x, w, b), [[5.0]])


class TestWorkspace:
    """What is left of the workspace: empty stand-ins for the e2e
    benchmark's hand-driven step, which change no kernel's output."""

    def test_none_scope_is_noop(self):
        plan = AggregationPlan(
            np.array([0, 1], dtype=np.int64), np.array([0, 0], dtype=np.int64), 2, 1
        )
        x = np.ones((2, 3), dtype=np.float32)
        for workspace in (None, Workspace()):
            with workspace_scope(workspace) as active:
                assert active is workspace
                out = kernels.fused_gather_segment_sum(x, plan)
            np.testing.assert_array_equal(out, [[2.0, 2.0, 2.0]])

    def test_compute_scope_validation(self):
        with compute_scope("fused"):  # the one value; selects nothing
            pass
        for mode in ("turbo", "legacy"):
            with pytest.raises(ValueError):
                with compute_scope(mode):
                    pass
