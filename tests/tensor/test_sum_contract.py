"""The accumulation contract of every sum kernel.

Each output slot adds its edges one at a time, in original edge order, in
the input dtype: ``np.add.at`` into ``zeros(dtype)``.  Every plan and fused
sum kernel must equal that bit for bit (float32 and float64, 1-D and 2-D,
empty and single-edge segments, non-contiguous operands, recycled heap
memory), and a float32 sum must stay close to the float64 one.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import AggregationPlan, kernels


def add_at(n_rows, index, values):
    out = np.zeros((n_rows,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, index, values)
    return out


@st.composite
def sum_case(draw):
    n_src = draw(st.integers(min_value=1, max_value=16))
    n_dst = draw(st.integers(min_value=1, max_value=n_src))
    # "single": one edge per destination; "sparse": most segments empty.
    regime = draw(st.sampled_from(["random", "single", "sparse", "empty"]))
    n_cols = draw(st.integers(min_value=1, max_value=6))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    noncontig = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if regime == "single":
        dst = rng.permutation(n_dst)
    elif regime == "sparse":
        dst = rng.integers(0, 1 + n_dst // 4, size=rng.integers(1, 4))
    elif regime == "empty":
        dst = np.empty(0, dtype=np.int64)
    else:
        dst = rng.integers(0, n_dst, size=rng.integers(1, 61))
    dst = dst.astype(np.int64)
    src = rng.integers(0, n_src, size=dst.shape[0]).astype(np.int64)
    x = rng.normal(size=(n_src, n_cols)).astype(dtype)
    if noncontig:
        # Every other column of a wider array: stride > itemsize.
        wide = rng.normal(size=(n_src, 2 * n_cols)).astype(dtype)
        wide[:, ::2] = x
        x = wide[:, ::2]
    return x, AggregationPlan(src, dst, n_src, n_dst)


def _edge_values(x, plan, one_d):
    """Per-edge operand of ``plan_segment_sum``: 2-D rows or one column,
    strided like ``x`` when ``x`` is."""
    values = x[plan.src]
    if not x.flags["C_CONTIGUOUS"]:
        wide = np.zeros((values.shape[0], 2 * values.shape[1]), values.dtype)
        wide[:, ::2] = values
        values = wide[:, ::2]
    return values[:, 0] if one_d else values


def _all_sums(x, plan, g, one_d):
    """``{name: (kernel result, np.add.at reference)}`` for one case."""
    values = _edge_values(x, plan, one_d)
    cases = {
        "plan_segment_sum": (
            kernels.plan_segment_sum(values, plan),
            add_at(plan.n_dst, plan.dst, values),
        ),
    }
    if not one_d:
        cases["fused_gather_segment_sum"] = (
            kernels.fused_gather_segment_sum(x, plan),
            add_at(plan.n_dst, plan.dst, x[plan.src]),
        )
        cases["fused_gather_scatter_add"] = (
            kernels.fused_gather_scatter_add(g, plan, plan.n_src + 2),
            add_at(plan.n_src + 2, plan.src, g[plan.dst]),
        )
    return cases


class TestSumsEqualAddAt:
    @settings(max_examples=100, deadline=None)
    @given(sum_case(), st.booleans())
    def test_every_sum_kernel_is_add_at(self, case, one_d):
        x, plan = case
        g = np.random.default_rng(3).normal(size=(plan.n_dst, x.shape[1]))
        g = g.astype(x.dtype)
        for name, (got, want) in _all_sums(x, plan, g, one_d).items():
            assert got.dtype == x.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)

    @settings(max_examples=60, deadline=None)
    @given(sum_case())
    def test_means_divide_the_add_at_sum(self, case):
        x, plan = case
        counts = np.maximum(plan.counts, 1).astype(x.dtype)
        want = add_at(plan.n_dst, plan.dst, x[plan.src]) / counts[:, None]
        np.testing.assert_array_equal(
            kernels.plan_segment_mean(x[plan.src], plan), want
        )
        np.testing.assert_array_equal(kernels.fused_gather_segment_mean(x, plan), want)

    def test_recycled_pool_buffers_are_zeroed(self):
        """Memory freed by the last step comes back from numpy's and the
        C allocator's free lists holding its bytes; the sum kernels
        accumulate into an ``np.empty`` output, so it must be zeroed
        first."""
        rng = np.random.default_rng(0)
        src = rng.integers(0, 9, size=30).astype(np.int64)
        dst = rng.integers(0, 5, size=30).astype(np.int64)
        plan = AggregationPlan(src, dst, 9, 5)
        x = rng.normal(size=(9, 4)).astype(np.float32)
        for _ in range(2):
            for shape in [(5, 4), (9, 4), (5,)]:
                stale = np.empty(shape, np.float32)
                stale.fill(np.nan)
                del stale
            got = kernels.fused_gather_segment_sum(x, plan)
            np.testing.assert_array_equal(got, add_at(5, dst, x[src]))
            g = got.copy()
            np.testing.assert_array_equal(
                kernels.fused_gather_scatter_add(g, plan),
                add_at(9, src, g[dst]),
            )
            vals = x[src, 0]
            np.testing.assert_array_equal(
                kernels.plan_segment_sum(vals, plan), add_at(5, dst, vals)
            )


class TestFloat32Accuracy:
    @settings(max_examples=100, deadline=None)
    @given(sum_case(), st.booleans())
    def test_float32_within_1e6_of_float64(self, case, one_d):
        """Relative to the slot's sum of magnitudes (the bound a
        sequential sum obeys, cancellation or not)."""
        x, plan = case
        x32 = x.astype(np.float32)
        g32 = np.random.default_rng(4).normal(size=(plan.n_dst, x.shape[1]))
        g32 = g32.astype(np.float32)
        got = _all_sums(x32, plan, g32, one_d)
        exact = _all_sums(x32.astype(np.float64), plan, g32.astype(np.float64), one_d)
        magnitude = _all_sums(
            np.abs(x32).astype(np.float64), plan, np.abs(g32).astype(np.float64), one_d
        )
        for name, (f32, _) in got.items():
            f64, mag = exact[name][0], magnitude[name][0]
            assert f32.dtype == np.float32, name
            assert (np.abs(f32 - f64) <= 1e-6 * mag).all(), name
