"""Optimized numpy kernels vs obvious reference implementations.

Follows the ml-systems guide's pattern: the slow, clearly correct
formulation lives in the tests and gates the optimized kernel, including
under hypothesis-generated inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import kernels


def reference_scatter_add(values, index, n_rows):
    """Each row adds its elements one at a time, in index order, in the
    input dtype — the accumulation contract every sum kernel keeps."""
    out = np.zeros((n_rows,) + values.shape[1:], dtype=values.dtype)
    for i, row in enumerate(index):
        out[row] += values[i]
    return out


@st.composite
def scatter_case(draw):
    n_rows = draw(st.integers(min_value=1, max_value=12))
    n_elems = draw(st.integers(min_value=0, max_value=40))
    n_cols = draw(st.integers(min_value=1, max_value=5))
    index = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_rows - 1),
            min_size=n_elems,
            max_size=n_elems,
        )
    )
    values = draw(
        st.lists(
            st.lists(
                st.floats(
                    min_value=-100, max_value=100, allow_nan=False, width=32
                ),
                min_size=n_cols,
                max_size=n_cols,
            ),
            min_size=n_elems,
            max_size=n_elems,
        )
    )
    return (
        np.asarray(values, dtype=np.float32).reshape(n_elems, n_cols),
        np.asarray(index, dtype=np.int64),
        n_rows,
    )


class TestScatterAdd:
    @settings(max_examples=60, deadline=None)
    @given(scatter_case())
    def test_matches_reference(self, case):
        values, index, n_rows = case
        out = kernels.scatter_add_rows(values, index, n_rows)
        assert out.dtype == values.dtype
        np.testing.assert_array_equal(out, reference_scatter_add(values, index, n_rows))

    def test_1d_values(self):
        out = kernels.scatter_add_rows(
            np.array([1.0, 2.0, 3.0], dtype=np.float32), np.array([1, 1, 0]), 3
        )
        np.testing.assert_allclose(out, [3.0, 3.0, 0.0])

    def test_empty_input(self):
        out = kernels.scatter_add_rows(
            np.empty((0, 4), dtype=np.float32), np.empty(0, dtype=np.int64), 5
        )
        assert out.shape == (5, 4)
        assert (out == 0).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            kernels.scatter_add_rows(np.zeros((3, 2)), np.zeros(4, dtype=np.int64), 5)
        with pytest.raises(ValueError):
            kernels.scatter_add_rows(np.zeros((3, 2)), np.zeros((3, 1), dtype=np.int64), 5)
        with pytest.raises(ValueError):
            kernels.scatter_add_rows(np.zeros((2, 2, 2)), np.zeros(2, dtype=np.int64), 3)

    def test_wide_matrix_block_path(self):
        # A row far wider than it is tall: the whole row is one add per element.
        rng = np.random.default_rng(0)
        values = rng.normal(size=(50, 300)).astype(np.float32)
        index = rng.integers(0, 7, size=50)
        out = kernels.scatter_add_rows(values, index, 7)
        np.testing.assert_array_equal(out, reference_scatter_add(values, index, 7))


class TestSegmentReductions:
    def test_counts(self):
        np.testing.assert_array_equal(
            kernels.segment_counts(np.array([0, 2, 2, 2]), 4), [1, 0, 3, 0]
        )

    def test_mean_divides_by_count(self):
        vals = np.array([[2.0], [4.0], [10.0]], dtype=np.float32)
        out = kernels.segment_mean(vals, np.array([0, 0, 1]), 3)
        np.testing.assert_allclose(out, [[3.0], [10.0], [0.0]])

    @settings(max_examples=40, deadline=None)
    @given(scatter_case())
    def test_segment_max_matches_reference(self, case):
        values, index, n_rows = case
        out, argmax = kernels.segment_max(values, index, n_rows)
        for seg in range(n_rows):
            members = values[index == seg]
            if len(members) == 0:
                np.testing.assert_allclose(out[seg], 0.0)
                assert (argmax[seg] == -1).all()
            else:
                np.testing.assert_allclose(out[seg], members.max(axis=0))

    def test_segment_max_argmax_routes_to_element(self):
        values = np.array([[1.0], [9.0], [5.0]], dtype=np.float32)
        out, argmax = kernels.segment_max(values, np.array([0, 0, 0]), 1)
        assert argmax[0, 0] == 1
        np.testing.assert_allclose(out[0], [9.0])

    def test_segment_max_1d(self):
        out, argmax = kernels.segment_max(
            np.array([3.0, 7.0, 1.0], dtype=np.float32), np.array([1, 1, 0]), 2
        )
        np.testing.assert_allclose(out, [1.0, 7.0])
        np.testing.assert_array_equal(argmax, [2, 1])

    def test_segment_max_empty(self):
        out, argmax = kernels.segment_max(
            np.empty((0, 2), dtype=np.float32), np.empty(0, dtype=np.int64), 3
        )
        assert out.shape == (3, 2)
        assert (argmax == -1).all()

