"""Metrics: accuracy, per-degree buckets, mean/std."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.train import accuracy, accuracy_by_degree, mean_and_std


class TestAccuracy:
    def test_from_class_ids(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 0])) == pytest.approx(2 / 3)

    def test_from_logits(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert accuracy(logits, np.array([1, 0])) == 1.0

    def test_empty_is_nan(self):
        assert np.isnan(accuracy(np.array([]), np.array([])))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0, 1]), np.array([0]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=50))
    def test_bounded(self, labels):
        labels = np.asarray(labels)
        preds = np.roll(labels, 1)
        acc = accuracy(preds, labels)
        assert 0.0 <= acc <= 1.0


class TestAccuracyByDegree:
    def test_counts_partition_nodes(self, rng):
        degrees = rng.integers(1, 500, size=300)
        preds = rng.integers(0, 3, size=300)
        labels = rng.integers(0, 3, size=300)
        result = accuracy_by_degree(preds, labels, degrees)
        assert result.node_counts.sum() == 300

    def test_perfect_predictions_give_unit_accuracy(self, rng):
        degrees = rng.integers(1, 100, size=100)
        labels = rng.integers(0, 3, size=100)
        result = accuracy_by_degree(labels, labels, degrees)
        filled = result.node_counts > 0
        np.testing.assert_allclose(result.accuracies[filled], 1.0)

    def test_empty_buckets_are_nan(self):
        degrees = np.array([1, 1, 1000])
        result = accuracy_by_degree(
            np.zeros(3, dtype=int), np.zeros(3, dtype=int), degrees, num_bins=8
        )
        assert np.isnan(result.accuracies[result.node_counts == 0]).all()

    def test_accepts_logits(self, rng):
        logits = rng.normal(size=(50, 4))
        labels = rng.integers(0, 4, size=50)
        degrees = rng.integers(1, 10, size=50)
        result = accuracy_by_degree(logits, labels, degrees)
        assert result.node_counts.sum() == 50

    def test_rows_export(self, rng):
        degrees = rng.integers(1, 50, size=40)
        result = accuracy_by_degree(
            np.zeros(40, dtype=int), np.zeros(40, dtype=int), degrees
        )
        rows = result.rows()
        assert sum(r["nodes"] for r in rows) == 40
        assert all("degree_lo" in r for r in rows)

    def test_linear_scale_option(self, rng):
        degrees = rng.integers(1, 100, size=60)
        result = accuracy_by_degree(
            np.zeros(60, dtype=int), np.zeros(60, dtype=int), degrees,
            num_bins=5, log_scale=False,
        )
        assert result.node_counts.sum() == 60


class TestMeanAndStd:
    def test_basic(self):
        mean, std = mean_and_std([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)

    def test_single_value_zero_std(self):
        mean, std = mean_and_std([5.0])
        assert mean == 5.0 and std == 0.0

    def test_empty(self):
        mean, std = mean_and_std([])
        assert np.isnan(mean) and np.isnan(std)
