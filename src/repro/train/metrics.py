"""Evaluation metrics: accuracy, per-degree accuracy (Figure 3), summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "accuracy",
    "DegreeAccuracy",
    "accuracy_by_degree",
    "mean_and_std",
]


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct argmax predictions.

    ``predictions`` may be class ids ``(N,)`` or logits ``(N, C)``.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.ndim == 2:
        predictions = predictions.argmax(axis=1)
    if predictions.shape != labels.shape:
        raise ValueError(
            f"prediction/label shape mismatch: {predictions.shape} vs {labels.shape}"
        )
    if len(labels) == 0:
        return float("nan")
    return float((predictions == labels).mean())


@dataclass
class DegreeAccuracy:
    """Accuracy and node count per degree bucket (Figure 3's two curves)."""

    bin_edges: np.ndarray  # (B+1,) degree bucket boundaries
    node_counts: np.ndarray  # (B,)
    accuracies: np.ndarray  # (B,) NaN for empty buckets

    def rows(self) -> list[dict]:
        out = []
        for i in range(len(self.node_counts)):
            out.append(
                {
                    "degree_lo": int(self.bin_edges[i]),
                    "degree_hi": int(self.bin_edges[i + 1]),
                    "nodes": int(self.node_counts[i]),
                    "accuracy": float(self.accuracies[i]),
                }
            )
        return out


def accuracy_by_degree(
    predictions: np.ndarray,
    labels: np.ndarray,
    degrees: np.ndarray,
    num_bins: int = 12,
    log_scale: bool = True,
) -> DegreeAccuracy:
    """Bucket test nodes by degree and compute per-bucket accuracy.

    Figure 3 overlays the node-count distribution with per-degree accuracy;
    log-spaced buckets match its log-degree x-axis.
    """
    predictions = np.asarray(predictions)
    if predictions.ndim == 2:
        predictions = predictions.argmax(axis=1)
    degrees = np.asarray(degrees)
    max_degree = max(int(degrees.max()), 1) if len(degrees) else 1
    if log_scale:
        edges = np.unique(
            np.round(np.logspace(0, np.log10(max_degree + 1), num_bins + 1)).astype(int)
        )
    else:
        edges = np.linspace(0, max_degree + 1, num_bins + 1).astype(int)
    bucket = np.clip(np.searchsorted(edges, degrees, side="right") - 1, 0, len(edges) - 2)
    counts = np.bincount(bucket, minlength=len(edges) - 1)
    correct = np.bincount(
        bucket, weights=(predictions == labels).astype(float), minlength=len(edges) - 1
    )
    with np.errstate(invalid="ignore"):
        accs = np.where(counts > 0, correct / np.maximum(counts, 1), np.nan)
    return DegreeAccuracy(bin_edges=edges, node_counts=counts, accuracies=accs)


def mean_and_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (Table 6's ± column)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if len(arr) == 0:
        return float("nan"), float("nan")
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return float(arr.mean()), std
