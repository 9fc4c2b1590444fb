"""Host-memory feature store with the baseline's conventional optimizations.

Section 3 lists three optimizations the performance-tuned baseline already
includes, all of which this store implements:

(i)   row-major feature matrix for cache-efficient row slicing;
(ii)  transfers staged through pinned memory (see ``repro.runtime.pinned``);
(iii) half-precision (float16) storage of features in host memory, halving
      slicing and transfer volume, while compute happens in float32: rows
      are sliced and transferred as stored and become float32 only in
      :meth:`FeatureStore.decode`, on the device side of the transfer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["FeatureStore"]


class FeatureStore:
    """Row-major host store for node features and labels.

    The slicing contract — bounds and ``out``-shape checks, label gathers,
    sizes — is written here once.  Slicing returns the *stored* bytes
    (``feature_dtype``); :meth:`decode` is the one place sliced rows become
    the float32 the model computes in.  A store whose rows live elsewhere
    (the on-disk slab of
    :class:`~repro.slicing.memmap_store.MemmapFeatureStore`) sets
    ``features`` / ``labels`` itself and overrides :meth:`_gather` and,
    when its stored rows are not plain floats, :meth:`decode`.
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: Optional[np.ndarray] = None,
        half_precision: Optional[bool] = True,
    ) -> None:
        """``half_precision=None`` keeps the caller's feature dtype as-is
        (required when a store wraps arrays whose exact values must be
        preserved, e.g. the inference and DDP paths).  ``labels=None``
        installs an all-zero placeholder so label-free consumers
        (inference) can still flow through the slicing/transfer stages.
        """
        if features.ndim != 2:
            raise ValueError("features must be 2-D (nodes x channels)")
        if labels is None:
            labels = np.zeros(features.shape[0], dtype=np.int64)
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be 1-D with one entry per node")
        if half_precision is None:
            dtype = features.dtype
        else:
            dtype = np.float16 if half_precision else np.float32
        # ascontiguousarray enforces row-major layout (optimization (i)).
        self.features = np.ascontiguousarray(features, dtype=dtype)
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def feature_dtype(self) -> np.dtype:
        return self.features.dtype

    def row_bytes(self) -> int:
        return self.num_features * self.feature_dtype.itemsize

    def attach_metrics(self, metrics) -> None:
        """Late-bind the registry the store reports into (RAM reports nothing)."""

    def slice_features(
        self, n_id: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Gather feature rows for ``n_id``, optionally into ``out``.

        When ``out`` is a view into a pinned buffer, this is SALIENT's
        "slice directly into pinned memory" path (Section 4.2): one copy
        from the host store into transfer-ready memory, no intermediate.
        """
        if out is not None and out.shape != (len(n_id), self.num_features):
            raise ValueError(
                f"out shape {out.shape} != ({len(n_id)}, {self.num_features})"
            )
        self._check_ids(n_id)
        return self._gather(n_id, out)

    def _gather(self, n_id: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """Rows ``n_id`` (already bounds-checked), into ``out`` if given."""
        if out is None:
            return self.features[n_id]
        # mode="raise" (the default) materializes a hidden full-size
        # temporary before writing to ``out``; the bounds check already done
        # plus mode="clip" keeps the gather truly zero-copy.
        np.take(self.features, n_id, axis=0, out=out, mode="clip")
        return out

    def decode(self, rows: np.ndarray) -> np.ndarray:
        """Sliced ``rows`` as a fresh float32 array (never a view: a pinned
        slot is recycled as soon as its rows have been copied out)."""
        return rows.astype(np.float32)

    def slice_labels(
        self, n_id: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Gather label entries for ``n_id`` (the batch targets)."""
        if out is not None and out.shape != (len(n_id),):
            raise ValueError(f"out shape {out.shape} != ({len(n_id)},)")
        self._check_ids(n_id)
        if out is None:
            return self.labels[n_id]
        np.take(self.labels, n_id, out=out, mode="clip")
        return out

    def _check_ids(self, n_id: np.ndarray) -> None:
        """Every path checks: a negative id would otherwise wrap silently."""
        if len(n_id) == 0:
            return
        lo, hi = int(n_id.min()), int(n_id.max())
        if lo < 0 or hi >= self.num_nodes:
            raise IndexError(
                f"node ids [{lo}, {hi}] out of range for store of "
                f"{self.num_nodes} nodes"
            )
