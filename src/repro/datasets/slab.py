"""Write dataset feature slabs for the out-of-core cold tier.

The datasets layer owns slab *production* (features + labels of a
:class:`~repro.datasets.synthetic.Dataset` serialized to the on-disk
format defined in :mod:`repro.slicing.memmap_store`); the slicing layer
owns *consumption* (``MemmapFeatureStore``).
"""

from __future__ import annotations

from pathlib import Path

from ..slicing.memmap_store import write_slab
from .synthetic import Dataset

__all__ = ["write_dataset_slab", "dataset_slab_path"]


def dataset_slab_path(root, dataset_name: str, encoding: str = "raw") -> Path:
    """Canonical slab filename under ``root`` for a dataset + encoding."""
    return Path(root) / f"{dataset_name}.{encoding}.slab"


def write_dataset_slab(dataset: Dataset, path, encoding: str = "raw") -> Path:
    """Serialize a dataset's features and labels to a feature slab.

    ``encoding="raw"`` keeps float16 rows (exact vs the in-RAM store);
    ``encoding="uint8"`` quantizes per-channel (bounded error, half the
    bytes).  The returned path opens with
    :class:`~repro.slicing.memmap_store.MemmapFeatureStore`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return write_slab(path, dataset.features, dataset.labels, encoding=encoding)
