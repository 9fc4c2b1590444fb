"""Synthetic OGB-like datasets, splits and registry."""

from .registry import available_datasets, clear_cache, get_dataset
from .slab import dataset_slab_path, write_dataset_slab
from .splits import Split, make_split
from .synthetic import SPECS, Dataset, SyntheticSpec, generate_dataset

__all__ = [
    "write_dataset_slab",
    "dataset_slab_path",
    "Dataset",
    "SyntheticSpec",
    "SPECS",
    "generate_dataset",
    "get_dataset",
    "available_datasets",
    "clear_cache",
    "Split",
    "make_split",
]
