"""Benchmark-harness fixtures shared across bench files."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.datasets import get_dataset

from common import DATASET_SCALES


@pytest.fixture(scope="session")
def bench_datasets():
    """The three scaled stand-in datasets (cached across bench files)."""
    return {
        name: get_dataset(name, scale=scale, seed=0)
        for name, scale in DATASET_SCALES.items()
    }
