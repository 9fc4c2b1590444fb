"""Dataset registry with caching.

``get_dataset("products")`` returns the scaled synthetic stand-in; repeated
calls with identical (name, scale, seed) return the same cached instance so
benches and examples do not regenerate graphs needlessly.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .synthetic import SPECS, Dataset, generate_dataset

__all__ = ["get_dataset", "available_datasets", "clear_cache"]

_CACHE: Dict[Tuple[str, float, int], Dataset] = {}


def available_datasets() -> list[str]:
    """Names accepted by :func:`get_dataset`."""
    return sorted(SPECS)


def get_dataset(name: str, scale: float = 1.0, seed: int = 0) -> Dataset:
    """Fetch (and cache) a synthetic dataset instance."""
    key = (name, float(scale), int(seed))
    if key not in _CACHE:
        _CACHE[key] = generate_dataset(name, scale=scale, seed=seed)
    return _CACHE[key]


def clear_cache() -> None:
    _CACHE.clear()
