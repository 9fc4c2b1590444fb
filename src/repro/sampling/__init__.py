"""Neighborhood sampling: MFG structures and sampler backends.

- :class:`FastNeighborSampler` — SALIENT's optimized sampler (Section 4.1).
- :class:`ParameterizedSampler` — the 96-variant design space of Figure 2.
- :class:`PyGNeighborSampler` — that space's baseline corner (dict map,
  hash-set rejection, staged), whose bottlenecks Section 3 profiles.
"""

from .arena import SamplerArena, expand_frontier_arena, first_occurrence_dedup
from .base import BatchIterator, NeighborSamplerBase
from .design_space import (
    BASELINE_VARIANT,
    WINNING_VARIANT,
    ParameterizedSampler,
    PyGNeighborSampler,
    SamplerVariant,
    all_variants,
)
from .fast_sampler import FastNeighborSampler
from .mfg import MFG, Adj

__all__ = [
    "MFG",
    "Adj",
    "NeighborSamplerBase",
    "BatchIterator",
    "PyGNeighborSampler",
    "FastNeighborSampler",
    "SamplerArena",
    "expand_frontier_arena",
    "first_occurrence_dedup",
    "ParameterizedSampler",
    "SamplerVariant",
    "all_variants",
    "BASELINE_VARIANT",
    "WINNING_VARIANT",
]
