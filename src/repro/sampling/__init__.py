"""Neighborhood sampling: MFG structures and sampler backends.

- :class:`PyGNeighborSampler` — dict/hash-set reference (the baseline whose
  bottlenecks Section 3 profiles).
- :class:`FastNeighborSampler` — SALIENT's optimized sampler (Section 4.1).
- :class:`ParameterizedSampler` — the 96-variant design space of Figure 2.
"""

from .arena import (
    SamplerArena,
    expand_frontier_arena,
    first_occurrence_dedup,
    gather_frontier_edges,
)
from .base import BatchIterator, NeighborSamplerBase, full_fanouts
from .design_space import (
    BASELINE_VARIANT,
    WINNING_VARIANT,
    ParameterizedSampler,
    SamplerVariant,
    all_variants,
    expand_hop,
)
from .fast_sampler import FastNeighborSampler, expand_frontier_vectorized
from .mfg import MFG, Adj
from .pyg_sampler import PyGNeighborSampler, sample_adj_reference

__all__ = [
    "MFG",
    "Adj",
    "NeighborSamplerBase",
    "BatchIterator",
    "full_fanouts",
    "PyGNeighborSampler",
    "sample_adj_reference",
    "FastNeighborSampler",
    "expand_frontier_vectorized",
    "SamplerArena",
    "expand_frontier_arena",
    "first_occurrence_dedup",
    "gather_frontier_edges",
    "ParameterizedSampler",
    "SamplerVariant",
    "all_variants",
    "expand_hop",
    "BASELINE_VARIANT",
    "WINNING_VARIANT",
]
