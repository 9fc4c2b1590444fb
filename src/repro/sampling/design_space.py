"""Parameterized sampler implementation spanning Figure 2's design space.

Section 4.1: "the space of possible design choices and optimizations is too
large to explore manually. We designed a parameterized implementation of
sampled MFG generation to systematically explore this optimization space" —
96 instantiations benchmarked hop-by-hop against a reference trace.

The knobs (3 x 4 x 4 x 2 = 96 variants):

- ``id_map``: structure for global-to-local node ID mapping —
  ``dict`` (hash map, the PyG baseline), ``array`` (flat preallocated array,
  the paper's winning swiss-table-then-array design), ``hybrid``
  (array fast-path for frontier nodes, dict for later discoveries).
- ``sample_set``: set structure backing rejection sampling without
  replacement — ``hashset`` (the STL-hash-set analogue), ``linear_array``
  (linear-scan array: the paper's cache-friendly winner), ``sorted_array``
  (binary-search insert), ``bitmask`` (dense per-degree flag array).
- ``selection``: neighbor-selection algorithm — ``rejection`` (uses
  ``sample_set``), ``fisher_yates`` (partial shuffle), ``reservoir``
  (reservoir sampling), ``random_keys`` (sort-by-key top-k).
- ``fused``: whether sampling and MFG construction happen in one pass
  (SALIENT) or in two staged passes (PyG).

All variants produce identically distributed MFG layers; the bench
(``benchmarks/bench_fig2_design_space.py``) measures their relative
throughput on a fixed hop-by-hop trace, mirroring the paper's
microbenchmark methodology ("benchmark each individual hop of the reference
trace instead of an end-to-end execution").
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from .base import NeighborSamplerBase
from .fast_sampler import FastNeighborSampler

__all__ = [
    "SamplerVariant",
    "ParameterizedSampler",
    "PyGNeighborSampler",
    "all_variants",
    "BASELINE_VARIANT",
    "WINNING_VARIANT",
]

ID_MAPS = ("dict", "array", "hybrid")
SAMPLE_SETS = ("hashset", "linear_array", "sorted_array", "bitmask")
SELECTIONS = ("rejection", "fisher_yates", "reservoir", "random_keys")
FUSIONS = (False, True)


@dataclass(frozen=True)
class SamplerVariant:
    """One point in the sampler design space."""

    id_map: str = "dict"
    sample_set: str = "hashset"
    selection: str = "rejection"
    fused: bool = False

    def __post_init__(self) -> None:
        if self.id_map not in ID_MAPS:
            raise ValueError(f"unknown id_map {self.id_map!r}")
        if self.sample_set not in SAMPLE_SETS:
            raise ValueError(f"unknown sample_set {self.sample_set!r}")
        if self.selection not in SELECTIONS:
            raise ValueError(f"unknown selection {self.selection!r}")

    def label(self) -> str:
        fusion = "fused" if self.fused else "staged"
        return f"{self.id_map}/{self.sample_set}/{self.selection}/{fusion}"

    @property
    def runs_production_hop(self) -> bool:
        """Whether the knobs spell out the paper's winning design — array
        ID map + array set + fused construction: such a variant runs the
        production hop, whatever its ``selection`` says."""
        return (self.id_map, self.sample_set, self.fused) == (
            WINNING_VARIANT.id_map, WINNING_VARIANT.sample_set, WINNING_VARIANT.fused
        )


#: The PyG-like corner of the space (what Figure 2 normalizes against).
BASELINE_VARIANT = SamplerVariant(
    id_map="dict", sample_set="hashset", selection="rejection", fused=False
)
#: The paper's winning configuration (array map + array set + fused).
WINNING_VARIANT = SamplerVariant(
    id_map="array", sample_set="linear_array", selection="rejection", fused=True
)


def all_variants() -> list[SamplerVariant]:
    """Enumerate all 96 instantiations (Figure 2's sweep)."""
    return [
        SamplerVariant(id_map=m, sample_set=s, selection=sel, fused=f)
        for m, s, sel, f in product(ID_MAPS, SAMPLE_SETS, SELECTIONS, FUSIONS)
    ]


# ----------------------------------------------------------------------
# Neighbor-selection strategies (offsets into a node's adjacency list)
# ----------------------------------------------------------------------
# Uniform without replacement by rejection: one function per set structure
# backing the "already picked?" test.
def _reject_hashset(degree: int, fanout: int, rng: np.random.Generator) -> list[int]:
    picks: list[int] = []
    seen: set[int] = set()
    while len(picks) < fanout:
        offset = int(rng.integers(0, degree))
        if offset not in seen:
            seen.add(offset)
            picks.append(offset)
    return picks


def _reject_linear_array(degree: int, fanout: int, rng: np.random.Generator) -> list[int]:
    """Linear membership scan; cache-friendly for small fanouts (the paper's
    winner despite O(k) lookup)."""
    picks: list[int] = []
    while len(picks) < fanout:
        offset = int(rng.integers(0, degree))
        if offset not in picks:  # list scan == linear array search
            picks.append(offset)
    return picks


def _reject_sorted_array(degree: int, fanout: int, rng: np.random.Generator) -> list[int]:
    picks: list[int] = []
    sorted_picks: list[int] = []
    while len(picks) < fanout:
        offset = int(rng.integers(0, degree))
        pos = bisect.bisect_left(sorted_picks, offset)
        if pos == len(sorted_picks) or sorted_picks[pos] != offset:
            sorted_picks.insert(pos, offset)
            picks.append(offset)
    return picks


def _reject_bitmask(degree: int, fanout: int, rng: np.random.Generator) -> list[int]:
    picks: list[int] = []
    flags = np.zeros(degree, dtype=bool)
    while len(picks) < fanout:
        offset = int(rng.integers(0, degree))
        if not flags[offset]:
            flags[offset] = True
            picks.append(offset)
    return picks


_REJECTION_BY_SET = {
    "hashset": _reject_hashset,
    "linear_array": _reject_linear_array,
    "sorted_array": _reject_sorted_array,
    "bitmask": _reject_bitmask,
}


def _select_fisher_yates(degree: int, fanout: int, rng: np.random.Generator) -> list[int]:
    """Partial Fisher-Yates shuffle of the offset range."""
    pool = list(range(degree))
    for i in range(fanout):
        j = int(rng.integers(i, degree))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:fanout]


def _select_reservoir(degree: int, fanout: int, rng: np.random.Generator) -> list[int]:
    """Reservoir sampling over the offset stream."""
    reservoir = list(range(fanout))
    for i in range(fanout, degree):
        j = int(rng.integers(0, i + 1))
        if j < fanout:
            reservoir[j] = i
    return reservoir


def _select_random_keys(degree: int, fanout: int, rng: np.random.Generator) -> list[int]:
    """Assign random keys to all offsets, keep the fanout smallest."""
    keys = rng.random(degree)
    return np.argpartition(keys, fanout)[:fanout].tolist()


_SELECTION_FNS = {
    "fisher_yates": _select_fisher_yates,
    "reservoir": _select_reservoir,
    "random_keys": _select_random_keys,
}


# ----------------------------------------------------------------------
# Global-to-local ID maps
# ----------------------------------------------------------------------
class _DictIdMap:
    """Hash-map mapping (PyG baseline)."""

    def __init__(self, scratch: Optional[np.ndarray], frontier: np.ndarray) -> None:
        self.n_id = frontier.tolist()
        self.map = dict(zip(self.n_id, range(len(self.n_id))))

    def lookup_or_add(self, node: int) -> int:
        local = self.map.get(node)
        if local is None:
            local = len(self.n_id)
            self.map[node] = local
            self.n_id.append(node)
        return local

    def finish(self) -> np.ndarray:
        return np.asarray(self.n_id, dtype=np.int64)


class _ArrayIdMap:
    """Flat-array mapping (the paper's winning structure).

    ``scratch`` is the sampler's persistent all ``-1`` array of ``num_nodes``
    entries (SALIENT's per-thread buffer); :meth:`finish` hands it back
    clean, touching only this hop's nodes.
    """

    def __init__(self, scratch: np.ndarray, frontier: np.ndarray) -> None:
        self.arr = scratch
        self.n_id = frontier.tolist()
        for i, v in enumerate(self.n_id):
            scratch[v] = i

    def lookup_or_add(self, node: int) -> int:
        local = self.arr[node]
        if local < 0:
            local = len(self.n_id)
            self.arr[node] = local
            self.n_id.append(node)
        return int(local)

    def finish(self) -> np.ndarray:
        n_id = np.asarray(self.n_id, dtype=np.int64)
        self.arr[n_id] = -1  # every entry this hop wrote is a node of n_id
        return n_id


class _HybridIdMap(_ArrayIdMap):
    """Array fast-path for the frontier, dict for later discoveries."""

    def __init__(self, scratch: np.ndarray, frontier: np.ndarray) -> None:
        super().__init__(scratch, frontier)
        self.overflow: dict[int, int] = {}

    def lookup_or_add(self, node: int) -> int:
        local = self.arr[node]
        if local >= 0:
            return int(local)
        local = self.overflow.get(node)
        if local is None:
            local = len(self.n_id)
            self.overflow[node] = local
            self.n_id.append(node)
        return local


_ID_MAP_CLASSES = {"dict": _DictIdMap, "array": _ArrayIdMap, "hybrid": _HybridIdMap}


# ----------------------------------------------------------------------
# The sampler
# ----------------------------------------------------------------------
class ParameterizedSampler(NeighborSamplerBase):
    """Multi-hop sampler whose hop kernel is one of the 96 variants."""

    def __init__(
        self,
        graph: CSRGraph,
        fanouts: Sequence[Optional[int]],
        variant: SamplerVariant = BASELINE_VARIANT,
    ) -> None:
        super().__init__(graph, fanouts)
        self.variant = variant
        #: ``(degree, fanout, rng) -> offsets``, called for over-degree nodes;
        #: resolved here so no hop dispatches on the variant per node
        self._select: Callable[[int, int, np.random.Generator], list[int]] = (
            _REJECTION_BY_SET[variant.sample_set]
            if variant.selection == "rejection"
            else _SELECTION_FNS[variant.selection]
        )
        self._id_map_cls = _ID_MAP_CLASSES[variant.id_map]
        # The production-hop variants run FastNeighborSampler's hop, so the
        # Figure 2 sweep both times and cross-checks the sampler that trains
        # instead of a slower copy of the same design. (Every selection
        # strategy is uniform without replacement, so only the RNG stream,
        # not the distribution, differs from the per-element ones.)
        winning = variant.runs_production_hop
        self._fast = FastNeighborSampler(graph, fanouts) if winning else None
        #: the array-backed maps' persistent scratch, all -1 between hops
        self._scratch: Optional[np.ndarray] = None
        if variant.id_map != "dict" and not winning:
            self._scratch = np.full(graph.num_nodes, -1, dtype=np.int64)

    def _sampled_neighbors(
        self,
        frontier: np.ndarray,
        fanout: Optional[int],
        rng: np.random.Generator,
    ) -> Iterator[list[int]]:
        """Each frontier node's sampled neighbor ids (globals), in order."""
        indptr, indices = self.graph.indptr, self.graph.indices
        select = self._select
        bounds = zip(indptr[frontier].tolist(), indptr[frontier + 1].tolist())
        for start, stop in bounds:
            neighbors = indices[start:stop].tolist()
            if fanout is not None and stop - start > fanout:
                offsets = select(stop - start, fanout, rng)
                neighbors = [neighbors[offset] for offset in offsets]
            yield neighbors

    def expand_hop(
        self,
        frontier: np.ndarray,
        fanout: Optional[int],
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One-hop expansion under the variant; returns (n_id, edge_index)."""
        if self._fast is not None:
            return self._fast.expand_hop(frontier, fanout, rng)
        frontier = np.asarray(frontier, dtype=np.int64)
        sampled = self._sampled_neighbors(frontier, fanout, rng)
        if not self.variant.fused:
            # Staged (PyG): pass 1 samples every node's neighbors, pass 2
            # remaps and assembles; fused consumes each node's as drawn.
            sampled = list(sampled)
        rows: list[int] = []
        counts: list[int] = []  # edges per destination, in frontier order
        id_map = self._id_map_cls(self._scratch, frontier)
        try:
            for neighbors in sampled:
                rows.extend(map(id_map.lookup_or_add, neighbors))
                counts.append(len(neighbors))
        finally:
            # also on a failure mid-hop: the scratch outlives this hop
            n_id = id_map.finish()
        edge_index = np.empty((2, len(rows)), dtype=np.int64)
        edge_index[0] = rows
        edge_index[1] = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        return n_id, edge_index


class PyGNeighborSampler(ParameterizedSampler):
    """The design space's baseline corner, PyG's ``NeighborSampler`` at
    Python speed: hash-map ID mapping (a dict), hash-set rejection sampling,
    staged construction. Tables 1-3 and Figures 1-2 normalize against it.
    Constructed from ``(graph, fanouts)`` like every sampler a pipeline
    worker rebuilds.
    """

    def __init__(self, graph: CSRGraph, fanouts: Sequence[Optional[int]]) -> None:
        super().__init__(graph, fanouts, BASELINE_VARIANT)
