"""SALIENT's performance-engineered neighborhood sampler.

Implements the winning design points from the paper's Figure 2 exploration,
translated to the numpy substrate:

1. **Array-based global-to-local ID map** instead of a hash map: a
   persistent ``int64`` array of size ``num_nodes`` (reset lazily after each
   batch by touching only used entries). In the paper this was the
   flat-array swiss-table replacement worth ~2x.
2. **Array-set deduplication**: newly discovered nodes are deduplicated with
   vectorized first-occurrence selection rather than per-element hash-set
   probing (the paper's "array instead of hash table for the set", +17%).
3. **Fused sampling + MFG construction**: neighbor selection, ID remapping
   and bipartite-layer assembly happen in one pass over flat arrays; no
   staged intermediate per-node Python lists.
4. **Arena-allocated hot path**: per-sampler persistent scratch buffers
   (:mod:`repro.sampling.arena`) make every hop allocation-free after
   warm-up, dedup O(D) via the persistent map (no ``np.unique`` sort), and
   fanout selection a *split path* that copies under-degree segments
   verbatim and sorts only the over-degree remainder.

:func:`expand_frontier_vectorized` is the readable reference formulation of
one hop's selection (gather everything, one key per edge, full ``lexsort``):
it consumes the RNG stream exactly like the arena kernel and emits edges in
the same canonical adjacency order, so ``tests/sampling/test_arena.py`` and
``test_properties.py`` hold the arena kernel to it byte for byte. No sampler
runs it.

On the numpy substrate, "performance-engineering" means the entire hop is a
fixed number of O(D) vectorized kernels (D = total frontier degree) plus a
single stable sort of the over-degree edges, with zero per-node Python
work, versus the reference sampler's per-node dict/set loops.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from ..telemetry import MetricsRegistry
from .arena import SamplerArena, expand_frontier_arena, first_occurrence_dedup
from .base import NeighborSamplerBase
from .mfg import MFG, Adj

__all__ = ["FastNeighborSampler", "expand_frontier_vectorized"]


def _gather_all_edges(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All incident edges of ``frontier``: (src_global, dst_local, degrees)."""
    degrees = indptr[frontier + 1] - indptr[frontier]
    total = int(degrees.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, degrees
    starts = np.repeat(indptr[frontier], degrees)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(degrees) - degrees, degrees
    )
    src_global = indices[starts + offsets]
    dst_local = np.repeat(np.arange(len(frontier), dtype=np.int64), degrees)
    return src_global, dst_local, degrees


def expand_frontier_vectorized(
    graph: CSRGraph,
    frontier: np.ndarray,
    fanout: Optional[int],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One-hop uniform without-replacement expansion, fully vectorized.

    The reference kernel the arena kernel is tested against: gathers every
    candidate edge, draws one uniform key per edge, and keeps the ``fanout``
    smallest keys per destination segment via a full-array ``lexsort`` — an
    exchangeable scheme equivalent to uniform sampling without replacement.

    Returns ``(src_global, dst_local)`` for the selected edges in canonical
    adjacency order (ascending candidate-edge position), the same order the
    arena split path emits, so the two kernels are interchangeable under a
    shared RNG stream.
    """
    indptr, indices = graph.indptr, graph.indices
    src_global, dst_local, degrees = _gather_all_edges(indptr, indices, frontier)
    if fanout is None or len(src_global) == 0 or degrees.max() <= fanout:
        return src_global, dst_local

    total = len(src_global)
    keys = rng.random(total)
    # Candidate edges are already grouped by destination; lexsort orders by
    # (segment, key) so each segment's smallest-key edges come first.
    order = np.lexsort((keys, dst_local))
    seg_starts = np.cumsum(degrees) - degrees
    rank_in_segment = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, degrees)
    cap = np.minimum(degrees, fanout)
    keep_sorted = rank_in_segment < np.repeat(cap, degrees)
    # Canonical adjacency order: selection happens in key order, output in
    # original candidate order (a boolean mask preserves it).
    keep = np.zeros(total, dtype=bool)
    keep[order[keep_sorted]] = True
    return src_global[keep], dst_local[keep]


class FastNeighborSampler(NeighborSamplerBase):
    """Fused, array-mapped, vectorized multi-hop sampler (SALIENT)."""

    def __init__(self, graph: CSRGraph, fanouts: Sequence[Optional[int]]) -> None:
        super().__init__(graph, fanouts)
        # Persistent array ID map (design point 1). Reset lazily per batch.
        self._local_of = np.full(graph.num_nodes, -1, dtype=np.int64)
        self.arena = SamplerArena()
        #: one sink for the sampler and its arena
        self.metrics = self.arena.metrics

    def attach_metrics(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        self.arena.attach_metrics(metrics)

    def sample(self, batch_nodes: np.ndarray, rng: np.random.Generator) -> MFG:
        batch_nodes = self._checked_batch(batch_nodes)
        n_id, adjs = self._expand(batch_nodes, self.fanouts, rng)
        adjs.reverse()
        self.metrics.counter("sampler_batches").inc()
        return MFG(n_id=n_id, adjs=adjs, batch_size=len(batch_nodes))

    def expand_hop(
        self,
        frontier: np.ndarray,
        fanout: Optional[int],
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The production hop under the hop contract (Figure 2's winning
        corner runs this)."""
        n_id, (adj,) = self._expand(self._checked_batch(frontier), [fanout], rng)
        return n_id, adj.edge_index

    def _expand(
        self,
        frontier: np.ndarray,
        fanouts: Sequence[Optional[int]],
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, list[Adj]]:
        """Expand validated ``frontier`` one hop per entry of ``fanouts``;
        the ID map holds every discovered node across those hops and is all
        -1 again on return. Layers come back batch side first."""
        local_of = self._local_of
        arena = self.arena
        touched: list[np.ndarray] = []
        n_id = frontier.copy()
        adjs: list[Adj] = []
        try:
            touched.append(frontier)
            local_of[frontier] = np.arange(len(frontier), dtype=np.int64)
            for fanout in fanouts:
                n_dst = len(n_id)
                src_sel, dst_sel = expand_frontier_arena(
                    self.graph, n_id, fanout, rng, arena
                )
                src_local, ordered_new = first_occurrence_dedup(
                    src_sel, local_of, n_dst, arena
                )
                if ordered_new is not None:
                    touched.append(ordered_new)
                    n_id = np.concatenate([n_id, ordered_new])
                n_edges = len(src_sel)
                edge_index = np.empty((2, n_edges), dtype=np.int64)
                edge_index[0] = src_local
                edge_index[1] = dst_sel
                adjs.append(
                    Adj(edge_index=edge_index, e_id=None, size=(len(n_id), n_dst))
                )
        finally:
            # Every array in ``touched`` holds validated node ids, so this
            # reset is exception-safe: any failure mid-hop (bad RNG, graph
            # corruption, interrupt) leaves the map all -1 and the sampler
            # reusable.
            for arr in touched:
                local_of[arr] = -1
        return n_id, adjs
