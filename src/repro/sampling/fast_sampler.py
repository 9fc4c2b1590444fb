"""SALIENT's performance-engineered neighborhood sampler.

Implements the winning design points from the paper's Figure 2 exploration,
translated to the numpy substrate:

1. **Array-based global-to-local ID map** instead of a hash map: a
   persistent index array of size ``num_nodes`` (int32 when the graph
   fits), reset lazily after each batch by touching only used entries. In
   the paper this was the flat-array swiss-table replacement worth ~2x.
2. **Array-set deduplication**: newly discovered nodes are deduplicated with
   vectorized first-occurrence selection rather than per-element hash-set
   probing (the paper's "array instead of hash table for the set", +17%).
3. **Fused sampling + MFG construction**: neighbor selection, ID remapping
   and bipartite-layer assembly happen in one pass over flat arrays; no
   staged intermediate per-node Python lists.  A hop's selected edges are
   already grouped by destination, so each layer leaves the hop as the
   int32 CSR the compute reads (its ``indptr`` is the selection's prefix
   sum, its ``indices`` the deduplicated local sources), with no COO
   intermediate.
4. **O(fanout) selection on an arena**: per-sampler persistent scratch
   buffers (:mod:`repro.sampling.arena`) make every hop allocation-free after
   warm-up; an over-degree destination draws its ``fanout`` neighbour
   positions with Floyd's algorithm and only those edges are gathered, so no
   hop ever builds the candidate edge list, keys it or sorts it.

On the numpy substrate, "performance-engineering" means the entire hop is a
fixed number of vectorized kernels over the *selected* edges (``fanout``
passes of the Floyd draw, a row-wise sort of ``fanout`` positions, the
gather, O(selected) dedup), with zero per-node Python work, versus the
reference sampler's per-node dict/set loops.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from ..telemetry import MetricsRegistry
from ..tensor.plan import csr_index_dtype
from .arena import SamplerArena, expand_frontier_arena, first_occurrence_dedup
from .base import NeighborSamplerBase, _checked_fanouts
from .mfg import MFG, Adj

__all__ = ["FastNeighborSampler"]


class FastNeighborSampler(NeighborSamplerBase):
    """Fused, array-mapped, vectorized multi-hop sampler (SALIENT)."""

    def __init__(self, graph: CSRGraph, fanouts: Sequence[Optional[int]]) -> None:
        super().__init__(graph, fanouts)
        # Node ids, edge offsets and local ids all fit the graph's CSR index
        # dtype (int32 below 2**31 nodes and edges): the ID map and every
        # arena index buffer use it.
        index_dtype = csr_index_dtype(graph.num_nodes, graph.num_edges)
        # Persistent array ID map (design point 1). Reset lazily per batch.
        self._local_of = np.full(graph.num_nodes, -1, dtype=index_dtype)
        self.arena = SamplerArena(index_dtype=index_dtype)
        #: one sink for the sampler and its arena
        self.metrics = self.arena.metrics

    def attach_metrics(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        self.arena.attach_metrics(metrics)

    def sample(
        self,
        batch_nodes: np.ndarray,
        rng: np.random.Generator,
        fanouts: Optional[Sequence[Optional[int]]] = None,
    ) -> MFG:
        fanouts = self.fanouts if fanouts is None else _checked_fanouts(fanouts)
        batch_nodes = self._checked_batch(batch_nodes)
        n_id, adjs = self._expand(batch_nodes, fanouts, rng)
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
            local_of[frontier] = arena.iota(len(frontier))
            for fanout in fanouts:
                n_dst = len(n_id)
                src_sel, indptr = expand_frontier_arena(
                    self.graph, n_id, fanout, rng, arena
                )
                src_local, ordered_new = first_occurrence_dedup(
                    src_sel, local_of, n_dst, arena
                )
                if ordered_new is not None:
                    touched.append(ordered_new)
                    n_id = np.concatenate([n_id, ordered_new])
                # The layer leaves the arena as its compute-ready CSR: one
                # copy of each array in the narrowest index dtype.
                dtype = csr_index_dtype(len(n_id), len(src_sel))
                adjs.append(
                    Adj(indptr.astype(dtype), src_local.astype(dtype), (len(n_id), n_dst))
                )
        finally:
            # Every array in ``touched`` holds validated node ids, so this
            # reset is exception-safe: any failure mid-hop (bad RNG, graph
            # corruption, interrupt) leaves the map all -1 and the sampler
            # reusable.
            for arr in touched:
                local_of[arr] = -1
        return n_id, adjs
