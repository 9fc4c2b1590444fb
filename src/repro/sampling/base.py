"""Sampler protocol and batch iteration shared by all sampler backends."""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from ..telemetry import MetricsRegistry
from .mfg import MFG, Adj

__all__ = ["NeighborSamplerBase", "BatchIterator"]


def _checked_fanouts(fanouts: Sequence[Optional[int]]) -> list[Optional[int]]:
    if not fanouts:
        raise ValueError("need at least one fanout entry")
    for fanout in fanouts:
        if fanout is not None and fanout < 1:
            raise ValueError(f"fanouts must be >= 1 or None, got {fanout}")
    return list(fanouts)


class NeighborSamplerBase:
    """Node-wise neighborhood sampler over a CSR graph.

    A sampler implements the *hop contract*, :meth:`expand_hop`, and gets
    :meth:`sample` — validation plus the multi-hop loop over it — from this
    class; one that carries state across the hops of a batch (the fast
    sampler's persistent ID map) overrides :meth:`sample` instead.
    Fanouts follow the paper's convention: ``fanouts[0]`` bounds the
    neighbors sampled for the batch itself (the GNN's *last* layer), and the
    produced MFG lists layers in model-consumption order (input side first).
    A fanout of ``None`` keeps the full neighborhood at that hop.
    ``fanouts`` given to :meth:`sample` override the sampler's own for that
    batch, so one sampler (and its scratch state) serves training and
    inference fanouts alike.
    """

    def __init__(self, graph: CSRGraph, fanouts: Sequence[Optional[int]]) -> None:
        self.graph = graph
        self.fanouts = _checked_fanouts(fanouts)

    def attach_metrics(self, metrics: MetricsRegistry) -> None:
        """Redirect telemetry (e.g. to a pipeline's cumulative registry);
        a sampler that records nothing has nothing to redirect."""

    def _checked_batch(self, batch_nodes: np.ndarray) -> np.ndarray:
        """``batch_nodes`` as contiguous ``int64``, checked before any sampler
        state is written: a negative id would silently wrap to the last
        nodes' adjacency and one past the end would raise mid-write."""
        batch_nodes = np.ascontiguousarray(batch_nodes, dtype=np.int64)
        if len(batch_nodes) == 0:
            raise ValueError("empty batch")
        if int(batch_nodes.min()) < 0 or int(batch_nodes.max()) >= self.graph.num_nodes:
            raise ValueError("batch node ids out of range")
        return batch_nodes

    def expand_hop(
        self,
        frontier: np.ndarray,
        fanout: Optional[int],
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One hop: ``(n_id, edge_index)`` for ``frontier``.

        ``n_id`` extends ``frontier`` with newly discovered globals in
        discovery order; ``edge_index`` is local ``(2, E)`` with messages
        flowing ``src -> dst`` and ``dst`` indexing into ``frontier``.
        """
        raise NotImplementedError

    def sample(
        self,
        batch_nodes: np.ndarray,
        rng: np.random.Generator,
        fanouts: Optional[Sequence[Optional[int]]] = None,
    ) -> MFG:
        """Sample a multi-hop MFG for ``batch_nodes`` with ``fanouts``
        (default: the sampler's own)."""
        fanouts = self.fanouts if fanouts is None else _checked_fanouts(fanouts)
        batch_nodes = self._checked_batch(batch_nodes)
        n_id = batch_nodes
        adjs: list[Adj] = []
        for fanout in fanouts:
            new_n_id, edge_index = self.expand_hop(n_id, fanout, rng)
            # The hop contract is COO; the layer is converted once, here.
            adjs.append(Adj.from_edge_index(edge_index, (len(new_n_id), len(n_id))))
            n_id = new_n_id
        adjs.reverse()  # model consumes input-side layer first
        return MFG(n_id=n_id, adjs=adjs, batch_size=len(batch_nodes))


class BatchIterator:
    """Shuffled mini-batch id stream (the sampler's *input* queue).

    Yields ``(2, batch)`` arrays of global node ids. This corresponds to the
    lock-free input queue of destination nodes in SALIENT's batch
    preparation (Section 4.2); the runtime workers pull from it dynamically.
    """

    def __init__(
        self,
        node_ids: np.ndarray,
        batch_size: int,
        shuffle: bool = True,
        drop_last: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.node_ids = np.asarray(node_ids, dtype=np.int64)
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.rng = rng or np.random.default_rng()

    def __len__(self) -> int:
        n = len(self.node_ids)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[np.ndarray]:
        order = (
            self.rng.permutation(len(self.node_ids))
            if self.shuffle
            else np.arange(len(self.node_ids))
        )
        ids = self.node_ids[order]
        stop = len(ids)
        if self.drop_last:
            stop = (stop // self.batch_size) * self.batch_size
        for start in range(0, stop, self.batch_size):
            batch = ids[start : min(start + self.batch_size, stop)]
            if len(batch):
                yield batch
