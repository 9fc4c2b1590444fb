"""Message-flow graphs (MFGs): the output format of neighborhood sampling.

An MFG for an L-layer GNN is a sequence of bipartite graphs ("Adj" layers in
PyG parlance). We follow the PyG ``NeighborSampler`` conventions exactly so
the model listings from the paper's appendix port verbatim:

- ``n_id`` holds the *global* ids of every node involved, with the batch's
  target nodes first; newly discovered nodes append in discovery order.
- Each :class:`Adj` layer has ``edge_index`` (2, E) in *local* ids,
  ``size = (n_src, n_dst)``, and the destination nodes of a layer are exactly
  the first ``n_dst`` entries of its source set — hence the idiomatic
  ``x_target = x[:size[1]]`` in model code.
- ``adjs`` are ordered as consumed by the model: ``adjs[0]`` is the widest
  (input-side) layer. Sampling proceeds in the opposite order (from the batch
  outward), so samplers build the list reversed and flip it at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from ..tensor.plan import AggregationPlan

__all__ = ["Adj", "MFG"]


@dataclass
class Adj:
    """One bipartite message-passing layer.

    ``edge_index[0]`` are source-local ids (range ``[0, size[0])``),
    ``edge_index[1]`` are destination-local ids (range ``[0, size[1])``).
    Messages flow source -> destination.
    """

    edge_index: np.ndarray
    e_id: Optional[np.ndarray]
    size: tuple[int, int]
    #: optional precomputed segment-reduction metadata, built once per batch
    #: in the prepare/slice stage and reused by every layer pass; excluded
    #: from iteration/compare so the PyG 3-tuple contract is unchanged.
    plan: Optional[AggregationPlan] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.edge_index = np.ascontiguousarray(self.edge_index, dtype=np.int64)
        if self.edge_index.ndim != 2 or self.edge_index.shape[0] != 2:
            raise ValueError(f"edge_index must be (2, E), got {self.edge_index.shape}")
        self.size = (int(self.size[0]), int(self.size[1]))

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[1]

    def validate(self) -> None:
        n_src, n_dst = self.size
        if n_dst > n_src:
            raise ValueError(
                f"destination set ({n_dst}) must be a prefix of sources ({n_src})"
            )
        if self.num_edges:
            if self.edge_index[0].max() >= n_src or self.edge_index[0].min() < 0:
                raise ValueError("source ids out of range")
            if self.edge_index[1].max() >= n_dst or self.edge_index[1].min() < 0:
                raise ValueError("destination ids out of range")

    def build_plan(self) -> AggregationPlan:
        """Build (and cache) this layer's :class:`AggregationPlan`."""
        if self.plan is None:
            self.plan = AggregationPlan.from_edge_index(self.edge_index, self.size)
        return self.plan

    def nbytes(self) -> int:
        # Plans are prepare-stage metadata, deliberately excluded from the
        # transfer accounting (the paper's pipeline moves features/topology).
        e_id_bytes = self.e_id.nbytes if self.e_id is not None else 0
        return self.edge_index.nbytes + e_id_bytes

    def __iter__(self) -> Iterator:
        """Unpack as ``(edge_index, e_id, size)`` like PyG's Adj namedtuple."""
        return iter((self.edge_index, self.e_id, self.size))


@dataclass
class MFG:
    """A sampled multi-hop neighborhood for one mini-batch."""

    n_id: np.ndarray  # global node ids; batch targets first
    adjs: list[Adj]  # input-side layer first (model consumption order)
    batch_size: int

    def __post_init__(self) -> None:
        self.n_id = np.ascontiguousarray(self.n_id, dtype=np.int64)

    @property
    def num_layers(self) -> int:
        return len(self.adjs)

    @property
    def num_input_nodes(self) -> int:
        """Size of the widest node set (rows of the feature slice)."""
        return self.adjs[0].size[0] if self.adjs else len(self.n_id)

    def target_ids(self) -> np.ndarray:
        """Global ids of the batch's target nodes."""
        return self.n_id[: self.batch_size]

    def total_edges(self) -> int:
        return sum(adj.num_edges for adj in self.adjs)

    def nbytes(self) -> int:
        """Bytes of adjacency payload (what data transfer must move)."""
        return self.n_id.nbytes + sum(adj.nbytes() for adj in self.adjs)

    def build_plans(self) -> None:
        """Build every layer's :class:`AggregationPlan` (idempotent)."""
        for adj in self.adjs:
            adj.build_plan()

    def validate(self) -> None:
        """Check all MFG invariants (telescoping sizes, prefix property)."""
        if self.batch_size <= 0 or self.batch_size > len(self.n_id):
            raise ValueError("batch_size out of range")
        if not self.adjs:
            raise ValueError("MFG must have at least one layer")
        for adj in self.adjs:
            adj.validate()
        # Telescoping: each layer's destination set is the next layer's source set.
        for inner, outer in zip(self.adjs[1:], self.adjs[:-1]):
            if outer.size[1] != inner.size[0]:
                raise ValueError(
                    f"layer sizes do not telescope: {outer.size} -> {inner.size}"
                )
        if self.adjs[-1].size[1] != self.batch_size:
            raise ValueError(
                f"innermost destination count {self.adjs[-1].size[1]} != "
                f"batch size {self.batch_size}"
            )
        if self.adjs[0].size[0] != len(self.n_id):
            raise ValueError(
                f"outermost source count {self.adjs[0].size[0]} != len(n_id) "
                f"{len(self.n_id)}"
            )
        if len(np.unique(self.n_id)) != len(self.n_id):
            raise ValueError("n_id contains duplicates")

