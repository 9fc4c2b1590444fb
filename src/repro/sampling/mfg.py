"""Message-flow graphs (MFGs): the output format of neighborhood sampling.

An MFG for an L-layer GNN is a sequence of bipartite graphs ("Adj" layers in
PyG parlance). We follow the PyG ``NeighborSampler`` conventions so the
model listings from the paper's appendix port verbatim:

- ``n_id`` holds the *global* ids of every node involved, with the batch's
  target nodes first; newly discovered nodes append in discovery order.
- Each :class:`Adj` layer has ``size = (n_src, n_dst)`` and the destination
  nodes of a layer are exactly the first ``n_dst`` entries of its source
  set — hence the idiomatic ``x_target = x[:size[1]]`` in model code.
- ``adjs`` are ordered as consumed by the model: ``adjs[0]`` is the widest
  (input-side) layer. Sampling proceeds in the opposite order (from the batch
  outward), so samplers build the list reversed and flip it at the end.

A layer is stored the way the compute reads it (paper Section 4.1: the
sampler builds each MFG directly in the sparse form the model consumes): a
CSR over destinations, ``indptr`` (``n_dst + 1`` offsets) and ``indices``
(local source ids, in edge order within each destination), int32 whenever
every value fits.  Its :class:`~repro.tensor.plan.AggregationPlan` takes
those arrays as is, and they are all a transfer moves of the layer
(Section 4.3); ``n_id`` stays on the host, where slicing reads it.  PyG's
local ``(2, E)`` int64 ``edge_index`` is derived on access for the
PyG-shaped API (``__iter__``, the samplers' hop contract, tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..tensor.plan import AggregationPlan, csr_index_dtype, csr_rows, group_by_dst

__all__ = ["Adj", "MFG"]


class Adj:
    """One bipartite message-passing layer, as a CSR over destinations.

    Messages flow source -> destination; destination ``j``'s edges come
    from sources ``indices[indptr[j]:indptr[j + 1]]``.  Structure and
    ranges are checked here, once, where the layer is built: ``indptr``
    has ``n_dst + 1`` non-decreasing entries from 0 to ``len(indices)``,
    every index lies in ``[0, n_src)`` and ``n_dst <= n_src`` (the
    destinations are a prefix of the sources).  Both arrays are stored in
    :func:`~repro.tensor.plan.csr_index_dtype` — int32 when every value
    fits, else int64.
    """

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, size: tuple[int, int]
    ) -> None:
        n_src, n_dst = int(size[0]), int(size[1])
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        for name, array in (("indptr", indptr), ("indices", indices)):
            if array.ndim != 1 or array.dtype.kind not in "iu":
                raise ValueError(f"{name} must be a 1-D integer array")
        if n_dst > n_src:
            raise ValueError(
                f"destination set ({n_dst}) must be a prefix of sources ({n_src})"
            )
        if indptr.shape[0] != n_dst + 1:
            raise ValueError(
                f"indptr has {indptr.shape[0]} entries, want n_dst + 1 = {n_dst + 1}"
            )
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise ValueError("indptr must run from 0 to the number of edges")
        if np.any(indptr[1:] < indptr[:-1]):
            raise ValueError("indptr must be non-decreasing")
        if indices.shape[0] and (indices.min() < 0 or indices.max() >= n_src):
            raise ValueError("source ids out of range")
        dtype = csr_index_dtype(n_src, indices.shape[0])
        self.indptr = np.ascontiguousarray(indptr, dtype=dtype)
        self.indices = np.ascontiguousarray(indices, dtype=dtype)
        self.size = (n_src, n_dst)
        #: the layer's segment-reduction plan, built once per batch in the
        #: prepare stage (:meth:`build_plan`) and reused by every layer pass
        self.plan: Optional[AggregationPlan] = None

    @classmethod
    def from_edge_index(cls, edge_index: np.ndarray, size: tuple[int, int]) -> "Adj":
        """A layer from a PyG-style local ``(2, E)`` edge index.

        Edges are grouped by destination with one stable sort
        (:func:`~repro.tensor.plan.group_by_dst`, as the COO plan groups
        them), so each destination keeps its edges in their original order
        and the gather operator is the one the COO plan builds.
        """
        edge_index = np.asarray(edge_index)
        if (
            edge_index.ndim != 2
            or edge_index.shape[0] != 2
            or edge_index.dtype.kind not in "iu"
        ):
            raise ValueError(f"edge_index must be integer (2, E), got {edge_index.shape}")
        indptr, indices, _ = group_by_dst(edge_index[0], edge_index[1], *size)
        return cls(indptr, indices, size)

    @property
    def num_edges(self) -> int:
        return self.indices.shape[0]

    @property
    def edge_index(self) -> np.ndarray:
        """PyG's local ``(2, E)`` int64 edge index, derived on each access
        (destination-sorted; nothing on the compute path reads it)."""
        edge_index = np.empty((2, self.num_edges), dtype=np.int64)
        edge_index[0] = self.indices
        edge_index[1] = csr_rows(self.indptr)
        return edge_index

    def build_plan(self) -> AggregationPlan:
        """Build (and cache) this layer's :class:`AggregationPlan`."""
        if self.plan is None:
            self.plan = AggregationPlan.from_csr(self.indptr, self.indices, *self.size)
        return self.plan

    def nbytes(self) -> int:
        """Bytes a transfer moves for this layer: the CSR the plan reads
        (the plan itself is host-side metadata over the same arrays)."""
        return self.indptr.nbytes + self.indices.nbytes

    def __iter__(self) -> Iterator:
        """Unpack as ``(edge_index, e_id, size)`` like PyG's Adj namedtuple
        (``e_id`` is always ``None``: sampled layers carry no edge ids)."""
        return iter((self.edge_index, None, self.size))

    def __repr__(self) -> str:
        return f"Adj(E={self.num_edges}, size={self.size}, dtype={self.indices.dtype})"


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
        """Bytes of adjacency payload a transfer moves: every layer's CSR
        (``n_id`` stays on the host, where slicing reads it)."""
        return sum(adj.nbytes() for adj in self.adjs)

    def build_plans(self) -> None:
        """Build every layer's :class:`AggregationPlan` (idempotent)."""
        for adj in self.adjs:
            adj.build_plan()

    def validate(self) -> None:
        """Check the MFG invariants across layers (telescoping sizes, ``n_id``);
        each :class:`Adj` checked its own structure where it was built."""
        if self.batch_size <= 0 or self.batch_size > len(self.n_id):
            raise ValueError("batch_size out of range")
        if not self.adjs:
            raise ValueError("MFG must have at least one layer")
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

