"""Compressed sparse row (CSR) graph storage.

The entire system — samplers, slicers, generators — operates on this
structure, mirroring the role of ``torch_sparse.SparseTensor`` in the
original SALIENT code. Adjacency is stored as two int arrays:

- ``indptr``:  shape ``(num_nodes + 1,)``; neighbors of node ``v`` live in
  ``indices[indptr[v]:indptr[v+1]]``.
- ``indices``: shape ``(num_edges,)``; flattened adjacency lists.

Edges are directed ``v -> indices[...]`` ("outgoing" adjacency). For GNN
message passing the convention is that ``neighbors(v)`` returns the nodes
whose representations ``v`` aggregates, i.e. in-neighbors of ``v`` in the
message-flow sense; building the graph undirected (as the paper does for all
datasets) makes the distinction moot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

__all__ = ["CSRGraph"]


@dataclass
class CSRGraph:
    """Immutable CSR adjacency structure."""

    indptr: np.ndarray
    indices: np.ndarray
    num_nodes: int = field(default=-1)

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        if self.num_nodes < 0:
            self.num_nodes = len(self.indptr) - 1
        self.validate()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D")
        if len(self.indptr) != self.num_nodes + 1:
            raise ValueError(
                f"indptr length {len(self.indptr)} != num_nodes+1 ({self.num_nodes + 1})"
            )
        if self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if self.indptr[-1] != len(self.indices):
            raise ValueError(
                f"indptr[-1]={self.indptr[-1]} != num_edges ({len(self.indices)})"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.num_nodes
        ):
            raise ValueError("indices contain out-of-range node ids")

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return int(len(self.indices))

    def degree(self, v: Optional[int] = None) -> np.ndarray | int:
        """Out-degree of node ``v``, or the full degree vector if None."""
        if v is None:
            return np.diff(self.indptr)
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of node ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over (src, dst) pairs. O(E); intended for tests/tools."""
        for v in range(self.num_nodes):
            for u in self.neighbors(v):
                yield (v, int(u))

    def edge_index(self) -> np.ndarray:
        """Return a ``(2, E)`` COO edge array (src row, dst row)."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degree())
        return np.stack([src, self.indices])

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "CSRGraph":
        """Return the graph with all edges reversed (CSC of this one)."""
        order = np.argsort(self.indices, kind="stable")
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degree())
        new_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        counts = np.bincount(self.indices, minlength=self.num_nodes)
        np.cumsum(counts, out=new_indptr[1:])
        return CSRGraph(new_indptr, src[order], self.num_nodes)

    def is_undirected(self) -> bool:
        """True if for every edge (u, v) the reverse edge (v, u) exists."""
        fwd = self.edge_index()
        key_fwd = fwd[0] * self.num_nodes + fwd[1]
        key_rev = fwd[1] * self.num_nodes + fwd[0]
        return bool(np.array_equal(np.sort(key_fwd), np.sort(key_rev)))

    def memory_bytes(self) -> int:
        """Bytes consumed by the adjacency arrays (for the perf model)."""
        return self.indptr.nbytes + self.indices.nbytes

    def __repr__(self) -> str:
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
