"""Graph construction utilities: COO -> CSR, undirected closure, coalescing.

All builders are vectorized (sort + cumsum based); no Python-level edge
loops, per the ml-systems guide.

Coalescing encodes each edge as the int64 key ``src * num_nodes + dst``,
sorts the keys once and keeps each key that differs from its predecessor.
Sorted keys are already in (src, dst) order, so the CSR falls straight out
of them: ``indptr`` counts the sorted sources and ``indices`` are the sorted
destinations. The builders do not call ``np.unique``: without
``return_index`` / ``return_inverse`` / ``return_counts``, numpy 2.4 routes
it through a hash table, which on a few million int64 keys is ~60x slower
than the sort it used to do (EXPERIMENTS.md, "Set-up: one sort per graph").
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .csr import CSRGraph

__all__ = [
    "from_edge_index",
    "to_undirected_edge_index",
    "coalesce_edge_index",
    "remove_self_loops",
    "add_self_loops",
]

#: Largest ``num_nodes`` whose keys fit in int64: the largest key is
#: ``num_nodes**2 - 1``.
_MAX_KEYED_NODES = math.isqrt(2**63)


def _check_edge_index(
    edge_index: np.ndarray, num_nodes: Optional[int] = None
) -> np.ndarray:
    edge_index = np.asarray(edge_index, dtype=np.int64)
    if edge_index.ndim != 2 or edge_index.shape[0] != 2:
        raise ValueError(f"edge_index must have shape (2, E), got {edge_index.shape}")
    if num_nodes is not None and edge_index.size:
        lo, hi = edge_index.min(), edge_index.max()
        if lo < 0:
            raise ValueError(f"edge_index has a negative node id ({lo})")
        if hi >= num_nodes:
            raise ValueError(
                f"edge_index references node {hi}, not below num_nodes ({num_nodes})"
            )
    return edge_index


def _coalesced_keys(
    edge_index: np.ndarray, num_nodes: int, undirected: bool = False
) -> np.ndarray:
    """Sorted distinct keys ``src * num_nodes + dst`` of the (checked) edges,
    with every edge's reverse added when ``undirected``."""
    if num_nodes > _MAX_KEYED_NODES:
        raise ValueError(
            f"num_nodes ({num_nodes}) > {_MAX_KEYED_NODES}: edge keys would overflow int64"
        )
    src, dst = edge_index
    key = src * num_nodes + dst
    if undirected:
        key = np.concatenate([key, dst * num_nodes + src])
    if len(key) == 0:
        return key
    key.sort()
    keep = np.empty(len(key), dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    return key[keep]


def coalesce_edge_index(edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    """Sort edges by (src, dst) and drop duplicates."""
    edge_index = _check_edge_index(edge_index, num_nodes)
    return np.stack(np.divmod(_coalesced_keys(edge_index, num_nodes), num_nodes))


def remove_self_loops(edge_index: np.ndarray) -> np.ndarray:
    edge_index = _check_edge_index(edge_index)
    mask = edge_index[0] != edge_index[1]
    return edge_index[:, mask]


def add_self_loops(edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    edge_index = _check_edge_index(edge_index)
    loops = np.arange(num_nodes, dtype=np.int64)
    return np.concatenate([edge_index, np.stack([loops, loops])], axis=1)


def to_undirected_edge_index(edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    """Symmetrize: add each edge's reverse and coalesce duplicates.

    Matches the paper's preprocessing ("all graphs were made undirected").
    """
    edge_index = _check_edge_index(edge_index, num_nodes)
    key = _coalesced_keys(edge_index, num_nodes, undirected=True)
    return np.stack(np.divmod(key, num_nodes))


def from_edge_index(
    edge_index: np.ndarray,
    num_nodes: int,
    undirected: bool = False,
    coalesce: bool = True,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from a ``(2, E)`` COO edge array."""
    edge_index = _check_edge_index(edge_index, num_nodes)
    if undirected or coalesce:
        src, indices = np.divmod(
            _coalesced_keys(edge_index, num_nodes, undirected), num_nodes
        )
    else:
        src, dst = edge_index
        indices = dst[np.argsort(src, kind="stable")]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return CSRGraph(indptr, indices, num_nodes)
