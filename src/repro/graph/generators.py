"""Synthetic graph generators.

The centerpiece is :func:`power_law_community_graph`, a Chung-Lu-style
generator with planted communities and *degree-dependent mixing*: hub nodes
draw a larger fraction of their edges from outside their own community. This
reproduces two properties the paper's evaluation depends on:

1. heavy-tailed degree distributions (which make neighborhood explosion and
   sampler performance realistic), and
2. the Figure-3 phenomenon that high-degree nodes are predicted *less*
   accurately under full-neighborhood inference (their neighborhoods are
   noisier), while low-degree nodes are predicted well even with small
   sampling fanouts.

Small deterministic generators (star/chain/grid/complete) support the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .build import from_edge_index, remove_self_loops
from .csr import CSRGraph

__all__ = [
    "CommunityGraph",
    "power_law_community_graph",
    "star_graph",
    "chain_graph",
    "complete_graph",
    "grid_graph",
]


@dataclass
class CommunityGraph:
    """A generated graph together with its planted structure."""

    graph: CSRGraph
    communities: np.ndarray  # (n,) int community / class id per node
    weights: np.ndarray  # (n,) Chung-Lu expected-degree weights


def _power_law_weights(
    n: int, exponent: float, rng: np.random.Generator
) -> np.ndarray:
    """Zipf-like weights producing a power-law expected degree sequence."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    rng.shuffle(weights)  # decouple node id from degree rank
    return weights


def power_law_community_graph(
    num_nodes: int,
    avg_degree: float,
    num_communities: int = 8,
    exponent: float = 2.5,
    intra_prob: float = 0.85,
    hub_mixing: float = 0.6,
    rng: Optional[np.random.Generator] = None,
) -> CommunityGraph:
    """Generate an undirected power-law graph with planted communities.

    Parameters
    ----------
    num_nodes, avg_degree:
        Size controls. ``avg_degree`` counts undirected edge endpoints, i.e.
        ``num_edges ~ num_nodes * avg_degree / 2`` before symmetrization.
    num_communities:
        Number of planted communities == number of classes downstream.
    exponent:
        Power-law exponent of the expected-degree distribution (2 < e <= 3.5
        is realistic; OGB graphs are around 2.3-3).
    intra_prob:
        Baseline probability that an edge stays inside its source community.
    hub_mixing:
        How much an endpoint's (normalized) weight reduces ``intra_prob``;
        at 0 the mixing is degree-independent, at 1 the heaviest hub mixes
        uniformly.
    """
    if num_nodes < num_communities:
        raise ValueError("need at least one node per community")
    if not 0.0 <= intra_prob <= 1.0 or not 0.0 <= hub_mixing <= 1.0:
        raise ValueError("intra_prob and hub_mixing must be in [0, 1]")
    rng = rng or np.random.default_rng()

    weights = _power_law_weights(num_nodes, exponent, rng)
    prob = weights / weights.sum()
    communities = rng.integers(0, num_communities, size=num_nodes)

    # Per-community member lists and sampling distributions.
    members: list[np.ndarray] = []
    member_probs: list[np.ndarray] = []
    for c in range(num_communities):
        idx = np.flatnonzero(communities == c)
        if len(idx) == 0:  # extremely unlikely; patch with a random node
            idx = rng.integers(0, num_nodes, size=1)
            communities[idx] = c
        members.append(idx)
        w = weights[idx]
        member_probs.append(w / w.sum())

    num_draws = int(num_nodes * avg_degree / 2)
    src = rng.choice(num_nodes, size=num_draws, p=prob)

    # Degree-dependent mixing: hubs (large weight) leak across communities.
    w_norm = weights / weights.max()
    p_intra = intra_prob * (1.0 - hub_mixing * w_norm[src])
    intra = rng.random(num_draws) < p_intra

    dst = np.empty(num_draws, dtype=np.int64)
    inter_idx = np.flatnonzero(~intra)
    if len(inter_idx):
        dst[inter_idx] = rng.choice(num_nodes, size=len(inter_idx), p=prob)
    # Group intra edges by the source's community and sample within it.
    intra_idx = np.flatnonzero(intra)
    if len(intra_idx):
        src_comm = communities[src[intra_idx]]
        order = np.argsort(src_comm, kind="stable")
        sorted_edges = intra_idx[order]
        sorted_comm = src_comm[order]
        boundaries = np.flatnonzero(np.diff(sorted_comm)) + 1
        for chunk, comm in zip(
            np.split(sorted_edges, boundaries),
            np.concatenate([[sorted_comm[0]], sorted_comm[boundaries]]),
        ):
            pool = members[comm]
            dst[chunk] = pool[rng.choice(len(pool), size=len(chunk), p=member_probs[comm])]

    edge_index = remove_self_loops(np.stack([src, dst]))
    graph = from_edge_index(edge_index, num_nodes, undirected=True)
    return CommunityGraph(graph=graph, communities=communities, weights=weights)


def star_graph(num_leaves: int) -> CSRGraph:
    """Node 0 connected to ``num_leaves`` leaves, undirected."""
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    hub = np.zeros(num_leaves, dtype=np.int64)
    edge_index = np.stack([hub, leaves])
    return from_edge_index(edge_index, num_leaves + 1, undirected=True)


def chain_graph(num_nodes: int) -> CSRGraph:
    """Path graph 0-1-2-...-(n-1), undirected."""
    src = np.arange(num_nodes - 1, dtype=np.int64)
    edge_index = np.stack([src, src + 1])
    return from_edge_index(edge_index, num_nodes, undirected=True)


def complete_graph(num_nodes: int) -> CSRGraph:
    """K_n without self loops."""
    src, dst = np.meshgrid(np.arange(num_nodes), np.arange(num_nodes))
    edge_index = np.stack([src.ravel(), dst.ravel()]).astype(np.int64)
    edge_index = remove_self_loops(edge_index)
    return from_edge_index(edge_index, num_nodes, coalesce=False)


def grid_graph(rows: int, cols: int) -> CSRGraph:
    """4-connected grid of ``rows x cols`` nodes."""
    ids = np.arange(rows * cols).reshape(rows, cols)
    right = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
    down = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()])
    edge_index = np.concatenate([right, down], axis=1).astype(np.int64)
    return from_edge_index(edge_index, rows * cols, undirected=True)
