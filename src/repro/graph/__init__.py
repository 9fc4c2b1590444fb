"""Graph substrate: CSR storage, builders, generators."""

from .build import (
    add_self_loops,
    coalesce_edge_index,
    from_edge_index,
    remove_self_loops,
    to_undirected_edge_index,
)
from .csr import CSRGraph
from .generators import (
    CommunityGraph,
    chain_graph,
    complete_graph,
    grid_graph,
    power_law_community_graph,
    star_graph,
)

__all__ = [
    "CSRGraph",
    "from_edge_index",
    "to_undirected_edge_index",
    "coalesce_edge_index",
    "remove_self_loops",
    "add_self_loops",
    "CommunityGraph",
    "power_law_community_graph",
    "star_graph",
    "chain_graph",
    "complete_graph",
    "grid_graph",
]
