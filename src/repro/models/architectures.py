"""The four GNN architectures evaluated in the paper (Appendix A).

Each model's ``forward(x, adjs)`` consumes a list of MFG layers exactly as
in the appendix listings: per layer, ``x_target = x[:size[1]]`` selects the
destination prefix, the conv maps ``(x, x_target)`` across the bipartite
edges, and inter-layer ReLU+dropout (one ``F.relu_dropout`` node) apply
everywhere but the last layer.

Deviations from the listings (both noted inline):
- Listing 1/4 declare every SAGE conv as hidden->hidden, leaving the class
  prediction dimensionality unresolved (the public SALIENT repo adds a
  projection); GraphSAGE here ends in a hidden->out conv like Listing 2's
  GAT, and SAGE-RI defines the ``self.mlp`` head the listing references but
  never constructs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..nn.layers import BatchNorm1d, Linear, ReLU
from ..nn.module import Identity, Module, ModuleList, Sequential
from ..sampling.mfg import Adj
from ..tensor import Tensor, functional as F

__all__ = ["GraphSAGE", "GAT", "GIN", "SAGERI", "MLP", "build_model", "MODEL_REGISTRY"]


def _as_adj_list(adjs: Sequence) -> list[Adj]:
    return list(adjs)


def _layer_arg(adj):
    """``(conv_edge_arg, size)`` for one MFG layer.

    :class:`Adj` objects are passed to the conv layers whole, so the
    :class:`~repro.tensor.plan.AggregationPlan` the slice stage built on
    them reaches the kernels; raw PyG-style 3-tuples unpack to the edge
    array, for which the conv builds a plan per call.
    """
    if isinstance(adj, Adj):
        return adj, adj.size
    edge_index, _, size = adj
    return edge_index, size


class _SampledGNN(Module):
    """Shared forward skeleton for SAGE/GAT: conv + ReLU + dropout stacks."""

    def __init__(self) -> None:
        super().__init__()
        self.convs = ModuleList()
        self.num_layers = 0
        self.dropout_p = 0.5
        self._rng = np.random.default_rng()

    def forward(self, x: Tensor, adjs: Sequence) -> Tensor:
        adjs = _as_adj_list(adjs)
        if len(adjs) != self.num_layers:
            raise ValueError(
                f"model has {self.num_layers} layers but got {len(adjs)} MFG layers"
            )
        for i, adj in enumerate(adjs):
            edge_arg, size = _layer_arg(adj)
            x_target = x[: size[1]]
            x = self.convs[i]((x, x_target), edge_arg)
            if i != self.num_layers - 1:
                x = F.relu_dropout(
                    x, p=self.dropout_p, training=self.training, rng=self._rng
                )
        return F.log_softmax(x, axis=-1)


class GraphSAGE(_SampledGNN):
    """3-layer (by default) GraphSAGE with mean aggregation (Listing 1)."""

    def __init__(
        self,
        in_channels: int,
        hidden_channels: int,
        out_channels: int,
        num_layers: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_layers < 2:
            raise ValueError("need at least 2 layers")
        from .conv import SAGEConv

        rng = rng or np.random.default_rng()
        self._rng = rng
        self.num_layers = num_layers
        self.hidden_channels = hidden_channels
        kwargs = dict(bias=False, rng=rng)
        self.convs.append(SAGEConv(in_channels, hidden_channels, **kwargs))
        for _ in range(num_layers - 2):
            self.convs.append(SAGEConv(hidden_channels, hidden_channels, **kwargs))
        # Listing 1 ends hidden->hidden; we project to classes here (see
        # module docstring).
        self.convs.append(SAGEConv(hidden_channels, out_channels, **kwargs))


class GAT(_SampledGNN):
    """Single-head GAT stack (Listing 2)."""

    def __init__(
        self,
        in_channels: int,
        hidden_channels: int,
        out_channels: int,
        num_layers: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_layers < 2:
            raise ValueError("need at least 2 layers")
        from .conv import GATConv

        rng = rng or np.random.default_rng()
        self._rng = rng
        self.num_layers = num_layers
        self.hidden_channels = hidden_channels
        kwargs = dict(bias=False, heads=1, rng=rng)
        self.convs.append(GATConv(in_channels, hidden_channels, **kwargs))
        for _ in range(num_layers - 2):
            self.convs.append(GATConv(hidden_channels, hidden_channels, **kwargs))
        self.convs.append(GATConv(hidden_channels, out_channels, **kwargs))


class GIN(Module):
    """GIN stack with per-layer BatchNorm MLPs and a 2-layer head (Listing 3)."""

    def __init__(
        self,
        in_channels: int,
        hidden_channels: int,
        out_channels: int,
        num_layers: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_layers < 2:
            raise ValueError("need at least 2 layers")
        from .conv import GINConv

        rng = rng or np.random.default_rng()
        self._rng = rng
        self.num_layers = num_layers
        self.hidden_channels = hidden_channels
        self.convs = ModuleList()

        def make_mlp(first_dim: int) -> Sequential:
            return Sequential(
                Linear(first_dim, hidden_channels, rng=rng),
                BatchNorm1d(hidden_channels),
                ReLU(),
                Linear(hidden_channels, hidden_channels, rng=rng),
                ReLU(),
            )

        self.convs.append(GINConv(make_mlp(in_channels)))
        for _ in range(num_layers - 1):
            self.convs.append(GINConv(make_mlp(hidden_channels)))
        self.lin1 = Linear(hidden_channels, hidden_channels, rng=rng)
        self.lin2 = Linear(hidden_channels, out_channels, rng=rng)

    def forward(self, x: Tensor, adjs: Sequence) -> Tensor:
        adjs = _as_adj_list(adjs)
        if len(adjs) != self.num_layers:
            raise ValueError(
                f"model has {self.num_layers} layers but got {len(adjs)} MFG layers"
            )
        # GIN's MLPs mix channels per layer; the input projection happens in
        # the first conv's MLP. A sum aggregation is used throughout.
        for i, adj in enumerate(adjs):
            edge_arg, size = _layer_arg(adj)
            x_target = x[: size[1]]
            x = self.convs[i]((x, x_target), edge_arg)
        x = F.relu_dropout(self.lin1(x), p=0.5, training=self.training, rng=self._rng)
        x = self.lin2(x)
        return F.log_softmax(x, axis=-1)


class SAGERI(Module):
    """GraphSAGE-RI: residual connections + Inception-style head (Listing 4).

    Collects the target-prefix activations of the raw input and every layer,
    concatenates them, and predicts from the concatenation through an MLP
    (which the listing references as ``self.mlp``; constructed here as
    Linear -> BatchNorm -> LeakyReLU -> Linear).
    """

    def __init__(
        self,
        in_channels: int,
        hidden_channels: int,
        out_channels: int,
        num_layers: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_layers < 2:
            raise ValueError("need at least 2 layers")
        from .conv import SAGEConv

        rng = rng or np.random.default_rng()
        self._rng = rng
        self.num_layers = num_layers
        self.hidden_channels = hidden_channels
        self.dropout_p = 0.1
        kwargs = dict(bias=False, rng=rng)

        self.convs = ModuleList()
        self.bns = ModuleList()
        self.res_linears = ModuleList()
        self.convs.append(SAGEConv(in_channels, hidden_channels, **kwargs))
        self.bns.append(BatchNorm1d(hidden_channels))
        self.res_linears.append(Linear(in_channels, hidden_channels, rng=rng))
        for _ in range(num_layers - 1):
            self.convs.append(SAGEConv(hidden_channels, hidden_channels, **kwargs))
            self.bns.append(BatchNorm1d(hidden_channels))
            self.res_linears.append(Identity())

        concat_dim = in_channels + num_layers * hidden_channels
        self.mlp = Sequential(
            Linear(concat_dim, 2 * hidden_channels, rng=rng),
            BatchNorm1d(2 * hidden_channels),
            ReLU(),
            Linear(2 * hidden_channels, out_channels, rng=rng),
        )

    def forward(self, x: Tensor, adjs: Sequence) -> Tensor:
        adjs = _as_adj_list(adjs)
        if len(adjs) != self.num_layers:
            raise ValueError(
                f"model has {self.num_layers} layers but got {len(adjs)} MFG layers"
            )
        collect: list[Tensor] = []
        end_size = adjs[-1].size[1]
        p, training, rng = self.dropout_p, self.training, self._rng
        x = F.dropout(x, p=p, training=training, rng=rng)
        collect.append(x[:end_size])
        for i, adj in enumerate(adjs):
            edge_arg, size = _layer_arg(adj)
            x_target = x[: size[1]]
            h = self.convs[i](
                (
                    F.dropout(x, p=p, training=training, rng=rng),
                    F.dropout(x_target, p=p, training=training, rng=rng),
                ),
                edge_arg,
            )
            h = self.bns[i](h)
            h = F.leaky_relu(h)
            h = F.dropout(h, p=p, training=training, rng=rng)
            collect.append(h[:end_size])
            x = h + self.res_linears[i](x_target)
        return F.log_softmax(self.mlp(Tensor.concat(collect, axis=-1)), axis=-1)


class MLP(Module):
    """Graph-free baseline: ignores the MFG entirely.

    Not part of the paper's evaluation; used by tests/examples to verify the
    synthetic datasets actually require neighborhood aggregation.
    """

    def __init__(
        self,
        in_channels: int,
        hidden_channels: int,
        out_channels: int,
        num_layers: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self._rng = rng
        self.num_layers = num_layers
        self.lins = ModuleList()
        self.lins.append(Linear(in_channels, hidden_channels, rng=rng))
        for _ in range(num_layers - 2):
            self.lins.append(Linear(hidden_channels, hidden_channels, rng=rng))
        self.lins.append(Linear(hidden_channels, out_channels, rng=rng))

    def forward(self, x: Tensor, adjs: Sequence) -> Tensor:
        adjs = _as_adj_list(adjs)
        end_size = adjs[-1].size[1] if adjs else x.shape[0]
        x = x[:end_size]
        for i, lin in enumerate(self.lins):
            x = lin(x)
            if i != len(self.lins) - 1:
                x = F.relu_dropout(x, p=0.5, training=self.training, rng=self._rng)
        return F.log_softmax(x, axis=-1)


MODEL_REGISTRY = {
    "sage": GraphSAGE,
    "gat": GAT,
    "gin": GIN,
    "sage-ri": SAGERI,
    "mlp": MLP,
}


def build_model(
    name: str,
    in_channels: int,
    hidden_channels: int,
    out_channels: int,
    num_layers: int = 3,
    rng: Optional[np.random.Generator] = None,
) -> Module:
    """Instantiate a registered architecture by name."""
    if name not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[name](
        in_channels, hidden_channels, out_channels, num_layers=num_layers, rng=rng
    )
