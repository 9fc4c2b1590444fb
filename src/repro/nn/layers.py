"""Leaf layers: Linear, BatchNorm1d, ReLU, Dropout.

Semantics follow PyTorch defaults so the model listings in the paper's
appendix translate directly.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..tensor import Tensor, functional as F, init
from .module import Module

__all__ = ["Linear", "BatchNorm1d", "ReLU", "LeakyReLU", "Dropout"]


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with PyTorch weight layout."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self._rng = rng or np.random.default_rng()
        self.weight = init.kaiming_uniform(in_features, out_features, rng=self._rng)
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias = init.uniform(-bound, bound, (out_features,), rng=self._rng)
        else:
            self.bias = None

    def reset_parameters(self) -> None:
        self.weight.data[...] = init.kaiming_uniform(
            self.in_features, self.out_features, rng=self._rng
        ).data
        if self.bias is not None:
            bound = 1.0 / math.sqrt(self.in_features)
            self.bias.data[...] = self._rng.uniform(
                -bound, bound, size=(self.out_features,)
            ).astype(np.float32)

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None})"
        )


class BatchNorm1d(Module):
    """Batch normalization over the leading (batch) dimension.

    Training mode normalizes with batch statistics and maintains running
    estimates; eval mode uses the running estimates (needed by GIN and
    SAGE-RI, which the paper trains with BatchNorm layers).
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = init.ones(num_features)
        self.bias = init.zeros(num_features)
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def reset_parameters(self) -> None:
        self.weight.data[...] = 1.0
        self.bias.data[...] = 0.0
        self.running_mean[...] = 0.0
        self.running_var[...] = 1.0

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1d expects (N, {self.num_features}), got {x.shape}"
            )
        if self.training:
            # Fully differentiable batch statistics: gradients flow through
            # the mean and variance, matching torch.nn.BatchNorm1d.
            mean = x.mean(axis=0, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=0, keepdims=True)
            inv_std = (var + self.eps) ** -0.5
            n = x.shape[0]
            unbiased = x.data.var(axis=0) * (n / max(n - 1, 1))
            self.running_mean[...] = (
                (1 - self.momentum) * self.running_mean
                + self.momentum * x.data.mean(axis=0)
            )
            self.running_var[...] = (
                (1 - self.momentum) * self.running_var + self.momentum * unbiased
            )
        else:
            centered = x - Tensor(self.running_mean)
            inv_std = Tensor(
                ((self.running_var + self.eps) ** -0.5).astype(np.float32)
            )
        return centered * inv_std * self.weight + self.bias

    def __repr__(self) -> str:
        return f"BatchNorm1d({self.num_features})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        F._check_dropout_p(p)
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, p=self.p, training=self.training, rng=self.rng)
