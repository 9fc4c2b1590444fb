"""The Adam optimizer.

Adam follows Kingma & Ba (2015) exactly — the optimizer the paper uses for
all experiments — including bias correction.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from ..tensor import Tensor

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimizer over a flat list of parameters."""

    def __init__(self, params: Iterable[Tensor], lr: float) -> None:
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> dict:
        return {"lr": self.lr}

    def load_state_dict(self, state: dict) -> None:
        self.lr = state["lr"]


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m: List[Optional[np.ndarray]] = [None] * len(self.params)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.params)

    def step(self) -> None:
        self._step += 1
        bias1 = 1 - self.beta1**self._step
        bias2 = 1 - self.beta2**self._step
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self._m[i] is None:
                self._m[i] = np.zeros_like(param.data)
                self._v[i] = np.zeros_like(param.data)
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * grad * grad
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        return {
            "lr": self.lr,
            "step": self._step,
            "m": [m.copy() if m is not None else None for m in self._m],
            "v": [v.copy() if v is not None else None for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        self.lr = state["lr"]
        self._step = state["step"]
        self._m = [m.copy() if m is not None else None for m in state["m"]]
        self._v = [v.copy() if v is not None else None for v in state["v"]]
