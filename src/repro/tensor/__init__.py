"""Numpy-backed autograd engine: the reproduction's PyTorch substitute.

Public surface:

- :class:`Tensor`, :class:`no_grad` — core tensor with reverse-mode autodiff.
- :mod:`repro.tensor.functional` — ``log_softmax``, ``dropout``, losses and
  the segment ops implementing message passing.
- :mod:`repro.tensor.init` — Glorot/Kaiming initializers.
- :mod:`repro.tensor.kernels` — non-differentiable numpy kernels (scatter,
  segment reductions, fused gather→reduce, fused linear) shared with the
  graph substrate.
- :class:`AggregationPlan` — precomputed per-batch segment-reduction
  metadata reused across layers and passes.
- :class:`CoreSplitter` + ``split_scope`` — split a step's large kernels
  across cores, bit for bit (the first splitter also sets the process's
  allocator to keep freed memory, :func:`keep_freed_memory`).
- ``compute_scope``, :class:`Workspace` + ``workspace_scope`` — kept for
  ``benchmarks/e2e``'s hand-driven step; the workspace holds nothing.
"""

from . import functional, init, kernels
from .plan import AggregationPlan
from .split import (
    CoreSplitter,
    Workspace,
    compute_scope,
    current_splitter,
    keep_freed_memory,
    split_scope,
    workspace_scope,
)
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "init",
    "kernels",
    "AggregationPlan",
    "Workspace",
    "workspace_scope",
    "compute_scope",
    "CoreSplitter",
    "split_scope",
    "current_splitter",
    "keep_freed_memory",
]
