"""Differentiable functional ops built on :class:`repro.tensor.Tensor`.

Covers the ops needed by the paper's four architectures (appendix listings):
``log_softmax``, ``dropout``, ``relu``/``leaky_relu`` (as tensor methods),
``nll_loss``/``cross_entropy``, plus the segment ops that implement message
passing over bipartite message-flow-graph layers (``segment_sum`` /
``segment_mean`` / ``segment_max`` / ``segment_softmax``).

The segment ops take the batch's precomputed
:class:`~repro.tensor.plan.AggregationPlan` (``plan=``) — every model path
passes one.  Without it they run the slow reference formulation
(``np.add.at`` sums, per-call argsort for max), which exists for the
bitwise tests and ad-hoc tensor math and gives bit-for-bit identical
results (see ``tests/tensor/test_fused_kernels.py``); sums accumulate in
the input dtype either way.  ``gather_segment_sum`` /
``gather_segment_mean`` fuse the row gather *into* the reduction so the
``(E, F)`` message array never exists.

:func:`linear` is one tape node over the fused matmul+bias kernel; its
backward skips the input-gradient gemm when the input is off the tape
(a first layer's batch features).  :func:`dropout` keeps a one-byte mask
(one random bit per element at ``p = 0.5``) rather than a float one.

A layer's tail is one node, not a chain: :func:`relu_dropout` is
``dropout(relu(x))`` in one pass per row block, and :func:`sage_conv` is
SAGE's aggregation, both linears and their add, whose backward routes the
target prefix's gradient straight into the source gradient.  Each is
``array_equal`` to the chain it replaces (outputs, gradients, RNG stream;
``tests/tensor/test_fused_tails.py``).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import kernels
from .plan import AggregationPlan
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "relu",
    "leaky_relu",
    "dropout",
    "relu_dropout",
    "softmax",
    "log_softmax",
    "nll_loss",
    "cross_entropy",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "gather_rows",
    "gather_segment_sum",
    "gather_segment_mean",
    "linear",
    "sage_conv",
]


def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    return x.leaky_relu(negative_slope)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T + bias`` with PyTorch weight layout ``(out, in)``.

    One tape node backed by :func:`repro.tensor.kernels.linear_forward` —
    bitwise-identical output and gradients to the explicit
    matmul/transpose/add chain, two fewer tape nodes and temporaries.
    """
    data = kernels.linear_forward(
        x.data, weight.data, None if bias is None else bias.data
    )
    parents = (x, weight) if bias is None else (x, weight, bias)
    # A first-layer input (built from the batch features) is off the tape:
    # nothing reads its gradient, so the backward skips that gemm.
    need_grad_x = x._on_tape()

    def backward(g: np.ndarray):
        grad_x, grad_w, grad_b = kernels.linear_backward(
            g,
            x.data,
            weight.data,
            has_bias=bias is not None,
            need_grad_x=need_grad_x,
        )
        grads = [(x, grad_x), (weight, grad_w)]
        if bias is not None:
            grads.append((bias, grad_b))
        return tuple(grads)

    return Tensor._make(data, parents, backward, "linear")


def _check_dropout_p(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")


def dropout(
    x: Tensor,
    p: float = 0.5,
    training: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout. Identity when ``training`` is False or ``p == 0``.

    Keeps a one-byte mask (:func:`_keep_mask`) for the backward pass and
    applies the ``1 / (1 - p)`` scale in place, in ``x``'s dtype.  ``p``
    outside ``[0, 1)`` is refused in either mode.
    """
    return _dropout(x, p, training, rng, relu=False)


def relu_dropout(
    x: Tensor,
    p: float = 0.5,
    training: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """``dropout(relu(x), p, training, rng)`` as one tape node.

    Draws the mask first, with the one RNG call :func:`dropout` makes, so
    the generator's stream is unchanged.  The forward is one
    :func:`kernels.relu_mask_scale` pass (the mask is narrowed to the
    elements both ops pass), the backward one :func:`kernels.mask_scale`
    pass; output and gradient are ``array_equal`` to the two-node chain.
    ``x.relu()`` when ``training`` is False or ``p == 0``.
    """
    return _dropout(x, p, training, rng, relu=True)


def _dropout(x: Tensor, p: float, training: bool, rng, relu: bool) -> Tensor:
    _check_dropout_p(p)
    if not training or p == 0.0:
        return x.relu() if relu else x
    rng = rng or np.random.default_rng()
    keep = 1.0 - p
    mask = _keep_mask(x.shape, keep, rng)
    scale = x.dtype.type(1.0 / keep)
    forward = kernels.relu_mask_scale if relu else kernels.mask_scale
    data = forward(x.data, mask, scale)

    def backward(g: np.ndarray):
        return ((x, kernels.mask_scale(g, mask, scale)),)

    return Tensor._make(data, (x,), backward, "relu_dropout" if relu else "dropout")


def _keep_mask(shape: tuple, keep: float, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli(``keep``) mask of ``shape``, one byte (bool) per element.

    ``keep == 0.5`` draws one random bit per element, which is exact; any
    other ``keep`` compares a uint16 draw against ``round(keep * 2**16)``,
    so the keep probability is within ``2**-17`` of ``keep``.
    """
    n = math.prod(shape)
    if keep == 0.5:
        packed = np.frombuffer(rng.bytes((n + 7) // 8), dtype=np.uint8)
        return np.unpackbits(packed, count=n).view(bool).reshape(shape)
    draws = rng.integers(0, 1 << 16, size=n, dtype=np.uint16)
    return (draws < round(keep * (1 << 16))).reshape(shape)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((x, out * (g - dot)),)

    return Tensor._make(out, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_norm
    soft = np.exp(out)

    def backward(g: np.ndarray):
        return ((x, g - soft * g.sum(axis=axis, keepdims=True)),)

    return Tensor._make(out, (x,), backward, "log_softmax")


def nll_loss(
    log_probs: Tensor,
    target: np.ndarray,
    reduction: str = "mean",
    ignore_index: Optional[int] = None,
) -> Tensor:
    """Negative log-likelihood of integer ``target`` under ``log_probs``.

    ``log_probs`` has shape ``(N, C)`` (output of :func:`log_softmax`).
    """
    target = np.asarray(target)
    if target.ndim != 1 or log_probs.ndim != 2:
        raise ValueError("nll_loss expects (N, C) log-probs and (N,) targets")
    n = target.shape[0]
    valid = np.ones(n, dtype=bool)
    if ignore_index is not None:
        valid = target != ignore_index
    rows = np.arange(n)[valid]
    cols = target[valid]
    picked = log_probs.data[rows, cols]
    count = max(int(valid.sum()), 1)
    if reduction == "mean":
        value = -picked.sum() / count
        scale = 1.0 / count
    elif reduction == "sum":
        value = -picked.sum()
        scale = 1.0
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(g: np.ndarray):
        grad = np.zeros_like(log_probs.data)
        grad[rows, cols] = -scale * g
        return ((log_probs, grad),)

    return Tensor._make(
        np.asarray(value, dtype=log_probs.dtype), (log_probs,), backward, "nll_loss"
    )


def cross_entropy(logits: Tensor, target: np.ndarray, reduction: str = "mean") -> Tensor:
    """Numerically stable ``nll_loss(log_softmax(logits), target)``."""
    return nll_loss(log_softmax(logits, axis=-1), target, reduction=reduction)


# ----------------------------------------------------------------------
# Segment (scatter) operations: the message-passing primitives
# ----------------------------------------------------------------------
def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Differentiable row gather (``x[index]``) with fast scatter backward."""
    return x.gather_rows(index)


def gather_segment_sum(x: Tensor, plan: AggregationPlan) -> Tensor:
    """Fused ``segment_sum(x[plan.src], plan.dst, plan.n_dst)``.

    One tape node replacing the gather→segment_sum chain; neither direction
    materializes the ``(E, F)`` per-edge array.  Bitwise-identical to the
    unfused chain in both passes.
    """
    data = kernels.fused_gather_segment_sum(x.data, plan)
    n_rows = x.shape[0]

    def backward(g: np.ndarray):
        grad = kernels.fused_gather_scatter_add(g, plan, n_rows)
        # Like ``Tensor.gather_rows``: the gradient takes the input's dtype.
        return ((x, grad.astype(x.dtype, copy=False)),)

    return Tensor._make(data, (x,), backward, "gather_segment_sum")


def gather_segment_mean(x: Tensor, plan: AggregationPlan) -> Tensor:
    """Fused ``segment_mean(x[plan.src], plan.dst, plan.n_dst)``."""
    data = kernels.fused_gather_segment_mean(x.data, plan)
    counts = np.maximum(plan.counts, 1).astype(x.dtype)
    n_rows = x.shape[0]

    def backward(g: np.ndarray):
        grad = kernels.fused_gather_scatter_add(g / counts[:, None], plan, n_rows)
        return ((x, grad.astype(x.dtype, copy=False)),)

    return Tensor._make(data, (x,), backward, "gather_segment_mean")


def sage_conv(
    x_src: Tensor,
    x_dst: Tensor,
    plan: AggregationPlan,
    weight_neigh: Tensor,
    weight_root: Tensor,
    bias: Optional[Tensor] = None,
    aggregator: str = "mean",
) -> Tensor:
    """``linear(gather_segment_<aggregator>(x_src, plan), weight_neigh) +
    linear(x_dst, weight_root, bias)`` as one tape node (``mean`` or
    ``sum``).

    The aggregation runs the fused kernels; both linears and their add run
    in one row-split pass (:func:`kernels.linear_pair_forward`).  The
    backward runs both input-gradient gemms (with the mean's ``1 / count``)
    in one row-split pass and both weight gradients in one column-split
    pass (:func:`kernels.linear_pair_backward`).  Output and every gradient
    are ``array_equal`` to the composed chain.

    When ``x_dst`` is ``x_src[:n_dst]`` on the tape (the models' target
    prefix), the root gradient is added into the first ``n_dst`` rows of
    the scatter result and the slice node is never visited: its
    full-height, mostly-zero gradient and the tape's full-height add never
    happen.  That routing assumes the slice feeds only this node, as it
    does in the models; any other ``x_dst`` is an ordinary parent.
    """
    if aggregator == "mean":
        agg = kernels.fused_gather_segment_mean(x_src.data, plan)
        counts = np.maximum(plan.counts, 1).astype(x_src.dtype)
    elif aggregator == "sum":
        agg = kernels.fused_gather_segment_sum(x_src.data, plan)
        counts = None
    else:
        raise ValueError(f"sage_conv aggregates by mean or sum, not {aggregator!r}")
    data = kernels.linear_pair_forward(
        agg,
        weight_neigh.data,
        x_dst.data,
        weight_root.data,
        None if bias is None else bias.data,
    )
    prefix = _is_prefix(x_dst, x_src)
    need_src = x_src._on_tape()
    need_dst = not prefix and x_dst._on_tape()
    n_rows = x_src.shape[0]

    def backward(g: np.ndarray):
        grad_agg, grad_wn, grad_root, grad_wr, grad_b = kernels.linear_pair_backward(
            g,
            agg,
            weight_neigh.data,
            x_dst.data,
            weight_root.data,
            has_bias=bias is not None,
            need_grad_a=need_src,
            need_grad_b=prefix or need_dst,
            divisor_a=counts,
        )
        grads = [(weight_neigh, grad_wn), (weight_root, grad_wr)]
        if bias is not None:
            grads.append((bias, grad_b))
        if need_src:
            grad = kernels.fused_gather_scatter_add(grad_agg, plan, n_rows)
            grad = grad.astype(x_src.dtype, copy=False)
            if prefix:
                grad[: len(grad_root)] += grad_root.astype(x_src.dtype, copy=False)
            grads.append((x_src, grad))
        if need_dst:
            grads.append((x_dst, grad_root))
        return tuple(grads)

    parents = (x_src, weight_neigh, weight_root)
    if bias is not None:
        parents += (bias,)
    if not prefix:
        parents += (x_dst,)
    return Tensor._make(data, parents, backward, "sage_conv")


def _is_prefix(x_dst: Tensor, x_src: Tensor) -> bool:
    """Whether ``x_dst`` is a tape slice of ``x_src`` over its first rows:
    a ``getitem`` of ``x_src`` whose array starts where ``x_src``'s does,
    with its strides and trailing shape."""
    if x_dst._op != "getitem" or len(x_dst._parents) != 1:
        return False
    if x_dst._parents[0] is not x_src:
        return False
    d, s = x_dst.data, x_src.data
    return (
        d.ndim == s.ndim
        and d.shape[1:] == s.shape[1:]
        and d.strides == s.strides
        and d.__array_interface__["data"][0] == s.__array_interface__["data"][0]
    )


def segment_sum(
    values: Tensor,
    index: np.ndarray,
    n_segments: int,
    plan: Optional[AggregationPlan] = None,
) -> Tensor:
    """Differentiable per-segment sum, the AGG of GIN-style models."""
    index = np.asarray(index)
    if plan is not None:
        data = kernels.plan_segment_sum(values.data, plan)
    else:
        data = kernels.segment_sum(values.data, index, n_segments)

    def backward(g: np.ndarray):
        return ((values, g[index]),)

    return Tensor._make(data, (values,), backward, "segment_sum")


def segment_mean(
    values: Tensor,
    index: np.ndarray,
    n_segments: int,
    plan: Optional[AggregationPlan] = None,
) -> Tensor:
    """Differentiable per-segment mean, the AGG of GraphSAGE-mean."""
    index = np.asarray(index)
    if plan is not None:
        data = kernels.plan_segment_mean(values.data, plan)
        counts = np.maximum(plan.counts, 1).astype(values.dtype)
    else:
        data = kernels.segment_mean(values.data, index, n_segments)
        counts = np.maximum(kernels.segment_counts(index, n_segments), 1).astype(
            values.dtype
        )

    def backward(g: np.ndarray):
        scaled = g / (counts[:, None] if g.ndim == 2 else counts)
        return ((values, scaled[index]),)

    return Tensor._make(data, (values,), backward, "segment_mean")


def segment_max(
    values: Tensor,
    index: np.ndarray,
    n_segments: int,
    plan: Optional[AggregationPlan] = None,
) -> Tensor:
    """Differentiable per-segment max (pooling aggregator)."""
    index = np.asarray(index)
    if plan is not None:
        data, argmax = kernels.plan_segment_max(values.data, plan)
    else:
        data, argmax = kernels.segment_max(values.data, index, n_segments)

    def backward(g: np.ndarray):
        grad = np.zeros_like(values.data)
        if g.ndim == 2:
            seg_ids, col_ids = np.nonzero(argmax >= 0)
            grad[argmax[seg_ids, col_ids], col_ids] = g[seg_ids, col_ids]
        else:
            hit = argmax >= 0
            grad[argmax[hit]] = g[hit]
        return ((values, grad),)

    return Tensor._make(data, (values,), backward, "segment_max")


def segment_softmax(
    scores: Tensor,
    index: np.ndarray,
    n_segments: int,
    plan: Optional[AggregationPlan] = None,
) -> Tensor:
    """Softmax of ``scores`` normalized within each segment.

    This is the attention-coefficient normalization of GAT: edge scores are
    grouped by destination node and exponentiated/normalized per group.
    ``scores`` is 1-D (one scalar per edge).
    """
    index = np.asarray(index)
    if scores.ndim != 1:
        raise ValueError("segment_softmax expects 1-D scores (one per edge)")
    if plan is not None:
        # The plan path also skips the argmax recovery the reference kernel
        # always performs — the attention normalizer discards it anyway.
        seg_max, _ = kernels.plan_segment_max(scores.data, plan, compute_argmax=False)
    else:
        seg_max, _ = kernels.segment_max(scores.data, index, n_segments)
    # Empty segments have max 0, harmless: no edges reference them.
    shifted = scores.data - seg_max[index]
    exp = np.exp(shifted)
    if plan is not None:
        denom = kernels.plan_segment_sum(exp, plan)
    else:
        denom = kernels.segment_sum(exp, index, n_segments)
    denom = np.maximum(denom, np.finfo(scores.dtype).tiny)
    out = exp / denom[index]

    def backward(g: np.ndarray):
        if plan is not None:
            weighted = kernels.plan_segment_sum(g * out, plan)
        else:
            weighted = kernels.segment_sum(g * out, index, n_segments)
        return ((scores, out * (g - weighted[index])),)

    return Tensor._make(out.astype(scores.dtype), (scores,), backward, "segment_softmax")
