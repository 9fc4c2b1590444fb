"""Low-level numpy kernels shared by autograd ops and graph aggregation.

These are the "compiled extension" analogues of this reproduction: the few
routines whose cost dominates message passing (row scatter-add, segment
reductions). Each has an obvious reference formulation (``np.add.at``,
sort-based segment max) and an optimized formulation here (CSR matvec
accumulation over a prebuilt plan) per the ml-systems performance guide.

What runs where:

- the **plan** kernels (``plan_segment_*``) take the batch's prebuilt
  :class:`~repro.tensor.plan.AggregationPlan`, and the **fused** kernels
  (``fused_gather_segment_*``, ``fused_gather_scatter_add``) additionally
  collapse the gather into the reduction so the ``(E, F)`` per-edge message
  array is never materialized; ``linear_forward`` / ``linear_backward``
  fuse ``x @ W.T + b`` into one kernel, ``linear_pair_forward`` /
  ``linear_pair_backward`` SAGE's two linears and their add, and
  ``relu_mask_scale`` / ``mask_scale`` relu→dropout and dropout.  Every
  model, stage and trainer path runs these;
- the **reference** kernels (``scatter_add_rows``, ``segment_*``) work
  from the raw index on every call.  They are the formulation the bitwise
  tests hold the plan kernels to and what ad-hoc tensor math gets from
  ``F.segment_*`` without a ``plan``; nothing selects them at run time.
  ``scatter_add_rows`` is also ``Tensor.gather_rows``' backward.

Plan and reference kernels are byte-identical: every *sum* accumulates each
output slot sequentially in original edge order, in the input dtype — the
``np.add.at`` into ``zeros(dtype)`` semantics (float32 in, float32 adds;
no float64 detour).  The plan kernels run that accumulation through the
plan's all-ones CSR operators (rows grouped by destination, or by source
for the scatter, keep edge order within a row, so scipy's C matvec loop
adds in the same sequence an order of magnitude faster).
``np.add.reduceat`` is never used for sums — its pairwise summation
re-associates float adds and breaks bit-identity — but max is
order-exact, so the plan's destination-sorted view drives
``maximum.reduceat`` there.
``tests/tensor/test_fused_kernels.py`` pins the equivalence bit-for-bit.

Two cores for one batch: inside a :func:`~repro.tensor.split.split_scope`
the gemms of ``linear_forward`` / ``linear_backward`` and their pair
forms, the CSR matvec of every plan and fused kernel
(``_csr_accumulate``) and the elementwise dropout passes cut their output
into disjoint blocks that run on the calling thread and the splitter's
helper threads.  The forward and ``grad_x`` gemms split by output row
(a pair's two gemms in the same block, one handoff), the ``grad_w`` gemms
by output column (their K sum is never cut), ``_csr_accumulate`` by CSR
row block, the elementwise passes by leading-axis block of at least
``ELEMENT_GRAIN`` elements.  Every block keeps the unsplit
kernel's summation order, so the split changes where work runs, never a
bit of the result (``tests/tensor/test_split_kernels.py``).  A gemm splits
only where its BLAS runs one kernel for every block and for the whole: a
2-D float32 gemm with at least ``GEMM_GRAIN`` multiply-adds per block and
no one-wide operand (:func:`_split_gemm`); every other gemm runs whole.
Outputs are allocated (plain numpy) before the split; helpers only write
into disjoint views of them.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from .plan import AggregationPlan, CSROperator, csr_tools
from .split import split_rows

__all__ = [
    "scatter_add_rows",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_counts",
    "plan_segment_sum",
    "plan_segment_mean",
    "plan_segment_max",
    "fused_gather_segment_sum",
    "fused_gather_segment_mean",
    "fused_gather_scatter_add",
    "linear_forward",
    "linear_backward",
    "linear_pair_forward",
    "linear_pair_backward",
    "mask_scale",
    "relu_mask_scale",
]

#: Fewest multiply-adds one block of a split gemm gets.  Under about
#: 28 * 512**2 (7.3M) multiply-adds OpenBLAS hands an sgemm to its direct
#: and small-matrix kernels, whose rounding depends on the matrix extent, so
#: a block there would not reproduce its rows of the whole; above it every
#: block runs the blocked kernel the whole gemm runs, bit for bit.  A block
#: this size takes ~0.3 ms against a ~40 us handoff to a helper thread.
GEMM_GRAIN = 1 << 23
#: Fewest (entry x column) adds one block of a split CSR accumulation gets:
#: ~0.1 ms, a few handoffs.
CSR_GRAIN = 1 << 18
#: Fewest elements one block of a split elementwise pass gets: ~0.1 ms.
#: An elementwise block is bit-identical at any size, so this is a cost
#: grain only.
ELEMENT_GRAIN = 1 << 17


def _split_gemm(block, n: int, row_work: int, width: int, out: np.ndarray) -> None:
    """Run a gemm ``block(lo, hi)`` over ``n`` output rows (or columns),
    each doing ``row_work`` multiply-adds into ``width`` outputs.

    Only 2-D float32 gemms split.  In the OpenBLAS numpy ships (0.3.31,
    AVX-512 kernels on a Xeon), the float64 dgemm rounds its corner tiles
    differently with the matrix extent, and a one-wide operand
    (``width < 2``) makes numpy call gemv, whose tail rows also round by
    position, so those run whole: ``block(0, None)``.
    """
    if out.dtype != np.float32 or out.ndim != 2 or width < 2:
        block(0, None)
    else:
        split_rows(block, n, max(2, -(-GEMM_GRAIN // max(row_work, 1))))


def scatter_add_rows(values: np.ndarray, index: np.ndarray, n_rows: int) -> np.ndarray:
    """Accumulate ``values[i]`` into ``out[index[i]]`` for 1-D/2-D values.

    This is the transpose of a row gather and the core primitive of both
    neighborhood aggregation (forward) and feature-gather backward.  It is
    ``np.add.at`` into ``zeros(values.dtype)``: unbuffered and sequential,
    so each slot adds its elements in index order, in the input dtype —
    the accumulation order every plan kernel reproduces bit for bit.
    """
    index = np.asarray(index)
    if index.ndim != 1:
        raise ValueError("index must be 1-D")
    if values.shape[0] != index.shape[0]:
        raise ValueError(
            f"values rows ({values.shape[0]}) != index length ({index.shape[0]})"
        )
    if values.ndim not in (1, 2):
        raise ValueError("only 1-D or 2-D values are supported")
    out = np.zeros((n_rows,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, index, values)
    return out


def segment_counts(index: np.ndarray, n_segments: int) -> np.ndarray:
    """Number of elements per segment (int64)."""
    return np.bincount(np.asarray(index), minlength=n_segments).astype(np.int64)


def segment_sum(values: np.ndarray, index: np.ndarray, n_segments: int) -> np.ndarray:
    """Sum ``values`` grouped by ``index`` into ``n_segments`` rows."""
    return scatter_add_rows(values, index, n_segments)


def segment_mean(values: np.ndarray, index: np.ndarray, n_segments: int) -> np.ndarray:
    """Mean of ``values`` per segment; empty segments yield zero rows."""
    sums = segment_sum(values, index, n_segments)
    counts = segment_counts(index, n_segments).astype(values.dtype)
    counts = np.maximum(counts, 1)
    if sums.ndim == 2:
        return sums / counts[:, None]
    return sums / counts


def segment_max(
    values: np.ndarray, index: np.ndarray, n_segments: int
) -> tuple[np.ndarray, np.ndarray]:
    """Max of ``values`` per segment, plus the argmax element index per slot.

    Returns
    -------
    out:
        ``(n_segments, n_cols)`` array; empty segments are zero.
    argmax:
        ``(n_segments, n_cols)`` int64 array of the winning element index per
        (segment, column) slot, or -1 for empty segments. Used to route
        gradients back in the autograd wrapper.
    """
    squeeze = False
    if values.ndim == 1:
        values = values[:, None]
        squeeze = True
    index = np.asarray(index)
    n_elems, n_cols = values.shape
    out = np.zeros((n_segments, n_cols), dtype=values.dtype)
    argmax = np.full((n_segments, n_cols), -1, dtype=np.int64)
    if n_elems == 0:
        return (out[:, 0], argmax[:, 0]) if squeeze else (out, argmax)

    order = np.argsort(index, kind="stable")
    sorted_idx = index[order]
    sorted_vals = values[order]
    boundaries = np.flatnonzero(np.diff(sorted_idx)) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [n_elems]])
    seg_ids = sorted_idx[starts]
    # maximum.reduceat handles contiguous runs at C speed.
    out[seg_ids] = np.maximum.reduceat(sorted_vals, starts, axis=0)
    # Recover the argmax via a masked comparison against the per-segment max.
    expanded_max = out[index]
    is_max = values == expanded_max
    # First matching element per (segment, col): iterate columns, still C-heavy.
    elem_ids = np.arange(n_elems, dtype=np.int64)
    for col in range(n_cols):
        winners = np.where(is_max[:, col], elem_ids, np.iinfo(np.int64).max)
        best = np.full(n_segments, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(best, index, winners)
        hit = best != np.iinfo(np.int64).max
        argmax[hit, col] = best[hit]
    if squeeze:
        return out[:, 0], argmax[:, 0]
    return out, argmax


# ----------------------------------------------------------------------
# Plan-based segment kernels: the per-call argsort / index scan is
# replaced by the batch's precomputed AggregationPlan.
# ----------------------------------------------------------------------
def _check_plan(values: np.ndarray, plan: AggregationPlan) -> None:
    if values.shape[0] != plan.num_edges:
        raise ValueError(
            f"values rows ({values.shape[0]}) != plan edges ({plan.num_edges})"
        )


def _csr_accumulate(
    op: CSROperator, plan: AggregationPlan, values: np.ndarray, n_rows: int
) -> np.ndarray:
    """``A @ values`` into a zeroed ``(n_rows, ...)`` array.

    ``op`` is one of the plan's all-ones CSR operators; scipy's
    ``csr_matvecs`` visits each row's entries in storage order (== original
    edge order within the row) and adds them into the zeroed
    destination in ``values.dtype``, reproducing :func:`scatter_add_rows`'
    ``np.add.at`` bit for bit at C-matvec speed.  Rows past the operator's
    (``n_rows > op.shape[0]``) receive no entries and stay zero.
    """
    if values.shape[0] < op.shape[1]:
        raise ValueError(
            f"operand rows ({values.shape[0]}) < operator columns ({op.shape[1]})"
        )
    out = np.empty((n_rows,) + values.shape[1:], values.dtype)
    out[op.shape[0] :] = 0
    values = np.ascontiguousarray(values).ravel()
    ones = plan.ones(out.dtype)
    n_vecs = out.shape[1] if out.ndim == 2 else 1
    matvecs = csr_tools().csr_matvecs

    def rows(lo: int, hi: int) -> None:
        # A row block zeroes its own output rows, reads its slice of indptr
        # (absolute offsets into the full indices) and accumulates.
        out[lo:hi] = 0
        matvecs(
            hi - lo,
            op.shape[1],
            n_vecs,
            op.indptr[lo:],
            op.indices,
            ones,
            values,
            out[lo:hi].ravel(),  # a view: the output is C-contiguous
        )

    # Rows per block for CSR_GRAIN adds at the operator's mean row length;
    # an empty operator never splits.
    work = op.indices.shape[0] * n_vecs
    split_rows(rows, op.shape[0], -(-CSR_GRAIN * op.shape[0] // max(work, 1)))
    return out


def plan_segment_sum(values: np.ndarray, plan: AggregationPlan) -> np.ndarray:
    """``segment_sum(values, plan.dst, plan.n_dst)`` through the plan."""
    _check_plan(values, plan)
    if values.ndim not in (1, 2):
        raise ValueError("only 1-D or 2-D values are supported")
    return _csr_accumulate(plan.edge_matrix(), plan, values, plan.n_dst)


def plan_segment_mean(values: np.ndarray, plan: AggregationPlan) -> np.ndarray:
    """``segment_mean(values, plan.dst, plan.n_dst)`` via the plan's counts."""
    sums = plan_segment_sum(values, plan)
    counts = np.maximum(plan.counts.astype(values.dtype), 1)
    if sums.ndim == 2:
        np.divide(sums, counts[:, None], out=sums)
    else:
        np.divide(sums, counts, out=sums)
    return sums


def plan_segment_max(
    values: np.ndarray, plan: AggregationPlan, compute_argmax: bool = True
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """``segment_max`` reusing the plan's sorted order.

    ``compute_argmax=False`` skips the per-column argmax recovery loop —
    segment-softmax only needs the max values, so the (discarded) argmax
    work the reference kernel always performs is elided.
    """
    _check_plan(values, plan)
    squeeze = False
    if values.ndim == 1:
        values = values[:, None]
        squeeze = True
    n_elems, n_cols = values.shape
    out = np.zeros((plan.n_dst, n_cols), dtype=values.dtype)
    argmax = (
        np.full((plan.n_dst, n_cols), -1, dtype=np.int64) if compute_argmax else None
    )
    if n_elems == 0:
        if squeeze:
            return out[:, 0], (argmax[:, 0] if argmax is not None else None)
        return out, argmax

    out[plan.seg_ids] = np.maximum.reduceat(
        plan.segment_order(values), plan.starts, axis=0
    )
    if compute_argmax:
        index = plan.dst
        expanded_max = out[index]
        is_max = values == expanded_max
        elem_ids = np.arange(n_elems, dtype=np.int64)
        for col in range(n_cols):
            winners = np.where(is_max[:, col], elem_ids, np.iinfo(np.int64).max)
            best = np.full(plan.n_dst, np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(best, index, winners)
            hit = best != np.iinfo(np.int64).max
            argmax[hit, col] = best[hit]
    if squeeze:
        return out[:, 0], (argmax[:, 0] if argmax is not None else None)
    return out, argmax


# ----------------------------------------------------------------------
# Fused gather→segment-reduce kernels: the (E, F) per-edge message array
# is never materialized; the gather is folded into the CSR operator.
# ----------------------------------------------------------------------
def fused_gather_segment_sum(x: np.ndarray, plan: AggregationPlan) -> np.ndarray:
    """``segment_sum(x[plan.src], plan.dst, plan.n_dst)`` without the
    ``(E, F)`` message temporary.

    The plan's cached ``(n_dst, n_src)`` CSR operator collapses the gather
    and the reduce into one matvec over ``x`` (bitwise twin of the unfused
    gather→segment_sum chain).
    """
    if x.ndim != 2:
        raise ValueError("fused gather kernels expect 2-D features")
    return _csr_accumulate(plan.gather_matrix(), plan, x, plan.n_dst)


def fused_gather_segment_mean(x: np.ndarray, plan: AggregationPlan) -> np.ndarray:
    """``segment_mean(x[plan.src], plan.dst, plan.n_dst)``, fused."""
    sums = fused_gather_segment_sum(x, plan)
    counts = np.maximum(plan.counts.astype(x.dtype), 1)
    np.divide(sums, counts[:, None], out=sums)
    return sums


def fused_gather_scatter_add(
    g: np.ndarray, plan: AggregationPlan, n_rows: Optional[int] = None
) -> np.ndarray:
    """Backward of the fused gather→segment-sum: ``out[src] += g[dst]``.

    Bitwise-equivalent to ``scatter_add_rows(g[plan.dst], plan.src,
    n_rows)``: the plan's cached ``(n_src, n_dst)`` CSR operator runs the
    same per-source accumulation in one matvec over ``g`` (source rows
    beyond ``n_src`` stay zero, as in the reference), so the ``(E, F)``
    edge-gradient temporary is never materialized either.
    """
    if g.ndim != 2:
        raise ValueError("fused gather kernels expect 2-D gradients")
    n_rows = plan.n_src if n_rows is None else int(n_rows)
    if n_rows < plan.n_src:
        raise ValueError(
            f"n_rows ({n_rows}) < plan source rows ({plan.n_src})"
        )
    return _csr_accumulate(plan.scatter_matrix(), plan, g, n_rows)


# ----------------------------------------------------------------------
# Fused linear (+bias) kernels: one tape node instead of the
# matmul/transpose/add chain; identical arithmetic, fewer temporaries.
# ----------------------------------------------------------------------
def linear_forward(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None
) -> np.ndarray:
    """``x @ weight.T + bias`` with PyTorch weight layout ``(out, in)``.

    The gemm consumes ``weight.T`` as a view (the exact operand an explicit
    transpose node feeds BLAS) and writes into a preallocated
    destination; the bias add is applied in place on the gemm output —
    elementwise identical to the explicit op chain.  Split by output row.
    """
    n_in, n_out = weight.shape[1], weight.shape[0]
    out = np.empty(x.shape[:-1] + (n_out,), np.result_type(x.dtype, weight.dtype))
    weight_t = weight.T

    def rows(lo: int, hi: Optional[int]) -> None:
        np.matmul(x[lo:hi], weight_t, out=out[lo:hi])
        if bias is not None:
            out[lo:hi] += bias

    _split_gemm(rows, len(out), n_in * n_out, n_out, out)
    return out


def linear_backward(
    g: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    has_bias: bool = True,
    need_grad_x: bool = True,
) -> tuple[Optional[np.ndarray], np.ndarray, Optional[np.ndarray]]:
    """Gradients ``(grad_x, grad_weight, grad_bias)`` of :func:`linear_forward`.

    Matches the explicit op chain's tape bit-for-bit: ``grad_weight`` is
    computed as ``transpose(x.T @ g)`` — the same gemm the matmul node's
    backward runs, transposed as a view — **not** ``g.T @ x``, which would
    sum in a different order.  ``need_grad_x=False`` (the input is off the
    tape) skips the ``g @ W`` gemm and returns ``grad_x=None``.

    ``g @ W`` splits by output row; ``x.T @ g`` splits by output column
    (``g``'s columns), so its sum over the batch rows is never cut.
    """
    n_out, n_in = weight.shape
    grad_x = None
    if need_grad_x:
        grad_x = np.empty(
            g.shape[:-1] + (n_in,), np.result_type(g.dtype, weight.dtype)
        )

        def rows(lo: int, hi: Optional[int]) -> None:
            np.matmul(g[lo:hi], weight, out=grad_x[lo:hi])

        _split_gemm(rows, len(grad_x), n_in * n_out, n_in, grad_x)
    x_t = x.swapaxes(-1, -2)
    grad_w_t = np.empty(
        x_t.shape[:-1] + g.shape[-1:], dtype=np.result_type(x.dtype, g.dtype)
    )

    def columns(lo: int, hi: Optional[int]) -> None:
        np.matmul(x_t, g[..., lo:hi], out=grad_w_t[..., lo:hi])

    _split_gemm(columns, n_out, x.shape[0] * n_in, n_in, grad_w_t)
    grad_b = g.sum(axis=0) if has_bias else None
    return grad_x, np.transpose(grad_w_t), grad_b


def linear_pair_forward(
    a: np.ndarray,
    weight_a: np.ndarray,
    b: np.ndarray,
    weight_b: np.ndarray,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``linear_forward(a, weight_a) + linear_forward(b, weight_b, bias)``.

    SAGE's two linears over one set of output rows, and their sum: each row
    block runs both gemms (the second into a temporary, bias added
    there as :func:`linear_forward` adds it) and adds the second into the
    first in place — one handoff for the pair, no third array, and the
    same bits as the two calls and the add.  The two weights share one
    shape, so both gemms share one grain, and both terms one dtype.
    """
    if weight_a.shape != weight_b.shape or len(a) != len(b):
        raise ValueError("a linear pair takes one weight shape and one row count")
    dtype = np.result_type(a.dtype, weight_a.dtype)
    if np.result_type(b.dtype, weight_b.dtype) != dtype:
        raise TypeError("both linears of a pair must compute in one dtype")
    n_out, n_in = weight_a.shape
    out = np.empty(a.shape[:-1] + (n_out,), dtype)
    second = np.empty(out.shape, dtype)
    weight_a_t, weight_b_t = weight_a.T, weight_b.T

    def rows(lo: int, hi: Optional[int]) -> None:
        np.matmul(a[lo:hi], weight_a_t, out=out[lo:hi])
        np.matmul(b[lo:hi], weight_b_t, out=second[lo:hi])
        if bias is not None:
            second[lo:hi] += bias
        out[lo:hi] += second[lo:hi]

    _split_gemm(rows, len(out), n_in * n_out, n_out, out)
    return out


def linear_pair_backward(
    g: np.ndarray,
    a: np.ndarray,
    weight_a: np.ndarray,
    b: np.ndarray,
    weight_b: np.ndarray,
    has_bias: bool = False,
    need_grad_a: bool = True,
    need_grad_b: bool = True,
    divisor_a: Optional[np.ndarray] = None,
) -> tuple:
    """Gradients ``(grad_a, grad_weight_a, grad_b, grad_weight_b,
    grad_bias)`` of :func:`linear_pair_forward`, each bit-identical to
    :func:`linear_backward` of its linear.

    Both ``grad_x`` gemms run in one row-split pass (``grad_a`` then divided
    in place by ``divisor_a[:, None]``, SAGE-mean's ``1 / count``, exactly
    as the mean's own backward divides), both ``grad_w`` gemms in one
    column-split pass.  A ``need_grad_*=False`` input's gemm is skipped and
    its gradient is ``None``.
    """
    n_out, n_in = weight_a.shape
    grad_a = grad_b = None
    if need_grad_a:
        grad_a = np.empty((len(g), n_in), np.result_type(g.dtype, weight_a.dtype))
    if need_grad_b:
        grad_b = np.empty((len(g), n_in), np.result_type(g.dtype, weight_b.dtype))
    if need_grad_a or need_grad_b:

        def rows(lo: int, hi: Optional[int]) -> None:
            if grad_a is not None:
                np.matmul(g[lo:hi], weight_a, out=grad_a[lo:hi])
                if divisor_a is not None:
                    grad_a[lo:hi] /= divisor_a[lo:hi, None]
            if grad_b is not None:
                np.matmul(g[lo:hi], weight_b, out=grad_b[lo:hi])

        first = grad_a if grad_a is not None else grad_b
        _split_gemm(rows, len(g), n_in * n_out, n_in, first)
    a_t, b_t = a.swapaxes(-1, -2), b.swapaxes(-1, -2)
    grad_wa_t = np.empty((n_in, n_out), np.result_type(a.dtype, g.dtype))
    grad_wb_t = np.empty((n_in, n_out), np.result_type(b.dtype, g.dtype))

    def columns(lo: int, hi: Optional[int]) -> None:
        np.matmul(a_t, g[..., lo:hi], out=grad_wa_t[..., lo:hi])
        np.matmul(b_t, g[..., lo:hi], out=grad_wb_t[..., lo:hi])

    _split_gemm(columns, n_out, len(g) * n_in, n_in, grad_wa_t)
    grad_bias = g.sum(axis=0) if has_bias else None
    return grad_a, np.transpose(grad_wa_t), grad_b, np.transpose(grad_wb_t), grad_bias


# ----------------------------------------------------------------------
# Elementwise passes: dropout and relu→dropout, split by leading-axis
# block.  Elementwise, so any block gives the same bits.
# ----------------------------------------------------------------------
def _split_elementwise(block, out: np.ndarray) -> None:
    """``block(lo, hi)`` over ``out``'s leading axis in blocks of at least
    ``ELEMENT_GRAIN`` elements."""
    per_row = math.prod(out.shape[1:])
    split_rows(block, len(out), -(-ELEMENT_GRAIN // max(per_row, 1)))


def mask_scale(a: np.ndarray, mask: np.ndarray, scale) -> np.ndarray:
    """``a * mask * scale`` (multiply by the bool mask, then scale in
    place) into a new array of ``a``'s dtype: dropout's forward and
    the backward of both dropout and :func:`relu_mask_scale`."""
    out = np.empty(a.shape, a.dtype)
    a1, mask1, out1 = np.atleast_1d(a, mask, out)  # views; a 0-d array is one row

    def rows(lo: int, hi: int) -> None:
        np.multiply(a1[lo:hi], mask1[lo:hi], out=out1[lo:hi])
        out1[lo:hi] *= scale

    _split_elementwise(rows, out1)
    return out


def relu_mask_scale(x: np.ndarray, mask: np.ndarray, scale) -> np.ndarray:
    """``max(x, 0) * mask * scale``, and ``mask`` narrowed in place to
    ``mask & (x > 0)``: relu then dropout in one pass per block, in the
    order the two ops run them.  The narrowed mask makes the backward of
    both one :func:`mask_scale`."""
    out = np.empty(x.shape, x.dtype)
    x1, mask1, out1 = np.atleast_1d(x, mask, out)

    def rows(lo: int, hi: int) -> None:
        block = out1[lo:hi]
        np.maximum(x1[lo:hi], 0, out=block)
        np.multiply(block, mask1[lo:hi], out=block)
        block *= scale
        mask1[lo:hi] &= x1[lo:hi] > 0

    _split_elementwise(rows, out1)
    return out
