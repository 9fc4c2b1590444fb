"""Per-step workspace buffer pool.

Training allocates near-identical activation/gradient arrays every batch —
the column widths repeat exactly (feature/hidden dims), while the row
counts (batch's node/edge counts) vary a few percent batch to batch.
:class:`Workspace` therefore pools *base* buffers keyed by
``(trailing shape, dtype, row-capacity bucket)`` where the leading
dimension is rounded up to a power of two: a request checks out a
``base[:rows]`` contiguous view of a pooled base with matching bucket, so
steady-state training recycles the same arrays batch after batch even as
row counts wobble.  Kernels check buffers out during a step and the
trainer releases them all at step end.  Hits, misses and byte volumes are
counted in the workspace's :class:`~repro.telemetry.metrics.MetricsRegistry`
(its own, or the one it is built with — a trainer passes its pipeline's),
and :attr:`Workspace.stats` reads them back from there.

The active workspace is a *thread-local* scope, entered by the trainer
around the forward/backward of each step::

    with workspace_scope(ws):
        out = model(x, mfg.adjs)
        loss.backward()

Outside a scope (inference, DDP, ad-hoc tensor math) the same kernels
allocate with plain ``numpy`` — the scope changes where buffers come from,
never which kernel runs.

Pooled buffers are only handed to *step-transient* consumers (kernel
outputs and backward scratch).  Nothing that outlives the step may hold
one: ``Tensor._accumulate`` copies gradients into fresh arrays before they
reach ``param.grad``, optimizer state is separate, and losses are scalars,
so releasing at step end is safe by construction.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Optional

import numpy as np

from ..telemetry.metrics import MetricsRegistry
from .split import CoreSplitter, current_splitter, split_scope

__all__ = [
    "Workspace",
    "workspace_scope",
    "current_workspace",
    "compute_scope",
]


def _row_capacity(rows: int) -> int:
    """Leading-dimension bucket: ``rows`` rounded up to a power of two.

    Bucketing bounds the number of distinct base shapes, so a batch whose
    node/edge counts differ slightly from the last one still finds a
    pooled base (at most 2x leading-dim slack, typically far less).
    """
    return 1 if rows <= 1 else 1 << (rows - 1).bit_length()


class Workspace:
    """Capacity-bucketed buffer pool recycling arrays across batches.

    ``zeros``/``empty`` check out a ``base[:rows]`` view of a pooled base
    array keyed by ``(trailing shape, dtype, row-capacity bucket)``;
    :meth:`release_all` returns every checked-out base to the free lists.
    Not thread-safe — each trainer owns one and uses it from the compute
    thread only.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._out: list[tuple[tuple, np.ndarray]] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # ------------------------------------------------------------------
    def empty(self, shape, dtype) -> np.ndarray:
        """Check out an uninitialized buffer of ``shape``/``dtype``."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        dtype = np.dtype(dtype)
        if not shape:  # 0-d: not worth pooling
            return np.empty(shape, dtype=dtype)
        rows = int(shape[0])
        capacity = _row_capacity(rows)
        key = (shape[1:], dtype.str, capacity)
        stack = self._free.get(key)
        if stack:
            base = stack.pop()
            self._record(hit=True, nbytes=base.nbytes)
        else:
            base = np.empty((capacity,) + shape[1:], dtype=dtype)
            self._record(hit=False, nbytes=base.nbytes)
        self._out.append((key, base))
        return base[:rows]

    def zeros(self, shape, dtype) -> np.ndarray:
        """Check out a zero-filled buffer of ``shape``/``dtype``."""
        array = self.empty(shape, dtype)
        array.fill(0)
        return array

    def release_all(self) -> None:
        """Return every checked-out base to the pool (end of step)."""
        for key, base in self._out:
            self._free.setdefault(key, []).append(base)
        self._out.clear()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Hit/miss/byte counts (from :attr:`metrics`) and pool occupancy."""
        value = self.metrics.value
        return {
            "hits": value("workspace_hits", default=0),
            "misses": value("workspace_misses", default=0),
            "bytes_reused": value("workspace_bytes", default=0, source="reused"),
            "bytes_allocated": value("workspace_bytes", default=0, source="allocated"),
            "buffers_pooled": sum(len(s) for s in self._free.values()),
            "buffers_out": len(self._out),
        }

    def pooled_bytes(self) -> int:
        return sum(a.nbytes for s in self._free.values() for a in s) + sum(
            a.nbytes for _, a in self._out
        )

    def _record(self, hit: bool, nbytes: int) -> None:
        metrics = self.metrics
        if hit:
            metrics.counter("workspace_hits").inc(1)
            metrics.counter("workspace_bytes", source="reused").inc(nbytes)
        else:
            metrics.counter("workspace_misses").inc(1)
            metrics.counter("workspace_bytes", source="allocated").inc(nbytes)


_LOCAL = threading.local()


@contextmanager
def workspace_scope(workspace: Optional[Workspace]):
    """Make ``workspace`` the active pool for this thread; release on exit.

    ``workspace=None`` is a no-op scope (kernels allocate with numpy).
    """
    if workspace is None:
        yield None
        return
    previous = getattr(_LOCAL, "workspace", None)
    _LOCAL.workspace = workspace
    try:
        yield workspace
    finally:
        _LOCAL.workspace = previous
        workspace.release_all()


def current_workspace() -> Optional[Workspace]:
    """The pool active on this thread, or ``None``."""
    return getattr(_LOCAL, "workspace", None)


def _pool_zeros(shape, dtype) -> np.ndarray:
    """Zero-filled output buffer: pooled when a workspace is active."""
    workspace = current_workspace()
    if workspace is not None:
        return workspace.zeros(shape, dtype)
    return np.zeros(shape, dtype=dtype)


def _pool_empty(shape, dtype) -> np.ndarray:
    """Uninitialized scratch buffer: pooled when a workspace is active."""
    workspace = current_workspace()
    if workspace is not None:
        return workspace.empty(shape, dtype)
    return np.empty(shape, dtype=dtype)


@contextmanager
def compute_scope(mode: str):
    """Validate ``mode`` and run the block as a training step's compute.

    There is one kernel generation, so ``mode`` selects nothing (the scope
    is kept for ``benchmarks/e2e``, whose hand-driven step enters it).  A
    caller that has no :class:`~repro.tensor.split.CoreSplitter` scope of
    its own gets one for the block, so its step splits its kernels across
    cores like :meth:`~repro.train.Trainer.train_step`; the helper threads
    are joined on exit.
    """
    if mode != "fused":
        raise ValueError(f"unknown compute mode {mode!r}")
    if current_splitter() is not None:
        yield
        return
    splitter = CoreSplitter()
    try:
        with split_scope(splitter):
            yield
    finally:
        splitter.close()
