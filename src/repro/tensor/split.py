"""Two cores for one batch: split a kernel's rows across helper threads.

On a host whose compute engine is a CPU thread, a kernel run whole uses
one core and leaves the others idle.  :class:`CoreSplitter` cuts a large
gemm's or CSR aggregation's output into disjoint row (or column) blocks:
the calling thread runs the first block and helper threads run the rest.
numpy's BLAS gemm and scipy's ``csr_matvecs`` release the GIL, so the
blocks run on separate cores.

Every block keeps the unsplit kernel's summation order — a gemm's output
row never depends on the other rows, and the ``grad_w`` gemm is cut by
output column so its K sum is never split; a CSR row block accumulates its
rows' entries in storage order exactly as the whole matvec does — so the
split changes where work runs, never a bit of the result.  For gemms that
also takes the BLAS running the same kernel on every block as on the
whole, which is why each kernel chooses its own grain (fewest rows per
block; see :mod:`repro.tensor.kernels`), and running it on one thread (a
multi-threaded OpenBLAS may split ``x.T @ g``'s K sum and round otherwise):
every split scope holds the BLAS at one thread, so the shell changes
neither the speed nor the bits of a step.

The active splitter is a *thread-local* scope, entered by the trainer
around the forward/backward of each step::

    with split_scope(splitter):
        out = model(x, mfg.adjs)
        loss.backward()

Outside a scope (ad-hoc tensor math, DDP replicas, layer-wise full
inference) the same kernels run unsplit, on the BLAS as the shell set it.

Ownership: allocate, then split.  A kernel allocates every output before
it splits, so a helper only ever writes into a disjoint view of an array
the caller already holds.  :meth:`CoreSplitter.run` returns only after
every block has finished, and re-raises the first block error then.

Memory: kernels allocate with plain numpy and the allocator keeps what a
step frees.  The first :class:`CoreSplitter` sets glibc's ``mallopt``
once per process: no ``mmap`` for large blocks (``M_MMAP_MAX`` 0) and no
trim of the heap top (``M_TRIM_THRESHOLD`` at ``INT_MAX``), so the next
step's arrays reuse the heap instead of fresh, zero-filled pages.
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading
import time
from contextlib import contextmanager
from typing import Callable, Optional

__all__ = [
    "CoreSplitter",
    "split_scope",
    "current_splitter",
    "split_rows",
    "compute_scope",
    "Workspace",
    "workspace_scope",
    "keep_freed_memory",
]

_PIN_LOCK = threading.Lock()
#: numpy's OpenBLAS thread-count ``(get, set)``, ``()`` without one, ``None``
#: until looked up
_blas = None
#: split scopes open in this process, and the BLAS thread count before them
_pin_depth, _pin_saved = 0, 1
#: glibc ``mallopt`` parameters (``<malloc.h>``)
_M_TRIM_THRESHOLD, _M_MMAP_MAX = -1, -4
#: whether this process has set its allocator
_malloc_set = False


def _blas_control():
    """numpy's bundled OpenBLAS thread-count ``(get, set)``, or ``None`` for
    another BLAS build.  Looked up at first use, not at import: a spawned
    prepare worker imports this module but runs no gemm."""
    global _blas
    with _PIN_LOCK:
        if _blas is None:
            try:
                import numpy._core._multiarray_umath as umath

                lib = ctypes.CDLL(umath.__file__)
                get = lib.scipy_openblas_get_num_threads64_
                set_ = lib.scipy_openblas_set_num_threads64_
            except (ImportError, OSError, AttributeError):
                _blas = ()
            else:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                _blas = (get, set_)
        return _blas or None


def _pin_blas(control, step: int) -> None:
    """Count a split scope opening (``step=1``) or closing (``-1``): the BLAS
    runs one thread while any is open, then the count found before them."""
    global _pin_depth, _pin_saved
    get, set_ = control
    with _PIN_LOCK:
        if _pin_depth == 0:
            _pin_saved = get()
        _pin_depth += step
        set_(1 if _pin_depth else _pin_saved)


def keep_freed_memory() -> None:
    """Set glibc's allocator to keep freed memory, once per process: no
    ``mmap`` for large blocks and no trim of the heap top, both at once
    (either alone made ``predict`` slower).  A no-op where the C library
    has no ``mallopt``.  Set at the first :class:`CoreSplitter` (every
    ``Trainer``) or ``DDPTrainer``, not at import, like
    :func:`_blas_control`."""
    global _malloc_set
    with _PIN_LOCK:
        if _malloc_set:
            return
        _malloc_set = True
        try:
            mallopt = ctypes.CDLL(None).mallopt
        except (OSError, AttributeError):
            return
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_MMAP_MAX, 0)
        mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)


class CoreSplitter:
    """Runs a kernel's row blocks on the caller and ``parts - 1`` helpers.

    ``parts`` is the number of CPUs this process may run on, or 1 (never
    split) where the BLAS's thread count cannot be set (an OpenBLAS left to
    its own threads runs a gemm on every core and spins between calls, so a
    helper would only contend with it).  Helper
    threads start at the first split and :meth:`close` joins them; a
    closed splitter starts them again if it is used again.  ``metrics`` (a
    :class:`~repro.telemetry.metrics.MetricsRegistry`) receives
    ``compute_split_ops`` and ``compute_helper_wait_seconds``.  The first
    splitter of a process sets its allocator (:func:`keep_freed_memory`).
    """

    def __init__(self, metrics=None) -> None:
        keep_freed_memory()
        self.parts = len(os.sched_getaffinity(0)) if _blas_control() else 1
        self.metrics = metrics
        self._helpers: list[threading.Thread] = []
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._done: queue.SimpleQueue = queue.SimpleQueue()

    def run(self, block: Callable[[int, int], None], n: int, grain: int) -> None:
        """Call ``block(lo, hi)`` over consecutive ranges covering ``[0, n)``.

        Each range gets at least ``grain`` of the ``n`` rows: unsplit (one
        ``block(0, n)`` call on this thread) when ``n < 2 * grain`` or
        there is one part.  Otherwise the caller runs the first range while
        helpers run the others; the first error, the caller's before a
        helper's, is raised once every range has finished.  One caller
        thread at a time.
        """
        parts = min(self.parts, n // max(grain, 1))
        if parts < 2:
            block(0, n)
            return
        if not self._helpers:
            self._start()
        bounds = [n * i // parts for i in range(parts + 1)]
        for i in range(1, parts):
            self._tasks.put((block, bounds[i], bounds[i + 1]))
        error = None
        try:
            block(bounds[0], bounds[1])
        except BaseException as exc:  # raised below, after the helpers
            error = exc
        t0 = time.perf_counter()
        for _ in range(parts - 1):
            helper_error = self._done.get()
            if error is None:
                error = helper_error
        waited = time.perf_counter() - t0
        if self.metrics is not None:
            self.metrics.counter("compute_split_ops").inc(1)
            self.metrics.counter("compute_helper_wait_seconds").inc(waited)
        if error is not None:
            raise error

    def _start(self) -> None:
        for i in range(self.parts - 1):
            thread = threading.Thread(
                target=self._serve, name=f"repro-compute-helper-{i}", daemon=True
            )
            thread.start()
            self._helpers.append(thread)

    def _serve(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None:
                return
            block, lo, hi = task
            try:
                block(lo, hi)
            except BaseException as exc:  # handed to the caller
                self._done.put(exc)
            else:
                self._done.put(None)

    def close(self) -> None:
        """Stop and join the helper threads (idempotent)."""
        for _ in self._helpers:
            self._tasks.put(None)
        for thread in self._helpers:
            thread.join()
        self._helpers.clear()


_LOCAL = threading.local()


@contextmanager
def split_scope(splitter: Optional[CoreSplitter]):
    """Make ``splitter`` split this thread's kernels inside the block.

    The BLAS runs one thread while any split scope in the process is open,
    whatever its ``parts``: a one-part scope is the unsplit reference of a
    split one.  ``splitter=None`` is a no-op scope (kernels run unsplit).
    """
    if splitter is None:
        yield None
        return
    previous = getattr(_LOCAL, "splitter", None)
    control = _blas_control()
    if control:
        _pin_blas(control, 1)
    _LOCAL.splitter = splitter
    try:
        yield splitter
    finally:
        _LOCAL.splitter = previous
        if control:
            _pin_blas(control, -1)


def current_splitter() -> Optional[CoreSplitter]:
    """The splitter active on this thread, or ``None``."""
    return getattr(_LOCAL, "splitter", None)


def split_rows(block: Callable[[int, int], None], n: int, grain: int) -> None:
    """``block`` over ``[0, n)`` in ranges of at least ``grain`` rows when a
    splitter is active on this thread, else one ``block(0, n)`` call."""
    splitter = current_splitter()
    if splitter is None:
        block(0, n)
    else:
        splitter.run(block, n, grain)


@contextmanager
def compute_scope(mode: str):
    """Validate ``mode`` and run the block as a training step's compute.

    There is one kernel generation, so ``mode`` selects nothing (the scope
    is kept for ``benchmarks/e2e``, whose hand-driven step enters it).  A
    caller that has no :class:`CoreSplitter` scope of its own gets one for
    the block, so its step splits its kernels across cores like
    :meth:`~repro.train.Trainer.train_step`; the helper threads are joined
    on exit.
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


class Workspace:
    """Holds nothing: kernels allocate with numpy.  Kept with
    :func:`workspace_scope` for ``benchmarks/e2e``'s hand-driven step."""


@contextmanager
def workspace_scope(workspace: Optional[Workspace] = None):
    """A no-op scope, so the benchmark's step allocates as the trainer's."""
    yield workspace
