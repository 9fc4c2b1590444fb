"""Test utilities: numerical gradient checking against the autograd tape,
the process state a closed pipeline must leave untouched, and the thread
count of numpy's BLAS."""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable

import numpy as np

from repro.tensor import Tensor


def _openblas():
    """``(get, set)`` of numpy's bundled OpenBLAS thread count, or ``None``
    where the BLAS build has no such control."""
    try:
        import numpy._core._multiarray_umath as umath

        lib = ctypes.CDLL(umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


OPENBLAS = _openblas()


def blas_threads() -> int:
    """The thread count numpy's BLAS runs a gemm on now."""
    return OPENBLAS[0]()


@contextmanager
def blas_threads_set(n: int):
    """Run the block with numpy's BLAS set to ``n`` threads, then restore
    the count found."""
    get, set_ = OPENBLAS
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)


def process_state():
    """``/dev/shm`` segments, live threads and live child processes."""
    return (
        {e for e in os.listdir("/dev/shm") if not e.startswith("sem.")},
        threading.active_count(),
        len(multiprocessing.active_children()),
    )


def settled_process_state(before, timeout: float = 10.0):
    """:func:`process_state` once it equals ``before`` or ``timeout`` passes
    (threads and children exit asynchronously after a close)."""
    deadline = time.monotonic() + timeout
    while process_state() != before and time.monotonic() < deadline:
        time.sleep(0.05)
    return process_state()


def numerical_gradient(
    fn: Callable[[], float], array: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of ``fn`` w.r.t. ``array`` (in place)."""
    grad = np.zeros_like(array, dtype=np.float64)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + eps
        f_plus = fn()
        array[idx] = original - eps
        f_minus = fn()
        array[idx] = original
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def check_gradient(
    build_loss: Callable[[Tensor], Tensor],
    shape: tuple,
    rng: np.random.Generator,
    atol: float = 1e-6,
    rtol: float = 1e-4,
) -> None:
    """Assert autograd gradient of ``build_loss`` matches finite differences.

    ``build_loss`` receives a float64 leaf tensor and must return a scalar
    loss built exclusively from tape-recorded ops.
    """
    data = rng.normal(size=shape).astype(np.float64)
    leaf = Tensor(data, requires_grad=True)
    loss = build_loss(leaf)
    if loss.size != 1:
        raise AssertionError("build_loss must return a scalar")
    loss.backward()
    assert leaf.grad is not None, "no gradient flowed to the leaf"

    numeric = numerical_gradient(lambda: float(build_loss(Tensor(data)).data), data)
    np.testing.assert_allclose(leaf.grad, numeric, atol=atol, rtol=rtol)
