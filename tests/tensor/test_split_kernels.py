"""Split kernels are bit-identical to unsplit ones, and the split is safe.

Inside a :func:`split_scope`, ``linear_forward``, both gemms of
``linear_backward`` and every CSR accumulation (edge, gather and scatter
operators) cut their output into blocks run on the caller and helper
threads.  Each block keeps the unsplit summation order, so the outputs
must be ``array_equal`` to the unsplit kernel's for any shape — row counts
below, at and just above the grain, odd and edge-tile widths,
non-contiguous operands.  The splitter raises a block's error once, after
every block has finished.  Every split scope holds numpy's BLAS at one
thread, so the BLAS thread count the shell chose never changes a bit of a
scope's kernels.  The first splitter of a process sets glibc's allocator
to keep freed memory, once.
"""

import ctypes
import os
import sys
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.models import SAGEConv
from repro.telemetry import MetricsRegistry
from repro.tensor import (
    AggregationPlan,
    CoreSplitter,
    Tensor,
    compute_scope,
    current_splitter,
    kernels,
    split_scope,
)
from repro.tensor import split as split_module
from repro.tensor.kernels import CSR_GRAIN, GEMM_GRAIN

from ..helpers import OPENBLAS, blas_threads, blas_threads_set

needs_blas_control = pytest.mark.skipif(
    OPENBLAS is None, reason="numpy's BLAS has no thread-count control"
)


def around(grain):
    """Extents just below, at and just above one, two and three grains
    (two or more grains split), or anywhere from one to three grains."""
    ks = [(2, 0), (2, 1), (3, 1), (2, -1), (1, 0), (1, 1), (1, -1), (3, -1), (3, 0)]
    return st.one_of(
        st.sampled_from([max(1, k * grain + d) for k, d in ks]),
        st.integers(grain, 3 * grain + 1),
    )


#: gemm widths: odd and edge-tile sizes, and the models' feature, hidden
#: and class widths
WIDTHS = [2, 3, 5, 17, 33, 40, 47, 64, 100, 128, 256, 300]
#: mostly float32, the dtype gemms split in; float64 ones must run whole
GEMM_DTYPES = st.sampled_from([np.float32, np.float32, np.float32, np.float64])
LAYOUTS = st.sampled_from(["c", "fortran", "strided"])


def _operand(rng, shape, dtype, layout):
    """A ``shape`` array laid out C-contiguous, Fortran, or column-strided."""
    a = rng.normal(size=shape).astype(dtype)
    if layout == "fortran":
        return np.asfortranarray(a)
    if layout == "strided":
        wide = np.zeros(shape[:-1] + (2 * shape[-1],), dtype)
        wide[..., ::2] = a
        return wide[..., ::2]
    return a


def _splitter(parts, metrics=None):
    """A ``parts``-way splitter, whatever this host's CPU count."""
    splitter = CoreSplitter(metrics)
    splitter.parts = parts
    return splitter


def _helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-compute-helper")]


def _split(parts, fn):
    """``fn()`` under a ``parts``-way splitter: (result, split ops run)."""
    metrics = MetricsRegistry()
    splitter = _splitter(parts, metrics)
    try:
        with split_scope(splitter):
            result = fn()
    finally:
        splitter.close()
    return result, metrics.value("compute_split_ops")


def _assert_same(got, want):
    for g, w in zip(got, want, strict=True):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)


def _gemm_grain(row_work):
    return max(2, -(-GEMM_GRAIN // row_work))


def _gemm_splits(extent, row_work, width, dtype):
    """Whether a gemm of ``extent`` split rows is split (the kernels' rule:
    2-D float32, no one-wide operand, two grains of rows)."""
    return dtype == np.float32 and width >= 2 and extent >= 2 * _gemm_grain(row_work)


@st.composite
def gemm_case(draw):
    """(rows, n_in, n_out): rows around the forward gemm's grain."""
    n_in = draw(st.sampled_from(WIDTHS))
    # at most ~14k rows to a grain keeps the operands small
    n_out = draw(st.sampled_from([w for w in WIDTHS if n_in * w >= 600]))
    rows = draw(around(_gemm_grain(n_in * n_out)))
    return rows, n_in, n_out


@settings(max_examples=60, deadline=None)
@given(
    shape=gemm_case(),
    dtype=GEMM_DTYPES,
    layout=LAYOUTS,
    bias=st.booleans(),
    parts=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**31 - 1),
)
def test_linear_forward_split_is_bit_identical(shape, dtype, layout, bias, parts, seed):
    rows, n_in, n_out = shape
    rng = np.random.default_rng(seed)
    x = _operand(rng, (rows, n_in), dtype, layout)
    w = _operand(rng, (n_out, n_in), dtype, layout)
    b = rng.normal(size=n_out).astype(dtype) if bias else None
    want, _ = _split(1, lambda: kernels.linear_forward(x, w, b))
    got, ops = _split(parts, lambda: kernels.linear_forward(x, w, b))
    _assert_same([got], [want])
    event(f"split ops: {ops}")
    assert ops == _gemm_splits(rows, n_in * n_out, n_out, dtype)


@settings(max_examples=60, deadline=None)
@given(
    shape=gemm_case(),
    dtype=GEMM_DTYPES,
    layout=LAYOUTS,
    need_grad_x=st.booleans(),
    parts=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**31 - 1),
)
def test_linear_backward_split_is_bit_identical(
    shape, dtype, layout, need_grad_x, parts, seed
):
    """``grad_x`` splits by row, ``grad_w`` by output column."""
    rows, n_in, n_out = shape
    rng = np.random.default_rng(seed)
    g = _operand(rng, (rows, n_out), dtype, layout)
    x = _operand(rng, (rows, n_in), dtype, layout)
    w = _operand(rng, (n_out, n_in), dtype, layout)

    def backward():
        return kernels.linear_backward(g, x, w, need_grad_x=need_grad_x)

    want, _ = _split(1, backward)
    got, ops = _split(parts, backward)
    _assert_same(got, want)
    grad_x_splits = need_grad_x and _gemm_splits(rows, n_in * n_out, n_in, dtype)
    grad_w_splits = _gemm_splits(n_out, rows * n_in, n_in, dtype)
    event(f"split ops: {ops}")
    assert ops == grad_x_splits + grad_w_splits


@pytest.mark.parametrize(
    "rows,n_in,n_out", [(6194, 128, 256), (1903, 256, 256), (16495, 100, 64)]
)
def test_benchmark_layer_gemms_split_bit_identically(rows, n_in, n_out):
    """The layer shapes of the wide-compute and products workloads."""
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(rows, n_in)).astype(np.float32)
    w = rng.normal(size=(n_out, n_in)).astype(np.float32)
    b = rng.normal(size=n_out).astype(np.float32)
    g = rng.normal(size=(rows, n_out)).astype(np.float32)

    def run():
        return [kernels.linear_forward(x, w, b), *kernels.linear_backward(g, x, w)]

    want, _ = _split(1, run)
    got, ops = _split(2, run)
    _assert_same(got, want)
    assert ops == 3


def test_one_wide_gemms_never_split():
    """numpy runs ``(rows, 256) @ (256, 1)`` and ``(1, rows) @ (rows, 256)``
    as gemv, whose rounding depends on row position: both run whole."""
    rng = np.random.default_rng(0)
    rows = 2 * GEMM_GRAIN // 256 + 3  # two grains of the forward gemm
    x = rng.normal(size=(rows, 256)).astype(np.float32)
    w = rng.normal(size=(1, 256)).astype(np.float32)
    x_1 = rng.normal(size=(rows, 1)).astype(np.float32)
    g = rng.normal(size=(rows, 256)).astype(np.float32)
    w_1 = rng.normal(size=(256, 1)).astype(np.float32)

    def run():
        forward = kernels.linear_forward(x, w)
        _, grad_w, _ = kernels.linear_backward(g, x_1, w_1, need_grad_x=False)
        return [forward, grad_w]

    want, _ = _split(1, run)
    got, ops = _split(2, run)
    _assert_same(got, want)
    assert ops == 0


def _csr_splits(rows, nnz, n_vecs, parts):
    grain = -(-CSR_GRAIN * rows // max(nnz * n_vecs, 1))
    return min(parts, rows // grain) >= 2


@st.composite
def aggregation_case(draw):
    """A plan whose edge count times width sits around the CSR grain."""
    n_cols = draw(st.sampled_from([1, 3, 7, 17, 40, 64, 128]))
    n_edges = max(0, draw(st.sampled_from([1, 2, 3])) * -(-CSR_GRAIN // n_cols))
    n_edges += draw(st.sampled_from([-1, 0, 1]))
    n_dst = draw(st.integers(1, 3000))
    n_src = draw(st.integers(1, 3000))
    regime = draw(st.sampled_from(["random", "sparse", "hub", "empty"]))
    if regime == "empty":
        n_edges = 0
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if regime == "sparse":  # most segments empty
        dst = rng.integers(0, 1 + n_dst // 8, size=n_edges)
        src = rng.integers(0, 1 + n_src // 8, size=n_edges)
    elif regime == "hub":  # one destination and one source hold most edges
        dst = np.where(rng.random(n_edges) < 0.7, n_dst - 1, rng.integers(0, n_dst, n_edges))
        src = np.where(rng.random(n_edges) < 0.7, 0, rng.integers(0, n_src, n_edges))
    else:
        dst = rng.integers(0, n_dst, size=n_edges)
        src = rng.integers(0, n_src, size=n_edges)
    plan = AggregationPlan(src.astype(np.int64), dst.astype(np.int64), n_src, n_dst)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    layout = draw(LAYOUTS)
    return plan, n_cols, dtype, layout, rng


@settings(max_examples=60, deadline=None)
@given(case=aggregation_case(), parts=st.sampled_from([2, 3]), extra=st.integers(0, 3))
def test_csr_accumulate_split_is_bit_identical(case, parts, extra):
    """Edge, gather and scatter operators (float32 and float64), with
    scatter rows beyond the plan's sources."""
    plan, n_cols, dtype, layout, rng = case
    edges = _operand(rng, (plan.num_edges, n_cols), dtype, layout)
    x = _operand(rng, (plan.n_src, n_cols), dtype, layout)
    g = _operand(rng, (plan.n_dst, n_cols), dtype, layout)

    def run():
        return [
            kernels.plan_segment_sum(edges, plan),
            kernels.plan_segment_mean(edges, plan),
            kernels.fused_gather_segment_sum(x, plan),
            kernels.fused_gather_segment_mean(x, plan),
            kernels.fused_gather_scatter_add(g, plan, plan.n_src + extra),
        ]

    want = run()
    got, ops = _split(parts, run)
    _assert_same(got, want)
    dst = _csr_splits(plan.n_dst, plan.num_edges, n_cols, parts)
    src = _csr_splits(plan.n_src, plan.num_edges, n_cols, parts)
    event(f"split ops: {ops}")
    assert ops == 4 * dst + src


def test_one_dimensional_segment_sum_splits_bit_identically():
    """GAT's softmax denominators: a 1-D operand, one value per edge."""
    rng = np.random.default_rng(3)
    n_dst, n_edges = 4000, 3 * CSR_GRAIN
    plan = AggregationPlan(
        rng.integers(0, 5000, n_edges), rng.integers(0, n_dst, n_edges), 5000, n_dst
    )
    values = rng.normal(size=n_edges).astype(np.float32)
    want = kernels.plan_segment_sum(values, plan)
    got, ops = _split(2, lambda: kernels.plan_segment_sum(values, plan))
    _assert_same([got], [want])
    assert ops == 1


#: a forward gemm four grains long, and its weight
BIG_X = np.ones((4 * GEMM_GRAIN // (64 * 64), 64), np.float32)
BIG_W = np.ones((64, 64), np.float32)


def test_one_part_never_splits_or_starts_a_helper():
    with split_scope(_splitter(1)):
        kernels.linear_forward(BIG_X, BIG_W)
    assert not _helper_threads()


@needs_blas_control
@pytest.mark.parametrize(
    "env",
    [
        {"OPENBLAS_NUM_THREADS": "1"},
        {"OMP_NUM_THREADS": "1"},
        {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"},
        {"OPENBLAS_NUM_THREADS": "", "GOTO_NUM_THREADS": "1"},
        {},
    ],
)
def test_parts_are_the_cpus_whatever_the_blas_environment(monkeypatch, env):
    """The program sets the BLAS's thread count itself, so no shell
    variable decides whether a step splits."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert CoreSplitter().parts == len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# Failure: one error, raised after every block has finished
# ----------------------------------------------------------------------
class BlockError(Exception):
    pass


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_a_block_error_surfaces_once_after_every_block_finished(failing):
    splitter = _splitter(2)
    finished = []
    caller = threading.get_ident()

    def block(lo, hi):
        on_caller = threading.get_ident() == caller
        if on_caller == (failing == "caller"):
            raise BlockError(lo)
        time.sleep(0.2)  # the healthy block is slow: the error must wait
        finished.append(lo)

    try:
        with pytest.raises(BlockError) as excinfo:
            splitter.run(block, 8, 4)
        assert finished, "the error surfaced before the other block finished"
        assert excinfo.value.args == ((0,) if failing == "caller" else (4,))
        # Nothing is left behind in the queues: the next split is clean.
        out = []
        splitter.run(lambda lo, hi: out.append((lo, hi)), 8, 4)
        assert sorted(out) == [(0, 4), (4, 8)]
    finally:
        splitter.close()
    assert not _helper_threads()


def test_both_blocks_failing_raise_the_callers_error_once():
    splitter = _splitter(2)

    def block(lo, hi):
        raise BlockError(lo)

    try:
        with pytest.raises(BlockError) as excinfo:
            splitter.run(block, 8, 4)
        assert excinfo.value.args == (0,)
        splitter.run(lambda lo, hi: None, 8, 4)  # no stale helper error
    finally:
        splitter.close()


# ----------------------------------------------------------------------
# Scopes
# ----------------------------------------------------------------------
def _sage_step(splitter):
    """One SAGE conv forward+backward, every gemm and aggregation long
    enough to split: its output and every gradient."""
    rng = np.random.default_rng(0)
    n_src, n_dst = 6000, 4096
    edge_index = np.stack(
        [rng.integers(0, n_src, size=8 * n_dst), rng.integers(0, n_dst, size=8 * n_dst)]
    )
    conv = SAGEConv(64, 256, bias=True, rng=np.random.default_rng(1))
    x = Tensor(rng.normal(size=(n_src, 64)).astype(np.float32), requires_grad=True)
    with split_scope(splitter):
        out = conv((x, x[:n_dst]), edge_index)
        out.backward(np.ones_like(out.data))
        result = [np.array(out.data), np.array(x.grad)]
    return result + [np.array(p.grad) for p in conv.parameters()]


def test_a_split_sage_step_is_identical_to_an_unsplit_step():
    metrics = MetricsRegistry()
    splitter = _splitter(2, metrics)
    try:
        split_out = _sage_step(splitter)
    finally:
        splitter.close()
    assert metrics.value("compute_split_ops") > 0
    assert metrics.value("compute_helper_wait_seconds") >= 0
    _assert_same(split_out, _sage_step(None))


def test_split_scope_is_thread_local_and_nests():
    outer, inner = _splitter(2), _splitter(2)
    seen = []
    with split_scope(outer):
        thread = threading.Thread(target=lambda: seen.append(current_splitter()))
        thread.start()
        thread.join()
        with split_scope(inner):
            assert current_splitter() is inner
        assert current_splitter() is outer
        with split_scope(None):
            assert current_splitter() is outer
    assert current_splitter() is None and seen == [None]


def test_compute_scope_owns_a_splitter_for_the_block_only():
    before = threading.active_count()
    with compute_scope("fused"):
        splitter = current_splitter()
        assert splitter is not None
        kernels.linear_forward(BIG_X, BIG_W)
        assert len(_helper_threads()) == min(1, len(os.sched_getaffinity(0)) - 1)
    assert current_splitter() is None
    assert not _helper_threads() and threading.active_count() == before
    # Inside a caller's own split scope it adds nothing.
    mine = _splitter(2)
    with split_scope(mine), compute_scope("fused"):
        assert current_splitter() is mine


# ----------------------------------------------------------------------
# The BLAS thread count: one thread inside any split scope
# ----------------------------------------------------------------------
@needs_blas_control
def test_grad_w_under_a_scope_ignores_the_blas_thread_count_found():
    """A two-thread OpenBLAS splits the ``x.T @ g`` K sum and rounds
    differently; inside a scope the gemm runs on one thread whatever the
    count before it."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(500, 64)).astype(np.float32)
    g = rng.normal(size=(500, 47)).astype(np.float32)
    w = rng.normal(size=(47, 64)).astype(np.float32)

    def grad_w(threads):
        with blas_threads_set(threads):
            return _split(2, lambda: kernels.linear_backward(g, x, w)[1])[0]

    np.testing.assert_array_equal(grad_w(2), grad_w(1))


@needs_blas_control
@pytest.mark.parametrize("parts", [1, 2])
def test_a_scope_runs_one_blas_thread_and_restores_the_count(parts):
    with blas_threads_set(2):
        with split_scope(_splitter(parts)):
            assert blas_threads() == 1
        assert blas_threads() == 2


@needs_blas_control
def test_a_raising_scope_restores_the_blas_thread_count():
    with blas_threads_set(2):
        with pytest.raises(BlockError):
            with split_scope(_splitter(2)):
                assert blas_threads() == 1
                raise BlockError
        assert blas_threads() == 2


@needs_blas_control
def test_nested_scopes_restore_the_count_when_the_outer_one_closes():
    with blas_threads_set(2):
        with split_scope(_splitter(2)):
            with split_scope(_splitter(1)):
                assert blas_threads() == 1
            assert blas_threads() == 1
            with split_scope(None):
                assert blas_threads() == 1
        assert blas_threads() == 2
        with split_scope(None):
            assert blas_threads() == 2


@needs_blas_control
def test_overlapping_scopes_on_two_threads_restore_at_the_later_close():
    """Thread A opens, B opens, A closes (still one thread: B is open), B
    closes (restored)."""
    a_open, b_open, a_closed, b_may_close = (threading.Event() for _ in range(4))
    seen = {}

    def a():
        with split_scope(_splitter(2)):
            a_open.set()
            b_open.wait(5)
        seen["after_a"] = blas_threads()
        a_closed.set()

    def b():
        a_open.wait(5)
        with split_scope(_splitter(2)):
            b_open.set()
            b_may_close.wait(5)
            seen["inside_b"] = blas_threads()

    with blas_threads_set(2):
        threads = [threading.Thread(target=a), threading.Thread(target=b)]
        for thread in threads:
            thread.start()
        assert a_closed.wait(5)
        b_may_close.set()
        for thread in threads:
            thread.join(5)
            assert not thread.is_alive()
        assert seen == {"after_a": 1, "inside_b": 1}
        assert blas_threads() == 2


@needs_blas_control
def test_many_threads_entering_and_leaving_scopes_leave_the_count_restored():
    """A lost update of the open-scope count would restore the count while
    a scope is open, or never restore it."""
    errors = []

    def churn():
        splitter = _splitter(1)
        for _ in range(200):
            with split_scope(splitter):
                if blas_threads() != 1:
                    errors.append(blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with blas_threads_set(2):
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
            assert blas_threads() == 2
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


@needs_blas_control
def test_without_a_blas_control_nothing_splits_and_the_blas_is_left_alone(
    monkeypatch,
):
    monkeypatch.setattr(split_module, "_blas_control", lambda: None)
    splitter = CoreSplitter()
    assert splitter.parts == 1
    with blas_threads_set(2):
        with split_scope(splitter):
            assert blas_threads() == 2
        assert blas_threads() == 2


# ----------------------------------------------------------------------
# The allocator: set once per process, at the first splitter
# ----------------------------------------------------------------------
def _fake_libc(monkeypatch, with_mallopt=True):
    """Route ``ctypes.CDLL(None)`` to a C library whose ``mallopt``
    records its calls (or that has none), and forget that this process
    set its allocator: the calls made from here on."""
    split_module._blas_control()  # looked up through the real ctypes
    calls = []
    real_cdll = ctypes.CDLL

    def cdll(name, *args, **kwargs):
        if name is not None:
            return real_cdll(name, *args, **kwargs)
        libc = types.SimpleNamespace()
        if with_mallopt:

            def mallopt(param, value):
                calls.append((param, value))
                return 1

            libc.mallopt = mallopt
        return libc

    monkeypatch.setattr(split_module.ctypes, "CDLL", cdll)
    monkeypatch.setattr(split_module, "_malloc_set", False)
    return calls


def test_the_first_splitter_sets_the_allocator_once(monkeypatch):
    calls = _fake_libc(monkeypatch)
    with compute_scope("fused"):
        assert calls == [(-4, 0), (-1, 2**31 - 1)]  # M_MMAP_MAX, M_TRIM_THRESHOLD
    for _ in range(3):
        _splitter(2).close()
    assert len(calls) == 2


def test_a_ddp_trainer_sets_the_allocator_once(monkeypatch, tiny_dataset):
    """``DDPTrainer`` builds no splitter, and sets the allocator all the
    same: once, at the first trainer of the process."""
    from repro.train import DDPTrainer, get_config

    config = get_config("arxiv", "sage")
    calls = _fake_libc(monkeypatch)
    DDPTrainer(tiny_dataset, config, num_ranks=2)
    assert calls == [(-4, 0), (-1, 2**31 - 1)]  # M_MMAP_MAX, M_TRIM_THRESHOLD
    DDPTrainer(tiny_dataset, config, num_ranks=1)
    assert len(calls) == 2


def test_without_mallopt_the_allocator_is_left_alone(monkeypatch):
    _fake_libc(monkeypatch, with_mallopt=False)
    got, ops = _split(2, lambda: kernels.linear_forward(BIG_X, BIG_W))
    _assert_same([got], [kernels.linear_forward(BIG_X, BIG_W)])
    assert ops > 0 and split_module._malloc_set


def test_after_a_splitter_large_arrays_come_from_the_heap():
    """glibc only: with ``mmap`` off, a 64 MiB array is carved from the
    heap (no new mmapped chunk), and the heap keeps it once freed."""

    class MallInfo2(ctypes.Structure):
        _fields_ = [
            (name, ctypes.c_size_t)
            for name in "arena ordblks smblks hblks hblkhd usmblks fsmblks "
            "uordblks fordblks keepcost".split()
        ]

    mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
    if mallinfo2 is None:
        pytest.skip("the C library is not glibc >= 2.33")
    mallinfo2.restype = MallInfo2
    CoreSplitter().close()
    mapped = mallinfo2().hblkhd
    big = np.empty(64 << 20, dtype=np.uint8)
    assert mallinfo2().hblkhd == mapped
    heap = mallinfo2().arena
    del big
    assert mallinfo2().arena == heap
