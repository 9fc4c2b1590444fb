"""True multi-core batch preparation: the multiprocess prepare stage.

This module de-simulates the paper's headline scaling result (Section 4.2,
Table 2): batch preparation — sampling plus slicing — running genuinely in
parallel across CPU cores.  The threaded policy keeps SALIENT's
*architecture* (dynamic load balancing, end-to-end per-batch ownership,
pinned staging, bounded prefetch) but the GIL serializes its numpy-glue
hot path; here the prepare stage fans out to **worker processes** that
share the dataset and the staging slots through POSIX shared memory
(:mod:`repro.runtime.shm`), so nothing on the hot path is pickled:

- the CSR topology and the in-RAM feature rows are copied into a shared
  segment once at stage construction (a slab store is reopened by path
  instead); workers sample and slice over views;
- each task message is ``(index, nodes, rng_entries, slot)`` — a few
  hundred bytes; the worker writes sliced features/labels and the encoded
  MFG topology straight into the assigned shared pinned slot;
- the parent wraps the slot into the same :class:`SlicedBatch` envelope
  the staged pipeline already consumes; only the small int64 topology is
  copied out of the slot (it outlives the slot's recycle-after-transfer).

Determinism: workers rebuild each batch's generator from the pipeline's
``rng_entries(index)`` (``SeedSequence([seed, index])``), the exact policy
of the single-process policies, so per-batch losses are byte-identical to
the serial policy for the same seed.

Failure handling: a worker exception travels back as a result message and
re-raises inside the dispatching stage thread, entering the runtime's
normal :class:`~repro.runtime.stages.StageError` cancellation (pinned slot
released by ``PrepareStage.abandon``).  A *crashed* worker (e.g. SIGKILL) is
detected by the receiver thread's liveness check, which fails every
pending future with :class:`WorkerCrashed` — same cancellation path, all
slots return to the pool.

Telemetry: per-worker busy seconds land in
``mp_worker_busy_seconds{worker=i}`` histograms and a live
``mp_prepare/busy_workers`` probe, which ``repro diagnose`` folds into
``cpu:mp<i>`` lanes so a prep-bound verdict can name actual core
starvation (see :mod:`repro.telemetry.attribution`).
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import threading
import time
import traceback
from typing import Optional, Sequence, Type

import numpy as np

from ..graph.csr import CSRGraph
from ..sampling.base import NeighborSamplerBase
from ..slicing.slicer import SlicedBatch, build_aggregation_plans
from ..slicing.store import FeatureStore
from ..telemetry.monitor import ProbeSampler
from .shm import (
    SharedArena,
    SharedDataset,
    SharedSlotPool,
    decode_mfg,
    encode_mfg,
)
from .stages import PrepareStage, _timed_span

__all__ = [
    "WorkerCrashed",
    "WorkerTaskError",
    "MultiprocessPreparePool",
    "MPPrepareStage",
    "estimate_mfg_capacity",
]

#: seconds a dispatch thread waits for its worker's result before failing
#: the batch (a crashed worker is detected much sooner by the watchdog)
RESULT_TIMEOUT_S = 120.0


class WorkerCrashed(RuntimeError):
    """A prepare worker process died without reporting a result."""


class WorkerTaskError(RuntimeError):
    """A prepare worker raised while processing a batch (traceback text
    from the worker process is carried in ``worker_traceback``)."""

    def __init__(self, message: str, worker_traceback: str = ""):
        super().__init__(message)
        self.worker_traceback = worker_traceback


def estimate_mfg_capacity(
    graph: CSRGraph, fanouts: Sequence[Optional[int]], batch_size: int, max_rows: int
) -> int:
    """Upper bound on the int64 words :func:`~repro.runtime.shm.encode_mfg`
    needs for any batch: ``n_id`` rows plus ``2 * edges`` per hop, with
    per-hop edges capped by ``frontier * fanout`` and the graph itself."""
    frontier = min(batch_size, graph.num_nodes)
    total_edges = 0
    for fanout in fanouts:
        edges = (
            graph.num_edges
            if fanout is None
            else min(frontier * fanout, graph.num_edges)
        )
        total_edges += edges
        # Each selected edge introduces at most one new frontier node.
        frontier = min(frontier + edges, graph.num_nodes)
    return max_rows + 2 * total_edges


# ----------------------------------------------------------------------
# Worker process body (module-level: spawn pickles a reference to it)
# ----------------------------------------------------------------------
def _worker_main(
    worker_id: int,
    dataset_spec: dict,
    pool_spec: dict,
    busy_spec: dict,
    task_q,
    result_q,
    sampler_cls: Type[NeighborSamplerBase],
    fanouts: Sequence[Optional[int]],
) -> None:
    dataset = SharedDataset.attach(dataset_spec)
    slots = SharedSlotPool.attach_views(pool_spec)
    busy_arena = SharedArena.attach(busy_spec)
    busy = busy_arena.array("busy")
    sampler = sampler_cls(dataset.graph, list(fanouts))
    store = dataset.store
    try:
        while True:
            task = task_q.get()
            if task is None:
                return
            index, nodes, entries, slot = task
            busy[worker_id] = 1
            try:
                t0 = time.perf_counter()
                # The pipeline's per-batch seeding policy, reproduced
                # verbatim: scheduling can never change a batch's stream.
                rng = np.random.default_rng(np.random.SeedSequence(list(entries)))
                mfg = sampler.sample(np.asarray(nodes, dtype=np.int64), rng)
                t1 = time.perf_counter()
                # Memory-mapped stores meter their page-fault/copy time in
                # their own (worker-local) registry; the per-task delta
                # rides the result message into the parent's registry.
                store_metrics = getattr(store, "metrics", None)
                mmap0 = (
                    store_metrics.value("mmap_wait_seconds")
                    if store_metrics is not None
                    else 0.0
                )
                buffer = slots[slot]
                spill: dict = {}
                rows = len(mfg.n_id)
                if rows <= buffer.features.shape[0] and mfg.batch_size <= len(
                    buffer.labels
                ):
                    store.slice_features(mfg.n_id, out=buffer.features[:rows])
                    store.slice_labels(
                        mfg.target_ids(), out=buffer.labels[: mfg.batch_size]
                    )
                else:  # oversized batch: fall back to (counted) pickling
                    spill["xs"] = store.slice_features(mfg.n_id)
                    spill["ys"] = store.slice_labels(mfg.target_ids())
                if not encode_mfg(mfg, buffer.header, buffer.mfg_ints):
                    spill["mfg"] = mfg
                t2 = time.perf_counter()
                mmap_s = (
                    store_metrics.value("mmap_wait_seconds") - mmap0
                    if store_metrics is not None
                    else 0.0
                )
                result_q.put(
                    ("ok", index, worker_id, t1 - t0, t2 - t1, mmap_s, spill or None)
                )
            except BaseException as exc:  # noqa: BLE001 - forwarded verbatim
                result_q.put(
                    (
                        "err",
                        index,
                        worker_id,
                        f"{type(exc).__name__}: {exc}",
                        traceback.format_exc(),
                    )
                )
            finally:
                busy[worker_id] = 0
    except (KeyboardInterrupt, EOFError, BrokenPipeError):  # pragma: no cover
        pass
    finally:
        dataset.close()
        busy_arena.close()


# ----------------------------------------------------------------------
# Parent-side client
# ----------------------------------------------------------------------
class _Future:
    """One task's pending result (thread-safe single-assignment cell)."""

    __slots__ = ("_event", "_value", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value = None
        self._error: Optional[BaseException] = None

    def set(self, value) -> None:
        self._value = value
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def result(self, timeout: Optional[float] = None):
        if not self._event.wait(timeout):
            raise TimeoutError("prepare worker did not return a result in time")
        if self._error is not None:
            raise self._error
        return self._value


class MultiprocessPreparePool:
    """A pool of sampler/slicer worker processes over shared memory.

    The parent submits ``(index, nodes, rng_entries, slot)`` tasks to a
    shared queue (dynamic load balancing, as under the threaded policy) and
    receives tiny result messages on a second queue; a receiver thread
    resolves futures and doubles as the liveness watchdog — a worker that
    exits without being asked fails every pending future with
    :class:`WorkerCrashed`.  Each worker rebuilds its sampler as
    ``sampler_cls(graph, fanouts)`` over the shared CSR (the class travels
    by import path, so it must be importable in the worker).
    """

    def __init__(
        self,
        dataset_spec: dict,
        pool_spec: dict,
        num_workers: int,
        fanouts: Sequence[Optional[int]],
        sampler_cls: Type[NeighborSamplerBase],
        start_method: str,
        poll_interval: float = 0.1,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.start_method = start_method
        self._poll_interval = poll_interval
        ctx = mp.get_context(start_method)
        self._busy_arena = SharedArena.allocate({"busy": ((num_workers,), np.uint8)})
        self._busy = self._busy_arena.array("busy")
        self._busy[:] = 0
        self._task_q = ctx.Queue()
        self._result_q = ctx.Queue()
        self._futures: dict[int, _Future] = {}
        self._lock = threading.Lock()
        self._broken: Optional[WorkerCrashed] = None
        self._closing = False
        self.processes = [
            ctx.Process(
                target=_worker_main,
                args=(
                    wid,
                    dataset_spec,
                    pool_spec,
                    self._busy_arena.spec(),
                    self._task_q,
                    self._result_q,
                    sampler_cls,
                    list(fanouts),
                ),
                daemon=True,
                name=f"mp-prepare-{wid}",
            )
            for wid in range(num_workers)
        ]
        for proc in self.processes:
            proc.start()
        self._receiver = threading.Thread(
            target=self._recv_loop, daemon=True, name="mp-prepare-recv"
        )
        self._receiver.start()

    # ------------------------------------------------------------------
    def submit(self, index: int, nodes: np.ndarray, entries: Sequence[int], slot: int) -> _Future:
        """Dispatch one batch to whichever worker grabs it first."""
        future = _Future()
        with self._lock:
            if self._broken is not None:
                raise self._broken
            if self._closing:
                raise RuntimeError("prepare pool is closed")
            self._futures[index] = future
        self._task_q.put(
            (int(index), np.asarray(nodes, dtype=np.int64), list(entries), int(slot))
        )
        return future

    def busy_workers(self) -> float:
        """Workers currently inside a task (shared-flag sum, probe-cheap)."""
        return float(int(self._busy.sum()))

    def utilization(self) -> float:
        return self.busy_workers() / self.num_workers

    def register_probes(self, sampler: ProbeSampler) -> None:
        sampler.add_probe(
            "mp_prepare/busy_workers", self.busy_workers, unit="workers"
        )
        sampler.add_probe(
            "mp_prepare/utilization", self.utilization, unit="fraction"
        )

    # ------------------------------------------------------------------
    def _recv_loop(self) -> None:
        while True:
            try:
                msg = self._result_q.get(timeout=self._poll_interval)
            except (queue.Empty, OSError, ValueError, EOFError):
                if self._closing and not any(p.is_alive() for p in self.processes):
                    return
                self._check_liveness()
                continue
            kind, index = msg[0], msg[1]
            with self._lock:
                future = self._futures.pop(index, None)
            if future is None:  # cancelled or already failed
                continue
            if kind == "ok":
                future.set(msg[2:])
            else:
                _, _, worker_id, message, tb = msg
                future.fail(
                    WorkerTaskError(
                        f"prepare worker {worker_id} failed: {message}", tb
                    )
                )

    def _check_liveness(self) -> None:
        if self._closing or self._broken is not None:
            return
        dead = [p for p in self.processes if p.exitcode is not None]
        if not dead:
            return
        names = ", ".join(f"{p.name} (exit {p.exitcode})" for p in dead)
        error = WorkerCrashed(f"prepare worker died unexpectedly: {names}")
        with self._lock:
            self._broken = error
            pending = list(self._futures.values())
            self._futures.clear()
        for future in pending:
            future.fail(error)

    # ------------------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Stop workers, fail any stragglers, release the busy-flag arena."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            pending = list(self._futures.values())
            self._futures.clear()
        for future in pending:
            future.fail(WorkerCrashed("prepare pool closed"))
        for _ in self.processes:
            try:
                self._task_q.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                break
        for proc in self.processes:
            proc.join(timeout)
        for proc in self.processes:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout)
        self._receiver.join(timeout)
        for q in (self._task_q, self._result_q):
            q.cancel_join_thread()
            q.close()
        self._busy_arena.close()
        self._busy_arena.unlink()


# ----------------------------------------------------------------------
# The pipeline stage
# ----------------------------------------------------------------------
class MPPrepareStage(PrepareStage):
    """Prepare stage whose workers are *processes*, not threads.

    Each of the stage's ``workers`` dispatch threads owns one in-flight
    batch end-to-end: acquire a shared pinned slot, submit the task, block
    on the future, wrap the slot into a :class:`SlicedBatch`.  Blocking
    threads cost no CPU — the cores belong to the worker processes — while
    keeping the stage a drop-in citizen of :class:`StagedPipeline`'s
    queueing, ordering and cancellation machinery (a raise here lands in
    ``abandon`` → pinned slot released → ``StageError`` at the caller,
    identical to the threaded stage).

    The stage owns three shared-memory artifacts — the read-only dataset
    segment it creates from ``graph``/``store``, the staging
    ``pinned_pool`` (a :class:`SharedSlotPool`) it is handed, and the worker
    pool's busy-flag strip — plus the worker processes themselves;
    :meth:`close` tears all of them down.
    """

    def __init__(
        self,
        graph: CSRGraph,
        store: FeatureStore,
        pinned_pool: SharedSlotPool,
        sampler_cls: Type[NeighborSamplerBase],
        fanouts: Sequence[Optional[int]],
        workers: int,
        start_method: str,
    ) -> None:
        # The samplers live in the worker processes, rebuilt there as
        # ``sampler_cls(graph, fanouts)``: no factory on this side.
        super().__init__(None, store, pinned_pool=pinned_pool, workers=workers)
        self.shared_dataset = SharedDataset.create(graph, store)
        self.client = MultiprocessPreparePool(
            self.shared_dataset.spec(),
            pinned_pool.spec(),
            workers,
            fanouts,
            sampler_cls,
            start_method,
        )
        self._closed = False

    def close(self) -> None:
        """Stop the workers and free every shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        self.client.close()
        self.shared_dataset.close()
        self.shared_dataset.unlink()
        self.pinned_pool.close()
        self.pinned_pool.unlink()

    def make_state(self, worker_id: int):
        """Dispatch threads hold no sampler (the worker processes do)."""
        return None

    def process(self, env, state, resource: str) -> None:
        ctx = self.ctx
        t_begin = time.perf_counter()
        with ctx.tracer.span("prepare", resource, env.index):
            buffer = self.pinned_pool.acquire()
            env.buffer = buffer
            env.buffer_pool = self.pinned_pool
            future = self.client.submit(
                env.index, env.nodes, env.rng_entries, buffer.slot
            )
            worker_id, sample_s, slice_s, mmap_s, spill = future.result(
                timeout=RESULT_TIMEOUT_S
            )
            if spill and "mfg" in spill:
                ctx.metrics.counter("mp_mfg_overflow_batches").inc()
                mfg = spill["mfg"]
            else:
                # Copy the topology out of the slot: the MFG outlives the
                # slot's recycle-after-DMA, the feature rows do not.
                mfg = decode_mfg(buffer.header, buffer.mfg_ints)
            if spill and "xs" in spill:
                ctx.metrics.counter("mp_slot_overflow_batches").inc()
                xs, ys, slot = spill["xs"], spill["ys"], None
                env.release_buffer()  # slot unused; recycle immediately
            else:
                xs = buffer.features[: len(mfg.n_id)]
                ys = buffer.labels[: mfg.batch_size]
                slot = buffer.slot
            env.mfg = mfg
            env.sliced = SlicedBatch(
                mfg=mfg, xs=xs, ys=ys, store=self.store, pinned_slot=slot
            )
        wait_s = time.perf_counter() - t_begin
        # Worker-measured busy time feeds the standard sample/slice
        # accounting; the dispatch overhead (queueing + IPC) is tracked
        # separately so diagnose can tell cores-busy from glue-bound.
        env.timings["sample"] = env.timings.get("sample", 0.0) + sample_s
        env.timings["slice"] = env.timings.get("slice", 0.0) + slice_s
        metrics = ctx.metrics
        if mmap_s > 0.0:
            # Cold-tier wait measured inside the worker process; folded
            # into the parent registry for the storage-bound verdict.
            metrics.counter("mmap_wait_seconds").inc(mmap_s)
        metrics.histogram("mp_result_wait_seconds").observe(
            max(wait_s - sample_s - slice_s, 0.0)
        )
        metrics.histogram(
            "mp_worker_busy_seconds", worker=str(worker_id)
        ).observe(sample_s + slice_s)
        metrics.counter("mp_batches", worker=str(worker_id)).inc()
        with _timed_span(ctx, env, "plan_build", resource):
            build_aggregation_plans(env.mfg, metrics=metrics)
