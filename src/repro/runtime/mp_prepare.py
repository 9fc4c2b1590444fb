"""True multi-core batch preparation: the multiprocess prepare stage.

This module de-simulates the paper's headline scaling result (Section 4.2,
Table 2): batch preparation — sampling plus slicing — running genuinely in
parallel across CPU cores.  The threaded policy keeps SALIENT's
*architecture* (dynamic load balancing, end-to-end per-batch ownership,
pinned staging, bounded prefetch) but the GIL serializes its numpy-glue
hot path; here each of the stage's dispatch threads drives one **worker
process** over its own pipe, and the processes share the dataset and the
staging slots through POSIX shared memory (:mod:`repro.runtime.shm`), so
no feature row crosses a pipe:

- the CSR topology and the in-RAM feature rows are copied into a shared
  segment once at stage construction (a slab store is reopened by path
  instead); workers sample and slice over views;
- each task message is ``(nodes, rng_entries, fanouts, slot)`` — a few
  hundred bytes; ``fanouts`` is the run's (``None``: the worker sampler's
  own), so training epochs and ``predict`` share the workers and their
  samplers.  The worker slices feature rows and labels straight into the
  assigned shared pinned slot and replies with its timings, its counters
  and the sampled MFG;
- the parent wraps the slot into the same :class:`SlicedBatch` envelope
  the staged pipeline already consumes; the reply's MFG is a fresh
  object, so it outlives the slot's recycle-after-transfer.

Load balancing is the pipeline's: a dispatch thread takes the next batch
from its thread pool's shared work queue and blocks on its own worker
(``make_state(i)`` runs on each pool thread's first batch), so one worker
owns a batch end to end and no layer below the dispatch threads schedules
again.

Determinism: workers rebuild each batch's generator from the pipeline's
``rng_entries(index)`` (``SeedSequence([seed, index])``), the exact policy
of the single-process policies, so per-batch losses are byte-identical to
the serial policy for the same seed.

Failure handling: a worker exception travels back as the reply and
re-raises inside the dispatching thread, entering the runtime's normal
:class:`~repro.runtime.stages.StageError` cancellation (pinned slot
released by ``PrepareStage.abandon``); a batch larger than its slot is
one such exception (the store's ``out``-shape check), not a second path.
A worker that dies (e.g. SIGKILL) fires its process sentinel while the
dispatch thread waits, which raises :class:`WorkerCrashed` at once; one
that does not answer within :data:`RESULT_TIMEOUT_S` is killed before
``TimeoutError`` raises, so no live process can write into a slot the
pool has handed on.

Telemetry: a worker's sampler and store record into one worker-local
:class:`~repro.telemetry.metrics.MetricsRegistry`.  Each reply carries
that registry's counters (``sampler_*``, ``arena_*``, ``slice_*``,
``mmap_*``), which the worker then resets and the parent adds into the
pipeline's registry, so a ``multiprocess`` run counts the same events as a
threaded one.  Gauges and histograms stay in the worker: two workers'
``arena_bytes`` would overwrite each other.  Per-worker busy seconds land
in ``mp_worker_busy_seconds{worker=i}`` histograms, which ``repro
diagnose`` folds into ``cpu:mp<i>`` lanes so a prep-bound verdict can name
actual core starvation (see :mod:`repro.telemetry.attribution`).
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from multiprocessing.connection import wait
from typing import Optional, Sequence, Type

import numpy as np

from ..graph.csr import CSRGraph
from ..sampling.base import NeighborSamplerBase
from ..slicing.slicer import SlicedBatch, build_aggregation_plans, slice_batch_fused
from ..slicing.store import FeatureStore
from ..telemetry.metrics import Counter, MetricsRegistry
from .shm import SharedDataset, SharedSlotPool
from .stages import PrepareStage, _timed_span

__all__ = ["WorkerCrashed", "WorkerTaskError", "MPPrepareStage"]

#: seconds a dispatch thread waits for its worker's reply before killing
#: the worker and failing the batch (a dead worker is detected at once)
RESULT_TIMEOUT_S = 120.0


class WorkerCrashed(RuntimeError):
    """A prepare worker process died without reporting a result."""


class WorkerTaskError(RuntimeError):
    """A prepare worker raised while processing a batch (traceback text
    from the worker process is carried in ``worker_traceback``)."""

    def __init__(self, message: str, worker_traceback: str = ""):
        super().__init__(message)
        self.worker_traceback = worker_traceback


# ----------------------------------------------------------------------
# Worker process body (module-level: spawn pickles a reference to it)
# ----------------------------------------------------------------------
def _worker_main(
    dataset_spec: dict,
    pool_spec: dict,
    conn,
    sampler_cls: Type[NeighborSamplerBase],
    fanouts: Sequence[Optional[int]],
) -> None:
    dataset = SharedDataset.attach(dataset_spec)
    slots = SharedSlotPool.attach_views(pool_spec)
    sampler = sampler_cls(dataset.graph, list(fanouts))
    store = dataset.store
    metrics = MetricsRegistry()
    sampler.attach_metrics(metrics)
    store.attach_metrics(metrics)
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            nodes, entries, run_fanouts, slot = task
            try:
                t0 = time.perf_counter()
                # The pipeline's per-batch seeding policy, reproduced
                # verbatim: scheduling can never change a batch's stream.
                rng = np.random.default_rng(np.random.SeedSequence(list(entries)))
                if run_fanouts is None:
                    mfg = sampler.sample(nodes, rng)
                else:
                    mfg = sampler.sample(nodes, rng, fanouts=run_fanouts)
                t1 = time.perf_counter()
                buffer = slots[slot]
                slice_batch_fused(
                    store,
                    mfg,
                    xs_out=buffer.features,
                    ys_out=buffer.labels,
                    pinned_slot=slot,
                    metrics=metrics,
                )
                t2 = time.perf_counter()
                counters = [
                    (m.name, m.labels, m.value)
                    for m in metrics.collect()
                    if isinstance(m, Counter)
                ]
                metrics.reset()
                conn.send(("ok", t1 - t0, t2 - t1, counters, mfg))
            except Exception as exc:  # noqa: BLE001 - forwarded verbatim
                conn.send(
                    ("err", f"{type(exc).__name__}: {exc}", traceback.format_exc())
                )
    except (KeyboardInterrupt, EOFError, ConnectionError):  # pragma: no cover
        pass
    finally:
        dataset.close()


# ----------------------------------------------------------------------
# The pipeline stage
# ----------------------------------------------------------------------
class MPPrepareStage(PrepareStage):
    """Prepare stage whose workers are *processes*, not threads.

    Dispatch thread ``i`` drives worker process ``i`` over its own pipe
    (:meth:`make_state` hands it the worker id): acquire a shared pinned
    slot, send the task, block on the reply, wrap the slot into a
    :class:`SlicedBatch`.  A raise here lands in ``abandon`` → slot
    released → ``StageError`` at the caller, as under the threaded stage.

    The stage owns the shared dataset segment it creates, the
    ``pinned_pool`` (a :class:`SharedSlotPool`) it is handed, the worker
    processes and their pipes; :meth:`close` tears all of them down, and
    so does a constructor that fails to start a worker.  Depth-0 runs drive
    worker 0; a host-only ``on_caller`` run (serial ``predict``) samples
    with one in-process ``sampler_cls(graph, fanouts)`` made at its first
    batch and kept.
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
        # The pool's samplers live in the worker processes, rebuilt there as
        # ``sampler_cls(graph, fanouts)`` (the class travels by import
        # path); the factory here only makes the caller-side sampler.
        fanouts = list(fanouts)
        super().__init__(
            lambda: sampler_cls(graph, fanouts),
            store,
            pinned_pool=pinned_pool,
            workers=workers,
        )
        self._caller_sampler = None
        self.shared_dataset = SharedDataset.create(graph, store)
        self.processes = []
        self.connections = []
        self._closed = False
        try:
            ctx = mp.get_context(start_method)
            for wid in range(workers):
                conn, child_conn = ctx.Pipe()
                self.connections.append(conn)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        self.shared_dataset.spec(),
                        pinned_pool.spec(),
                        child_conn,
                        sampler_cls,
                        list(fanouts),
                    ),
                    daemon=True,
                    name=f"mp-prepare-{wid}",
                )
                # Only the worker holds the child end, so its death reads
                # as EOF.
                with child_conn:
                    proc.start()
                self.processes.append(proc)
        except BaseException:
            # Leave nothing behind: kill the workers already running, then
            # close reaps them and frees both segments.
            for proc in self.processes:
                proc.kill()
            self.close()
            raise

    def close(self) -> None:
        """Stop the workers and free every shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        for conn in self.connections:
            try:
                conn.send(None)
            except OSError:  # worker already gone
                pass
        for proc in self.processes:
            proc.join(5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(5.0)
        for conn in self.connections:
            conn.close()
        self.shared_dataset.close()
        self.shared_dataset.unlink()
        self.pinned_pool.close()
        self.pinned_pool.unlink()

    def make_state(self, worker_id: int) -> int:
        """The worker process this dispatch thread drives."""
        return worker_id

    def caller_sampler(self):
        """An in-process sampler (the pool's live in the workers)."""
        if self._caller_sampler is None:
            self._caller_sampler = self._new_sampler()
        return self._caller_sampler

    def _request(self, worker_id: int, task: tuple) -> tuple:
        """Send ``task`` to one worker and block for its reply."""
        conn, proc = self.connections[worker_id], self.processes[worker_id]
        error: Optional[BaseException] = None
        try:
            conn.send(task)
            if wait([conn, proc.sentinel], RESULT_TIMEOUT_S):
                # A reply sent just before dying is still a reply; a dead
                # worker's pipe reads EOF.
                return conn.recv()
            error = TimeoutError(
                f"prepare worker {proc.name} returned no result in "
                f"{RESULT_TIMEOUT_S} s"
            )
        except (EOFError, ConnectionError):
            pass  # crashed: named below, with its exit code
        except BaseException as exc:  # interrupted: its reply is never read
            error = exc
        # Kill (a no-op on a dead worker) and reap before raising: the slot
        # is released on the way out, so no live worker may still write
        # into it, and no late reply may be read as the next batch's.
        proc.kill()
        proc.join()
        raise error or WorkerCrashed(
            f"prepare worker died unexpectedly: {proc.name} (exit {proc.exitcode})"
        )

    def process(self, env, state: int, resource: str) -> None:
        ctx = self.ctx
        t_begin = time.perf_counter()
        with ctx.tracer.span("prepare", resource, env.index):
            buffer = self.pinned_pool.acquire()
            env.buffer = buffer
            env.buffer_pool = self.pinned_pool
            nodes = np.asarray(env.nodes, dtype=np.int64)
            task = (nodes, list(env.rng_entries), env.fanouts, buffer.slot)
            reply = self._request(state, task)
            if reply[0] == "err":
                _, message, worker_traceback = reply
                raise WorkerTaskError(
                    f"prepare worker {state} failed: {message}", worker_traceback
                )
            _, sample_s, slice_s, counters, mfg = reply
            env.mfg = mfg
            env.sliced = SlicedBatch(
                mfg=mfg,
                xs=buffer.features[: len(mfg.n_id)],
                ys=buffer.labels[: mfg.batch_size],
                store=self.store,
                pinned_slot=buffer.slot,
            )
        wait_s = time.perf_counter() - t_begin
        # Worker-measured busy time feeds the standard sample/slice
        # accounting; the dispatch overhead (slot wait + IPC) is tracked
        # separately so diagnose can tell cores-busy from glue-bound.
        env.timings["sample"] = env.timings.get("sample", 0.0) + sample_s
        env.timings["slice"] = env.timings.get("slice", 0.0) + slice_s
        metrics = ctx.metrics
        for name, labels, value in counters:
            metrics.counter(name, **dict(labels)).inc(value)
        metrics.histogram("mp_result_wait_seconds").observe(
            max(wait_s - sample_s - slice_s, 0.0)
        )
        metrics.histogram("mp_worker_busy_seconds", worker=str(state)).observe(
            sample_s + slice_s
        )
        metrics.counter("mp_batches", worker=str(state)).inc()
        with _timed_span(ctx, env, "plan_build", resource):
            build_aggregation_plans(env.mfg, metrics=metrics)
