"""Staged-pipeline dataflow runtime: one execution engine for every loop.

The paper's core claim (Sections 4.2-4.3, Figure 1b) is that training *and*
inference become fast when batch preparation, transfer and compute are
overlapped pipeline stages with bounded prefetch.  This module makes that
figure an explicit, reusable runtime instead of four hand-rolled loops: a
pipeline is *one* prepare stage (a worker samples and slices a batch end to
end, Section 4.2), then the transfer to a device if there is one, then the
caller's compute function.  The overlapped run is built on
:mod:`concurrent.futures`: prepare work goes to the pipeline's one
``ThreadPoolExecutor`` (its shared work queue is the load-balanced input
queue; its threads and their samplers live as long as the pipeline)
through a window of at most ``prefetch_depth`` futures ahead of the caller
(the backpressure), and each transfer goes to the device's one-thread
transfer stream.  Every run shares one lifecycle (start / drain / close),
deterministic per-batch seeding, and first-class error propagation +
cancellation.  What differs between runs on one pipeline — the fanouts,
the seeding, the compute span's name, whether the run stays on the caller
— travels with the run as a :class:`RunSpec` and is set nowhere else, so
training epochs and sampled inference share one pool of workers, samplers
and staging slots.
The window's state is three gauges of the pipeline registry
(``pipeline_window`` / ``pipeline_running`` / ``pipeline_ready``, labelled
``stage``); a monitor watches them by reading that registry, and this
module knows nothing of it.

Every execution path in the repository runs on this engine:

- :func:`repro.runtime.pipeline.build_pipeline` maps a policy name
  (``serial | pipelined | multiprocess``) to where the prepare stage runs
  and a prefetch depth; a ``Trainer``'s epochs and ``predict`` calls are
  runs on its one pipeline;
- a ``DDPTrainer`` builds one ``pipelined`` pipeline per replica for its
  lifetime; its epochs are runs whose compute it drives itself under the
  all-reduce barrier (:meth:`StagedPipeline.start`), and its sharded
  inference runs on the same pipelines;
- layer-wise full inference runs a fixed depth-0 pipeline per layer.

Determinism: batch ``index`` alone decides the RNG stream (the run's
``rng_entries``, ``[seed, index]`` by default), and the caller takes
batches in index order regardless of worker count or scheduling, so every
policy's run of the same seed produces identical losses.

Error handling: an exception inside the prepare stage (or a blocking
transfer) becomes a :class:`StageError` naming the stage and failing batch
index.  The caller receives every batch before it, then the error, raised
once the run is closed — batches not yet started are cancelled, finished
ones abandoned (their pinned slots back in the pool), the transfer stream
synchronized — at every prefetch depth.  Exceptions raised by the
caller-side compute function propagate unchanged (after the same close),
preserving the pre-runtime behaviour.
"""

from __future__ import annotations

import collections
import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..slicing.slicer import (
    SlicedBatch,
    build_aggregation_plans,
    slice_batch_fused,
    slice_batch_reference,
)
from ..slicing.store import FeatureStore
from ..telemetry import MetricsRegistry
from ..telemetry.tracer import Tracer
from .device import Device, DeviceBatch
from .pinned import PinnedBuffer, PinnedBufferPool, estimate_max_rows

__all__ = [
    "EpochStats",
    "Envelope",
    "PrepareStage",
    "RunSpec",
    "StageError",
    "StagedPipeline",
]


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def _seconds_view(histogram: str, stage: str) -> property:
    """Read-only :class:`EpochStats` attribute: one histogram's sum."""
    return property(lambda stats: stats.metrics.value(histogram, stage=stage))


@dataclass
class EpochStats:
    """Timing breakdown of one epoch, produced by the runtime's single
    accounting path (envelope timings + caller blocking waits).

    Every timing observation is stored once, in ``metrics`` (a per-epoch
    registry under :meth:`StagedPipeline.run_epoch`):
    ``stage_seconds{stage=...}`` histograms for busy time and
    ``caller_seconds{stage=...}`` histograms for the blocking view.  The
    ``*_time`` properties and :meth:`breakdown` are views over those sums.

    ``sample_time``/``slice_time``/``plan_build_time`` are *busy* times: on
    a depth-0 pipeline they block the caller, on an overlapped pipeline
    they are aggregate worker-thread time.  ``prep_wait_time`` (caller
    starved for batches), ``transfer_time`` (blocking transfer or
    transfer-wait) and ``train_time`` (device compute) are always measured
    on the caller thread.  Compute is recorded under the run's compute
    name, so an inference run's is ``caller_seconds{stage=infer}`` and its
    ``train_time`` reads 0: merged into a trainer's registry, ``predict``
    never counts as training time.
    """

    epoch_time: float = 0.0
    num_batches: int = 0
    bytes_transferred: int = 0
    losses: list[float] = field(default_factory=list)
    #: True when sample/slice ran off the caller thread (their times are
    #: busy, not blocking, and must not be counted in the blocking view).
    overlapped: bool = False
    #: seconds a cold (memory-mapped) feature tier spent faulting/copying
    #: slab pages this epoch; feeds the storage-bound verdict
    mmap_wait_s: float = 0.0
    #: per-epoch metric registry (the breakdown's source of truth)
    metrics: MetricsRegistry = field(
        default_factory=MetricsRegistry, repr=False, compare=False
    )

    #: breakdown keys, in Table 1's column order
    BREAKDOWN_STAGES = ("batch_prep", "transfer", "train", "prep_wait")

    sample_time = _seconds_view("stage_seconds", "sample")
    slice_time = _seconds_view("stage_seconds", "slice")
    plan_build_time = _seconds_view("stage_seconds", "plan_build")
    transfer_time = _seconds_view("caller_seconds", "transfer")
    train_time = _seconds_view("caller_seconds", "train")
    prep_wait_time = _seconds_view("caller_seconds", "prep_wait")

    @property
    def batch_prep_time(self) -> float:
        """Batch preparation = sampling + slicing + aggregation-plan build
        (Table 1's first column)."""
        return self.sample_time + self.slice_time + self.plan_build_time

    def record_busy(self, stage: str, seconds: float) -> None:
        """One batch's busy seconds on ``stage`` (worker or caller thread)."""
        self.metrics.histogram("stage_seconds", stage=stage).observe(seconds)

    def record_caller(self, stage: str, seconds: float) -> None:
        """Seconds the caller thread spent blocked on ``stage``."""
        self.metrics.histogram("caller_seconds", stage=stage).observe(seconds)

    def breakdown(self) -> dict[str, float]:
        """Fractions of epoch time per stage, from the caller's blocking
        perspective (the Table 1 measurement).  Includes ``prep_wait`` so
        overlapped-executor fractions sum to ~1.0 instead of silently
        under-reporting starvation; off-thread prep busy time is excluded
        from the blocking view.  A pure view over the ``caller_seconds``
        histograms.
        """
        total = max(self.epoch_time, 1e-12)
        out = {
            stage: self.metrics.value("caller_seconds", stage=stage) / total
            for stage in self.BREAKDOWN_STAGES
        }
        plan_busy = self.metrics.value("stage_seconds", stage="plan_build")
        if plan_busy > 0.0:
            # Busy fraction (already inside batch_prep on serial runs);
            # surfaced so plan cost is visible in overlapped runs too.
            out["plan_build"] = plan_busy / total
        return out

    # ------------------------------------------------------------------
    # Bottleneck attribution (PAPER Table 1's question, answered in code)
    # ------------------------------------------------------------------
    def attribution(self, tracer: Optional["Tracer"] = None):
        """Bottleneck :class:`~repro.telemetry.attribution.Attribution`
        for this epoch — blocking shares, gpu idle fraction and the
        prep-/transfer-/compute-/storage-bound verdict; lane utilization
        is folded in when a tracer that recorded this epoch is supplied."""
        from ..telemetry.attribution import attribute_breakdown, attribute_trace

        lanes = attribute_trace(tracer) if tracer is not None else None
        stalls = {"mmap_wait_s": self.mmap_wait_s} if self.mmap_wait_s else None
        return attribute_breakdown(
            self.breakdown(), lanes=lanes, stalls=stalls,
            total_s=self.epoch_time or None,
        )

    def verdict(self, tracer: Optional["Tracer"] = None) -> str:
        """The epoch's one-word bottleneck verdict (e.g. ``prep-bound``)."""
        return self.attribution(tracer).verdict


#: queue-depth histogram bins: one per occupancy level up to 16 batches
_DEPTH_BUCKETS = tuple(float(i) for i in range(17))


class StageError(RuntimeError):
    """A stage worker failed while processing a batch.

    Carries the stage name and the failing batch index; the original
    exception is chained as ``__cause__``.
    """

    def __init__(self, stage: str, batch_index: int, original: BaseException):
        super().__init__(
            f"stage {stage!r} failed on batch {batch_index}: {original}"
        )
        self.stage = stage
        self.batch_index = batch_index
        self.original = original


# ----------------------------------------------------------------------
# Envelope: the unit of dataflow
# ----------------------------------------------------------------------
@dataclass
class Envelope:
    """One mini-batch flowing through the pipeline, stage by stage."""

    index: int
    nodes: np.ndarray
    rng: np.random.Generator
    #: the seed-sequence entries ``rng`` was built from (worker processes
    #: rebuild the same generator from them)
    rng_entries: Sequence[int] = ()
    #: the fanouts to sample with; ``None``: the sampler's own
    fanouts: Optional[tuple] = None
    mfg: Any = None
    sliced: Optional[SlicedBatch] = None
    buffer: Optional[PinnedBuffer] = None
    buffer_pool: Optional[PinnedBufferPool] = None
    device_batch: Optional[DeviceBatch] = None
    output: Any = None
    #: per-stage busy seconds, merged into EpochStats by the driver
    timings: dict[str, float] = field(default_factory=dict)
    #: the submitted device transfer; its result is the device batch
    _transfer: Optional[Future] = None

    def payload(self):
        """What compute consumes: the device batch if the pipeline has a
        device, else the host-side sliced batch."""
        return self.device_batch if self.device_batch is not None else self.sliced

    def release_buffer(self) -> None:
        """Return the pinned slot (if any) to its pool, exactly once."""
        if self.buffer is not None and self.buffer_pool is not None:
            self.buffer_pool.release(self.buffer)
        self.buffer = None

    def wait_transfer(self, stats: Optional[EpochStats] = None) -> None:
        """Block until the submitted device transfer completes."""
        if self._transfer is None:
            return
        t0 = time.perf_counter()
        self.device_batch = self._transfer.result()
        if stats is not None:
            stats.record_caller("transfer", time.perf_counter() - t0)
        self._transfer = None


@dataclass(frozen=True)
class RunSpec:
    """What one run of a pipeline does beyond its batches: the only place
    a run's fanouts, seeding and compute name are set.

    A ``Trainer`` runs its training epochs with the default spec and its
    ``predict`` calls with the inference fanouts, the inference seeding and
    the ``infer`` compute span, on the same workers and samplers; a
    ``DDPTrainer`` seeds each rank's epoch ``[seed, 11, step, rank]``.
    """

    #: fanouts every batch is sampled with (``None``: each sampler's own)
    fanouts: Optional[tuple] = None
    #: ``index -> list[int]`` seed-sequence entries of batch ``index``;
    #: ``None``: ``[seed, index]`` with the pipeline's ``seed``
    rng_entries: Optional[Callable[[int], Sequence[int]]] = None
    #: span and ``caller_seconds`` label of the compute step
    compute_name: str = "train"
    #: run every step on the caller with the stage's caller-side sampler,
    #: slice into fresh host arrays and transfer nothing: the conventional
    #: (serial) inference loop, whatever the pipeline's policy
    on_caller: bool = False


def _sample(sampler, env: Envelope):
    """``env``'s MFG, sampled with its run's fanouts when the run names any
    (so only such a run needs a sampler that takes them)."""
    if env.fanouts is None:
        return sampler.sample(env.nodes, env.rng)
    return sampler.sample(env.nodes, env.rng, fanouts=env.fanouts)


@dataclass
class PipelineContext:
    """Shared services of one pipeline and its prepare stage."""

    tracer: Tracer
    #: pipeline-lifetime metric registry (per-epoch registries merge in)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


@contextmanager
def _timed_span(ctx: PipelineContext, env: Envelope, name: str, resource: str):
    """Record one tracer span *and* the envelope's busy time for ``name``."""
    t0 = time.perf_counter()
    with ctx.tracer.span(name, resource, env.index):
        yield
    env.timings[name] = env.timings.get(name, 0.0) + time.perf_counter() - t0


# ----------------------------------------------------------------------
# The prepare stage
# ----------------------------------------------------------------------
class PrepareStage:
    """Batch preparation: one worker owns a batch end to end (Section 4.2).

    ``process`` samples the multi-hop neighborhood, slices features and
    labels into (optionally pinned) staging memory and builds each MFG
    layer's :class:`~repro.tensor.plan.AggregationPlan`, as three spans —
    ``sample`` / ``slice`` / ``plan_build`` — on whichever thread the policy
    runs it on.  Plans are built here, on the prepare side of the pipeline,
    so every ``Adj`` that reaches a model carries its plan (over the
    layer's CSR as the sampler built it) and the compute thread builds none.

    ``reference=True`` keeps the baseline's double-copy slice (Section 4.2's
    multiprocessing analogue) — the serial training policy; otherwise the
    fused single-gather path is used, writing straight into a pinned slot
    when the stage has a pool (a batch larger than its slot is a bug: the
    store's ``out``-shape check raises).

    The pipeline drives the stage through these hooks:
    :meth:`make_state` (once per pool thread, for the pipeline's lifetime),
    :meth:`caller_state` (the state depth-0 runs use on the caller, made
    once), :meth:`process` (per batch), :meth:`prepare_on_caller` (per
    batch of a host-only :attr:`RunSpec.on_caller` run), :meth:`abandon` (a
    cancelled batch gives back what the stage attached to it) and
    :meth:`close` (pipeline-lifetime resources).  The process-pool variant,
    ``MPPrepareStage``, overrides some of them; ``ctx`` is set by the
    pipeline the stage is handed to.
    """

    name = "prepare"

    def __init__(
        self,
        sampler_factory: Callable[[], Any],
        store: FeatureStore,
        pinned_pool: Optional[PinnedBufferPool] = None,
        workers: int = 1,
        reference: bool = False,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.sampler_factory = sampler_factory
        self.store = store
        self.pinned_pool = pinned_pool
        #: worker threads of an overlapped run
        self.workers = workers
        self.reference = reference
        self.ctx: Optional[PipelineContext] = None
        self._caller_state = None

    def _new_sampler(self):
        sampler = self.sampler_factory()
        sampler.attach_metrics(self.ctx.metrics)
        return sampler

    def make_state(self, worker_id: int):
        """Per-worker-thread state (one sampler), made on the thread's first
        batch and kept for the pipeline's lifetime."""
        return self._new_sampler()

    def caller_state(self):
        """The state depth-0 runs process with on the caller (made once)."""
        if self._caller_state is None:
            self._caller_state = self.make_state(0)
        return self._caller_state

    def caller_sampler(self):
        """The in-process sampler of :meth:`prepare_on_caller` (made once);
        here the caller state itself."""
        return self.caller_state()

    def process(self, env: Envelope, state, resource: str) -> None:
        """Prepare ``env`` in place (runs on a worker or the caller)."""
        self._prepare(env, state, resource, self.pinned_pool, self.reference)

    def prepare_on_caller(self, env: Envelope) -> None:
        """Prepare ``env`` on the caller with :meth:`caller_sampler`, sliced
        into fresh host arrays (no slot: nothing is transferred)."""
        self._prepare(env, self.caller_sampler(), "cpu:0", None, False)

    def _prepare(self, env, sampler, resource, pool, reference) -> None:
        metrics = self.ctx.metrics
        with _timed_span(self.ctx, env, "sample", resource):
            mfg = env.mfg = _sample(sampler, env)
        if pool is not None and not reference:
            # Before the span: a wait for a free slot is not slicing work
            # (the pool meters it as pinned_acquire_wait_seconds).
            env.buffer = buffer = pool.acquire()
            env.buffer_pool = pool
        with _timed_span(self.ctx, env, "slice", resource):
            if reference:
                env.sliced = slice_batch_reference(self.store, mfg)
            elif pool is not None:
                env.sliced = slice_batch_fused(
                    self.store,
                    mfg,
                    xs_out=buffer.features,
                    ys_out=buffer.labels,
                    pinned_slot=buffer.slot,
                    metrics=metrics,
                )
            else:
                env.sliced = slice_batch_fused(self.store, mfg, metrics=metrics)
        with _timed_span(self.ctx, env, "plan_build", resource):
            build_aggregation_plans(mfg, metrics=metrics)

    def abandon(self, env: Envelope) -> None:
        """Release resources held by a cancelled envelope."""
        env.release_buffer()

    def close(self) -> None:
        """Release pipeline-lifetime resources (worker processes, shared
        memory); must be idempotent.  The thread stage owns none."""


# ----------------------------------------------------------------------
# The pipeline engine
# ----------------------------------------------------------------------
class StagedPipeline:
    """Figure 1(b) as an engine: prepare, then transfer, then compute.

    Parameters
    ----------
    prepare:
        The one prepare stage (:class:`PrepareStage`, or the process pool's
        ``MPPrepareStage``).  Its ``pinned_pool`` is the pipeline's
        (:attr:`pinned_pool`), so callers can watch occupancy.
    device:
        Where prepared batches are transferred before compute: a blocking
        copy on the caller at depth 0 (the baseline), a submit to the
        device's transfer stream otherwise.  ``None`` hands the host-side
        sliced batch to compute (host-only inference, prepare-only runs).
    prefetch_depth:
        0 runs every step inline on the caller (the serial policy);
        >= 1 runs the prepare stage on a pool of its ``workers`` threads
        with at most ``prefetch_depth`` batches submitted ahead of the
        caller — the paper's pinned-memory backpressure.  The staging-slot
        pool caps that window: at ``total_slots`` with a device (a
        delivered batch's slot comes back when its transfer lands), at
        ``total_slots - 1`` without one (the caller holds the slot of the
        batch it computes on).  So the batch the caller waits for always
        finds a free slot, and an overlapped pipeline with no device and
        fewer than two slots is refused: it could only deadlock.
    seed:
        Each batch's generator is ``default_rng(SeedSequence([seed,
        index]))``, so results are independent of which worker runs which
        batch; a run's :class:`RunSpec` may bring its own ``rng_entries``.

    The pool's threads start at the first overlapped run, and each makes
    its worker state (its sampler) on its first batch; threads and states
    then serve every later run until :meth:`close`, as does the caller's
    state of depth-0 runs.  Runs on one pipeline follow one another: drain
    or close a run before starting the next.
    """

    def __init__(
        self,
        prepare: PrepareStage,
        *,
        device: Optional[Device] = None,
        prefetch_depth: int = 0,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        pool = prepare.pinned_pool
        #: most batches an overlapped run submits ahead of the caller
        self._window = prefetch_depth
        if pool is not None and prefetch_depth:
            spare = pool.total_slots - (device is None)
            if spare < 1:
                raise ValueError(
                    f"an overlapped pipeline without a device needs at least "
                    f"2 staging slots (the caller holds one), got "
                    f"{pool.total_slots}"
                )
            self._window = min(prefetch_depth, spare)
        self.prepare_stage = prepare
        self.device = device
        self.prefetch_depth = prefetch_depth
        self.seed = seed
        self.ctx = PipelineContext(
            tracer=tracer or Tracer(enabled=False),
            metrics=metrics if metrics is not None else MetricsRegistry(),
        )
        prepare.ctx = self.ctx
        self._pool: Optional[ThreadPoolExecutor] = None
        #: per pool thread: its worker id and state
        self._local = threading.local()
        self._ids = itertools.count()

    @property
    def pinned_pool(self) -> Optional[PinnedBufferPool]:
        """The staging-slot pool the prepare stage slices into, if any."""
        return self.prepare_stage.pinned_pool

    def slots_fit(self, fanouts: Sequence[Optional[int]], batch_size: int) -> bool:
        """Whether every batch of ``batch_size`` seeds sampled with
        ``fanouts`` fits a staging slot (always, without slots)."""
        pool = self.pinned_pool
        if pool is None:
            return True
        rows = estimate_max_rows(fanouts, batch_size, self.prepare_stage.store.num_nodes)
        return rows <= pool.max_rows and batch_size <= pool.max_batch

    # ------------------------------------------------------------------
    def _worker_pool(self) -> ThreadPoolExecutor:
        """The pipeline's prepare threads (started at the first use)."""
        if self._pool is None:
            stage = self.prepare_stage
            self._pool = ThreadPoolExecutor(
                stage.workers, thread_name_prefix=stage.name
            )
        return self._pool

    def _worker_state(self) -> tuple[Any, int]:
        """The calling pool thread's ``(state, worker id)``: the id is taken
        on the thread's first batch, the state made then (or, if making it
        failed, on the next)."""
        local = self._local
        if not hasattr(local, "worker_id"):
            local.worker_id = next(self._ids)
        if not hasattr(local, "state"):
            local.state = self.prepare_stage.make_state(local.worker_id)
        return local.state, local.worker_id

    def _abandon(self, env: Envelope) -> None:
        self.prepare_stage.abandon(env)
        self.ctx.metrics.counter("pipeline_abandoned_batches").inc()

    # ------------------------------------------------------------------
    # Transfer and compute
    # ------------------------------------------------------------------
    def _transfer(self, env: Envelope) -> None:
        """Depth-0 (inline) policy: blocking copy on the caller thread."""
        with _timed_span(self.ctx, env, "transfer", "dma"):
            env.device_batch = self.device.transfer_batch(env.sliced, env.index)
        env.release_buffer()

    def _submit_transfer(self, env: Envelope) -> None:
        """Enqueue the copy on the transfer stream; completion releases the
        pinned slot even before training consumes the device batch.

        An overlapped run submits as the caller takes each envelope, in
        index order, and waits for completion just before compute.
        """

        def work() -> DeviceBatch:
            try:
                with _timed_span(self.ctx, env, "transfer", "dma"):
                    return self.device.transfer_batch(env.sliced, env.index)
            finally:
                env.release_buffer()

        env._transfer = self.device.transfer_stream.submit(work)

    def _compute(self, env: Envelope, compute_fn: Callable, name: str) -> None:
        """The sink: the caller's function, on the caller thread."""
        with _timed_span(self.ctx, env, name, "gpu"):
            env.output = compute_fn(env.payload())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(
        self,
        batches: Sequence[np.ndarray],
        stats: Optional[EpochStats] = None,
        spec: Optional[RunSpec] = None,
    ):
        """Start the prepare stage over ``batches``; returns a run yielding
        envelopes in batch-index order with their transfers submitted (call
        :meth:`Envelope.wait_transfer` before consuming the device batch).

        At depth 0 (or for an ``on_caller`` spec) the run processes each
        batch inline on demand.  Without a device, an overlapped run leaves
        room for the caller to hold one delivered envelope's pinned slot
        while it takes the next: release it (:meth:`Envelope.release_buffer`)
        before taking another.
        """
        spec = spec or RunSpec()
        if stats is None:
            # Externally driven run (DDP, prepare-only benches): observe
            # straight into the pipeline's cumulative registry.
            stats = EpochStats(metrics=self.ctx.metrics)
        if self.prefetch_depth and not spec.on_caller:
            return _OverlappedRun(self, batches, stats, spec)
        return _InlineRun(self, batches, stats, spec)

    def run_epoch(
        self,
        batches: Sequence[np.ndarray],
        compute_fn: Callable,
        on_result: Optional[Callable[[Envelope], None]] = None,
        spec: Optional[RunSpec] = None,
    ) -> EpochStats:
        """Drive a full epoch through prepare, transfer and compute and
        account it.

        ``compute_fn`` runs on the caller thread; float results are
        collected as losses, array results (inference) are handed to the
        ``on_result`` callback.  With prefetch the next batch's transfer is
        always in flight while the current one trains (the Figure 1(b)
        overlap).  ``spec`` carries the run's fanouts, seeding and compute
        name (default: :class:`RunSpec`'s).
        """
        stats = EpochStats()
        # Slab stores write mmap_wait_seconds into the *cumulative*
        # registry (they are attached once, executor-wide); the per-epoch
        # share is the delta across this epoch.
        mmap_wait_at_start = self.ctx.metrics.value("mmap_wait_seconds")
        epoch_start = time.perf_counter()
        run = self.start(batches, stats, spec)
        stats.overlapped = isinstance(run, _OverlappedRun)
        device, name = run.device, run.compute_name
        # Nothing is transferred before the caller takes the first batch.
        bytes_at_start = device.bytes_transferred if device else 0
        pending = upcoming = None
        try:
            # Software pipelining: acquire (and submit) batch i+1 before
            # computing batch i, so its transfer overlaps this compute.
            pending = run.next_envelope()
            while pending is not None:
                upcoming = run.next_envelope()
                pending.wait_transfer(stats)
                self._compute(pending, compute_fn, name)
                self._finish(pending, stats, on_result, name)
                pending = upcoming
        except BaseException:
            run.close()
            if device is not None:
                device.synchronize()
            for env in (pending, upcoming):
                if env is not None:  # slots a device-less caller still holds
                    env.release_buffer()
            raise
        run.drain()
        stats.epoch_time = time.perf_counter() - epoch_start
        stats.mmap_wait_s = (
            self.ctx.metrics.value("mmap_wait_seconds") - mmap_wait_at_start
        )
        if device is not None:
            stats.bytes_transferred = device.bytes_transferred - bytes_at_start
        # Fold the per-epoch registry into the pipeline's cumulative one so
        # multi-epoch runs (and benches) see one aggregated pool view.
        epoch_metrics = stats.metrics
        epoch_metrics.counter("batches").inc(stats.num_batches)
        epoch_metrics.counter("bytes_transferred").inc(stats.bytes_transferred)
        epoch_metrics.histogram("epoch_seconds").observe(stats.epoch_time)
        self.ctx.metrics.merge(epoch_metrics)
        return stats

    def _finish(
        self,
        env: Envelope,
        stats: EpochStats,
        on_result: Optional[Callable[[Envelope], None]],
        compute_name: str,
    ) -> None:
        env.release_buffer()  # no-op when a transfer already recycled it
        stats.num_batches += 1
        timings = env.timings
        for stage_name, seconds in timings.items():
            stats.record_busy(stage_name, seconds)
        if not stats.overlapped:
            stats.record_caller(
                "batch_prep",
                timings.get("sample", 0.0)
                + timings.get("slice", 0.0)
                + timings.get("plan_build", 0.0),
            )
            stats.record_caller("transfer", timings.get("transfer", 0.0))
        stats.record_caller(compute_name, timings.get(compute_name, 0.0))
        if isinstance(env.output, (int, float)):
            stats.losses.append(float(env.output))
        if on_result is not None:
            on_result(env)

    def _stop_workers(self) -> None:
        """Cancel queued batches, join the prepare threads and drop their
        states; the next overlapped run starts new ones."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None
            self._local = threading.local()
            self._ids = itertools.count()

    def close(self) -> None:
        """Join the prepare threads and release everything the prepare
        stage owns (worker processes, shared memory segments).  Idempotent;
        a later run starts new threads, so the pipeline stays usable unless
        the stage owned such resources."""
        self._stop_workers()
        self.prepare_stage.close()


class _Run:
    """What every run shares: its batches, accounting and spec."""

    def __init__(
        self, pipeline: StagedPipeline, batches, stats: EpochStats, spec: RunSpec
    ):
        self.pipeline = pipeline
        self.stats = stats
        self.fanouts = spec.fanouts
        seed = pipeline.seed
        self.rng_entries = spec.rng_entries or (lambda index: [seed, index])
        self.compute_name = spec.compute_name
        #: where batches go before compute (``None``: nowhere)
        self.device = None if spec.on_caller else pipeline.device
        self._todo = iter(enumerate(batches))

    def _make_envelope(self, index: int, nodes: np.ndarray) -> Envelope:
        entries = list(self.rng_entries(index))
        rng = np.random.default_rng(np.random.SeedSequence(entries))
        return Envelope(
            index=index, nodes=nodes, rng=rng, rng_entries=entries, fanouts=self.fanouts
        )


class _InlineRun(_Run):
    """Depth-0 policy: every step executes on the caller, in order.

    Not the overlapped run with zero threads: here the caller also does the
    *blocking* transfer (``StagedPipeline._transfer``), which is the
    baseline's behaviour; an overlapped run only ever submits to the
    transfer stream.  An ``on_caller`` spec prepares with the stage's
    caller-side sampler instead and transfers nothing.
    """

    def __init__(self, pipeline: StagedPipeline, batches, stats: EpochStats, spec):
        super().__init__(pipeline, batches, stats, spec)
        self._on_caller = spec.on_caller
        stage = pipeline.prepare_stage
        # One caller state per stage, exactly like one worker thread holds.
        self._state = None if spec.on_caller else stage.caller_state()

    def next_envelope(self) -> Optional[Envelope]:
        item = next(self._todo, None)
        if item is None:
            return None
        env = self._make_envelope(*item)
        pipeline = self.pipeline
        stage = pipeline.prepare_stage
        failing = stage.name
        try:
            if self._on_caller:
                stage.prepare_on_caller(env)
            else:
                stage.process(env, self._state, "cpu:0")
            if self.device is not None:
                failing = "transfer"
                pipeline._transfer(env)
        except BaseException as exc:
            # The worker thread's failure path, on the caller: abandon the
            # envelope (its pinned slot returns to the pool), then one
            # StageError naming the stage and batch.
            stage.abandon(env)
            if not isinstance(exc, Exception):
                raise  # a KeyboardInterrupt on the caller stays one
            pipeline.ctx.metrics.counter("pipeline_stage_errors").inc()
            raise StageError(failing, env.index, exc) from exc
        return env

    def drain(self) -> None:
        pass

    def close(self) -> None:
        pass


class _OverlappedRun(_Run):
    """Depth-N policy: the prepare stage on the pipeline's worker threads.

    Batches are submitted to the pipeline's ``ThreadPoolExecutor(workers)``,
    whose shared work queue is Section 4.2's dynamically load-balanced
    input queue.  A window keeps at most the pipeline's ``_window`` batches
    submitted ahead of the caller (the backpressure bound): an envelope is
    made when it enters the window and dropped from it on delivery.  The
    caller takes envelopes in index order and submits each one's transfer
    as it takes it.  The window never exceeds what the slot pool can hold
    beside the caller (see :class:`StagedPipeline`), so the batch the
    caller waits for always finds a free slot.

    The window is three gauges of the pipeline registry, labelled with the
    stage name: ``pipeline_window`` (submitted, not yet taken; set by the
    caller), ``pipeline_running`` (in ``process`` on a pool thread) and
    ``pipeline_ready`` (prepared, not yet taken).  Queued batches are
    window − running − ready.  Every way out of a run leaves all three at 0.
    """

    def __init__(self, pipeline: StagedPipeline, batches, stats: EpochStats, spec):
        super().__init__(pipeline, batches, stats, spec)
        self.error: Optional[StageError] = None
        self._closed = False
        stage = pipeline.prepare_stage
        metrics = pipeline.ctx.metrics
        self._submitted = metrics.gauge("pipeline_window", stage=stage.name)
        self._running = metrics.gauge("pipeline_running", stage=stage.name)
        self._ready = metrics.gauge("pipeline_ready", stage=stage.name)
        self._window: collections.deque[Future] = collections.deque()
        self._pool = pipeline._worker_pool()
        self._fill()

    def _fill(self) -> None:
        """Submit batches until the window is full or none are left."""
        while len(self._window) < self.pipeline._window:
            item = next(self._todo, None)
            if item is None:
                break
            env = self._make_envelope(*item)
            self._window.append(self._pool.submit(self._prepare, env))
        self._submitted.set(len(self._window))

    def _prepare(self, env: Envelope) -> Envelope:
        """One batch on a pool thread; a failure abandons the envelope and
        becomes the future's :class:`StageError`."""
        pipeline = self.pipeline
        stage = pipeline.prepare_stage
        self._running.inc()
        try:
            state, worker_id = pipeline._worker_state()
            stage.process(env, state, f"cpu:{worker_id}")
            self._ready.inc()
        except BaseException as exc:
            stage.abandon(env)
            raise StageError(stage.name, env.index, exc) from exc
        finally:
            self._running.dec()
        return env

    def next_envelope(self) -> Optional[Envelope]:
        """Next envelope in index order (transfer submitted), or None at
        end of stream.  A failed batch raises its :class:`StageError` once
        the run is closed and every slot is back."""
        if not self._window:
            return None
        pipeline = self.pipeline
        head = self._window[0]
        t0 = time.perf_counter()
        try:
            env = head.result()
        except StageError as error:
            self.error = error
            pipeline.ctx.metrics.counter("pipeline_stage_errors").inc()
            self.close()
            if self.device is not None:
                self.device.synchronize()
            raise
        finally:
            self.stats.record_caller("prep_wait", time.perf_counter() - t0)
        self.stats.metrics.histogram(
            "queue_depth", _DEPTH_BUCKETS, stage=pipeline.prepare_stage.name
        ).observe(self._ready.value)
        self._window.popleft()
        self._ready.dec()
        if self.device is not None:
            pipeline._submit_transfer(env)
        self._fill()
        return env

    def drain(self) -> None:
        """End the run (closing it if the caller left batches untaken) and
        re-raise its stage error, if any; the threads stay for the next."""
        if self._window:
            self.close()
        if self.error is not None:
            raise self.error

    def close(self) -> None:
        """Cancel what has not started, wait for what has, and give back
        every undelivered envelope's resources.  Never raises.

        A run that ends early takes the pipeline's threads with it (the
        next run starts new ones): none is then still working on one of its
        batches, and no worker state a failure left mid-batch is reused.
        """
        if self._closed:
            return
        self._closed = True
        self.pipeline.ctx.metrics.counter("pipeline_cancelled").inc()
        self.pipeline._stop_workers()
        while self._window:
            future = self._window.popleft()
            if not future.cancelled() and future.exception() is None:
                self._ready.dec()
                self.pipeline._abandon(future.result())
        self._submitted.set(0)
