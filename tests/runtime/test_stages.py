"""Staged-pipeline runtime: accounting, lifecycle, errors, determinism.

Covers the PR-level guarantees of :mod:`repro.runtime.stages`:

- ``EpochStats.breakdown()`` includes ``prep_wait`` so overlapped-policy
  fractions sum to ~1.0 (regression for the silent under-reporting bug);
- a stage raising mid-epoch surfaces a :class:`StageError` carrying the
  failing batch index, never leaks pinned buffers, and leaves the pipeline
  reusable;
- envelopes are delivered to compute in batch-index order regardless of
  worker count (that multi-worker runs match serial runs bit for bit is
  ``test_build_pipeline.TestPolicyTable``'s check).
"""

import sys
import threading
import time
import weakref
from contextlib import closing

import numpy as np
import pytest

from repro.runtime import (
    Device,
    EpochStats,
    PinnedBufferPool,
    PrepareStage,
    StagedPipeline,
    StageError,
    build_pipeline,
    estimate_max_rows,
)
from repro.runtime.stages import RunSpec
from repro.sampling import FastNeighborSampler
from repro.sampling.base import NeighborSamplerBase
from repro.slicing import FeatureStore

from ..helpers import process_state, settled_process_state


def _batches(dataset, count=6, size=16):
    rng = np.random.default_rng(0)
    return [
        rng.choice(dataset.num_nodes, size=size, replace=False) for _ in range(count)
    ]


class ArmedSampler(NeighborSamplerBase):
    """Raises once the shared trigger's countdown reaches zero, then only
    while the trigger stays armed (lets a second epoch run clean)."""

    def __init__(self, graph, fanouts, trigger):
        super().__init__(graph, fanouts)
        self._inner = FastNeighborSampler(graph, fanouts)
        self.trigger = trigger

    def sample(self, batch_nodes, rng):
        if self.trigger["armed"]:
            self.trigger["remaining"] -= 1
            if self.trigger["remaining"] < 0:
                self.trigger["armed"] = False
                raise RuntimeError("sampler exploded")
        return self._inner.sample(batch_nodes, rng)


# ----------------------------------------------------------------------
# Satellite: breakdown() accounting
# ----------------------------------------------------------------------
class TestBreakdownAccounting:
    def test_breakdown_includes_prep_wait(self):
        """Regression: starvation used to be dropped from the breakdown, so
        pipelined fractions silently summed to well under 1.0."""
        stats = EpochStats(epoch_time=2.0, overlapped=True)
        stats.record_busy("sample", 0.5)
        stats.record_busy("slice", 0.3)
        stats.record_caller("transfer", 0.4)
        stats.record_caller("train", 1.0)
        stats.record_caller("prep_wait", 0.6)
        frac = stats.breakdown()
        assert frac["prep_wait"] == pytest.approx(0.3)
        # Off-thread prep is busy time, not caller-blocking time.
        assert frac["batch_prep"] == 0.0
        assert sum(frac.values()) == pytest.approx(1.0)

    def test_storage_bound_attribution_from_mmap_wait(self):
        """The per-epoch mmap-wait delta refines prep-bound to
        storage-bound when slab faults dominate prep seconds."""
        stats = EpochStats(epoch_time=10.0, mmap_wait_s=5.0)
        stats.record_busy("sample", 4.0)
        stats.record_busy("slice", 3.0)
        stats.record_caller("batch_prep", 7.0)
        stats.record_caller("transfer", 0.5)
        stats.record_caller("train", 2.0)
        attr = stats.attribution()
        assert attr.verdict == "storage-bound"
        assert attr.stalls["mmap_wait_s"] == pytest.approx(5.0)
        # Same epoch served from RAM stays plain prep-bound.
        stats.mmap_wait_s = 0.0
        assert stats.attribution().verdict == "prep-bound"

    def test_breakdown_serial_counts_prep_as_blocking(self):
        stats = EpochStats(epoch_time=2.0, overlapped=False)
        stats.record_busy("sample", 0.5)
        stats.record_busy("slice", 0.3)
        stats.record_caller("batch_prep", 0.8)  # depth 0: prep blocks the caller
        stats.record_caller("transfer", 0.4)
        stats.record_caller("train", 0.8)
        frac = stats.breakdown()
        assert frac["batch_prep"] == pytest.approx(0.4)
        assert frac["prep_wait"] == 0.0
        assert sum(frac.values()) == pytest.approx(1.0)

    def test_slot_wait_is_not_slice_time(self, small_products):
        """A worker blocked on a full pool is waiting, not slicing: the wait
        lands in ``pinned_acquire_wait_seconds``, not in ``slice_time``."""
        hold = 0.3
        store = FeatureStore(small_products.features, small_products.labels)
        pool = _pool(store, 2)
        device = Device()
        pipeline = StagedPipeline(
            PrepareStage(
                lambda: FastNeighborSampler(small_products.graph, [5, 3]),
                store,
                pinned_pool=pool,
            ),
            device=device,
            prefetch_depth=1,
        )
        held = [pool.acquire(), pool.acquire()]

        def release_once_waited():
            deadline = time.monotonic() + 10
            while (
                pool.metrics.value("pinned_acquire_waits") < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            time.sleep(hold)
            for buffer in held:
                pool.release(buffer)

        releaser = threading.Thread(target=release_once_waited)
        releaser.start()
        try:
            stats = pipeline.run_epoch(_batches(small_products, count=1), lambda b: 0.0)
        finally:
            releaser.join()
            pipeline.close()
            device.shutdown()
        waited = pool.metrics.value("pinned_acquire_wait_seconds")
        assert stats.slice_time < hold <= waited

    def test_pipelined_epoch_fractions_sum_to_one(self, small_products):
        """On a real overlapped epoch the blocking fractions must account
        for (almost) the whole wall time."""
        store = FeatureStore(small_products.features, small_products.labels)
        device = Device()
        executor = build_pipeline(
            "pipelined",
            lambda: FastNeighborSampler(small_products.graph, [5, 3]),
            store,
            device=device,
            num_workers=2,
            max_batch=16,
        )

        def slow_train(batch):
            time.sleep(0.005)
            return 0.0

        try:
            stats = executor.run_epoch(_batches(small_products, count=8), slow_train)
        finally:
            executor.close()
            device.shutdown()
        assert stats.overlapped
        frac = stats.breakdown()
        total = sum(frac[stage] for stage in stats.BREAKDOWN_STAGES)
        assert 0.5 < total <= 1.05


# ----------------------------------------------------------------------
# Lifecycle: start / next_envelope / drain, delivery order
# ----------------------------------------------------------------------
class TestLifecycle:
    def _prepare_pipeline(self, dataset, depth, workers=1):
        store = FeatureStore(dataset.features, dataset.labels)
        return StagedPipeline(
            PrepareStage(
                lambda: FastNeighborSampler(dataset.graph, [5, 3]),
                store,
                workers=workers,
            ),
            prefetch_depth=depth,
            seed=3,
        )

    @pytest.mark.parametrize("depth,workers", [(0, 1), (2, 1), (2, 3)])
    def test_envelopes_delivered_in_index_order(self, small_products, depth, workers):
        pipeline = self._prepare_pipeline(small_products, depth, workers)
        with closing(pipeline):
            run = pipeline.start(_batches(small_products, count=7))
            indices = []
            while True:
                env = run.next_envelope()
                if env is None:
                    break
                assert env.sliced is not None
                indices.append(env.index)
            run.drain()
        assert indices == list(range(7))

    def test_externally_driven_run_matches_inline(self, small_products):
        """start() consumers (the DDP barrier loop) see the same batches as
        the inline policy."""
        inline = self._prepare_pipeline(small_products, 0)
        overlapped = self._prepare_pipeline(small_products, 3, workers=2)
        batches = _batches(small_products, count=5)
        with closing(overlapped):
            run_a, run_b = inline.start(batches), overlapped.start(batches)
            while True:
                env_a, env_b = run_a.next_envelope(), run_b.next_envelope()
                assert (env_a is None) == (env_b is None)
                if env_a is None:
                    break
                np.testing.assert_array_equal(
                    env_a.sliced.mfg.n_id, env_b.sliced.mfg.n_id
                )
                np.testing.assert_array_equal(env_a.sliced.xs, env_b.sliced.xs)
            run_a.drain()
            run_b.drain()

    def test_bounded_queues_enforce_prefetch_depth(self, small_products):
        """No more than ``prefetch_depth`` batches are ever started ahead of
        the envelopes the caller has taken, and the run does prefetch that
        far while the caller holds back."""
        depth = 2
        started = []
        ready = threading.Condition()

        class CountingSampler(FastNeighborSampler):
            def sample(self, batch_nodes, rng):
                with ready:
                    started.append(batch_nodes)
                    ready.notify_all()
                return super().sample(batch_nodes, rng)

        pipeline = self._prepare_pipeline(small_products, depth, workers=2)
        pipeline.prepare_stage.sampler_factory = lambda: CountingSampler(
            small_products.graph, [5, 3]
        )
        with closing(pipeline):
            run = pipeline.start(_batches(small_products, count=8))
            taken = 0
            while (env := run.next_envelope()) is not None:
                taken += 1
                if taken == 1:
                    with ready:
                        assert ready.wait_for(lambda: len(started) == depth + 1, 10)
                    time.sleep(0.05)  # room to overrun, were it allowed
                assert len(started) - taken <= depth
                assert env.index == taken - 1
            run.drain()
        assert len(started) == 8

    def test_each_pool_thread_makes_its_state_once_with_its_own_id(
        self, small_products
    ):
        """``make_state(i)`` runs on each pool thread's first batch, with ids
        distinct and below ``workers`` — what binds ``MPPrepareStage``'s
        dispatch thread ``i`` to worker process ``i`` — once for the
        pipeline's lifetime: later runs reuse the threads and their states,
        and only after ``close()`` does a run make new ones."""
        workers = 3
        pipeline = self._prepare_pipeline(small_products, 4, workers=workers)
        stage = pipeline.prepare_stage
        made = []
        make_state = stage.make_state

        def recording_make_state(worker_id):
            made.append((threading.current_thread().name, worker_id))
            return make_state(worker_id)

        stage.make_state = recording_make_state
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for lifetime in range(2):
                made.clear()
                for _ in range(3):
                    run = pipeline.start(_batches(small_products, count=12))
                    while run.next_envelope() is not None:
                        pass
                    run.drain()
                threads = [name for name, _ in made]
                ids = [worker_id for _, worker_id in made]
                assert len(set(threads)) == len(threads)
                assert sorted(ids) == list(range(len(ids)))
                assert 1 <= len(ids) <= workers
                pipeline.close()
        finally:
            sys.setswitchinterval(interval)
            pipeline.close()

    def test_delivered_envelope_is_not_kept_by_the_run(self, small_products):
        """Once the caller drops a delivered envelope (and the device batch
        its transfer produced), nothing in the run keeps it alive."""
        store = FeatureStore(small_products.features, small_products.labels)
        device = Device()
        pipeline = build_pipeline(
            "pipelined",
            lambda: FastNeighborSampler(small_products.graph, [5, 3]),
            store,
            device=device,
            num_workers=2,
            max_batch=16,
        )
        run = pipeline.start(_batches(small_products, count=6))
        try:
            env = run.next_envelope()
            env.wait_transfer()
            assert env.device_batch is not None
            ref = weakref.ref(env)
            del env
            assert ref() is None
            while run.next_envelope() is not None:
                pass
            run.drain()
        finally:
            run.close()
            pipeline.close()
            device.shutdown()


# ----------------------------------------------------------------------
# Satellite: exception safety
# ----------------------------------------------------------------------
class TestErrorPropagation:
    def _pipelined_executor(self, dataset, trigger, **kwargs):
        store = FeatureStore(dataset.features, dataset.labels)
        device = Device()
        executor = build_pipeline(
            "pipelined",
            lambda: ArmedSampler(dataset.graph, [5, 3], trigger),
            store,
            device=device,
            max_batch=16,
            **kwargs,
        )
        return executor, device

    def test_stage_error_names_stage_and_batch_index(self, small_products):
        trigger = {"armed": True, "remaining": 2}
        executor, device = self._pipelined_executor(
            small_products, trigger, num_workers=1
        )
        try:
            with pytest.raises(StageError) as excinfo:
                executor.run_epoch(_batches(small_products), lambda b: 0.0)
        finally:
            executor.close()
            device.shutdown()
        assert excinfo.value.stage == "prepare"
        assert excinfo.value.batch_index == 2
        assert "exploded" in str(excinfo.value)
        assert isinstance(excinfo.value.original, RuntimeError)

    def test_stage_error_releases_all_pinned_buffers(self, small_products):
        trigger = {"armed": True, "remaining": 3}
        executor, device = self._pipelined_executor(
            small_products, trigger, num_workers=2, pinned_slots=2
        )
        try:
            with pytest.raises(StageError):
                executor.run_epoch(_batches(small_products, count=8), lambda b: 0.0)
            pool = executor.pinned_pool
            deadline = time.time() + 5
            while pool.free_slots() < pool.total_slots and time.time() < deadline:
                time.sleep(0.01)
        finally:
            executor.close()
            device.shutdown()
        assert pool.free_slots() == pool.total_slots
        metrics = executor.ctx.metrics  # one wait observation per acquire
        acquires = metrics.get("pinned_acquire_wait_seconds").count
        assert acquires == metrics.value("pinned_releases") > 0

    def test_compute_error_releases_all_pinned_buffers(self, small_products):
        store = FeatureStore(small_products.features, small_products.labels)
        device = Device()
        executor = build_pipeline(
            "pipelined",
            lambda: FastNeighborSampler(small_products.graph, [5, 3]),
            store,
            device=device,
            num_workers=2,
            pinned_slots=2,
            max_batch=16,
        )

        def diverge(batch):
            if batch.batch_index >= 1:
                raise ValueError("loss diverged")
            return 0.0

        try:
            with pytest.raises(ValueError, match="diverged"):
                executor.run_epoch(_batches(small_products, count=8), diverge)
            pool = executor.pinned_pool
            deadline = time.time() + 5
            while pool.free_slots() < pool.total_slots and time.time() < deadline:
                time.sleep(0.01)
        finally:
            executor.close()
            device.shutdown()
        assert pool.free_slots() == pool.total_slots
        metrics = executor.ctx.metrics  # one wait observation per acquire
        acquires = metrics.get("pinned_acquire_wait_seconds").count
        assert acquires == metrics.value("pinned_releases") > 0

    def test_compute_error_without_a_device_releases_held_slots(self, small_products):
        """Without a device the caller holds the slots of the batch it
        computes on and of the next one; a compute error gives both back."""
        store = FeatureStore(small_products.features, small_products.labels)
        pool = _pool(store, 3)
        pipeline = StagedPipeline(
            PrepareStage(
                lambda: FastNeighborSampler(small_products.graph, [5, 3]),
                store,
                pinned_pool=pool,
            ),
            prefetch_depth=2,
        )

        def diverge(batch):
            raise ValueError("loss diverged")

        with closing(pipeline), pytest.raises(ValueError, match="diverged"):
            pipeline.run_epoch(_batches(small_products, count=6), diverge)
        assert pool.free_slots() == pool.total_slots

    def test_executor_reusable_after_stage_error(self, small_products):
        trigger = {"armed": True, "remaining": 2}
        executor, device = self._pipelined_executor(
            small_products, trigger, num_workers=2, pinned_slots=2
        )
        batches = _batches(small_products, count=6)
        try:
            with pytest.raises(StageError):
                executor.run_epoch(batches, lambda b: 0.0)
            pool = executor.pinned_pool
            deadline = time.time() + 5
            while pool.free_slots() < pool.total_slots and time.time() < deadline:
                time.sleep(0.01)
            stats = executor.run_epoch(batches, lambda b: 0.0)
        finally:
            executor.close()  # joins the threads the second run started
            device.shutdown()
        assert stats.num_batches == 6
        assert executor.ctx.metrics.value("pipeline_cancelled") >= 1
        assert executor.ctx.metrics.value("pipeline_stage_errors") == 1


class FailsOnShortBatch(FastNeighborSampler):
    """Raises on the one batch shorter than the others, in whichever thread
    or worker process samples it."""

    def sample(self, batch_nodes, rng):
        if len(batch_nodes) < 16:
            raise RuntimeError("sampler exploded")
        return super().sample(batch_nodes, rng)


@pytest.mark.parametrize("policy", ["pipelined", "multiprocess"])
def test_failure_delivers_earlier_batches_then_one_stage_error(policy, small_products):
    """Two workers, batch 3 fails: the caller receives batches 0-2, then one
    StageError naming batch 3; every slot comes back, and closing leaves
    no thread, process or shared segment behind."""
    store = FeatureStore(small_products.features, small_products.labels)
    batches = _batches(small_products, count=8)
    batches[3] = batches[3][:7]
    before = process_state()
    device = Device()
    pipeline = build_pipeline(
        policy,
        lambda: FailsOnShortBatch(small_products.graph, [5, 3]),
        store,
        device=device,
        num_workers=2,
        max_batch=16,
        start_method="fork",
    )
    try:
        run = pipeline.start(batches)
        received = []
        with pytest.raises(StageError, match="exploded") as excinfo:
            while (env := run.next_envelope()) is not None:
                env.wait_transfer()
                received.append(env.index)
        assert received == [0, 1, 2]
        assert (excinfo.value.stage, excinfo.value.batch_index) == ("prepare", 3)
        assert pipeline.ctx.metrics.value("pipeline_stage_errors") == 1
        pool = pipeline.pinned_pool
        assert pool.free_slots() == pool.total_slots
        run.close()
    finally:
        pipeline.close()
        device.shutdown()
    assert settled_process_state(before) == before


#: the overlapped run's window, as gauges of the pipeline registry
WINDOW_GAUGES = ("pipeline_window", "pipeline_running", "pipeline_ready")


@pytest.mark.parametrize("policy", ["pipelined", "multiprocess"])
def test_window_gauges_read_zero_on_every_exit(policy, small_products):
    """After a clean epoch, a StageError and a compute error, the window's
    three gauges read 0."""
    store = FeatureStore(small_products.features, small_products.labels)
    batches = _batches(small_products, count=8)
    short = list(batches)
    short[3] = short[3][:7]
    device = Device()
    pipeline = build_pipeline(
        policy,
        lambda: FailsOnShortBatch(small_products.graph, [5, 3]),
        store,
        device=device,
        num_workers=2,
        max_batch=16,
        start_method="fork",
    )
    metrics = pipeline.ctx.metrics

    def window():
        return [
            metrics.value(name, stage="prepare", default=None)
            for name in WINDOW_GAUGES
        ]

    def diverge(batch):
        raise ValueError("loss diverged")

    try:
        stats = pipeline.run_epoch(batches, lambda b: 0.0)
        assert stats.num_batches == 8
        assert window() == [0.0, 0.0, 0.0]
        with pytest.raises(StageError, match="exploded"):
            pipeline.run_epoch(short, lambda b: 0.0)
        assert window() == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="diverged"):
            pipeline.run_epoch(batches, diverge)
        assert window() == [0.0, 0.0, 0.0]
    finally:
        pipeline.close()
        device.shutdown()


# ----------------------------------------------------------------------
# The staging-slot pool bounds the window
# ----------------------------------------------------------------------
def _pool(store, slots):
    return PinnedBufferPool(
        slots,
        max_rows=estimate_max_rows([5, 3], 16, store.num_nodes),
        num_features=store.num_features,
        max_batch=16,
        feature_dtype=store.feature_dtype,
    )


class TestSlotGuard:
    def test_one_slot_without_a_device_is_refused(self, small_products):
        """The caller holds the slot of the batch it computes on, so one
        slot leaves the next batch none: refused at construction rather
        than hanging on the second batch."""
        store = FeatureStore(small_products.features, small_products.labels)
        stage = PrepareStage(
            lambda: FastNeighborSampler(small_products.graph, [5, 3]),
            store,
            pinned_pool=_pool(store, 1),
        )
        with pytest.raises(ValueError, match="got 1"):
            StagedPipeline(stage, prefetch_depth=2)
        # With a device the slot comes back when its transfer lands.
        device = Device()
        pipeline = StagedPipeline(stage, device=device, prefetch_depth=2)
        try:
            stats = pipeline.run_epoch(_batches(small_products, count=4), lambda b: 0.0)
        finally:
            pipeline.close()
            device.shutdown()
        assert stats.num_batches == 4

    def test_default_multiprocess_sizing_builds_without_a_device(self, small_products):
        """``workers + depth + 2`` shared slots leave room for the whole
        window beside the caller."""
        store = FeatureStore(small_products.features, small_products.labels)
        before = process_state()
        pipeline = build_pipeline(
            "multiprocess",
            lambda: FastNeighborSampler(small_products.graph, [5, 3]),
            store,
            num_workers=2,
            prefetch_depth=4,
            max_batch=16,
            start_method="fork",
        )
        try:
            assert pipeline.pinned_pool.total_slots == 2 + 4 + 2
            stats = pipeline.run_epoch(_batches(small_products, count=6), lambda b: 0.0)
            assert stats.num_batches == 6
        finally:
            pipeline.close()
        assert settled_process_state(before) == before


# ----------------------------------------------------------------------
# Determinism across policies
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_custom_rng_entries_policy(self, small_products):
        """Two runs with the same rng_entries policy produce identical MFGs
        even when batch indices differ (the inference cursor contract)."""
        store = FeatureStore(small_products.features, small_products.labels)

        def run(entries):
            pipeline = StagedPipeline(
                PrepareStage(
                    lambda: FastNeighborSampler(small_products.graph, [4]), store
                ),
                seed=9,
            )
            pipeline.run_epoch(
                [nodes],
                lambda s: 0.0,
                on_result=lambda e: seen.append(e.sliced.mfg.n_id),
                spec=RunSpec(rng_entries=entries, compute_name="infer"),
            )

        nodes = _batches(small_products, count=1)[0]
        seen = []
        run(lambda i: [9, 5])
        run(lambda i: [9, i + 5])
        np.testing.assert_array_equal(seen[0], seen[1])
