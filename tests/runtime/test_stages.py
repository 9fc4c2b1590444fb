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

import time

import numpy as np
import pytest

from repro.runtime import (
    Device,
    EpochStats,
    PrepareStage,
    StagedPipeline,
    StageError,
    build_pipeline,
)
from repro.sampling import FastNeighborSampler
from repro.sampling.base import NeighborSamplerBase
from repro.slicing import FeatureStore


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

        stats = executor.run_epoch(_batches(small_products, count=8), slow_train)
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
        run_a, run_b = inline.start(batches), overlapped.start(batches)
        while True:
            env_a, env_b = run_a.next_envelope(), run_b.next_envelope()
            assert (env_a is None) == (env_b is None)
            if env_a is None:
                break
            np.testing.assert_array_equal(env_a.sliced.mfg.n_id, env_b.sliced.mfg.n_id)
            np.testing.assert_array_equal(env_a.sliced.xs, env_b.sliced.xs)
        run_a.drain()
        run_b.drain()

    def test_bounded_queues_enforce_prefetch_depth(self, small_products):
        pipeline = self._prepare_pipeline(small_products, 2)
        run = pipeline.start(_batches(small_products, count=6))
        assert run.queue.capacity == 2
        while run.next_envelope() is not None:
            pass
        run.drain()


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
        with pytest.raises(StageError) as excinfo:
            executor.run_epoch(_batches(small_products), lambda b: 0.0)
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
        with pytest.raises(StageError):
            executor.run_epoch(_batches(small_products, count=8), lambda b: 0.0)
        pool = executor.pinned_pool
        deadline = time.time() + 5
        while pool.free_slots() < pool.total_slots and time.time() < deadline:
            time.sleep(0.01)
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

        with pytest.raises(ValueError, match="diverged"):
            executor.run_epoch(_batches(small_products, count=8), diverge)
        pool = executor.pinned_pool
        deadline = time.time() + 5
        while pool.free_slots() < pool.total_slots and time.time() < deadline:
            time.sleep(0.01)
        device.shutdown()
        assert pool.free_slots() == pool.total_slots
        metrics = executor.ctx.metrics  # one wait observation per acquire
        acquires = metrics.get("pinned_acquire_wait_seconds").count
        assert acquires == metrics.value("pinned_releases") > 0

    def test_executor_reusable_after_stage_error(self, small_products):
        trigger = {"armed": True, "remaining": 2}
        executor, device = self._pipelined_executor(
            small_products, trigger, num_workers=2, pinned_slots=2
        )
        batches = _batches(small_products, count=6)
        with pytest.raises(StageError):
            executor.run_epoch(batches, lambda b: 0.0)
        pool = executor.pinned_pool
        deadline = time.time() + 5
        while pool.free_slots() < pool.total_slots and time.time() < deadline:
            time.sleep(0.01)
        stats = executor.run_epoch(batches, lambda b: 0.0)
        device.shutdown()
        assert stats.num_batches == 6
        assert executor.ctx.metrics.value("pipeline_cancelled") >= 1
        assert executor.ctx.metrics.value("pipeline_stage_errors") == 1


# ----------------------------------------------------------------------
# Determinism across policies
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_custom_rng_entries_policy(self, small_products):
        """Two pipelines with the same rng_entries policy produce identical
        MFGs even when batch indices differ (the inference cursor contract)."""
        store = FeatureStore(small_products.features, small_products.labels)

        def make(entries):
            return StagedPipeline(
                PrepareStage(
                    lambda: FastNeighborSampler(small_products.graph, [4]), store
                ),
                compute_name="infer",
                rng_entries=entries,
                seed=9,
            )

        nodes = _batches(small_products, count=1)[0]
        seen = []
        make(lambda i: [9, 5]).run_epoch(
            [nodes], lambda s: 0.0, on_result=lambda e: seen.append(e.sliced.mfg.n_id)
        )
        make(lambda i: [9, i + 5]).run_epoch(
            [nodes], lambda s: 0.0, on_result=lambda e: seen.append(e.sliced.mfg.n_id)
        )
        np.testing.assert_array_equal(seen[0], seen[1])
