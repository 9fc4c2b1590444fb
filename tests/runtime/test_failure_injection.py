"""Failure injection: errors must propagate, never hang the pipeline."""

from contextlib import closing

import numpy as np
import pytest

from repro.runtime import (
    Device,
    MPPrepareStage,
    PinnedBufferPool,
    PrepareStage,
    SharedSlotPool,
    StagedPipeline,
    StageError,
    build_pipeline,
)
from repro.sampling import FastNeighborSampler
from repro.sampling.base import NeighborSamplerBase
from repro.slicing import FeatureStore

from ..helpers import process_state, settled_process_state


class ExplodingSampler(NeighborSamplerBase):
    """Raises after N successful samples."""

    def __init__(self, graph, fanouts, explode_after=2):
        super().__init__(graph, fanouts)
        self._inner = FastNeighborSampler(graph, fanouts)
        self.remaining = explode_after

    def sample(self, batch_nodes, rng):
        if self.remaining <= 0:
            raise RuntimeError("sampler exploded")
        self.remaining -= 1
        return self._inner.sample(batch_nodes, rng)


class ExplodingStore(FeatureStore):
    """Raises on the N-th label slice (after the batch's feature slice, so a
    pinned slot is already checked out when it fails)."""

    def __init__(self, features, labels, explode_after=2):
        super().__init__(features, labels)
        self.remaining = explode_after

    def slice_labels(self, node_ids, out=None):
        if self.remaining <= 0:
            raise RuntimeError("store exploded")
        self.remaining -= 1
        return super().slice_labels(node_ids, out=out)


def _batches(dataset, count=6, size=16):
    rng = np.random.default_rng(0)
    return [
        rng.choice(dataset.num_nodes, size=size, replace=False) for _ in range(count)
    ]


@pytest.mark.parametrize("policy", ["pipelined", "multiprocess"])
def test_batch_larger_than_its_slot_fails_loudly(policy, small_products):
    """A slot below a batch's rows is a bug, not a second path: one
    StageError on batch 0 (the store's out-shape check, raised inside the
    worker process under ``multiprocess``), every slot back in the pool,
    and after ``close()`` nothing left behind."""
    graph = small_products.graph
    store = FeatureStore(small_products.features, small_products.labels)
    before = process_state()
    sizes = dict(
        max_rows=4,
        num_features=store.num_features,
        max_batch=16,
        feature_dtype=store.feature_dtype,
    )
    if policy == "pipelined":
        pool = PinnedBufferPool(2, **sizes)
        stage = PrepareStage(
            lambda: FastNeighborSampler(graph, [5, 3]), store, pinned_pool=pool
        )
    else:
        pool = SharedSlotPool(2, **sizes)
        stage = MPPrepareStage(
            graph, store, pool, FastNeighborSampler, [5, 3],
            workers=1, start_method="fork",
        )
    device = Device()
    pipeline = StagedPipeline(stage, device=device, prefetch_depth=2)
    try:
        with pytest.raises(StageError, match="out shape") as excinfo:
            pipeline.run_epoch(_batches(small_products), lambda batch: 0.0)
        assert (excinfo.value.stage, excinfo.value.batch_index) == ("prepare", 0)
        assert pipeline.ctx.metrics.value("pipeline_stage_errors") == 1
        assert pool.free_slots() == pool.total_slots
    finally:
        pipeline.close()
        device.shutdown()
    assert settled_process_state(before) == before


class TestWorkerPoolFailures:
    def test_worker_error_propagates_via_join(self, small_products):
        """A prepare-only run hands over the batches prepared before the
        failure, then surfaces one StageError naming stage and batch."""
        store = FeatureStore(small_products.features, small_products.labels)
        pipeline = StagedPipeline(
            PrepareStage(
                lambda: ExplodingSampler(
                    small_products.graph, [5, 3], explode_after=2
                ),
                store,
            ),
            prefetch_depth=4,
        )
        with closing(pipeline):
            run = pipeline.start(_batches(small_products))
            drained = 0
            with pytest.raises(StageError, match="exploded") as excinfo:
                while run.next_envelope() is not None:
                    drained += 1
            assert drained == 2
            assert (excinfo.value.stage, excinfo.value.batch_index) == ("prepare", 2)
            with pytest.raises(StageError, match="exploded"):
                run.drain()

    def test_serial_executor_error_is_immediate(self, small_products):
        store = FeatureStore(small_products.features, small_products.labels)
        device = Device()
        executor = build_pipeline(
            "serial",
            lambda: ExplodingSampler(small_products.graph, [5, 3], explode_after=1),
            store,
            device=device,
        )
        with pytest.raises(RuntimeError, match="exploded") as excinfo:
            executor.run_epoch(_batches(small_products), lambda b: 0.0)
        device.shutdown()
        assert isinstance(excinfo.value, StageError)
        assert (excinfo.value.stage, excinfo.value.batch_index) == ("prepare", 1)

    @pytest.mark.parametrize("failing", ["sampler", "store"])
    @pytest.mark.parametrize("policy", ["serial", "pipelined"])
    def test_depth_zero_failure_matches_the_overlapped_contract(
        self, policy, failing, small_products
    ):
        """A prepare failure on the caller thread (depth 0) is what it is on
        a worker thread: one StageError naming stage and batch, every pinned
        slot back in the pool."""
        graph = small_products.graph
        if failing == "sampler":
            factory = lambda: ExplodingSampler(graph, [5, 3], explode_after=2)  # noqa: E731
            store = FeatureStore(small_products.features, small_products.labels)
        else:
            factory = lambda: FastNeighborSampler(graph, [5, 3])  # noqa: E731
            store = ExplodingStore(small_products.features, small_products.labels)
        device = Device()
        pipeline = build_pipeline(
            policy,
            factory,
            store,
            device=device,
            prefetch_depth=0,
            pinned_slots=2,
            max_batch=16,
        )
        assert pipeline.prefetch_depth == 0
        with pytest.raises(StageError, match="exploded") as excinfo:
            pipeline.run_epoch(_batches(small_products), lambda b: 0.0)
        device.shutdown()
        assert (excinfo.value.stage, excinfo.value.batch_index) == ("prepare", 2)
        assert isinstance(excinfo.value.original, RuntimeError)
        assert pipeline.ctx.metrics.value("pipeline_stage_errors") == 1
        pool = pipeline.pinned_pool  # the serial policy has none to leak
        assert (pool is None) == (policy == "serial")
        if pool is not None:
            assert pool.free_slots() == pool.total_slots == 2

    def test_train_fn_error_propagates_from_pipeline(self, small_products):
        store = FeatureStore(small_products.features, small_products.labels)
        device = Device()
        executor = build_pipeline(
            "pipelined",
            lambda: FastNeighborSampler(small_products.graph, [5, 3]),
            store,
            device=device,
            num_workers=1,
            max_batch=16,
        )

        calls = []

        def bad_train_fn(batch):
            calls.append(batch.batch_index)
            if len(calls) == 2:
                raise ValueError("loss diverged")
            return 0.0

        try:
            with pytest.raises(ValueError, match="diverged"):
                executor.run_epoch(_batches(small_products), bad_train_fn)
        finally:
            executor.close()
            device.shutdown()
        assert len(calls) == 2

    def test_executor_reusable_after_train_fn_error(self, small_products):
        """After a failed epoch, workers unblock and buffers recycle, so the
        same executor can run a clean epoch."""
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

        def failing(batch):
            raise ValueError("boom")

        try:
            with pytest.raises(ValueError):
                executor.run_epoch(_batches(small_products), failing)
            # workers from the failed epoch drain away; buffers come back
            for _ in range(100):
                if (
                    executor.pinned_pool.free_slots()
                    == executor.pinned_pool.total_slots
                ):
                    break
                import time

                time.sleep(0.01)
            stats = executor.run_epoch(_batches(small_products), lambda b: 0.0)
        finally:
            executor.close()
            device.shutdown()
        assert stats.num_batches == 6
