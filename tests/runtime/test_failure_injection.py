"""Failure injection: errors must propagate, never hang the pipeline."""

import numpy as np
import pytest

from repro.runtime import (
    Device,
    PrepareStage,
    StagedPipeline,
    StageError,
    build_pipeline,
)
from repro.sampling import FastNeighborSampler
from repro.sampling.base import NeighborSamplerBase
from repro.slicing import FeatureStore


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


def _batches(dataset, count=6, size=16):
    rng = np.random.default_rng(0)
    return [
        rng.choice(dataset.num_nodes, size=size, replace=False) for _ in range(count)
    ]


class TestWorkerPoolFailures:
    def test_worker_error_propagates_via_join(self, small_products):
        """A prepare-only run hands over the batches prepared before the
        failure, then surfaces one StageError naming stage and batch."""
        store = FeatureStore(small_products.features, small_products.labels)
        pipeline = StagedPipeline(
            [
                PrepareStage(
                    lambda: ExplodingSampler(
                        small_products.graph, [5, 3], explode_after=2
                    ),
                    store,
                )
            ],
            prefetch_depth=4,
        )
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
        with pytest.raises(RuntimeError, match="exploded"):
            executor.run_epoch(_batches(small_products), lambda b: 0.0)
        device.shutdown()

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

        with pytest.raises(ValueError, match="diverged"):
            executor.run_epoch(_batches(small_products), bad_train_fn)
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

        with pytest.raises(ValueError):
            executor.run_epoch(_batches(small_products), failing)
        # workers from the failed epoch drain away; buffers come back
        for _ in range(100):
            if executor.pinned_pool.free_slots() == executor.pinned_pool.total_slots:
                break
            import time

            time.sleep(0.01)
        stats = executor.run_epoch(_batches(small_products), lambda b: 0.0)
        assert stats.num_batches == 6
        device.shutdown()
