"""Policies: serial-vs-pipelined equivalence and stats accounting."""

import numpy as np
import pytest

from repro.datasets import generate_dataset
from repro.models import GraphSAGE
from repro.nn import Adam
from repro.runtime import Device, Tracer, build_pipeline, render_timeline
from repro.sampling import FastNeighborSampler
from repro.slicing import FeatureStore
from repro.tensor import Tensor, functional as F


@pytest.fixture(scope="module")
def setup():
    dataset = generate_dataset("arxiv", scale=0.25, seed=3)
    store = FeatureStore(dataset.features, dataset.labels)
    rng = np.random.default_rng(0)
    batches = [
        rng.choice(dataset.split.train, size=32, replace=False) for _ in range(6)
    ]
    return dataset, store, batches


def make_pipeline(policy, dataset, store, device, **kwargs):
    return build_pipeline(
        policy,
        lambda: FastNeighborSampler(dataset.graph, [5, 3]),
        store,
        device=device,
        max_batch=32,
        **kwargs,
    )


def make_train_fn(dataset, seed=0):
    model = GraphSAGE(
        dataset.num_features, 32, dataset.num_classes, num_layers=2,
        rng=np.random.default_rng(seed),
    )
    optimizer = Adam(model.parameters(), lr=1e-2)

    def train_fn(device_batch):
        model.train()
        optimizer.zero_grad()
        out = model(Tensor(device_batch.xs.data), device_batch.mfg.adjs)
        loss = F.nll_loss(out, device_batch.ys.data)
        loss.backward()
        optimizer.step()
        return loss.item()

    return train_fn, model


class TestSerialExecutor:
    """The ``serial`` policy (class name predates ``build_pipeline``; kept
    so test ids stay stable)."""

    def test_epoch_runs_all_batches(self, setup):
        dataset, store, batches = setup
        device = Device()
        executor = make_pipeline("serial", dataset, store, device, seed=0)
        train_fn, _ = make_train_fn(dataset)
        stats = executor.run_epoch(batches, train_fn)
        device.shutdown()
        assert stats.num_batches == len(batches)
        assert len(stats.losses) == len(batches)
        assert stats.epoch_time > 0
        # serial: every stage accounted on the main thread
        assert stats.sample_time > 0 and stats.slice_time > 0
        assert stats.train_time > 0

    def test_breakdown_fractions_sum_below_one(self, setup):
        dataset, store, batches = setup
        device = Device()
        executor = make_pipeline("serial", dataset, store, device, seed=0)
        train_fn, _ = make_train_fn(dataset)
        stats = executor.run_epoch(batches, train_fn)
        device.shutdown()
        fractions = stats.breakdown()
        # The blocking stages partition the caller's time; ``plan_build`` is
        # a busy share already inside ``batch_prep``, so it is not summed.
        blocking = sum(fractions[stage] for stage in stats.BREAKDOWN_STAGES)
        assert 0.5 < blocking <= 1.01

    def test_bytes_transferred_reset_per_epoch(self, setup):
        dataset, store, batches = setup
        device = Device()
        executor = make_pipeline("serial", dataset, store, device, seed=0)
        train_fn, _ = make_train_fn(dataset)
        s1 = executor.run_epoch(batches, train_fn)
        s2 = executor.run_epoch(batches, train_fn)
        device.shutdown()
        assert abs(s1.bytes_transferred - s2.bytes_transferred) < 0.2 * s1.bytes_transferred


class TestPipelinedExecutor:
    """The ``pipelined`` policy (class name kept for stable test ids)."""

    def test_losses_match_serial_with_one_worker(self, setup):
        """Single prep worker preserves batch order, so the pipelined run is
        numerically identical to the serial baseline (same RNG per batch)."""
        dataset, store, batches = setup

        device_a = Device()
        serial = make_pipeline("serial", dataset, store, device_a, seed=9)
        fn_a, model_a = make_train_fn(dataset, seed=4)
        stats_a = serial.run_epoch(batches, fn_a)
        device_a.shutdown()

        device_b = Device()
        pipelined = make_pipeline(
            "pipelined", dataset, store, device_b, num_workers=1, seed=9
        )
        fn_b, model_b = make_train_fn(dataset, seed=4)
        stats_b = pipelined.run_epoch(batches, fn_b)
        device_b.shutdown()

        np.testing.assert_allclose(stats_a.losses, stats_b.losses, rtol=1e-5)
        for (na, pa), (nb, pb) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            assert na == nb
            np.testing.assert_allclose(pa.data, pb.data, rtol=1e-5)

    def test_multi_worker_processes_all_batches(self, setup):
        dataset, store, batches = setup
        device = Device()
        executor = make_pipeline(
            "pipelined", dataset, store, device, num_workers=3, seed=0
        )
        train_fn, _ = make_train_fn(dataset)
        stats = executor.run_epoch(batches, train_fn)
        device.shutdown()
        assert stats.num_batches == len(batches)

    def test_pinned_buffers_recycled_across_epochs(self, setup):
        dataset, store, batches = setup
        device = Device()
        executor = make_pipeline(
            "pipelined", dataset, store, device, num_workers=2, pinned_slots=2, seed=0
        )
        train_fn, _ = make_train_fn(dataset)
        for _ in range(3):
            executor.run_epoch(batches, train_fn)
        device.shutdown()
        assert executor.pinned_pool.free_slots() == executor.pinned_pool.total_slots

    def test_trace_records_all_stages(self, setup):
        dataset, store, batches = setup
        tracer = Tracer()
        device = Device()
        executor = make_pipeline(
            "pipelined", dataset, store, device, num_workers=2, tracer=tracer, seed=0
        )
        train_fn, _ = make_train_fn(dataset)
        executor.run_epoch(batches, train_fn)
        device.shutdown()
        stages = {e.name for e in tracer.events}
        assert stages == {"sample", "slice", "plan_build", "transfer", "train"}
        rendered = render_timeline(tracer)
        assert "gpu" in rendered and "dma" in rendered

    def test_transfer_overlaps_compute(self, setup):
        """The pipelined policy moves batch i+1 on the DMA lane while batch
        i trains on the GPU lane; the serial policy never does.  Asserted on
        span structure, not on wall-clock totals (which flake on a loaded
        single-core host): one prepare worker delivers in index order, and
        the metered transfer (tens of ms) dwarfs any scheduling jitter."""
        dataset, store, batches = setup

        def overlapping_batches(policy):
            tracer = Tracer()
            device = Device(transfer_bandwidth=5e6)
            pipeline = make_pipeline(
                policy, dataset, store, device, num_workers=1, tracer=tracer, seed=0
            )
            fn, _ = make_train_fn(dataset)
            pipeline.run_epoch(batches, fn)
            device.shutdown()
            spans = {(e.name, e.batch): e for e in tracer.events}
            assert spans["transfer", 0].resource == "dma"
            assert spans["train", 0].resource == "gpu"
            return [
                i
                for i in range(len(batches) - 1)
                if spans["transfer", i + 1].start < spans["train", i].end
                and spans["train", i].start < spans["transfer", i + 1].end
            ]

        assert overlapping_batches("serial") == []
        assert overlapping_batches("pipelined")
