"""Figure 1 — mini-batch timeline: standard PyTorch workflow vs SALIENT.

Runs a slice of a products epoch under both policies with tracing on a
bandwidth-metered device, and renders the two ASCII Gantt charts. The
paper's qualitative picture must emerge: the serial workflow leaves the
GPU lane mostly idle between compute bursts, while SALIENT's lane is
near-contiguous (sampling/slicing on cpu workers, transfers on the dma
lane, compute back-to-back on gpu).
"""

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import Adam
from repro.runtime import Device, Tracer, build_pipeline, render_timeline
from repro.sampling import FastNeighborSampler, PyGNeighborSampler
from repro.slicing import FeatureStore
from repro.tensor import Tensor, functional as F

from common import emit

DMA_BW = 25e6
NUM_BATCHES = 8


def _train_fn(dataset):
    model = build_model(
        "sage", dataset.num_features, 64, dataset.num_classes,
        rng=np.random.default_rng(0),
    )
    optimizer = Adam(model.parameters(), lr=3e-3)

    def fn(batch):
        model.train()
        optimizer.zero_grad()
        loss = F.nll_loss(model(Tensor(batch.xs.data), batch.mfg.adjs), batch.ys.data)
        loss.backward()
        optimizer.step()
        return loss.item()

    return fn


def _batches(dataset):
    rng = np.random.default_rng(2)
    size = min(192, len(dataset.split.train))
    return [
        rng.choice(dataset.split.train, size=size, replace=False)
        for _ in range(NUM_BATCHES)
    ]


def run_both(dataset):
    store = FeatureStore(dataset.features, dataset.labels)
    batches = _batches(dataset)

    serial_tracer = Tracer()
    device = Device(transfer_bandwidth=DMA_BW, roundtrip_latency=5e-4)
    serial = build_pipeline(
        "serial",
        lambda: PyGNeighborSampler(dataset.graph, [15, 10, 5]),
        store,
        device=device,
        tracer=serial_tracer,
    )
    serial_stats = serial.run_epoch(batches, _train_fn(dataset))
    device.shutdown()

    pipe_tracer = Tracer()
    device = Device(transfer_bandwidth=DMA_BW)
    pipelined = build_pipeline(
        "pipelined",
        lambda: FastNeighborSampler(dataset.graph, [15, 10, 5]),
        store,
        device=device,
        num_workers=2,
        max_batch=192,
        tracer=pipe_tracer,
    )
    pipe_stats = pipelined.run_epoch(batches, _train_fn(dataset))
    device.shutdown()
    return serial_tracer, serial_stats, pipe_tracer, pipe_stats


@pytest.fixture(scope="module")
def traces(bench_datasets):
    return run_both(bench_datasets["products"])


def test_fig1_report(benchmark, traces):
    benchmark.pedantic(_emit_report, args=(traces,), rounds=1, iterations=1)


def _emit_report(traces):
    serial_tracer, serial_stats, pipe_tracer, pipe_stats = traces
    text = "\n\n".join(
        [
            "Figure 1(a) - standard PyTorch workflow "
            f"(epoch {serial_stats.epoch_time * 1000:.0f} ms, "
            f"GPU busy {100 * serial_tracer.gpu_utilization():.0f}%)\n"
            + render_timeline(serial_tracer, width=96),
            "Figure 1(b) - SALIENT "
            f"(epoch {pipe_stats.epoch_time * 1000:.0f} ms, "
            f"GPU busy {100 * pipe_tracer.gpu_utilization():.0f}%)\n"
            + render_timeline(pipe_tracer, width=96),
        ]
    )
    emit("fig1_timeline", text)
    # SALIENT keeps the GPU busier and finishes sooner
    assert pipe_tracer.gpu_utilization() > serial_tracer.gpu_utilization()
    assert pipe_stats.epoch_time < serial_stats.epoch_time


def test_benchmark_traced_pipeline(benchmark, bench_datasets):
    benchmark.pedantic(
        run_both, args=(bench_datasets["products"],), rounds=1, iterations=1
    )
