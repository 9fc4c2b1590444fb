"""Visualize the training pipeline timeline (the paper's Figure 1).

Runs a few mini-batches through the baseline serial workflow and through
SALIENT's overlapped pipeline with tracing enabled, then renders both
timelines as ASCII Gantt charts, lane per resource (CPU workers, DMA,
GPU).

    python examples/pipeline_timeline.py
"""

import numpy as np

from repro.datasets import get_dataset
from repro.models import build_model
from repro.nn import Adam
from repro.runtime import Device, Tracer, build_pipeline, render_timeline
from repro.sampling import FastNeighborSampler, PyGNeighborSampler
from repro.slicing import FeatureStore
from repro.tensor import Tensor, functional as F

NUM_BATCHES = 6
DMA_BANDWIDTH = 25e6  # scaled to the stand-in batch sizes


def make_train_fn(dataset):
    model = build_model(
        "sage", dataset.num_features, 64, dataset.num_classes,
        rng=np.random.default_rng(0),
    )
    optimizer = Adam(model.parameters(), lr=3e-3)

    def train_fn(batch):
        model.train()
        optimizer.zero_grad()
        loss = F.nll_loss(model(Tensor(batch.xs.data), batch.mfg.adjs), batch.ys.data)
        loss.backward()
        optimizer.step()
        return loss.item()

    return train_fn


def main() -> None:
    dataset = get_dataset("products", scale=0.375, seed=0)
    store = FeatureStore(dataset.features, dataset.labels)
    rng = np.random.default_rng(1)
    batches = [
        rng.choice(dataset.split.train, size=min(192, len(dataset.split.train)), replace=False)
        for _ in range(NUM_BATCHES)
    ]

    tracer = Tracer()
    device = Device(transfer_bandwidth=DMA_BANDWIDTH, roundtrip_latency=5e-4)
    serial = build_pipeline(
        "serial",
        lambda: PyGNeighborSampler(dataset.graph, [15, 10, 5]),
        store,
        device=device,
        tracer=tracer,
    )
    stats = serial.run_epoch(batches, make_train_fn(dataset))
    device.shutdown()
    print(
        f"(a) standard PyTorch workflow — epoch {stats.epoch_time*1000:.0f} ms, "
        f"GPU busy {100 * tracer.gpu_utilization():.0f}%"
    )
    print(render_timeline(tracer, width=100))

    tracer = Tracer()
    device = Device(transfer_bandwidth=DMA_BANDWIDTH)
    pipelined = build_pipeline(
        "pipelined",
        lambda: FastNeighborSampler(dataset.graph, [15, 10, 5]),
        store,
        device=device,
        num_workers=2,
        max_batch=192,
        tracer=tracer,
    )
    stats = pipelined.run_epoch(batches, make_train_fn(dataset))
    device.shutdown()
    print(
        f"\n(b) SALIENT — epoch {stats.epoch_time*1000:.0f} ms, "
        f"GPU busy {100 * tracer.gpu_utilization():.0f}%"
    )
    print(render_timeline(tracer, width=100))


if __name__ == "__main__":
    main()
