"""Table 3 — incremental impact of each SALIENT optimization.

Measured ladder on the real runtime (products stand-in, metered device):

1. *PyG*             — serial policy, reference sampler, double-copy slicing.
2. *+ fast sampling* — serial policy, SALIENT's vectorized sampler.
3. *+ shared-memory batch prep* — prepare worker threads with fused
   single-gather slicing, but synchronous transfers on the caller.
4. *+ pipelined transfers* — full SALIENT (async transfer stream at the
   higher DMA efficiency).

Plus the calibrated model's paper-scale Table 3 next to the published
numbers. Expected shape: every rung strictly reduces epoch time.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import Adam
from repro.perfmodel import ABLATION_STEPS, TABLE3_REFERENCE, simulate_epoch
from repro.runtime import Device, PrepareStage, StagedPipeline, build_pipeline
from repro.sampling import FastNeighborSampler, PyGNeighborSampler
from repro.slicing import FeatureStore
from repro.telemetry import format_table
from repro.tensor import Tensor, functional as F
from repro.train import get_config

from common import emit

DMA_BW = 40e6
FANOUTS = [15, 10, 5]


def _make_train_fn(dataset, hidden=64, seed=0):
    model = build_model(
        "sage", dataset.num_features, hidden, dataset.num_classes,
        rng=np.random.default_rng(seed),
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


def _epoch_batches(dataset, batch_size=256):
    rng = np.random.default_rng(1)
    size = min(batch_size, len(dataset.split.train))
    count = max(len(dataset.split.train) // size, 4)
    return [
        rng.choice(dataset.split.train, size=size, replace=False)
        for _ in range(count)
    ]


def run_rung(dataset, rung: str) -> float:
    """Execute one epoch at one optimization level; returns epoch seconds."""
    store = FeatureStore(dataset.features, dataset.labels)
    batches = _epoch_batches(dataset)
    train_fn = _make_train_fn(dataset)

    if rung in ("pyg", "fast"):
        device = Device(transfer_bandwidth=DMA_BW, roundtrip_latency=5e-4)
        sampler_cls = PyGNeighborSampler if rung == "pyg" else FastNeighborSampler
        executor = build_pipeline(
            "serial", lambda: sampler_cls(dataset.graph, FANOUTS), store, device=device
        )
        stats = executor.run_epoch(batches, train_fn)
        device.shutdown()
        return stats.epoch_time

    if rung == "shared":
        # Worker threads prepare batches end-to-end (the seam DDP uses),
        # but the main thread still transfers *synchronously* (with the
        # baseline's round-trip assertions) before each training step.
        device = Device(transfer_bandwidth=DMA_BW, roundtrip_latency=5e-4)
        prepare = StagedPipeline(
            [
                PrepareStage(
                    lambda: FastNeighborSampler(dataset.graph, FANOUTS),
                    store,
                    workers=2,
                )
            ],
            prefetch_depth=4,
        )
        start = time.perf_counter()
        run = prepare.start(batches)
        while (env := run.next_envelope()) is not None:
            train_fn(device.transfer_batch(env.sliced, env.index))
        run.drain()
        elapsed = time.perf_counter() - start
        device.shutdown()
        return elapsed

    if rung != "pipelined":
        raise ValueError(rung)
    device = Device(transfer_bandwidth=DMA_BW, roundtrip_latency=0.0)
    executor = build_pipeline(
        "pipelined",
        lambda: FastNeighborSampler(dataset.graph, FANOUTS),
        store,
        device=device,
        num_workers=2,
        max_batch=256,
    )
    stats = executor.run_epoch(batches, train_fn)
    device.shutdown()
    return stats.epoch_time


RUNGS = [
    ("None (PyG)", "pyg"),
    ("+ Fast sampling", "fast"),
    ("+ Shared-memory batch prep.", "shared"),
    ("+ Pipelined data transfers", "pipelined"),
]


@pytest.fixture(scope="module")
def measured(bench_datasets):
    out = {}
    for name in ("arxiv", "products"):
        out[name] = [run_rung(bench_datasets[name], key) for _, key in RUNGS]
    return out


def test_table3_report(benchmark, measured):
    benchmark.pedantic(_emit_report, args=(measured,), rounds=1, iterations=1)


def _emit_report(measured):
    measured_rows = []
    for i, (label, _) in enumerate(RUNGS):
        measured_rows.append(
            {
                "optimization": label,
                "arxiv_s": round(measured["arxiv"][i], 3),
                "products_s": round(measured["products"][i], 3),
            }
        )
    modeled_rows = []
    for i, config in enumerate(ABLATION_STEPS):
        row = {"optimization": config.name}
        for ds in ("arxiv", "products", "papers"):
            row[f"{ds}_s"] = round(simulate_epoch(ds, config).epoch_time, 1)
            row[f"{ds}_paper"] = TABLE3_REFERENCE[ds][i]
        modeled_rows.append(row)
    text = "\n\n".join(
        [
            format_table(
                measured_rows,
                title="Table 3 (measured ablation, scaled stand-ins, real runtime)",
            ),
            format_table(
                modeled_rows,
                title="Table 3 (modeled at paper scale vs published numbers)",
            ),
        ]
    )
    emit("table3_ablation", text)
    # every optimization rung helps on the measured products run
    times = measured["products"]
    assert times[0] > times[-1], times
    assert times[1] < times[0], "fast sampling did not help"


def test_benchmark_full_salient_epoch(benchmark, bench_datasets):
    benchmark.pedantic(
        run_rung, args=(bench_datasets["products"], "pipelined"), rounds=2, iterations=1
    )
