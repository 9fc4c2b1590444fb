"""Extension ablation — GPU feature caching (Section 8 future work).

Sweeps the device-resident feature cache size on the papers stand-in and
reports hit rate, transfer-volume reduction, and epoch time on a
bandwidth-metered device. Expected shape: hit rate and savings grow with
cache size, super-proportionally at small sizes (degree-ordered caching
exploits the power-law sampling skew; at this reduced graph scale an MFG
covers ~half the graph, so the skew is visible but milder than at 100M
nodes).
"""

import time

import numpy as np
import pytest

from repro.runtime import (
    Device,
    DeviceFeatureCache,
    hottest_nodes,
    transfer_batch_with_cache,
)
from repro.sampling import BatchIterator, FastNeighborSampler
from repro.slicing import FeatureStore, slice_batch_fused
from repro.telemetry import format_table
from repro.tensor import Workspace, workspace_scope

from common import emit

FANOUTS = [10, 5, 5]
CACHE_FRACTIONS = [0.0, 0.05, 0.15, 0.4, 1.0]
DMA_BW = 40e6


def run_epoch_with_cache(dataset, cache_fraction: float):
    store = FeatureStore(dataset.features, dataset.labels)
    sampler = FastNeighborSampler(dataset.graph, FANOUTS)
    device = Device(transfer_bandwidth=DMA_BW)
    cache_size = int(dataset.num_nodes * cache_fraction)
    cache = DeviceFeatureCache(
        device, store, hottest_nodes(dataset.graph, cache_size)
    )
    device.reset_stats()  # exclude the one-time resident upload

    rng = np.random.default_rng(0)
    start = time.perf_counter()
    # A workspace scope lets transfer_batch_with_cache pool the assembled
    # fp32 feature matrix across batches instead of reallocating it.
    with workspace_scope(Workspace()) as workspace:
        for index, nodes in enumerate(
            BatchIterator(dataset.split.train, 32, rng=rng)
        ):
            mfg = sampler.sample(nodes, np.random.default_rng(index))
            batch = slice_batch_fused(store, mfg)
            transfer_batch_with_cache(device, cache, batch, index)
            workspace.release_all()
    elapsed = time.perf_counter() - start
    stats = {
        "cache_fraction": cache_fraction,
        "hit_rate": round(cache.hit_rate(), 3),
        "bytes_transferred_MB": round(device.bytes_transferred / 1e6, 2),
        "bytes_saved_MB": round(cache.bytes_saved / 1e6, 2),
        "epoch_s": round(elapsed, 3),
    }
    device.shutdown()
    return stats


@pytest.fixture(scope="module")
def sweep(bench_datasets):
    return [
        run_epoch_with_cache(bench_datasets["papers"], frac)
        for frac in CACHE_FRACTIONS
    ]


def test_feature_cache_ablation_report(benchmark, sweep):
    benchmark.pedantic(_emit_report, args=(sweep,), rounds=1, iterations=1)


def _emit_report(sweep):
    text = format_table(
        sweep,
        title=(
            "Feature-cache ablation (papers stand-in, degree-ordered "
            "resident set, metered DMA)"
        ),
    )
    emit("ablation_feature_cache", text)
    hit_rates = [row["hit_rate"] for row in sweep]
    transferred = [row["bytes_transferred_MB"] for row in sweep]
    assert all(a <= b + 1e-9 for a, b in zip(hit_rates, hit_rates[1:]))
    assert transferred[-1] < transferred[0]
    # power-law payoff: degree-ordered caching beats proportional coverage
    assert hit_rates[2] > 1.3 * CACHE_FRACTIONS[2]


def test_benchmark_cached_transfer(benchmark, bench_datasets):
    dataset = bench_datasets["products"]
    store = FeatureStore(dataset.features, dataset.labels)
    sampler = FastNeighborSampler(dataset.graph, FANOUTS)
    nodes = np.random.default_rng(0).choice(
        dataset.split.train, size=64, replace=False
    )
    batch = slice_batch_fused(store, sampler.sample(nodes, np.random.default_rng(1)))
    device = Device()
    cache = DeviceFeatureCache(
        device, store, hottest_nodes(dataset.graph, dataset.num_nodes // 4)
    )
    benchmark(lambda: transfer_batch_with_cache(device, cache, batch))
    device.shutdown()
