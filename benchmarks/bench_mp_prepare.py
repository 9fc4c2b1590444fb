"""Batch-preparation scaling: thread workers vs worker processes.

The de-simulation measurement for ISSUE 9 (the paper's Section 4.2 /
Table 2 question): how does *prepare-only* throughput — sampling plus
pinned slicing, no transfer or compute — scale with worker count when the
workers are GIL-bound threads (:class:`PrepareStage`) versus shared-memory
worker processes (:class:`MPPrepareStage` over
:class:`MultiprocessPreparePool`)?

Both variants drive the same :class:`StagedPipeline` engine with only a
prepare stage: the driver pulls envelopes in index order and releases each
pinned slot immediately, so the measured time is pure batch preparation
plus dispatch overhead.  Worker-pool and shared-memory startup is excluded
from the timing (pools persist across reps, like a real multi-epoch run).

The artifact records ``cpu_count``: on hosts with fewer cores than workers
neither variant can scale, so the committed-number scaling assertion in
``tests/benchmarks/test_mp_prepare_contract.py`` is gated on the *bench
host's* core count.

Usage::

    PYTHONPATH=src python benchmarks/bench_mp_prepare.py [--smoke]
        [--reps N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import BENCH_SCALES  # noqa: E402

from repro.datasets import get_dataset  # noqa: E402
from repro.runtime import (  # noqa: E402
    PinnedBufferPool,
    PrepareStage,
    StagedPipeline,
    build_pipeline,
    estimate_max_rows,
)
from repro.sampling import FastNeighborSampler  # noqa: E402
from repro.slicing import FeatureStore  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_mp_prepare.json"

WORKER_COUNTS = (1, 2, 4, 8)
FANOUTS = [10, 5]
PREFETCH_DEPTH = 4
SEED = 0
#: fork skips interpreter startup; the spawn path is pinned by the
#: runtime test suite and is byte-identical, so the bench uses the
#: cheaper start method where available
START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

FULL = {"reps": 5, "num_batches": 8, "batch_size": 256, "scales": BENCH_SCALES}
SMOKE = {
    "reps": 2,
    "num_batches": 3,
    "batch_size": 64,
    "scales": {"arxiv": BENCH_SCALES["arxiv"]},
}


def _train_batches(dataset, num_batches: int, batch_size: int) -> list[np.ndarray]:
    rng = np.random.default_rng(7)
    train = dataset.split.train
    size = min(batch_size, len(train))
    return [rng.choice(train, size=size, replace=False) for _ in range(num_batches)]


def _drive(pipeline: StagedPipeline, batches) -> float:
    """One prepare-only epoch: pull every envelope, recycle its slot."""
    t0 = time.perf_counter()
    run = pipeline.start(batches)
    while True:
        env = run.next_envelope()
        if env is None:
            break
        env.release_buffer()
    return time.perf_counter() - t0


def _percentiles(times: list[float]) -> tuple[float, float]:
    return statistics.median(times), float(np.percentile(times, 90))


def _time_thread(dataset, store, workers: int, mode: dict) -> tuple[float, float]:
    batches = _train_batches(dataset, mode["num_batches"], mode["batch_size"])
    max_rows = estimate_max_rows(FANOUTS, mode["batch_size"], dataset.num_nodes)
    pool = PinnedBufferPool(
        workers + PREFETCH_DEPTH + 2,
        max_rows=max_rows,
        num_features=store.num_features,
        max_batch=mode["batch_size"],
    )
    stage = PrepareStage(
        lambda: FastNeighborSampler(dataset.graph, FANOUTS),
        store,
        pinned_pool=pool,
        workers=workers,
    )
    pipeline = StagedPipeline(
        [stage], prefetch_depth=PREFETCH_DEPTH, seed=SEED
    )
    times = []
    for rep in range(mode["reps"] + 1):  # rep 0 warms up
        elapsed = _drive(pipeline, batches)
        if rep > 0:
            times.append(elapsed)
    return _percentiles(times)


def _time_process(dataset, store, workers: int, mode: dict) -> tuple[float, float]:
    batches = _train_batches(dataset, mode["num_batches"], mode["batch_size"])
    # Prepare-only: no device; the policy's default
    # ``workers + depth + 2`` shared slots match the thread variant's pool.
    pipeline = build_pipeline(
        "multiprocess",
        lambda: FastNeighborSampler(dataset.graph, FANOUTS),
        store,
        num_workers=workers,
        max_batch=mode["batch_size"],
        prefetch_depth=PREFETCH_DEPTH,
        seed=SEED,
        start_method=START_METHOD,
    )
    try:
        times = []
        for rep in range(mode["reps"] + 1):
            elapsed = _drive(pipeline, batches)
            if rep > 0:
                times.append(elapsed)
    finally:
        pipeline.close()
    return _percentiles(times)


def run_bench(mode: dict, datasets: dict) -> dict:
    worker_counts = WORKER_COUNTS
    num_batches = mode["num_batches"]
    rows = []
    for name, dataset in datasets.items():
        store = FeatureStore(dataset.features, dataset.labels)
        for kind, timer in (("thread", _time_thread), ("process", _time_process)):
            for workers in worker_counts:
                median, p90 = timer(dataset, store, workers, mode)
                rows.append(
                    {
                        "bench": "prepare",
                        "dataset": name,
                        "variant": f"{kind}-{workers}",
                        "median_s": median,
                        "p90_s": p90,
                        "batches_per_s": num_batches / median,
                    }
                )
                print(
                    f"prepare {name:10s} {kind:7s} x{workers}  "
                    f"median {median * 1e3:9.2f} ms   "
                    f"{num_batches / median:8.2f} batches/s"
                )

    def _median(dataset: str, variant: str) -> float:
        for row in rows:
            if (row["dataset"], row["variant"]) == (dataset, variant):
                return row["median_s"]
        raise KeyError((dataset, variant))

    summary = {}
    for name in datasets:
        summary[name] = {
            "process_speedup_2w": _median(name, "process-1")
            / _median(name, "process-2"),
            "process_speedup_4w": _median(name, "process-1")
            / _median(name, "process-4"),
            "process_speedup_8w": _median(name, "process-1")
            / _median(name, "process-8"),
            "process_vs_thread_4w": _median(name, "thread-4")
            / _median(name, "process-4"),
        }
    return {
        "bench": "mp_prepare",
        "fanouts": FANOUTS,
        "worker_counts": list(worker_counts),
        "prefetch_depth": PREFETCH_DEPTH,
        "start_method": START_METHOD,
        "cpu_count": os.cpu_count(),
        "reps": mode["reps"],
        "num_batches": num_batches,
        "batch_size": mode["batch_size"],
        "mode": mode["name"],
        "rows": rows,
        "summary": summary,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-scale configuration for the tier-1 contract test",
    )
    parser.add_argument("--reps", type=int, default=None, help="override rep count")
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    mode = dict(SMOKE if args.smoke else FULL)
    mode["name"] = "smoke" if args.smoke else "full"
    if args.reps is not None:
        if args.reps < 1:
            parser.error("--reps must be >= 1")
        mode["reps"] = args.reps

    datasets = {
        name: get_dataset(name, scale=scale, seed=0)
        for name, scale in mode["scales"].items()
    }
    doc = run_bench(mode, datasets)
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\n[written to {args.output}]  (cpu_count={doc['cpu_count']})")
    for name, entry in doc["summary"].items():
        parts = "  ".join(f"{k} {v:.2f}x" for k, v in entry.items())
        print(f"{name:10s} {parts}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
