"""Execution-policy benchmark: serial vs pipelined vs staged epochs.

Times the three policies of the staged-pipeline runtime
(:mod:`repro.runtime.stages`) on both paper workloads:

- ``train``     — full training epochs (sample -> slice -> transfer ->
  train step) through :func:`repro.runtime.build_pipeline` under the
  ``serial``, ``pipelined`` and ``staged`` policies;
- ``inference`` — sampled-inference epochs (Section 5.4's pipelined
  inference) through :func:`repro.train.sampled_inference` with the same
  three ``executor`` policies.

Transfers run against a bandwidth-metered :class:`Device`, so the benchmark
exercises the overlap the paper measures: the serial policy pays
prepare + transfer + compute sequentially, the overlapped policies hide
transfer (and prepare) behind compute.

Like ``bench_sampler_hotpath.py``, this is a plain script writing a
machine-readable ``BENCH_pipeline.json`` at the repo root, validated by
``benchmarks/check_bench_json.py``.  ``--smoke`` runs a seconds-scale
configuration used by the tier-1 contract test.

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py [--smoke]
        [--reps N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import BENCH_SCALES, registry_stage_seconds  # noqa: E402

from repro.datasets import get_dataset  # noqa: E402
from repro.models import build_model  # noqa: E402
from repro.nn import Adam  # noqa: E402
from repro.runtime import Device, build_pipeline  # noqa: E402
from repro.sampling import FastNeighborSampler  # noqa: E402
from repro.slicing import FeatureStore  # noqa: E402
from repro.tensor import Tensor, functional as F  # noqa: E402
from repro.train import sampled_inference  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_pipeline.json"

VARIANTS = ("serial", "pipelined", "staged")
FANOUTS = [10, 5]
HIDDEN = 32
NUM_WORKERS = 2
#: modeled DMA bandwidth (bytes/s), slow enough that transfer is a real
#: pipeline stage at bench scale — the overlap term the policies differ on
TRANSFER_BANDWIDTH = 4e8

#: full-mode configuration (smoke shrinks everything to seconds-scale)
FULL = {"reps": 7, "num_batches": 6, "batch_size": 256, "scales": BENCH_SCALES}
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


def _infer_nodes(dataset, num_batches: int, batch_size: int) -> np.ndarray:
    rng = np.random.default_rng(13)
    count = min(num_batches * batch_size, dataset.num_nodes)
    return rng.choice(dataset.num_nodes, size=count, replace=False)


def _make_train_fn(dataset):
    model = build_model(
        "sage",
        dataset.num_features,
        HIDDEN,
        dataset.num_classes,
        num_layers=len(FANOUTS),
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


def _build_executor(variant: str, dataset, store, device, batch_size: int):
    return build_pipeline(
        variant,
        lambda: FastNeighborSampler(dataset.graph, FANOUTS),
        store,
        device=device,
        num_workers=NUM_WORKERS,
        max_batch=batch_size,
        seed=0,
    )


def _percentiles(times: list[float]) -> tuple[float, float]:
    return statistics.median(times), float(np.percentile(times, 90))


def _time_training(
    dataset, store, variant: str, mode: dict
) -> tuple[float, float, dict]:
    """Median/p90 epoch time over ``reps`` epochs (plus one warm-up).

    Every rep rebuilds the model/optimizer and the device, so each epoch
    does identical work; the executor (and its prepare workers / pinned
    pool) persists across reps like a real multi-epoch training run.

    Stage accounting is read from each epoch's :class:`MetricsRegistry`
    and summed over the timed reps.
    """
    batches = _train_batches(dataset, mode["num_batches"], mode["batch_size"])
    times = []
    stage_totals: dict[str, float] = {}
    for rep in range(mode["reps"] + 1):  # rep 0 is the warm-up
        device = Device(transfer_bandwidth=TRANSFER_BANDWIDTH)
        executor = _build_executor(variant, dataset, store, device, mode["batch_size"])
        stats = executor.run_epoch(batches, _make_train_fn(dataset))
        device.shutdown()
        if rep > 0:
            times.append(stats.epoch_time)
            for stage, seconds in registry_stage_seconds(stats).items():
                stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds
    median, p90 = _percentiles(times)
    return median, p90, stage_totals


def _time_inference(dataset, store, model, variant: str, mode: dict) -> tuple[float, float]:
    nodes = _infer_nodes(dataset, mode["num_batches"], mode["batch_size"])
    times = []
    for rep in range(mode["reps"] + 1):
        device = Device(transfer_bandwidth=TRANSFER_BANDWIDTH)
        start = time.perf_counter()
        sampled_inference(
            model,
            store.features,
            dataset.graph,
            nodes,
            FANOUTS,
            batch_size=mode["batch_size"],
            seed=0,
            executor=variant,
            device=device,
            num_workers=NUM_WORKERS,
        )
        elapsed = time.perf_counter() - start
        device.shutdown()
        if rep > 0:
            times.append(elapsed)
    return _percentiles(times)


def run_bench(mode: dict, datasets: dict) -> dict:
    rows = []
    for name, dataset in datasets.items():
        store = FeatureStore(dataset.features, dataset.labels)
        infer_model = build_model(
            "sage",
            dataset.num_features,
            HIDDEN,
            dataset.num_classes,
            num_layers=len(FANOUTS),
            rng=np.random.default_rng(0),
        )
        num_batches = mode["num_batches"]
        for bench, timer in (
            ("train", lambda v: _time_training(dataset, store, v, mode)),
            ("inference", lambda v: _time_inference(dataset, store, infer_model, v, mode)),
        ):
            for variant in VARIANTS:
                if bench == "train":
                    median, p90, stage_s = timer(variant)
                else:
                    median, p90 = timer(variant)
                    stage_s = None
                row = {
                    "bench": bench,
                    "dataset": name,
                    "variant": variant,
                    "median_s": median,
                    "p90_s": p90,
                    "batches_per_s": num_batches / median,
                }
                if stage_s is not None:
                    # Registry-sourced caller-blocking seconds, summed
                    # over the timed reps (validated in _time_training).
                    row["stage_s"] = {k: round(v, 6) for k, v in stage_s.items()}
                rows.append(row)
                print(
                    f"{bench:9s} {name:10s} {variant:10s} "
                    f"median {median * 1e3:9.2f} ms   "
                    f"{num_batches / median:8.2f} batches/s"
                )

    def _median(bench: str, dataset: str, variant: str) -> float:
        for row in rows:
            if (row["bench"], row["dataset"], row["variant"]) == (
                bench,
                dataset,
                variant,
            ):
                return row["median_s"]
        raise KeyError((bench, dataset, variant))

    summary = {}
    for name in datasets:
        summary[name] = {
            "pipelined_train_speedup": _median("train", name, "serial")
            / _median("train", name, "pipelined"),
            "staged_train_speedup": _median("train", name, "serial")
            / _median("train", name, "staged"),
            "pipelined_inference_speedup": _median("inference", name, "serial")
            / _median("inference", name, "pipelined"),
            "staged_inference_speedup": _median("inference", name, "serial")
            / _median("inference", name, "staged"),
        }
    return {
        "bench": "pipeline",
        "fanouts": FANOUTS,
        "hidden": HIDDEN,
        "num_workers": NUM_WORKERS,
        "transfer_bandwidth": TRANSFER_BANDWIDTH,
        "reps": mode["reps"],
        "num_batches": mode["num_batches"],
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
    print(f"\n[written to {args.output}]")
    for name, entry in doc["summary"].items():
        print(
            f"{name:10s} train pipelined/staged "
            f"{entry['pipelined_train_speedup']:.2f}x/"
            f"{entry['staged_train_speedup']:.2f}x   "
            f"inference pipelined/staged "
            f"{entry['pipelined_inference_speedup']:.2f}x/"
            f"{entry['staged_inference_speedup']:.2f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
