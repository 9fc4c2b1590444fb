"""Tiered feature store: slice throughput and capacity across tiers.

The de-simulation measurement for ISSUE 10: how much slice throughput does
each storage tier give up in exchange for capacity?  Four variants gather
the same degree-weighted node batches into a preallocated (pinned-shaped)
fp16 buffer:

- ``ram``          — the baseline in-memory :class:`FeatureStore` (fp16);
- ``mmap``         — :class:`MemmapFeatureStore` over a raw fp16 slab,
  feature bytes resident only in the OS page cache;
- ``mmap-tiered``  — :class:`TieredFeatureStore`, hottest ``num_nodes/8``
  rows pinned in RAM over the same raw slab;
- ``mmap-quant``   — uint8 per-channel affine slab with fused
  dequantize-on-slice.

Batches are drawn degree-weighted (the access pattern neighbor sampling
induces), so the tiered variant's hot set absorbs more than its size share
of the gathers.  The summary reports throughput relative to RAM plus the
two capacity ratios (graph-per-GB from mmap residency, bytes-per-row from
quantization), and a ``parity`` section pins the correctness contract:
ram vs mmap training losses byte-identical on the serial and multiprocess
executors, quantized final-epoch loss drift below 1e-2.

Usage::

    PYTHONPATH=src python benchmarks/bench_feature_tier.py [--smoke]
        [--reps N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import BENCH_SCALES  # noqa: E402

from repro.datasets import get_dataset  # noqa: E402
from repro.datasets.slab import dataset_slab_path, write_dataset_slab  # noqa: E402
from repro.runtime import hottest_nodes  # noqa: E402
from repro.slicing import (  # noqa: E402
    FeatureStore,
    MemmapFeatureStore,
    TieredFeatureStore,
)
from repro.train.config import ExperimentConfig  # noqa: E402
from repro.train.loop import Trainer  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_feature_tier.json"

VARIANTS = ("ram", "mmap", "mmap-tiered", "mmap-quant")
#: hot-tier size as a fraction of the graph (matches the Trainer default)
HOT_FRACTION = 8
PARITY_SEED = 3

FULL = {
    "reps": 5,
    "num_batches": 16,
    "batch_rows": 2048,
    "scales": BENCH_SCALES,
    "parity_scale": 0.1,
}
SMOKE = {
    "reps": 2,
    "num_batches": 4,
    "batch_rows": 512,
    "scales": {"arxiv": BENCH_SCALES["arxiv"]},
    "parity_scale": 0.05,
}


def _degree_weighted_batches(dataset, mode: dict) -> list[np.ndarray]:
    """Node-id batches drawn proportional to degree (sampling-shaped)."""
    degrees = np.asarray(dataset.graph.degree(), dtype=np.float64)
    weights = degrees / degrees.sum()
    rng = np.random.default_rng(11)
    return [
        rng.choice(dataset.num_nodes, size=mode["batch_rows"], p=weights)
        for _ in range(mode["num_batches"])
    ]


def _build_stores(dataset, slab_dir: Path) -> dict:
    """All four variants over one dataset; slabs land in ``slab_dir``."""
    ram = FeatureStore(dataset.features, dataset.labels)
    raw_path = dataset_slab_path(slab_dir, dataset.name, "raw")
    quant_path = dataset_slab_path(slab_dir, dataset.name, "uint8")
    write_dataset_slab(dataset, raw_path, encoding="raw")
    write_dataset_slab(dataset, quant_path, encoding="uint8")
    hot_ids = hottest_nodes(dataset.graph, dataset.num_nodes // HOT_FRACTION)
    return {
        "ram": ram,
        "mmap": MemmapFeatureStore(raw_path),
        "mmap-tiered": TieredFeatureStore(MemmapFeatureStore(raw_path), hot_ids),
        "mmap-quant": MemmapFeatureStore(quant_path),
    }


def _time_slices(store, batches, reps: int) -> tuple[float, float]:
    """Median/p90 seconds to gather every batch into one pinned-shaped out."""
    out = np.empty((len(batches[0]), store.num_features), dtype=store.feature_dtype)
    times = []
    for rep in range(reps + 1):  # rep 0 warms the page cache / hot tier
        t0 = time.perf_counter()
        for n_id in batches:
            store.slice_features(n_id, out=out)
        elapsed = time.perf_counter() - t0
        if rep > 0:
            times.append(elapsed)
    return statistics.median(times), float(np.percentile(times, 90))


def _parity_config() -> ExperimentConfig:
    return ExperimentConfig(
        dataset="arxiv",
        model="sage",
        hidden_channels=32,
        num_layers=2,
        batch_size=64,
        epochs=1,
        train_fanouts=(5, 5),
        infer_fanouts=(5, 5),
    )


def _epoch_losses(dataset, config, slab_dir: Path, **trainer_kw) -> list[float]:
    trainer = Trainer(
        dataset, config, seed=PARITY_SEED, slab_dir=slab_dir, **trainer_kw
    )
    try:
        return list(trainer.train_epoch(0).losses)
    finally:
        trainer.shutdown()


def run_parity(mode: dict, slab_dir: Path) -> dict:
    """Training-parity gate: tier choice must not change learning.

    Byte-identical loss traces for ram vs mmap on both executors, and a
    bounded final-epoch mean-loss delta for the quantized tier.
    """
    dataset = get_dataset("arxiv", scale=mode["parity_scale"], seed=0)
    config = _parity_config()
    # Slab paths key on dataset name; the slice bench already wrote an
    # "arxiv" slab at bench scale, so parity gets its own subdirectory.
    slab_dir = slab_dir / "parity"
    slab_dir.mkdir(exist_ok=True)
    ram = _epoch_losses(dataset, config, slab_dir, feature_tier="ram")
    mmap = _epoch_losses(dataset, config, slab_dir, feature_tier="mmap")
    mp_ram = _epoch_losses(
        dataset, config, slab_dir,
        executor="multiprocess", num_workers=2, feature_tier="ram",
    )
    mp_mmap = _epoch_losses(
        dataset, config, slab_dir,
        executor="multiprocess", num_workers=2, feature_tier="mmap",
    )
    quant = _epoch_losses(dataset, config, slab_dir, feature_tier="mmap-quant")
    delta = abs(
        float(np.mean(ram)) - float(np.mean(quant))
    )
    return {
        "dataset": "arxiv",
        "scale": mode["parity_scale"],
        "seed": PARITY_SEED,
        "ram_vs_mmap_identical_serial": ram == mmap,
        "ram_vs_mmap_identical_multiprocess": ram == mp_ram == mp_mmap,
        "quant_final_loss_delta": delta,
    }


def run_bench(mode: dict, datasets: dict, slab_dir: Path) -> dict:
    rows = []
    capacity = {}
    for name, dataset in datasets.items():
        batches = _degree_weighted_batches(dataset, mode)
        rows_per_rep = mode["num_batches"] * mode["batch_rows"]
        stores = _build_stores(dataset, slab_dir)
        for variant, store in stores.items():
            median, p90 = _time_slices(store, batches, mode["reps"])
            rows.append(
                {
                    "bench": "slice",
                    "dataset": name,
                    "variant": variant,
                    "median_s": median,
                    "p90_s": p90,
                    "rows_per_s": rows_per_rep / median,
                }
            )
            print(
                f"slice {name:10s} {variant:12s} median {median * 1e3:9.2f} ms  "
                f"{rows_per_rep / median:12.0f} rows/s"
            )
        capacity[name] = {
            # feature bytes a 1-GB RAM budget can serve, relative to the
            # in-memory store: mmap keeps only gather scratch resident
            "mmap_graph_per_gb_gain": stores["ram"].features.nbytes
            / max(stores["mmap"].resident_bytes(), 1),
            # stored bytes per feature row, fp16 RAM vs uint8 codes
            "quant_bytes_per_row_reduction": stores["ram"].row_bytes()
            / stores["mmap-quant"].stored_row_bytes(),
        }

    def _rps(dataset: str, variant: str) -> float:
        for row in rows:
            if (row["dataset"], row["variant"]) == (dataset, variant):
                return row["rows_per_s"]
        raise KeyError((dataset, variant))

    summary = {}
    for name in datasets:
        summary[name] = {
            "mmap_slice_relative_throughput": _rps(name, "mmap") / _rps(name, "ram"),
            "tiered_slice_relative_throughput": _rps(name, "mmap-tiered")
            / _rps(name, "ram"),
            **capacity[name],
        }

    parity = run_parity(mode, slab_dir)
    return {
        "bench": "feature_tier",
        "hot_fraction_denominator": HOT_FRACTION,
        "cpu_count": os.cpu_count(),
        "reps": mode["reps"],
        "num_batches": mode["num_batches"],
        "batch_rows": mode["batch_rows"],
        "mode": mode["name"],
        "rows": rows,
        "summary": summary,
        "parity": parity,
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
    with tempfile.TemporaryDirectory(prefix="repro-slab-bench-") as slab_dir:
        doc = run_bench(mode, datasets, Path(slab_dir))
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\n[written to {args.output}]  (cpu_count={doc['cpu_count']})")
    for name, entry in doc["summary"].items():
        parts = "  ".join(f"{k} {v:.2f}x" for k, v in entry.items())
        print(f"{name:10s} {parts}")
    parity = doc["parity"]
    print(
        f"parity     serial-identical {parity['ram_vs_mmap_identical_serial']}  "
        f"mp-identical {parity['ram_vs_mmap_identical_multiprocess']}  "
        f"quant-loss-delta {parity['quant_final_loss_delta']:.2e}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
