"""Table 1 — per-operation breakdown of the baseline PyG training epoch.

Two reproductions:

1. *Measured*: the real serial policy (Listing 1 workflow: PyG-style
   sampler, reference slicing, metered transfers) on the scaled synthetic
   datasets, reporting blocking time per stage exactly as the paper does.
2. *Modeled*: the calibrated performance simulator replaying the paper's
   hardware scale, printed next to Table 1's published numbers.

Expected shape: batch preparation + transfer dominate; GPU training is
roughly a quarter to a third of the epoch.
"""

import pytest

from repro.perfmodel import CONFIG_PYG, TABLE1_REFERENCE, simulate_epoch
from repro.runtime import Device
from repro.telemetry import format_table
from repro.train import Trainer, get_config

from common import DATASET_SCALES, emit, registry_stage_seconds

#: Simulated DMA bandwidth for the scaled data. The stand-in batches are
#: ~1000x smaller than the paper's, so the modeled bus is scaled down in
#: proportion to keep the measured transfer share in the paper's 15-35%
#: band (Section 3.3's regime).
DMA_BW = 40e6


def _run_baseline_epoch(dataset):
    """The second epoch of the Table-5 configuration (batch size scaled
    with the dataset) under Listing 1's workflow; the first is warm-up — a
    fresh process computes several times slower for its first second."""
    trainer = Trainer(
        dataset,
        get_config(dataset.name, "sage").scaled(DATASET_SCALES[dataset.name]),
        executor="serial",
        sampler="pyg",
        device=Device(transfer_bandwidth=DMA_BW, roundtrip_latency=5e-4),
    )
    try:
        trainer.train_epoch(0)
        return trainer.train_epoch(1)
    finally:
        trainer.shutdown()


@pytest.fixture(scope="module")
def measured_rows(bench_datasets):
    rows = []
    for name in ("arxiv", "products", "papers"):
        stats = _run_baseline_epoch(bench_datasets[name])
        fr = stats.breakdown()
        stage_s = registry_stage_seconds(stats)
        rows.append(
            {
                "dataset": name,
                "epoch_s": round(stats.epoch_time, 3),
                "prep_s": round(stage_s["batch_prep"], 3),
                "prep_%": f"{100 * fr['batch_prep']:.0f}%",
                "transfer_s": round(stage_s["transfer"], 3),
                "transfer_%": f"{100 * fr['transfer']:.0f}%",
                "train_s": round(stage_s["train"], 3),
                "train_%": f"{100 * fr['train']:.0f}%",
            }
        )
    return rows


def test_table1_report(benchmark, measured_rows):
    benchmark.pedantic(_emit_report, args=(measured_rows,), rounds=1, iterations=1)


def _emit_report(measured_rows):
    modeled = []
    for name in ("arxiv", "products", "papers"):
        b = simulate_epoch(name, CONFIG_PYG)
        ref = TABLE1_REFERENCE[name]
        modeled.append(
            {
                "dataset": name,
                "epoch_s": round(b.epoch_time, 1),
                "paper_epoch": ref["epoch"],
                "prep_s": round(b.prep_blocking, 1),
                "paper_prep": ref["prep"],
                "transfer_s": round(b.transfer_blocking, 1),
                "paper_transfer": ref["transfer"],
                "train_s": round(b.train_time, 1),
                "paper_train": ref["train"],
            }
        )
    text = "\n\n".join(
        [
            format_table(
                measured_rows,
                title="Table 1 (measured, scaled synthetic datasets, baseline PyG workflow)",
            ),
            format_table(
                modeled,
                title="Table 1 (modeled at paper scale vs published numbers)",
            ),
        ]
    )
    emit("table1_breakdown", text)
    # Shape assertions: GPU training is the minority share everywhere.
    for row in measured_rows:
        assert float(row["train_%"].rstrip("%")) < 50.0


def test_benchmark_baseline_epoch(benchmark, bench_datasets):
    """Wall-clock of one baseline epoch on the arxiv stand-in."""
    benchmark.pedantic(
        _run_baseline_epoch, args=(bench_datasets["arxiv"],), rounds=2, iterations=1
    )
