"""Tables 4 & 5 — dataset summary and experiment hyperparameters.

Regenerates Table 4 from the synthetic stand-ins (with the paper's
published statistics alongside for scale comparison) and prints the
Table 5 hyperparameter grid from the experiment configs. Benchmarks the
dataset generator itself.
"""

import pytest

from repro.datasets import generate_dataset
from repro.telemetry import format_table
from repro.train import TABLE5_CONFIGS

from common import DATASET_SCALES, emit


def test_table4_and_5_report(benchmark, bench_datasets):
    benchmark.pedantic(_emit_report, args=(bench_datasets,), rounds=1, iterations=1)


def _emit_report(bench_datasets):
    table4 = [
        bench_datasets[name].summary_row() for name in ("arxiv", "products", "papers")
    ]
    table5 = [
        {
            "dataset": c.dataset,
            "gnn": c.model.upper(),
            "layers": c.num_layers,
            "hidden": c.hidden_channels,
            "paper_hidden": c.paper_hidden,
            "fanout": c.train_fanouts,
            "batch": c.batch_size,
            "paper_batch": c.paper_batch_size,
        }
        for c in TABLE5_CONFIGS
    ]
    text = "\n\n".join(
        [
            format_table(
                table4,
                title="Table 4 (synthetic stand-ins; paper_* columns are the originals)",
            ),
            format_table(table5, title="Table 5 (hyperparameters; scaled vs paper)"),
        ]
    )
    emit("table4_5_datasets", text)

    # Shape checks: ordering and split character preserved.
    nodes = {r["dataset"]: r["nodes"] for r in table4}
    assert nodes["arxiv"] < nodes["products"] < nodes["papers"]
    products = next(r for r in table4 if r["dataset"] == "products")
    assert products["test"] > 5 * products["train"]


def test_benchmark_dataset_generation(benchmark):
    benchmark.pedantic(
        lambda: generate_dataset("products", scale=DATASET_SCALES["products"], seed=99),
        rounds=2,
        iterations=1,
    )
