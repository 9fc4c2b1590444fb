"""Figure 5 — epoch time when scaling to multiple GPUs.

Modeled: the calibrated cluster simulation sweeps 1 -> 16 GPUs for each
dataset (the paper's 8x2-V100 testbed). Expected shape: monotone epoch-time
decrease, with larger datasets scaling better (papers approaches the
paper's 8.05x at 16 GPUs, arxiv trails).

Measured: the real DDP trainer (exact gradient-averaging semantics) runs
1 and 2 ranks on the arxiv stand-in to demonstrate the *algorithmic* side:
fewer synchronized steps per epoch with replicas kept bit-identical.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.perfmodel import CONFIG_SALIENT, scaling_curve
from repro.telemetry import format_bar_chart, format_table
from repro.train import DDPTrainer, get_config

from common import emit

GPU_COUNTS = (1, 2, 4, 8, 16)
PAPER_16GPU_SPEEDUP = {"arxiv": 4.45, "products": 6.0, "papers": 8.05}


@pytest.fixture(scope="module")
def measured_ddp(bench_datasets):
    dataset = bench_datasets["arxiv"]
    config = replace(
        get_config("arxiv", "sage"),
        batch_size=64,
        hidden_channels=32,
        train_fanouts=(10, 5, 5),
    )
    rows = []
    for ranks in (1, 2):
        ddp = DDPTrainer(dataset, config, num_ranks=ranks, seed=0)
        try:
            start = time.perf_counter()
            history = ddp.train_epoch(0)
            elapsed = time.perf_counter() - start
            rows.append(
                {
                    "ranks": ranks,
                    "steps_per_epoch": len(history),
                    "epoch_s (sequentially executed)": round(elapsed, 3),
                    "replica_divergence": ddp.max_replica_divergence(),
                }
            )
        finally:
            ddp.shutdown()
    return rows


def test_fig5_report(benchmark, measured_ddp):
    benchmark.pedantic(_emit_report, args=(measured_ddp,), rounds=1, iterations=1)


def _emit_report(measured_ddp):
    modeled_rows = []
    charts = []
    for name in ("arxiv", "products", "papers"):
        points = scaling_curve(name, GPU_COUNTS, CONFIG_SALIENT)
        for p in points:
            modeled_rows.append(
                {
                    "dataset": name,
                    "gpus": p.num_gpus,
                    "epoch_s": round(p.epoch_time, 2),
                    "speedup": round(p.speedup_vs_1gpu, 2),
                    "paper_16gpu_speedup": PAPER_16GPU_SPEEDUP[name]
                    if p.num_gpus == 16
                    else "",
                }
            )
        charts.append(
            f"{name}:\n"
            + format_bar_chart(
                [f"{p.num_gpus} GPU" for p in points],
                [p.epoch_time for p in points],
                width=44,
                unit="s",
            )
        )
    text = "\n\n".join(
        [
            format_table(
                modeled_rows,
                title="Figure 5 (modeled multi-GPU scaling at paper scale)",
            ),
            "\n\n".join(charts),
            format_table(
                measured_ddp,
                title=(
                    "DDP semantics check (real trainer, ranks executed "
                    "sequentially on one core)"
                ),
            ),
        ]
    )
    emit("fig5_scaling", text)

    # Shape assertions
    speedups = {
        name: scaling_curve(name, GPU_COUNTS)[-1].speedup_vs_1gpu
        for name in ("arxiv", "products", "papers")
    }
    assert speedups["arxiv"] < speedups["products"] < speedups["papers"]
    assert speedups["papers"] > 6.0
    for row in measured_ddp:
        assert row["replica_divergence"] == 0.0


def test_benchmark_scaling_curve(benchmark):
    benchmark(lambda: scaling_curve("papers", GPU_COUNTS))
