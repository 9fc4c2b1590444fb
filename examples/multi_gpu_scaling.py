"""Multi-GPU scaling study (the paper's Figure 5 + DDP semantics).

Part 1 exercises the real data-parallel trainer: replicas with exact
gradient-averaging semantics train the arxiv stand-in at 1 and 2 ranks and
must stay bit-identical while reaching the same quality.

Part 2 projects the paper-scale picture on the calibrated performance
model: per-epoch time from 1 to 16 V100s for each dataset.

    python examples/multi_gpu_scaling.py
"""

import time
from dataclasses import replace

import numpy as np

from repro.datasets import get_dataset
from repro.perfmodel import scaling_curve
from repro.telemetry import format_bar_chart, format_table
from repro.train import DDPTrainer, get_config


def part1_real_ddp() -> None:
    print("=== Part 1: real data-parallel training (simulated ranks) ===")
    dataset = get_dataset("arxiv", scale=0.5, seed=0)
    config = replace(
        get_config("arxiv", "sage"), batch_size=64, hidden_channels=32, lr=0.01
    )
    for ranks in (1, 2, 4):
        ddp = DDPTrainer(dataset, config, num_ranks=ranks, seed=0)
        try:
            start = time.perf_counter()
            for epoch in range(6):
                history = ddp.train_epoch(epoch)
            elapsed = time.perf_counter() - start
            print(
                f"ranks={ranks}: steps/epoch={len(history):3d} "
                f"divergence={ddp.max_replica_divergence():.1e} "
                f"val_acc={ddp.evaluate('val'):.3f} "
                f"(wall {elapsed:.1f}s, ranks executed sequentially)"
            )
        finally:
            ddp.shutdown()  # joins each rank's prepare thread


def part2_modeled_scaling() -> None:
    print("\n=== Part 2: modeled scaling at paper scale (Figure 5) ===")
    for name in ("arxiv", "products", "papers"):
        points = scaling_curve(name, (1, 2, 4, 8, 16))
        print(f"\n{name}:")
        print(
            format_bar_chart(
                [f"{p.num_gpus:2d} GPU" for p in points],
                [p.epoch_time for p in points],
                width=48,
                unit="s",
            )
        )
        print(f"  16-GPU speedup: {points[-1].speedup_vs_1gpu:.2f}x "
              "(paper band: 4.45x-8.05x)")


if __name__ == "__main__":
    part1_real_ddp()
    part2_modeled_scaling()
