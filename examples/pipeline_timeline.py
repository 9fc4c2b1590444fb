"""Visualize the training pipeline timeline (the paper's Figure 1).

Runs a few mini-batches through the baseline serial workflow and through
SALIENT's overlapped pipeline with tracing enabled, then renders both
timelines as ASCII Gantt charts, lane per resource (CPU workers, DMA,
GPU).

    python examples/pipeline_timeline.py
"""

from repro.datasets import get_dataset
from repro.telemetry import render_timeline
from repro.train import figure1_timelines


def main() -> None:
    dataset = get_dataset("products", scale=0.375, seed=0)
    for title, tracer, stats in figure1_timelines(dataset, num_batches=6):
        print(
            f"{title} - epoch {stats.epoch_time * 1000:.0f} ms, "
            f"GPU busy {100 * tracer.gpu_utilization():.0f}%"
        )
        print(render_timeline(tracer, width=100) + "\n")


if __name__ == "__main__":
    main()
