"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` file regenerates one table or figure from the paper —
a reproduction, not a regression gate: the performance numbers this repo
commits and compares come from ``benchmarks/e2e`` alone.
Conventions:

- Heavy computations run once in module-scoped fixtures; the
  ``benchmark`` fixture measures a representative kernel so
  ``pytest benchmarks/ --benchmark-only`` produces a timing table.
- Every bench renders its paper-style table/figure with
  :func:`repro.telemetry.format_table` / ``format_bar_chart``, prints it,
  and persists it under ``benchmarks/results/`` for inspection.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Dataset scales used by the benches: large enough for the paper's shapes
#: to emerge, small enough to finish in minutes on a 2-vCPU box.
DATASET_SCALES = {"arxiv": 0.5, "products": 0.375, "papers": 0.35}


def emit(name: str, text: str) -> None:
    """Print a rendered table and persist it to benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{'=' * 72}\n{text}\n[written to {path}]")


def registry_stage_seconds(stats) -> dict:
    """Caller-blocking seconds per stage, read from the epoch's registry —
    the one place :class:`~repro.runtime.stages.EpochStats` keeps them."""
    return {
        stage: stats.metrics.value("caller_seconds", stage=stage)
        for stage in stats.BREAKDOWN_STAGES
    }
