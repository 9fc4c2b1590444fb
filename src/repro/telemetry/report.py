"""Machine-readable run reports: one JSON document per training/inference run.

A ``python -m repro train --report-out report.json`` invocation writes one
validated document capturing

- the resolved configuration (dataset, model, executor, seeds, fanouts);
- the environment it ran in (python/numpy versions, platform, cpu count);
- per-epoch :class:`~repro.runtime.stages.EpochStats` rows (times, batch
  counts, bytes moved, loss trajectory, the Table-1 breakdown fractions);
- a full :class:`~repro.telemetry.metrics.MetricsRegistry` snapshot (every
  event counter, gauge and histogram of the run, each under one name);
- optional evaluation results (val/test accuracy).

``benchmarks/check_bench_json.py`` holds the ``run_report`` schema — the
only one it validates — and tier-1 checks every report a test run writes
against it.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Optional

from .metrics import MetricsRegistry

__all__ = ["RunReport", "collect_environment", "REPORT_SCHEMA_VERSION"]

REPORT_SCHEMA_VERSION = 2


def collect_environment() -> dict:
    """Provenance snapshot of the interpreter/host executing the run."""
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


@dataclass
class RunReport:
    """Builder for the ``run_report`` JSON artifact."""

    command: str  # train / inference / ddp
    config: dict = field(default_factory=dict)
    environment: dict = field(default_factory=collect_environment)
    epochs: list = field(default_factory=list)
    evaluation: dict = field(default_factory=dict)
    metrics: list = field(default_factory=list)
    probes: Optional[dict] = None

    # ------------------------------------------------------------------
    def add_epoch(self, stats, epoch: Optional[int] = None) -> None:
        """Append one :class:`~repro.runtime.stages.EpochStats` row."""
        import numpy as np

        losses = list(stats.losses)
        self.epochs.append(
            {
                "epoch": len(self.epochs) if epoch is None else int(epoch),
                "epoch_s": float(stats.epoch_time),
                "sample_s": float(stats.sample_time),
                "slice_s": float(stats.slice_time),
                "plan_build_s": float(stats.plan_build_time),
                "transfer_s": float(stats.transfer_time),
                "train_s": float(stats.train_time),
                "prep_wait_s": float(stats.prep_wait_time),
                "num_batches": int(stats.num_batches),
                "bytes_transferred": int(stats.bytes_transferred),
                "overlapped": bool(stats.overlapped),
                "loss_mean": float(np.mean(losses)) if losses else None,
                "loss_last": float(losses[-1]) if losses else None,
                "breakdown": {k: float(v) for k, v in stats.breakdown().items()},
                # Bottleneck verdict as a sibling key — the breakdown dict
                # stays numbers-only for the schema validator.
                "verdict": stats.verdict(),
            }
        )

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        self.metrics = registry.snapshot()

    def attach_probes(self, sampler) -> None:
        """Fold a :class:`~repro.telemetry.monitor.ProbeSampler`'s ring
        series into the report (no-op for a disabled sampler)."""
        if sampler is not None and sampler.enabled:
            self.probes = sampler.to_doc()

    def add_evaluation(self, split: str, accuracy: float) -> None:
        self.evaluation[split] = float(accuracy)

    # ------------------------------------------------------------------
    def to_doc(self) -> dict:
        """The finished JSON document (``bench`` keys the validator)."""
        total_s = sum(e["epoch_s"] for e in self.epochs)
        doc = {
            "bench": "run_report",
            "schema_version": REPORT_SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "environment": self.environment,
            "epochs": self.epochs,
            "totals": {
                "epochs": len(self.epochs),
                "epoch_s": total_s,
                "num_batches": sum(e["num_batches"] for e in self.epochs),
                "bytes_transferred": sum(
                    e["bytes_transferred"] for e in self.epochs
                ),
            },
            "evaluation": self.evaluation,
            "metrics": self.metrics,
        }
        if self.probes is not None:
            doc["probes"] = self.probes
        if self.epochs:
            from .attribution import attribute_report

            doc["attribution"] = attribute_report(doc).to_doc()
        return doc

    def write(self, path) -> dict:
        """Serialize to ``path``; returns the written document."""
        doc = self.to_doc()
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
        return doc
