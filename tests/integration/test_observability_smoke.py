"""Tier-1 smoke: a tiny training run emits valid observability artifacts.

Drives ``python -m repro train --trace-out --report-out`` end to end (the
CLI entry point, not internal APIs) and validates both artifacts:

- the run report passes ``check_bench_json.validate_all`` — the
  ``run_report`` schema contract;
- the Chrome trace is loadable trace-event JSON with ``ph``/``ts``/
  ``dur``/``pid``/``tid`` complete events and labelled lanes;
- the registry-backed stage accounting agrees with the report rows.

Also asserts the determinism contract: enabling observability must not
perturb training (byte-identical losses for a shared seed).
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import check_bench_json  # noqa: E402
from check_bench_json import validate_all  # noqa: E402

TRAIN_ARGS = [
    "train",
    "--dataset",
    "arxiv",
    "--scale",
    "0.375",
    "--epochs",
    "2",
    "--batch-size",
    "64",
    "--hidden",
    "16",
    "--executor",
    "pipelined",
    "--seed",
    "0",
]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("observability")
    trace_path = out / "trace.json"
    report_path = out / "REPORT_smoke.json"
    code = main(
        TRAIN_ARGS
        + ["--trace-out", str(trace_path), "--report-out", str(report_path)]
    )
    assert code == 0
    return out, trace_path, report_path


class TestRunReportArtifact:
    def test_validates_through_the_bench_contract(self, artifacts):
        out, _, report_path = artifacts
        results = validate_all(out)
        assert results, "validate_all found no artifacts"
        assert results == {report_path.name: []}

    def test_cli_roundtrip(self, artifacts, tmp_path):
        """``python benchmarks/check_bench_json.py PATH``: 0 valid, 1
        invalid, 2 unreadable."""
        _, _, report_path = artifacts
        assert check_bench_json.main([str(report_path)]) == 0
        broken = tmp_path / "REPORT_broken.json"
        broken.write_text(json.dumps({"bench": "run_report"}))
        assert check_bench_json.main([str(broken)]) == 1
        broken.write_text("{not json")
        assert check_bench_json.main([str(broken)]) == 2

    def test_report_contents(self, artifacts):
        _, _, report_path = artifacts
        doc = json.loads(report_path.read_text())
        assert doc["bench"] == "run_report"
        assert doc["totals"]["epochs"] == 2
        assert doc["evaluation"].keys() == {"val", "test"}
        # The overlapped executor reports the blocking-perspective stages,
        # plus the plan-build busy fraction (fused compute is the default).
        for row in doc["epochs"]:
            assert row["overlapped"] is True
            assert set(row["breakdown"]) == {
                "batch_prep",
                "transfer",
                "train",
                "prep_wait",
                "plan_build",
            }
            assert row["plan_build_s"] > 0.0
        # Registry snapshot made it into the artifact.
        names = {entry["name"] for entry in doc["metrics"]}
        assert "caller_seconds" in names
        assert "batches" in names
        assert any(
            entry["name"] == "stage_seconds"
            and entry["labels"].get("stage") == "plan_build"
            for entry in doc["metrics"]
        )

    def test_registry_accounting_matches_epoch_rows(self, artifacts):
        _, _, report_path = artifacts
        doc = json.loads(report_path.read_text())
        total_train = sum(
            entry["sum"]
            for entry in doc["metrics"]
            if entry["name"] == "caller_seconds"
            and entry["labels"].get("stage") == "train"
        )
        reported = sum(row["train_s"] for row in doc["epochs"])
        assert total_train == pytest.approx(reported, rel=1e-6)


class TestChromeTraceArtifact:
    def test_trace_structure(self, artifacts):
        _, trace_path, _ = artifacts
        doc = json.loads(trace_path.read_text())
        events = doc["traceEvents"]
        assert events, "trace should contain events"
        xs = [e for e in events if e["ph"] == "X"]
        assert xs
        for event in xs:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert "batch" in event["args"]
        lanes = [
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert lanes and lanes == sorted(
            lanes, key=lambda lane: (not lane.startswith("cpu"), lane)
        )
        stage_names = {e["name"] for e in xs}
        assert "train" in stage_names


#: the prepare window's three gauges, as probe series
WINDOW_SERIES = (
    "pipeline_window{stage=prepare}",
    "pipeline_running{stage=prepare}",
    "pipeline_ready{stage=prepare}",
)


class TestProbeArtifacts:
    """Continuous-monitoring sections ride along in both artifacts."""

    def test_report_carries_probe_series(self, artifacts):
        _, _, report_path = artifacts
        doc = json.loads(report_path.read_text())
        probes = doc["probes"]
        assert probes["interval_s"] > 0.0
        assert probes["overhead_fraction"] <= 0.02
        names = {series["name"] for series in probes["series"]}
        assert set(WINDOW_SERIES) <= names
        assert "pinned_free_slots" in names
        for series in probes["series"]:
            assert len(series["t"]) == len(series["values"]) > 0

    def test_report_carries_attribution(self, artifacts):
        _, _, report_path = artifacts
        doc = json.loads(report_path.read_text())
        attribution = doc["attribution"]
        assert attribution["verdict"] in {
            "prep-bound",
            "transfer-bound",
            "compute-bound",
        }
        assert set(attribution["shares"]) == {"prep", "transfer", "train"}
        for row in doc["epochs"]:
            assert row["verdict"] in {
                "prep-bound",
                "transfer-bound",
                "compute-bound",
            }

    def test_trace_carries_counter_tracks(self, artifacts):
        _, trace_path, _ = artifacts
        doc = json.loads(trace_path.read_text())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters, "trace should contain probe counter tracks"
        names = {e["name"] for e in counters}
        assert set(WINDOW_SERIES) | {"pinned_free_slots"} <= names
        for event in counters:
            assert event["cat"] == "probe"
            assert "value" in event["args"]
            assert event["ts"] >= 0.0


class TestDiagnoseCli:
    def test_diagnose_renders_attribution(self, artifacts, capsys):
        _, _, report_path = artifacts
        assert main(["diagnose", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out
        assert "epoch  prep%" in out

    def test_diagnose_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["diagnose", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err

    def test_diagnose_rejects_non_report_json(self, tmp_path, capsys):
        path = tmp_path / "not_a_report.json"
        path.write_text(json.dumps({"bench": "pipeline", "rows": []}))
        assert main(["diagnose", str(path)]) == 2
        assert "run_report" in capsys.readouterr().err


class TestObservabilityIsNonPerturbing:
    def test_losses_identical_with_and_without_artifacts(self, tmp_path):
        from dataclasses import replace

        from repro.datasets import generate_dataset
        from repro.telemetry import Tracer
        from repro.train import Trainer, get_config

        dataset = generate_dataset("arxiv", scale=0.375, seed=0)
        config = replace(
            get_config("arxiv", "sage"), batch_size=64, hidden_channels=16
        )

        def run(tracer):
            trainer = Trainer(
                dataset,
                config,
                executor="pipelined",
                sampler="fast",
                seed=0,
                tracer=tracer,
            )
            losses = []
            for epoch in range(2):
                losses.extend(trainer.train_epoch(epoch).losses)
            trainer.shutdown()
            return np.asarray(losses)

        plain = run(None)
        traced = run(Tracer(enabled=True))
        np.testing.assert_array_equal(plain, traced)
