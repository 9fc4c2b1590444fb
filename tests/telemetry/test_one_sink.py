"""One telemetry sink, one accounting path.

Every event a run records lives in its :class:`MetricsRegistry` under one
name: ``EpochStats`` stores no time twice (its ``*_time`` attributes are
views over the per-epoch histograms), event counters stay ``int`` through
merge and JSON, and a run report (schema version 2) carries no second
``counters`` section.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.train import Trainer
from repro.train.config import ExperimentConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import check_bench_json  # noqa: E402
from check_bench_json import validate_run_report  # noqa: E402

#: ``EpochStats`` attribute -> the histogram it is a view of
TIME_VIEWS = {
    "sample_time": ("stage_seconds", "sample"),
    "slice_time": ("stage_seconds", "slice"),
    "plan_build_time": ("stage_seconds", "plan_build"),
    "transfer_time": ("caller_seconds", "transfer"),
    "train_time": ("caller_seconds", "train"),
    "prep_wait_time": ("caller_seconds", "prep_wait"),
}

_SAMPLER = {"sampler_batches", "arena_grows", "arena_grow_bytes"}
_PINNED_SLICE = {"slice_batches", "slice_bytes", "pinned_releases"}
#: counters a healthy one-epoch run must leave in the registry, per policy
#: (multiprocess: the sampler and slicer run in worker processes, whose
#: counters ride each reply into the parent's registry)
KEPT_COUNTERS = {
    "serial": {"batches"} | _SAMPLER,
    "pipelined": {"batches"} | _SAMPLER | _PINNED_SLICE,
    "multiprocess": {"batches", "mp_batches"} | _SAMPLER | _PINNED_SLICE,
}
#: names only the deleted second sink used; each collapsed into a kept name
COLLAPSED = {
    "arena_grow_count",
    "slice_fused_batches",
    "slice_pinned_batches",
    "slice_bytes_gathered",
    "pinned_acquires",
    "pipeline_batches",
    "mp_prepared_batches",
    "plan_build_seconds",
}


@pytest.fixture(scope="module", params=sorted(KEPT_COUNTERS))
def run(request, tiny_dataset):
    """One epoch under ``policy``: (policy, trainer, stats, report doc)."""
    config = ExperimentConfig(
        dataset="arxiv",
        model="sage",
        num_layers=2,
        hidden_channels=16,
        train_fanouts=(6, 4),
        infer_fanouts=(6, 6),
        batch_size=64,
    )
    trainer = Trainer(
        tiny_dataset,
        config,
        executor=request.param,
        num_workers=2,
        seed=3,
        mp_start_method="fork",
    )
    try:
        result = trainer.fit(epochs=1)
        doc = trainer.build_report(result).to_doc()
    finally:
        trainer.shutdown()
    return request.param, trainer, result.epoch_stats[0], doc


def test_epoch_stats_declares_no_time_field():
    from repro.runtime import EpochStats

    fields = {f.name for f in dataclasses.fields(EpochStats)}
    assert fields.isdisjoint(TIME_VIEWS)
    stats = EpochStats()
    for name in TIME_VIEWS:
        assert getattr(stats, name) == 0.0
        with pytest.raises(AttributeError):
            setattr(stats, name, 1.0)


def test_time_views_equal_registry_sums(run):
    _, trainer, stats, doc = run
    assert stats.num_batches > 1
    assert stats.train_time > 0.0 and stats.sample_time > 0.0
    for name, (histogram, stage) in TIME_VIEWS.items():
        seconds = getattr(stats, name)
        assert seconds == stats.metrics.value(histogram, stage=stage)
        # One epoch merged into the pipeline's empty cumulative registry.
        assert seconds == trainer.metrics.value(histogram, stage=stage)
        assert seconds == doc["epochs"][0][name.replace("_time", "_s")]


def test_event_counters_stay_int(run):
    policy, trainer, stats, doc = run
    entries = json.loads(json.dumps(doc))["metrics"]
    counters = {e["name"]: e for e in entries if e["kind"] == "counter"}
    for name in KEPT_COUNTERS[policy]:
        assert isinstance(counters[name]["value"], int), name
    assert trainer.metrics.value("batches") == stats.num_batches
    snapshot = trainer.counters.snapshot()
    assert snapshot["batches"] == stats.num_batches
    assert all(isinstance(v, int) for v in snapshot.values())


def test_report_is_schema_v2_with_one_section(run):
    policy, _, _, doc = run
    assert validate_run_report(doc) == []
    assert doc["schema_version"] == 2
    assert "counters" not in doc
    kinds = {(e["name"], e["kind"]) for e in doc["metrics"]}
    assert {(name, "counter") for name in KEPT_COUNTERS[policy]} <= kinds
    assert COLLAPSED.isdisjoint(name for name, _ in kinds)
    assert validate_run_report({**doc, "counters": {}}) != []


def test_invalid_artifact_reported_by_filename(tmp_path):
    (tmp_path / "REPORT_broken.json").write_text(json.dumps({"bench": "nope"}))
    (tmp_path / "REPORT_unreadable.json").write_text("{not json")
    (tmp_path / "ignored.json").write_text("{}")
    results = check_bench_json.validate_all(root=tmp_path)
    assert set(results) == {"REPORT_broken.json", "REPORT_unreadable.json"}
    assert any("bench must be" in e for e in results["REPORT_broken.json"])
    assert any("cannot read" in e for e in results["REPORT_unreadable.json"])


def test_storage_bound_is_a_known_verdict():
    assert "storage-bound" in check_bench_json.ATTRIBUTION_VERDICTS
