"""Contract tests for ``benchmarks/bench_mp_prepare.py`` and its artifact.

Mirrors the other bench contracts: a fresh ``--smoke`` run must satisfy
the schema, and the committed full-mode ``BENCH_mp_prepare.json`` must
stay valid.  The headline scaling claim — process workers beating one
process worker by >1.5x at 4 workers — is a statement about *multi-core*
hosts, so it is asserted only when the committed artifact was produced on
a machine with at least 4 cores (the artifact records ``cpu_count``
precisely so this gate is about the bench host, not the test host).
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import bench_mp_prepare  # noqa: E402
import check_bench_json  # noqa: E402

ALL_VARIANTS = {
    f"{kind}-{workers}" for kind in ("thread", "process") for workers in (1, 2, 4, 8)
}


@pytest.fixture(scope="module")
def smoke_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_mp_prepare.json"
    assert bench_mp_prepare.main(["--smoke", "--output", str(out)]) == 0
    return json.loads(out.read_text()), out


class TestSmokeRun:
    def test_smoke_artifact_satisfies_schema(self, smoke_doc):
        doc, _ = smoke_doc
        assert check_bench_json.validate(doc) == []
        assert doc["mode"] == "smoke"

    def test_smoke_covers_both_kinds_at_every_worker_count(self, smoke_doc):
        doc, _ = smoke_doc
        assert {r["variant"] for r in doc["rows"]} == ALL_VARIANTS

    def test_records_bench_host_core_count(self, smoke_doc):
        doc, _ = smoke_doc
        assert isinstance(doc["cpu_count"], int) and doc["cpu_count"] >= 1

    def test_cli_roundtrip(self, smoke_doc):
        _, path = smoke_doc
        assert check_bench_json.main([str(path)]) == 0


class TestCommittedArtifact:
    @pytest.fixture(scope="class")
    def committed(self):
        path = REPO_ROOT / "BENCH_mp_prepare.json"
        assert path.exists(), "committed BENCH_mp_prepare.json missing from repo root"
        return json.loads(path.read_text())

    def test_valid_full_mode(self, committed):
        assert check_bench_json.validate(committed, min_reps=5) == []
        assert committed["mode"] == "full"

    def test_process_scaling_on_multicore_bench_host(self, committed):
        """ISSUE 9's acceptance bar: >1.5x prepare throughput at 4 process
        workers vs 1.  Skipped (not failed) when the committed numbers come
        from a host with fewer than 4 cores — no amount of de-simulation
        makes one core four."""
        if committed["cpu_count"] < 4:
            pytest.skip(
                f"committed artifact benched on {committed['cpu_count']} "
                "core(s); scaling claim needs >= 4"
            )
        for name, entry in committed["summary"].items():
            assert entry["process_speedup_4w"] > 1.5, name


class TestValidateAll:
    def test_committed_artifact_in_validate_all_sweep(self):
        results = check_bench_json.validate_all(min_reps=5)
        assert "BENCH_mp_prepare.json" in results
        assert results["BENCH_mp_prepare.json"] == []

    def test_invalid_artifact_reported_by_filename(self, tmp_path):
        good = {"bench": "nope"}
        (tmp_path / "BENCH_broken.json").write_text(json.dumps(good))
        (tmp_path / "BENCH_unreadable.json").write_text("{not json")
        (tmp_path / "ignored.json").write_text("{}")
        results = check_bench_json.validate_all(root=tmp_path)
        assert set(results) == {"BENCH_broken.json", "BENCH_unreadable.json"}
        assert any("bench must be one of" in e for e in results["BENCH_broken.json"])
        assert any("cannot read" in e for e in results["BENCH_unreadable.json"])
