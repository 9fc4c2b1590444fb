"""Schema validator for the ``BENCH_*.json`` artifacts at the repo root.

Each benchmark writes a machine-readable artifact at the repo root so
future PRs can diff perf trajectories. This validator is the contract: the
tier-1 test suite runs it against both fresh ``--smoke`` artifacts and the
committed root JSONs, so schema drift (renamed keys, missing variants,
non-finite numbers) fails fast instead of silently rotting.

Validation dispatches on the artifact's ``bench`` field; adding a new
benchmark means registering one schema entry here — nothing else re-wires.

Usage::

    PYTHONPATH=src python benchmarks/check_bench_json.py [PATH ...]

With no paths, every ``BENCH_*.json`` at the repo root is validated.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# ----------------------------------------------------------------------
# Per-bench schemas
# ----------------------------------------------------------------------
#: sampler_hotpath: sampler/slicing twins with an edge-throughput measure
SAMPLER_VARIANTS = {"reference", "fast", "arena"}
SLICING_VARIANTS = {"reference", "fused_pinned"}
HOTPATH_SUMMARY_KEYS = (
    "arena_vs_fast_speedup",
    "arena_vs_reference_speedup",
    "fused_vs_reference_slicing_speedup",
)

#: mp_prepare: thread- vs process-worker batch preparation scaling
MP_PREPARE_VARIANTS = {
    f"{kind}-{workers}" for kind in ("thread", "process") for workers in (1, 2, 4, 8)
}
MP_PREPARE_SUMMARY_KEYS = (
    "process_speedup_2w",
    "process_speedup_4w",
    "process_speedup_8w",
    "process_vs_thread_4w",
)

#: feature_tier: tiered feature store (RAM-hot / mmap-cold / quantized)
FEATURE_TIER_VARIANTS = {"ram", "mmap", "mmap-tiered", "mmap-quant"}
FEATURE_TIER_SUMMARY_KEYS = (
    "mmap_slice_relative_throughput",
    "tiered_slice_relative_throughput",
    "mmap_graph_per_gb_gain",
    "quant_bytes_per_row_reduction",
)
#: parity gate for the feature_tier artifact: ram vs mmap training must be
#: byte-identical on both executors; quantized loss drift stays below this
FEATURE_TIER_MAX_LOSS_DELTA = 1e-2

#: bench name -> (row-group name -> allowed variants, throughput key,
#:               required per-dataset summary keys)
SCHEMAS = {
    "sampler_hotpath": (
        {"sampler": SAMPLER_VARIANTS, "slicing": SLICING_VARIANTS},
        "edges_per_s",
        HOTPATH_SUMMARY_KEYS,
    ),
    "mp_prepare": (
        {"prepare": MP_PREPARE_VARIANTS},
        "batches_per_s",
        MP_PREPARE_SUMMARY_KEYS,
    ),
    "feature_tier": (
        {"slice": FEATURE_TIER_VARIANTS},
        "rows_per_s",
        FEATURE_TIER_SUMMARY_KEYS,
    ),
}


#: run_report: the machine-readable per-run artifact written by
#: ``python -m repro train --report-out`` (see repro.telemetry.report)
REPORT_EPOCH_KEYS = (
    "epoch",
    "epoch_s",
    "sample_s",
    "slice_s",
    "plan_build_s",
    "transfer_s",
    "train_s",
    "prep_wait_s",
    "num_batches",
    "bytes_transferred",
    "overlapped",
    "breakdown",
)
REPORT_METRIC_KINDS = {"counter", "gauge", "histogram", "timer"}

#: sentinel: the perf-regression gate (benchmarks/sentinel.py)
SENTINEL_CHECK_KEYS = (
    "artifact",
    "metric",
    "kind",
    "direction",
    "baseline",
    "current",
    "allowed",
    "status",
)
SENTINEL_KINDS = {"seconds", "ratio"}
SENTINEL_DIRECTIONS = {"lower-better", "higher-better"}
SENTINEL_STATUSES = {"pass", "regressed", "missing"}

#: bottleneck-attribution verdict vocabulary (repro.telemetry.attribution)
ATTRIBUTION_VERDICTS = {
    "prep-bound",
    "transfer-bound",
    "compute-bound",
    "storage-bound",
}


def _is_positive_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def _is_finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def validate_run_report(doc: dict) -> list[str]:
    """Schema violations for a ``run_report`` document (empty = valid)."""
    errors: list[str] = []
    # A reader finds every event in ``metrics`` (kind ``counter``); a
    # document with a second ``counters`` section is a version-1 report.
    if not isinstance(doc.get("schema_version"), int) or doc["schema_version"] < 2:
        errors.append("schema_version must be an int >= 2")
    if "counters" in doc:
        errors.append("counters section was removed in schema version 2")
    if not isinstance(doc.get("command"), str) or not doc.get("command"):
        errors.append("command must be a non-empty string")
    if not isinstance(doc.get("config"), dict):
        errors.append("config must be an object")
    environment = doc.get("environment")
    if not isinstance(environment, dict):
        errors.append("environment must be an object")
    else:
        for key in ("python", "numpy", "platform", "cpu_count"):
            if key not in environment:
                errors.append(f"environment missing key {key!r}")

    epochs = doc.get("epochs")
    if not isinstance(epochs, list) or not epochs:
        errors.append("epochs must be a non-empty list")
        epochs = []
    for i, row in enumerate(epochs):
        if not isinstance(row, dict):
            errors.append(f"epochs[{i}] is not an object")
            continue
        missing = [k for k in REPORT_EPOCH_KEYS if k not in row]
        if missing:
            errors.append(f"epochs[{i}] missing keys: {missing}")
            continue
        for key in (
            "epoch_s", "sample_s", "slice_s", "plan_build_s", "transfer_s",
            "train_s", "prep_wait_s",
        ):
            value = row[key]
            if not _is_finite_number(value) or value < 0:
                errors.append(
                    f"epochs[{i}].{key} must be a finite non-negative number"
                )
        for key in ("num_batches", "bytes_transferred"):
            if not isinstance(row[key], int) or row[key] < 0:
                errors.append(f"epochs[{i}].{key} must be a non-negative int")
        breakdown = row["breakdown"]
        if not isinstance(breakdown, dict) or not breakdown:
            errors.append(f"epochs[{i}].breakdown must be a non-empty object")
        else:
            for stage, fraction in breakdown.items():
                if not _is_finite_number(fraction) or fraction < 0:
                    errors.append(
                        f"epochs[{i}].breakdown[{stage!r}] must be "
                        "a finite non-negative number"
                    )

    totals = doc.get("totals")
    if not isinstance(totals, dict):
        errors.append("totals must be an object")
    elif epochs and not errors:
        if totals.get("epochs") != len(epochs):
            errors.append("totals.epochs != len(epochs)")
        if totals.get("num_batches") != sum(e["num_batches"] for e in epochs):
            errors.append("totals.num_batches != sum of epoch rows")

    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        errors.append("metrics must be a list")
    else:
        for i, entry in enumerate(metrics):
            if not isinstance(entry, dict):
                errors.append(f"metrics[{i}] is not an object")
                continue
            if not isinstance(entry.get("name"), str) or not entry.get("name"):
                errors.append(f"metrics[{i}].name must be a non-empty string")
            if entry.get("kind") not in REPORT_METRIC_KINDS:
                errors.append(
                    f"metrics[{i}].kind must be one of "
                    f"{sorted(REPORT_METRIC_KINDS)}, got {entry.get('kind')!r}"
                )
            if not isinstance(entry.get("labels"), dict):
                errors.append(f"metrics[{i}].labels must be an object")
            if entry.get("kind") in ("histogram", "timer"):
                counts = entry.get("counts")
                buckets = entry.get("buckets")
                if not isinstance(buckets, list) or not isinstance(counts, list):
                    errors.append(f"metrics[{i}] missing buckets/counts lists")
                elif len(counts) != len(buckets) + 1:
                    errors.append(
                        f"metrics[{i}]: counts must have len(buckets)+1 bins"
                    )

    if not isinstance(doc.get("evaluation"), dict):
        errors.append("evaluation must be an object")
    else:
        for split, value in doc["evaluation"].items():
            if not _is_finite_number(value):
                errors.append(f"evaluation[{split!r}] must be a finite number")

    # Optional continuous-monitoring sections (present when the run had a
    # probe sampler attached / computed an attribution).
    probes = doc.get("probes")
    if probes is not None:
        errors.extend(_validate_probes(probes))
    attribution = doc.get("attribution")
    if attribution is not None:
        errors.extend(_validate_attribution(attribution))
    return errors


def _validate_probes(probes) -> list[str]:
    """Violations in a run report's ``probes`` section."""
    if not isinstance(probes, dict):
        return ["probes must be an object"]
    errors: list[str] = []
    if not _is_positive_number(probes.get("interval_s")):
        errors.append("probes.interval_s must be a finite positive number")
    overhead = probes.get("overhead_fraction")
    if not _is_finite_number(overhead) or overhead < 0:
        errors.append("probes.overhead_fraction must be a finite non-negative number")
    series = probes.get("series")
    if not isinstance(series, list):
        return errors + ["probes.series must be a list"]
    for i, entry in enumerate(series):
        if not isinstance(entry, dict):
            errors.append(f"probes.series[{i}] is not an object")
            continue
        if not isinstance(entry.get("name"), str) or not entry.get("name"):
            errors.append(f"probes.series[{i}].name must be a non-empty string")
        t, values = entry.get("t"), entry.get("values")
        if not isinstance(t, list) or not isinstance(values, list):
            errors.append(f"probes.series[{i}] missing t/values lists")
        elif len(t) != len(values):
            errors.append(f"probes.series[{i}]: len(t) != len(values)")
        elif not all(_is_finite_number(x) for x in t + values):
            errors.append(f"probes.series[{i}]: non-finite sample")
    return errors


def _validate_attribution(attribution) -> list[str]:
    """Violations in an ``attribution`` section (run report or epoch)."""
    if not isinstance(attribution, dict):
        return ["attribution must be an object"]
    errors: list[str] = []
    if attribution.get("verdict") not in ATTRIBUTION_VERDICTS:
        errors.append(
            f"attribution.verdict must be one of {sorted(ATTRIBUTION_VERDICTS)}, "
            f"got {attribution.get('verdict')!r}"
        )
    shares = attribution.get("shares")
    if not isinstance(shares, dict) or not shares:
        errors.append("attribution.shares must be a non-empty object")
    else:
        for stage, share in shares.items():
            if not _is_finite_number(share) or share < 0:
                errors.append(
                    f"attribution.shares[{stage!r}] must be a finite "
                    "non-negative number"
                )
    idle = attribution.get("gpu_idle_fraction")
    if not _is_finite_number(idle) or not 0 <= idle <= 1:
        errors.append("attribution.gpu_idle_fraction must be a number in [0, 1]")
    return errors


def validate_sentinel(doc: dict) -> list[str]:
    """Schema violations for a ``sentinel`` document (empty = valid).

    The sentinel artifact carries no ``reps``/``rows``: it is a comparison
    record, so the contract is internal consistency — every check row well
    formed, and the summary tallies matching the rows.
    """
    errors: list[str] = []
    if not isinstance(doc.get("schema_version"), int) or doc["schema_version"] < 1:
        errors.append("schema_version must be an int >= 1")
    if doc.get("mode") not in ("self", "compare"):
        errors.append(f"mode must be 'self' or 'compare', got {doc.get('mode')!r}")
    for key in ("rel_tolerance", "abs_floor_s", "abs_floor_ratio"):
        if not _is_positive_number(doc.get(key)):
            errors.append(f"{key} must be a finite positive number")

    artifacts = doc.get("artifacts")
    if not isinstance(artifacts, list) or not artifacts:
        errors.append("artifacts must be a non-empty list")
        artifacts = []
    for i, entry in enumerate(artifacts):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            errors.append(f"artifacts[{i}] must be an object with a 'name' string")

    checks = doc.get("checks")
    if not isinstance(checks, list) or not checks:
        errors.append("checks must be a non-empty list")
        checks = []
    regressed = 0
    for i, check in enumerate(checks):
        if not isinstance(check, dict):
            errors.append(f"checks[{i}] is not an object")
            continue
        missing = [k for k in SENTINEL_CHECK_KEYS if k not in check]
        if missing:
            errors.append(f"checks[{i}] missing keys: {missing}")
            continue
        if check["kind"] not in SENTINEL_KINDS:
            errors.append(f"checks[{i}].kind invalid: {check['kind']!r}")
        if check["direction"] not in SENTINEL_DIRECTIONS:
            errors.append(f"checks[{i}].direction invalid: {check['direction']!r}")
        if check["status"] not in SENTINEL_STATUSES:
            errors.append(f"checks[{i}].status invalid: {check['status']!r}")
        elif check["status"] != "pass":
            regressed += 1
        for key in ("baseline", "allowed"):
            if not _is_finite_number(check[key]):
                errors.append(f"checks[{i}].{key} must be a finite number")
        if check["current"] is not None and not _is_finite_number(check["current"]):
            errors.append(f"checks[{i}].current must be a finite number or null")

    summary = doc.get("summary")
    if not isinstance(summary, dict):
        errors.append("summary must be an object")
    elif checks and not errors:
        if summary.get("checked") != len(checks):
            errors.append("summary.checked != len(checks)")
        if summary.get("regressed") != regressed:
            errors.append("summary.regressed != count of non-pass checks")
        expected = "pass" if regressed == 0 else "regressed"
        if summary.get("status") != expected:
            errors.append(f"summary.status must be {expected!r} for these checks")
    return errors


def validate(doc: dict, min_reps: int = 1) -> list[str]:
    """Return a list of schema violations (empty means the doc is valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["top level must be a JSON object"]
    bench = doc.get("bench")
    if bench == "run_report":
        return validate_run_report(doc)
    if bench == "sentinel":
        return validate_sentinel(doc)
    if bench not in SCHEMAS:
        return [
            f"bench must be one of {sorted(SCHEMAS) + ['run_report', 'sentinel']} "
            f"(e.g. 'sampler_hotpath'), got {bench!r}"
        ]
    groups, throughput_key, summary_keys = SCHEMAS[bench]

    reps = doc.get("reps")
    if not isinstance(reps, int) or reps < min_reps:
        errors.append(f"reps must be an int >= {min_reps}, got {reps!r}")
    if doc.get("mode") not in ("smoke", "full"):
        errors.append(f"mode must be 'smoke' or 'full', got {doc.get('mode')!r}")

    row_keys = ("bench", "dataset", "variant", "median_s", "p90_s", throughput_key)
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        errors.append("rows must be a non-empty list")
        rows = []
    seen: dict[tuple, set] = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"rows[{i}] is not an object")
            continue
        missing = [k for k in row_keys if k not in row]
        if missing:
            errors.append(f"rows[{i}] missing keys: {missing}")
            continue
        if row["bench"] not in groups:
            errors.append(f"rows[{i}].bench invalid: {row['bench']!r}")
            continue
        allowed = groups[row["bench"]]
        if row["variant"] not in allowed:
            errors.append(
                f"rows[{i}].variant {row['variant']!r} not in {sorted(allowed)}"
            )
        for key in ("median_s", "p90_s", throughput_key):
            if not _is_positive_number(row[key]):
                errors.append(f"rows[{i}].{key} must be a finite positive number")
        if _is_positive_number(row["median_s"]) and _is_positive_number(row["p90_s"]):
            if row["p90_s"] < row["median_s"]:
                errors.append(f"rows[{i}]: p90_s < median_s")
        seen.setdefault((row["bench"], row["dataset"]), set()).add(row["variant"])

    for (group, dataset), variants in seen.items():
        absent = groups[group] - variants
        if absent:
            errors.append(f"{group}/{dataset} missing variants: {sorted(absent)}")

    summary = doc.get("summary")
    if not isinstance(summary, dict) or not summary:
        errors.append("summary must be a non-empty object")
    else:
        datasets = {d for (_, d) in seen}
        for name, entry in summary.items():
            if name not in datasets:
                errors.append(f"summary entry {name!r} has no rows")
            if not isinstance(entry, dict):
                errors.append(f"summary[{name!r}] is not an object")
                continue
            for key in summary_keys:
                if not _is_positive_number(entry.get(key)):
                    errors.append(
                        f"summary[{name!r}].{key} must be a finite positive number"
                    )
    if bench == "feature_tier":
        errors.extend(_validate_feature_tier_parity(doc.get("parity")))
    return errors


def _validate_feature_tier_parity(parity) -> list[str]:
    """Violations in the feature_tier artifact's training-parity section.

    This section lives *outside* ``summary`` on purpose: the sentinel
    guards every numeric summary entry as a higher-is-better ratio, and a
    loss delta is the opposite — smaller is better, zero is perfect.  The
    guarantees are enforced here instead: ram vs mmap byte-identical on
    both executors, quantized loss drift bounded.
    """
    if not isinstance(parity, dict):
        return ["parity must be an object for feature_tier artifacts"]
    errors: list[str] = []
    for key in (
        "ram_vs_mmap_identical_serial",
        "ram_vs_mmap_identical_multiprocess",
    ):
        if parity.get(key) is not True:
            errors.append(f"parity.{key} must be true, got {parity.get(key)!r}")
    delta = parity.get("quant_final_loss_delta")
    if not _is_finite_number(delta) or delta < 0:
        errors.append("parity.quant_final_loss_delta must be a finite number >= 0")
    elif delta >= FEATURE_TIER_MAX_LOSS_DELTA:
        errors.append(
            f"parity.quant_final_loss_delta {delta} exceeds the "
            f"{FEATURE_TIER_MAX_LOSS_DELTA} bound"
        )
    return errors


def validate_all(root: Path = REPO_ROOT, min_reps: int = 1) -> dict[str, list[str]]:
    """Validate every ``BENCH_*.json`` / ``REPORT_*.json`` under ``root``.

    Returns ``{filename: errors}`` for each artifact found (empty error
    lists mean valid).  An empty dict means *no artifacts were found*,
    which callers should treat as a failure of its own.
    """
    results: dict[str, list[str]] = {}
    paths = sorted(root.glob("BENCH_*.json")) + sorted(root.glob("REPORT_*.json"))
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            results[path.name] = [f"cannot read: {exc}"]
            continue
        results[path.name] = validate(doc, min_reps=min_reps)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        type=Path,
        nargs="*",
        help="bench JSON artifacts to validate "
        "(default: every BENCH_*.json at the repo root)",
    )
    parser.add_argument(
        "--min-reps", type=int, default=1, help="required minimum rep count"
    )
    args = parser.parse_args(argv)

    paths = args.paths or (
        sorted(REPO_ROOT.glob("BENCH_*.json")) + sorted(REPO_ROOT.glob("REPORT_*.json"))
    )
    if not paths:
        print(f"no BENCH_*.json artifacts found under {REPO_ROOT}", file=sys.stderr)
        return 2

    status = 0
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            status = max(status, 2)
            continue
        errors = validate(doc, min_reps=args.min_reps)
        if errors:
            for error in errors:
                print(f"INVALID {path}: {error}", file=sys.stderr)
            status = max(status, 1)
        elif doc.get("bench") == "run_report":
            print(f"{path}: valid run report ({len(doc['epochs'])} epochs)")
        elif doc.get("bench") == "sentinel":
            summary = doc["summary"]
            print(
                f"{path}: valid sentinel ({summary['checked']} checks, "
                f"{summary['regressed']} regressed)"
            )
        else:
            print(f"{path}: valid ({len(doc['rows'])} rows, reps={doc['reps']})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
