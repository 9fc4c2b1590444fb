"""Schema validator for the ``run_report`` JSON artifact.

``python -m repro train --report-out REPORT_run.json`` writes one
machine-readable document per run (:mod:`repro.telemetry.report`). This
validator is its contract: tier-1 runs it against the reports its own
training runs write, so schema drift (renamed keys, missing sections,
non-finite numbers) fails fast instead of silently rotting. ``run_report``
is the only schema; performance numbers live in the end-to-end benchmark
(``benchmarks/e2e``), not in validated artifacts.

Usage::

    PYTHONPATH=src python benchmarks/check_bench_json.py [PATH ...]

With no paths, every ``REPORT_*.json`` at the repo root is validated.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

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
REPORT_METRIC_KINDS = {"counter", "gauge", "histogram"}

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
            if entry.get("kind") == "histogram":
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


def validate(doc: dict) -> list[str]:
    """Return a list of schema violations (empty means the doc is valid)."""
    if not isinstance(doc, dict):
        return ["top level must be a JSON object"]
    bench = doc.get("bench")
    if bench != "run_report":
        return [f"bench must be 'run_report' (the only schema), got {bench!r}"]
    return validate_run_report(doc)


def validate_all(root: Path = REPO_ROOT) -> dict[str, list[str]]:
    """Validate every ``REPORT_*.json`` under ``root``.

    Returns ``{filename: errors}`` for each artifact found (empty error
    lists mean valid).  An empty dict means *no artifacts were found*,
    which callers should treat as a failure of its own.
    """
    results: dict[str, list[str]] = {}
    for path in sorted(root.glob("REPORT_*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            results[path.name] = [f"cannot read: {exc}"]
            continue
        results[path.name] = validate(doc)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        type=Path,
        nargs="*",
        help="run reports to validate (default: every REPORT_*.json at the repo root)",
    )
    args = parser.parse_args(argv)

    paths = args.paths or sorted(REPO_ROOT.glob("REPORT_*.json"))
    if not paths:
        print(f"no REPORT_*.json artifacts found under {REPO_ROOT}", file=sys.stderr)
        return 2

    status = 0
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            status = max(status, 2)
            continue
        errors = validate(doc)
        if errors:
            for error in errors:
                print(f"INVALID {path}: {error}", file=sys.stderr)
            status = max(status, 1)
        else:
            print(f"{path}: valid run report ({len(doc['epochs'])} epochs)")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
