"""Perf-regression sentinel: BENCH artifacts vs committed baselines.

The repository's perf story lives in the ``BENCH_*.json`` artifacts at the
repo root — sampler hot path, prepare scaling, feature tiers.
Until now those trajectories were *recorded* but not *enforced*: a PR
could halve ``arena_vs_fast_speedup`` and only a diligent reviewer would
notice.  The sentinel turns the artifacts into a contract:

- every guarded metric (per-row ``median_s``, per-dataset summary
  speedups) is compared against its committed baseline with a
  **noise-aware tolerance band**: relative slack plus an absolute floor,
  so microsecond-scale medians aren't held to nanosecond noise and
  near-1.0 speedups aren't failed by scheduler jitter;
- the comparison emits a ``BENCH_sentinel.json`` trajectory artifact
  (validated by ``benchmarks/check_bench_json.py`` like every other
  artifact) recording each check's baseline, current value and band;
- a non-empty set of regressions exits non-zero, so tier-1 tests — not
  code review — catch perf regressions.

Run it as ``python benchmarks/sentinel.py`` or via the ``repro-sentinel``
console entry point.  With no candidates the sentinel self-compares the
committed baselines (every check passes by construction), which is how
the committed trajectory snapshot is produced::

    PYTHONPATH=src python benchmarks/sentinel.py --out BENCH_sentinel.json

Comparing a fresh run against the committed baselines::

    PYTHONPATH=src python benchmarks/bench_mp_prepare.py --output /tmp/BENCH_mp_prepare.json
    PYTHONPATH=src python benchmarks/sentinel.py /tmp/BENCH_mp_prepare.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "GuardedMetric",
    "extract_guarded_metrics",
    "compare_docs",
    "build_sentinel_doc",
    "main",
    "SENTINEL_SCHEMA_VERSION",
    "DEFAULT_REL_TOL",
    "DEFAULT_ABS_FLOOR_S",
    "DEFAULT_ABS_FLOOR_RATIO",
]

SENTINEL_SCHEMA_VERSION = 1

#: relative tolerance band (35% — CI machines are noisy; the sentinel is
#: for catching step-function regressions, not 5% drifts)
DEFAULT_REL_TOL = 0.35
#: absolute floor for duration metrics (seconds) — sub-5ms medians are
#: dominated by scheduler jitter
DEFAULT_ABS_FLOOR_S = 0.005
#: absolute floor for dimensionless speedup ratios
DEFAULT_ABS_FLOOR_RATIO = 0.15

#: artifacts the sentinel itself produces / that carry no guarded perf rows
_UNGUARDED_BENCH_KINDS = {"sentinel", "run_report"}


@dataclass
class GuardedMetric:
    """One metric the sentinel protects."""

    metric: str  # dotted path, e.g. "summary.arxiv.arena_vs_fast_speedup"
    kind: str  # "seconds" | "ratio"
    direction: str  # "lower-better" | "higher-better"
    value: float


def extract_guarded_metrics(doc: dict) -> List[GuardedMetric]:
    """The guarded metrics of one bench artifact (empty if unguarded).

    Per-row ``median_s`` (lower is better) plus every per-dataset summary
    entry (speedup ratios, higher is better).  Throughput keys are skipped
    — they are reciprocals of the medians and would double-count.
    """
    if doc.get("bench") in _UNGUARDED_BENCH_KINDS:
        return []
    guarded: List[GuardedMetric] = []
    for row in doc.get("rows") or []:
        if not isinstance(row, dict):
            continue
        median = row.get("median_s")
        if isinstance(median, (int, float)) and math.isfinite(median):
            name = f"rows.{row.get('bench')}.{row.get('dataset')}.{row.get('variant')}.median_s"
            guarded.append(GuardedMetric(name, "seconds", "lower-better", float(median)))
    summary = doc.get("summary")
    if isinstance(summary, dict):
        for dataset, entry in sorted(summary.items()):
            if not isinstance(entry, dict):
                continue
            for key, value in sorted(entry.items()):
                if isinstance(value, (int, float)) and math.isfinite(value):
                    guarded.append(
                        GuardedMetric(
                            f"summary.{dataset}.{key}", "ratio", "higher-better", float(value)
                        )
                    )
    return guarded


def _allowed_bound(metric: GuardedMetric, rel_tol: float, abs_floor: float) -> float:
    """The worst acceptable value for ``metric`` given the tolerance band."""
    slack = max(rel_tol * abs(metric.value), abs_floor)
    if metric.direction == "lower-better":
        return metric.value + slack
    return metric.value - slack


def compare_docs(
    baseline: dict,
    candidate: dict,
    artifact: str,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_floor_s: float = DEFAULT_ABS_FLOOR_S,
    abs_floor_ratio: float = DEFAULT_ABS_FLOOR_RATIO,
) -> List[dict]:
    """Check every guarded baseline metric against the candidate document.

    Returns one check row per guarded metric with status ``pass``,
    ``regressed``, or ``missing`` (metric absent from the candidate —
    schema drift is a regression too).
    """
    candidate_values: Dict[str, float] = {
        m.metric: m.value for m in extract_guarded_metrics(candidate)
    }
    checks: List[dict] = []
    for metric in extract_guarded_metrics(baseline):
        abs_floor = abs_floor_s if metric.kind == "seconds" else abs_floor_ratio
        allowed = _allowed_bound(metric, rel_tol, abs_floor)
        current = candidate_values.get(metric.metric)
        if current is None:
            status = "missing"
        elif metric.direction == "lower-better":
            status = "pass" if current <= allowed else "regressed"
        else:
            status = "pass" if current >= allowed else "regressed"
        checks.append(
            {
                "artifact": artifact,
                "metric": metric.metric,
                "kind": metric.kind,
                "direction": metric.direction,
                "baseline": metric.value,
                "current": current,
                "allowed": allowed,
                "status": status,
            }
        )
    return checks


def build_sentinel_doc(
    checks: List[dict],
    artifacts: List[dict],
    mode: str,
    rel_tol: float,
    abs_floor_s: float,
    abs_floor_ratio: float,
) -> dict:
    """Assemble the ``BENCH_sentinel.json`` trajectory artifact."""
    regressed = sum(1 for c in checks if c["status"] != "pass")
    return {
        "bench": "sentinel",
        "schema_version": SENTINEL_SCHEMA_VERSION,
        "mode": mode,
        "rel_tolerance": rel_tol,
        "abs_floor_s": abs_floor_s,
        "abs_floor_ratio": abs_floor_ratio,
        "artifacts": artifacts,
        "checks": checks,
        "summary": {
            "checked": len(checks),
            "regressed": regressed,
            "status": "pass" if regressed == 0 else "regressed",
        },
    }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _load(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"sentinel: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _default_baseline_dir() -> Path:
    """The repo root when running from a src layout, else the cwd."""
    candidate = Path(__file__).resolve()
    if len(candidate.parents) >= 4:
        root = candidate.parents[3]  # src/repro/telemetry/sentinel.py -> repo
        if any(root.glob("BENCH_*.json")):
            return root
    return Path.cwd()


def _baseline_artifacts(baseline_dir: Path) -> List[Path]:
    """Guarded baseline artifacts (the sentinel's own output is excluded)."""
    return [
        path
        for path in sorted(baseline_dir.glob("BENCH_*.json"))
        if path.name != "BENCH_sentinel.json"
    ]


def _resolve_pairs(args) -> Optional[List[Tuple[Path, Path, str]]]:
    """(baseline, candidate, artifact-name) triples for the requested mode."""
    baseline_dir = Path(args.baseline_dir)
    if args.candidates:
        pairs = []
        for cand in args.candidates:
            cand = Path(cand)
            base = baseline_dir / cand.name
            if not base.exists():
                print(f"sentinel: no committed baseline {base}", file=sys.stderr)
                return None
            pairs.append((base, cand, cand.name))
        return pairs
    bases = _baseline_artifacts(baseline_dir)
    if not bases:
        print(f"sentinel: no BENCH_*.json baselines in {baseline_dir}", file=sys.stderr)
        return None
    if args.candidate_dir:
        candidate_dir = Path(args.candidate_dir)
        return [(base, candidate_dir / base.name, base.name) for base in bases]
    # Self-compare: trajectory snapshot of the committed baselines.
    return [(base, base, base.name) for base in bases]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sentinel",
        description="compare BENCH_*.json artifacts against committed baselines",
    )
    parser.add_argument(
        "candidates",
        nargs="*",
        help="candidate artifacts to check (matched to baselines by filename); "
        "none = self-compare the committed baselines",
    )
    parser.add_argument(
        "--baseline-dir",
        default=str(_default_baseline_dir()),
        help="directory holding the committed BENCH_*.json baselines "
        "(default: the repository root when run from a source tree, else cwd)",
    )
    parser.add_argument(
        "--candidate-dir",
        default=None,
        help="directory of freshly produced artifacts to check, one per baseline",
    )
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the BENCH_sentinel.json trajectory artifact here")
    parser.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    parser.add_argument("--abs-floor-s", type=float, default=DEFAULT_ABS_FLOOR_S)
    parser.add_argument("--abs-floor-ratio", type=float, default=DEFAULT_ABS_FLOOR_RATIO)
    args = parser.parse_args(argv)

    pairs = _resolve_pairs(args)
    if pairs is None:
        return 2

    checks: List[dict] = []
    artifacts: List[dict] = []
    for base_path, cand_path, name in pairs:
        base_doc = _load(base_path)
        cand_doc = _load(cand_path) if cand_path != base_path else base_doc
        if base_doc is None or cand_doc is None:
            return 2
        artifacts.append(
            {
                "name": name,
                "bench": base_doc.get("bench"),
                "baseline_mode": base_doc.get("mode"),
                "baseline_reps": base_doc.get("reps"),
            }
        )
        checks.extend(
            compare_docs(
                base_doc,
                cand_doc,
                name,
                rel_tol=args.rel_tol,
                abs_floor_s=args.abs_floor_s,
                abs_floor_ratio=args.abs_floor_ratio,
            )
        )
    if not checks:
        print("sentinel: no guarded metrics found", file=sys.stderr)
        return 2

    mode = "self" if all(b == c for b, c, _ in pairs) else "compare"
    doc = build_sentinel_doc(
        checks, artifacts, mode, args.rel_tol, args.abs_floor_s, args.abs_floor_ratio
    )
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"sentinel trajectory written to {out}")

    failed = [c for c in checks if c["status"] != "pass"]
    for check in failed:
        print(
            f"REGRESSED {check['artifact']}: {check['metric']} "
            f"baseline={check['baseline']:.6g} current="
            + (f"{check['current']:.6g}" if check["current"] is not None else "<missing>")
            + f" allowed={check['allowed']:.6g} ({check['direction']})",
            file=sys.stderr,
        )
    print(
        f"sentinel: {len(checks)} checks over {len(pairs)} artifacts, "
        f"{len(failed)} regressed ({mode} mode)"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
