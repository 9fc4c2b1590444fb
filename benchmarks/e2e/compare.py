"""Apply the benchmark's bounds to two result files.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

Each file is what ``run.py --out`` wrote (one or more complete sets). One row
is printed per workload x end-to-end metric: the parent's median (the base),
the change's median, their ratio, and a verdict:

- ``worse``       the change's median is worse than the base by more than the bound;
- ``unresolved``  it is not, but the spread between runs is wider than the bound
                  and not every run of the change beats every run of the parent,
                  so "no regression" cannot be claimed either;
- ``ok``          otherwise.

Exit code 0 only when every row is ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from workloads import END_TO_END, WORKLOADS


def _samples(document: dict, workload: str, metric: str) -> list[dict]:
    return [
        run["end_to_end"][metric]
        for run in document["runs"]
        if run["workload"] == workload and metric in run["end_to_end"]
    ]


def _spread(samples: list[dict]) -> float:
    """Quartile distance as a share of the median: between runs when there
    are several, else within the one run where it recorded quartiles."""
    if len(samples) >= 2:
        values = [s["value"] for s in samples]
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / statistics.median(values)
    only = samples[0]
    if "q1" in only:
        return (only["q3"] - only["q1"]) / only["value"]
    return 0.0


def compare(parent: dict, change: dict) -> list[dict]:
    rows = []
    for workload in (w.name for w in WORKLOADS):
        for metric, unit, better, bound in END_TO_END:
            base_runs = _samples(parent, workload, metric)
            new_runs = _samples(change, workload, metric)
            if not base_runs or not new_runs:
                continue
            base_values = [s["value"] for s in base_runs]
            new_values = [s["value"] for s in new_runs]
            base = statistics.median(base_values)
            new = statistics.median(new_values)
            sign = 1.0 if better == "lower" else -1.0
            worse_by = sign * (new - base) / base
            spread = max(_spread(base_runs), _spread(new_runs))
            if better == "lower":
                clean_win = max(new_values) < min(base_values)
            else:
                clean_win = min(new_values) > max(base_values)
            if worse_by > bound:
                verdict = "worse"
            elif spread > bound and not clean_win:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload, "metric": metric, "unit": unit,
                    "base": base, "new": new, "ratio": new / base,
                    "worse_by": worse_by, "bound": bound, "spread": spread,
                    "verdict": verdict,
                }
            )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':20s} {'metric':18s} {'base (parent)':>14s} {'change':>12s} "
        f"{'change/base':>11s} {'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:20s} {r['metric']:18s} {r['base']:>14.6g} {r['new']:>12.6g} "
            f"{r['ratio']:>11.4f} {r['worse_by']:>+9.2%} {r['bound']:>6.0%} "
            f"{r['spread']:>7.2%}  {r['verdict']}  [{r['unit']}]"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(parent, change)
    print(render(rows))
    return 0 if rows and all(r["verdict"] == "ok" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
