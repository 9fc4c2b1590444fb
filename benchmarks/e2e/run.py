"""The repo's end-to-end benchmark: train + inference on four fixed workloads.

    python3 benchmarks/e2e/run.py                       # all four, full set
    python3 benchmarks/e2e/run.py --workload NAME       # one, untraced + traced
    python3 benchmarks/e2e/run.py --workload NAME --seed 3 --seconds 12 --trace 0

Every workload runs in a fresh process with BLAS/OpenMP pinned to one thread,
prints each metric by name with its unit, checks its outputs and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for entry in (str(REPO / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from workloads import RUN_SECONDS, WORK_DIR, WORKLOADS, by_name, manifest  # noqa: E402

#: The environment every workload process starts in (glibc reads MALLOC_* at
#: its first allocation, so run_one re-executes itself under it); spawned
#: workers inherit it.
#: Threads: unpinned OpenBLAS on 2 cores made products-sample 30% slower and
#: moved eval_acc in the third decimal.
#: Memory: the program frees and reallocates ~400 MB of temporaries per predict
#: call. On the reference VM the kernel's price for handing those pages back
#: varied from 1.4 to 56 us per fault at constant user time (0.9-6 s for one
#: call), and with numpy's MADV_HUGEPAGE and THP defrag=madvise a first touch
#: compacted memory inside the fault (20-40 s for one 256 MB array). So freed
#: memory stays in the process (one arena, no mmap, no trim, no hugepage
#: advice): the benchmark times the program, not the host's paging.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 36),
}


def host_record(seed: int) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # a checkout that is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": seed,
    }


def print_metrics(result: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  wall={result['wall_s']:.1f}s")
    print("host " + "  ".join(f"{k}={v}" for k, v in result["host"].items()))
    for section in ("end_to_end", "per_layer"):
        for name, metric in result[section].items():
            spread = ""
            if "q1" in metric:
                spread = (
                    f"  [q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}  "
                    f"min {metric['min']:.6g}  n {metric['n']}]"
                )
            print(f"{name:34s} {metric['value']:>14.6g} {metric['unit']}{spread}")
    print(f"ops_attempted {result['attempted']}  ops_failed {result['failed']}")
    print(
        f"accuracy_by_round {[round(a, 4) for a in result['accuracy_by_round']]}"
        f"  epochs_to_target {result['epochs_to_target']:.3f}"
        f"  target_round {result['target_round']}"
    )
    for name, value in result["checks"].items():
        print(f"check {name}: {value}")


def contract_line(result: dict) -> str:
    metrics = {
        name: {"value": metric["value"], "unit": metric["unit"]}
        for section in ("end_to_end", "per_layer")
        for name, metric in result[section].items()
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def stop_resource_tracker() -> None:
    """End the stdlib's shared-memory tracker (started by the multiprocess
    executor's segments) and wait for it, so no process outlives this one."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def run_one(args) -> int:
    """One workload in this process, started afresh under PINNED_ENV."""
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        sys.stdout.flush()
        os.execve(
            sys.executable,
            [sys.executable, str(HERE / "run.py"), *sys.argv[1:]],
            {**os.environ, **PINNED_ENV},
        )
    try:
        from measure import run_workload
    except ImportError as exc:
        print(f"cannot import the program under {REPO / 'src'}: {exc}", file=sys.stderr)
        return 2
    result = run_workload(
        by_name(args.workload),
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        smoke=args.smoke,
        trace_out=args.trace_out,
    )
    stop_resource_tracker()
    result["host"] = host_record(args.seed)
    print_metrics(result)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": [result]}, indent=1))
    print(contract_line(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, one after the other, each in its own subprocess."""
    WORK_DIR.mkdir(exist_ok=True)
    runs, status = [], 0
    for index in range(args.sets):
        for workload in WORKLOADS:
            out = WORK_DIR / f"result-{os.getpid()}-{index}-{workload.name}.json"
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload.name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--out", str(out),
            ]
            if args.smoke:
                command.append("--smoke")
            if args.trace is not None:
                command += ["--trace", str(args.trace)]
            code = subprocess.run(command, env={**os.environ, **PINNED_ENV}).returncode
            status = status or code
            if out.exists():
                runs.extend(json.loads(out.read_text())["runs"])
                out.unlink()
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0, help="dataset and trainer seed")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only; "
                        "default: both")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--trace-out", help="write the traced pass as Chrome-trace JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="half-size datasets, two rounds: seconds, not minutes")
    parser.add_argument("--sets", type=int, default=1,
                        help="with no --workload: how many complete sets to run")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from workloads.py and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (REPO / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    # The guard matters: the multiprocess executor spawns, and a spawned
    # worker re-imports this file.
    sys.exit(main())
