"""Bottleneck attribution: span + probe telemetry into a verdict.

Table 1 and Figure 1 of the paper exist to answer one question — *which
stage gates epoch time*: batch preparation (sampling + slicing), the
host-to-device transfer, or model compute.  This module automates that
reading.  Given the blocking-perspective stage breakdown an
:class:`~repro.runtime.stages.EpochStats` already computes (and a
:class:`~repro.telemetry.tracer.Tracer`'s lane intervals when available),
it produces an :class:`Attribution`: per-stage shares of the caller's
epoch time, per-lane utilization, a stall/wait decomposition, and a
one-line **verdict** — ``prep-bound`` / ``transfer-bound`` /
``compute-bound``, refined to ``storage-bound`` when cold-tier mmap
waits dominate a prep-bound epoch — with the supporting numbers.

Three entry points, one per telemetry granularity:

- :func:`attribute_breakdown` — from one breakdown dict (what
  ``EpochStats.attribution()`` calls);
- :func:`attribute_trace` — per-lane busy/utilization from tracer spans;
- :func:`attribute_report` — from a full ``run_report`` JSON document
  (epoch rows + metrics snapshot + probe series), which is what
  ``python -m repro diagnose report.json`` renders.

The verdict is intentionally coarse: it compares *blocking* shares, the
time the caller thread actually waited per stage, so an overlapped
pipeline whose workers keep up is compute-bound even though its workers
burn more aggregate CPU than the serial policy — exactly the Figure 1(a)
vs 1(b) contrast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = [
    "Attribution",
    "attribute_breakdown",
    "attribute_trace",
    "attribute_report",
    "render_attribution",
]

#: verdict vocabulary, keyed by the winning blocking share
VERDICTS = {"prep": "prep-bound", "transfer": "transfer-bound", "train": "compute-bound"}

#: a prep-bound epoch is re-labelled storage-bound when cold-tier mmap
#: waits account for at least this fraction of the blocking prep seconds
STORAGE_BOUND_THRESHOLD = 0.5


@dataclass
class Attribution:
    """One bottleneck reading: shares, verdict, and supporting telemetry."""

    verdict: str  # prep-bound | transfer-bound | compute-bound | storage-bound
    bound_stage: str  # prep | transfer | train
    #: blocking share of epoch time per stage group (caller's perspective)
    shares: Dict[str, float]
    #: fraction of the epoch the compute lane sat idle
    gpu_idle_fraction: float
    #: one-line human reading, e.g. "prep-bound on cpu:0, gpu idle 43%"
    detail: str
    #: lane -> busy fraction of the makespan (from tracer spans, optional)
    lanes: Dict[str, float] = field(default_factory=dict)
    #: wait decomposition in seconds (prep_wait, queue waits, pinned waits)
    stalls: Dict[str, float] = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "verdict": self.verdict,
            "bound_stage": self.bound_stage,
            "shares": {k: float(v) for k, v in self.shares.items()},
            "gpu_idle_fraction": float(self.gpu_idle_fraction),
            "detail": self.detail,
            "lanes": {k: float(v) for k, v in self.lanes.items()},
            "stalls": {k: float(v) for k, v in self.stalls.items()},
        }


def _blocking_shares(breakdown: Dict[str, float]) -> Dict[str, float]:
    """Collapse a breakdown dict into the three blocking stage groups.

    ``prep`` = blocking batch preparation + time the caller starved for
    prepared batches (on an overlapped run the former is ~0 and the latter
    is the only visible prep cost).  ``plan_build`` is a busy-time view
    (already inside ``batch_prep`` on serial runs) and is excluded.
    """
    return {
        "prep": breakdown.get("batch_prep", 0.0) + breakdown.get("prep_wait", 0.0),
        "transfer": breakdown.get("transfer", 0.0),
        "train": breakdown.get("train", 0.0),
    }


def attribute_breakdown(
    breakdown: Dict[str, float],
    lanes: Optional[Dict[str, float]] = None,
    stalls: Optional[Dict[str, float]] = None,
    total_s: Optional[float] = None,
) -> Attribution:
    """Verdict for one epoch's blocking-perspective stage breakdown.

    ``total_s`` (the epoch's wall seconds) lets stall *seconds* be
    compared against blocking *shares*: when the cold feature tier's
    ``mmap_wait_s`` stall dominates the prep seconds of a prep-bound
    epoch, the verdict refines to ``storage-bound`` — the fix is tier
    sizing (more hot rows, quantization, faster disk), not more
    prepare workers.
    """
    shares = _blocking_shares(breakdown)
    bound_stage = max(shares, key=lambda k: shares[k])
    train_share = shares["train"]
    gpu_idle = min(max(1.0 - train_share, 0.0), 1.0)
    lanes = dict(lanes or {})
    stalls = dict(stalls or {})

    verdict = VERDICTS[bound_stage]
    storage_fraction = 0.0
    if bound_stage == "prep" and total_s:
        prep_seconds = shares["prep"] * total_s
        mmap_wait = stalls.get("mmap_wait_s", 0.0)
        if prep_seconds > 0 and mmap_wait > 0:
            storage_fraction = min(mmap_wait / prep_seconds, 1.0)
            if storage_fraction >= STORAGE_BOUND_THRESHOLD:
                verdict = "storage-bound"

    detail = (
        f"{verdict} "
        f"({bound_stage} blocks {100 * shares[bound_stage]:.0f}% of epoch time"
    )
    if bound_stage == "prep" and lanes:
        cpu_lanes = {k: v for k, v in lanes.items() if k.startswith("cpu")}
        if cpu_lanes:
            busiest = max(cpu_lanes, key=lambda k: cpu_lanes[k])
            detail = (
                f"{verdict} on {busiest} "
                f"({bound_stage} blocks {100 * shares[bound_stage]:.0f}% of epoch time"
            )
    detail += f"), gpu idle {100 * gpu_idle:.0f}%"
    if verdict == "storage-bound":
        detail += (
            f"; mmap waits are {100 * storage_fraction:.0f}% of prep seconds"
        )
    if bound_stage == "prep":
        # Multiprocess prepare: cpu:mp<i> lanes carry per-worker-process
        # busy fractions, so a prep-bound verdict can name core starvation
        # (workers saturated → add cores) vs dispatch overhead (they are
        # mostly idle → the bottleneck is elsewhere in the prep path).
        mp_lanes = {k: v for k, v in (lanes or {}).items() if k.startswith("cpu:mp")}
        if mp_lanes:
            mean_busy = sum(mp_lanes.values()) / len(mp_lanes)
            state = "core-starved" if mean_busy >= 0.8 else "under-utilized"
            detail += (
                f"; {len(mp_lanes)} prepare workers {state} "
                f"(mean busy {100 * mean_busy:.0f}%)"
            )

    return Attribution(
        verdict=verdict,
        bound_stage=bound_stage,
        shares=shares,
        gpu_idle_fraction=gpu_idle,
        detail=detail,
        lanes=lanes,
        stalls=dict(stalls or {}),
    )


def attribute_trace(tracer) -> Dict[str, float]:
    """Per-lane utilization (busy fraction of the makespan) from spans."""
    span = tracer.makespan()
    if span <= 0:
        return {}
    lanes = sorted({e.resource for e in tracer.events})
    return {lane: tracer.resource_busy(lane) / span for lane in lanes}


def _stalls_from_metrics(metrics: Iterable[dict]) -> Dict[str, float]:
    """Wait decomposition (seconds) from a metrics snapshot list."""
    stalls: Dict[str, float] = {}
    for entry in metrics:
        name = entry.get("name")
        if name == "caller_seconds" and entry.get("labels", {}).get("stage") == "prep_wait":
            stalls["prep_wait_s"] = stalls.get("prep_wait_s", 0.0) + entry.get("sum", 0.0)
        elif name == "pinned_acquire_wait_seconds":
            stalls["pinned_acquire_wait_s"] = (
                stalls.get("pinned_acquire_wait_s", 0.0) + entry.get("sum", 0.0)
            )
        elif name == "mp_result_wait_seconds":
            # Dispatch/IPC overhead of the multiprocess prepare pool, net
            # of worker busy time (already inside batch_prep).
            stalls["mp_result_wait_s"] = (
                stalls.get("mp_result_wait_s", 0.0) + entry.get("sum", 0.0)
            )
        elif name == "mmap_wait_seconds":
            # Cold-tier page-fault/copy time (a counter, not a histogram):
            # the signal behind the storage-bound verdict.
            stalls["mmap_wait_s"] = (
                stalls.get("mmap_wait_s", 0.0) + entry.get("value", 0.0)
            )
    return stalls


def _mp_lanes_from_metrics(metrics: Iterable[dict], total_s: float) -> Dict[str, float]:
    """Per-worker-process busy fractions from ``mp_worker_busy_seconds``.

    Run reports carry no tracer spans, but the multiprocess prepare pool
    records each worker's busy seconds; dividing by the run's total epoch
    seconds yields a lane-utilization view ``attribute_breakdown`` can use
    to attribute a prep-bound verdict to actual core starvation.
    """
    if total_s <= 0:
        return {}
    lanes: Dict[str, float] = {}
    for entry in metrics:
        if entry.get("name") != "mp_worker_busy_seconds":
            continue
        worker = entry.get("labels", {}).get("worker", "?")
        key = f"cpu:mp{worker}"
        lanes[key] = lanes.get(key, 0.0) + entry.get("sum", 0.0) / total_s
    return lanes


def attribute_report(doc: dict) -> Attribution:
    """Overall attribution for a ``run_report`` JSON document.

    Epoch breakdown fractions are combined weighted by each epoch's
    duration; stalls come from the metrics snapshot.  Lane utilization is
    absent for thread policies (reports carry no spans), but multiprocess
    runs reconstruct per-worker ``cpu:mp<i>`` lanes from the
    ``mp_worker_busy_seconds`` metrics so prep-bound verdicts name core
    starvation.
    """
    epochs: List[dict] = list(doc.get("epochs") or [])
    if not epochs:
        raise ValueError("run report has no epoch rows to attribute")
    total = sum(max(row.get("epoch_s", 0.0), 0.0) for row in epochs) or 1.0
    combined: Dict[str, float] = {}
    for row in epochs:
        weight = max(row.get("epoch_s", 0.0), 0.0) / total
        for stage, fraction in (row.get("breakdown") or {}).items():
            combined[stage] = combined.get(stage, 0.0) + weight * fraction
    metrics = doc.get("metrics") or []
    stalls = _stalls_from_metrics(metrics)
    lanes = _mp_lanes_from_metrics(metrics, total_s=total)
    return attribute_breakdown(
        combined, lanes=lanes or None, stalls=stalls, total_s=total
    )


def render_attribution(attr: Attribution, epochs: Optional[List[dict]] = None) -> str:
    """Multi-line human rendering (the ``repro diagnose`` output body)."""
    lines = [f"verdict: {attr.detail}"]
    lines.append(
        "blocking shares: "
        + "  ".join(f"{k}={100 * v:.1f}%" for k, v in attr.shares.items())
    )
    if attr.lanes:
        lines.append(
            "lane utilization: "
            + "  ".join(f"{k}={100 * v:.0f}%" for k, v in sorted(attr.lanes.items()))
        )
    if attr.stalls:
        lines.append(
            "stalls: "
            + "  ".join(
                f"{k}={1e3 * v:.1f}ms" for k, v in sorted(attr.stalls.items())
            )
        )
    if epochs:
        lines.append("")
        lines.append("epoch  prep%  transfer%  train%  prep_wait%  verdict")
        for row in epochs:
            b = row.get("breakdown") or {}
            verdict = row.get("verdict") or attribute_breakdown(b).verdict
            lines.append(
                f"{row.get('epoch', '?'):>5}"
                f"  {100 * b.get('batch_prep', 0.0):5.1f}"
                f"  {100 * b.get('transfer', 0.0):9.1f}"
                f"  {100 * b.get('train', 0.0):6.1f}"
                f"  {100 * b.get('prep_wait', 0.0):10.1f}"
                f"  {verdict}"
            )
    return "\n".join(lines)
