"""Span-based tracing: one clock, hierarchical spans, two renderers.

This is the repository's single tracing seam.  Every pipeline stage
(sample, slice, transfer, train) records :class:`TraceEvent` spans against
a named resource lane (``cpu:0``, ``dma``, ``gpu``) on a shared wall-clock
origin.  The collected trace renders two ways:

- :func:`render_timeline` — the ASCII Gantt chart reproducing the paper's
  Figure 1 comparison between the serial PyTorch workflow and SALIENT's
  overlapped pipeline;
- :meth:`Tracer.to_chrome_trace` — Chrome trace-event JSON (``ph``/``ts``/
  ``dur``/``pid``/``tid``) loadable in ``chrome://tracing`` or Perfetto,
  with one timeline track per resource lane and span nesting preserved.

Spans are hierarchical: entering a span inside another span (on the same
thread) records the parent's id, so a fused ``prepare`` stage can wrap its
``sample``/``slice`` children and the Chrome view nests them.  A disabled
tracer is free: ``span()`` returns a shared singleton — no allocation, no
lock acquisition, no clock read.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["TraceEvent", "Tracer", "render_timeline", "STAGE_GLYPHS"]

#: Stage -> single-character glyph used in the ASCII timeline. The paper's
#: Figure 1 color code: green=sample, yellow=slice, orange/red=transfer,
#: blue=train.
STAGE_GLYPHS = {"sample": "S", "slice": "L", "transfer": "T", "train": "C"}


@dataclass
class TraceEvent:
    """One timed stage execution on one resource lane."""

    name: str  # stage name: sample / slice / transfer / train
    resource: str  # lane: cpu:<i>, dma, gpu
    batch: int  # mini-batch index
    start: float
    end: float
    #: span id (unique per tracer) and parent span id (-1 = root)
    span_id: int = -1
    parent_id: int = -1
    #: OS thread that executed the span (Chrome-trace disambiguation)
    thread: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullSpan:
    """Do-nothing context manager shared by every disabled-tracer span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: module-level singleton: ``span()`` on a disabled tracer allocates nothing
_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager recording one event (with hierarchy bookkeeping)."""

    __slots__ = ("tracer", "name", "resource", "batch", "start", "span_id", "parent_id")

    def __init__(self, tracer: "Tracer", name: str, resource: str, batch: int):
        self.tracer = tracer
        self.name = name
        self.resource = resource
        self.batch = batch

    def __enter__(self) -> "_Span":
        self.span_id, self.parent_id = self.tracer._push_span()
        self.start = self.tracer.now()
        return self

    def __exit__(self, *exc) -> bool:
        end = self.tracer.now()
        self.tracer._pop_span()
        self.tracer._record_event(
            TraceEvent(
                name=self.name,
                resource=self.resource,
                batch=self.batch,
                start=self.start,
                end=end,
                span_id=self.span_id,
                parent_id=self.parent_id,
                thread=threading.get_ident(),
            )
        )
        return False


class Tracer:
    """Thread-safe span collector with a shared wall-clock origin.

    One ``Tracer`` instance is one timeline: every span's ``start``/``end``
    is seconds since the tracer's construction, so events recorded from
    different threads and stages interleave on a common axis.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[TraceEvent] = []
        self._lock = threading.Lock()
        self._origin = time.perf_counter()
        self._next_id = 0
        self._stack = threading.local()

    def now(self) -> float:
        return time.perf_counter() - self._origin

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _push_span(self) -> tuple[int, int]:
        """Allocate a span id; return (id, parent id on this thread)."""
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent_id = stack[-1] if stack else -1
        stack.append(span_id)
        return span_id, parent_id

    def _pop_span(self) -> None:
        stack = getattr(self._stack, "ids", None)
        if stack:
            stack.pop()

    def _record_event(self, event: TraceEvent) -> None:
        with self._lock:
            self.events.append(event)

    def record(
        self, name: str, resource: str, batch: int, start: float, end: float
    ) -> None:
        """Append one pre-timed event (no hierarchy, analysis-path entry)."""
        if not self.enabled:
            return
        self._record_event(
            TraceEvent(name, resource, batch, start, end, thread=threading.get_ident())
        )

    def span(self, name: str, resource: str, batch: int) -> "_Span | _NullSpan":
        """Context manager that records one event.

        On a disabled tracer this is zero-cost: the shared no-op singleton
        is returned — no object allocation, no lock, no clock read.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, resource, batch)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def stage_totals(self) -> dict[str, float]:
        """Total busy time per stage name."""
        totals: dict[str, float] = {}
        for event in self.events:
            totals[event.name] = totals.get(event.name, 0.0) + event.duration
        return totals

    def resource_busy(self, resource: str) -> float:
        """Union length of busy intervals on one lane (handles overlap)."""
        spans = sorted(
            (e.start, e.end) for e in self.events if e.resource == resource
        )
        busy = 0.0
        current_start, current_end = None, None
        for start, end in spans:
            if current_end is None or start > current_end:
                if current_end is not None:
                    busy += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        if current_end is not None:
            busy += current_end - current_start
        return busy

    def makespan(self) -> float:
        if not self.events:
            return 0.0
        return max(e.end for e in self.events) - min(e.start for e in self.events)

    def gpu_utilization(self) -> float:
        """Fraction of the makespan during which the GPU lane is busy."""
        span = self.makespan()
        return self.resource_busy("gpu") / span if span > 0 else 0.0

    # ------------------------------------------------------------------
    # Chrome trace-event export
    # ------------------------------------------------------------------
    def to_chrome_trace(self, pid: int = 1, probes=None) -> dict:
        """The trace as a Chrome trace-event JSON document.

        Loadable in ``chrome://tracing`` / https://ui.perfetto.dev: one
        process (``pid``), one track (``tid``) per resource lane, complete
        events (``ph="X"``) with microsecond ``ts``/``dur``, batch index and
        span hierarchy under ``args``.  Lane-name metadata events label the
        tracks; lanes are ordered cpu* < dma < gpu to match the ASCII view.

        ``probes`` (a :class:`~repro.telemetry.monitor.ProbeSampler`
        constructed with ``clock=tracer.now``) appends its ``ph="C"``
        counter tracks, so queue depths and pool occupancy render as numeric
        series under the span Gantt on the same time axis.
        """
        lanes = sorted({e.resource for e in self.events}, key=_lane_sort_key)
        tid_of = {lane: tid for tid, lane in enumerate(lanes)}
        trace_events: list[dict] = []
        for lane in lanes:
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid_of[lane],
                    "args": {"name": lane},
                }
            )
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_sort_index",
                    "pid": pid,
                    "tid": tid_of[lane],
                    "args": {"sort_index": tid_of[lane]},
                }
            )
        for event in self.events:
            trace_events.append(
                {
                    "ph": "X",
                    "name": event.name,
                    "cat": "stage",
                    "ts": event.start * 1e6,
                    "dur": event.duration * 1e6,
                    "pid": pid,
                    "tid": tid_of[event.resource],
                    "args": {
                        "batch": event.batch,
                        "span_id": event.span_id,
                        "parent_id": event.parent_id,
                    },
                }
            )
        if probes is not None:
            trace_events.extend(probes.counter_track_events(pid=pid))
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.telemetry.tracer"},
        }

    def write_chrome_trace(self, path, pid: int = 1, probes=None) -> None:
        """Serialize :meth:`to_chrome_trace` to ``path`` as JSON."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(pid=pid, probes=probes), handle, indent=1)
            handle.write("\n")


def _lane_sort_key(lane: str) -> tuple[int, str]:
    """cpu lanes first, then dma, then gpu (Figure 1's top-to-bottom order)."""
    for rank, prefix in enumerate(("cpu", "dma", "gpu")):
        if lane.startswith(prefix):
            return (rank, lane)
    return (3, lane)


def render_timeline(
    tracer: Tracer, width: int = 100, resources: Optional[list[str]] = None
) -> str:
    """Render the trace as an ASCII Gantt chart (one row per resource lane).

    Glyphs: S=sample, L=slice, T=transfer, C=compute/train; digits would be
    batch indices but lanes show stages for readability (matching Figure 1's
    per-operation coloring).
    """
    if not tracer.events:
        return "(empty trace)"
    t0 = min(e.start for e in tracer.events)
    t1 = max(e.end for e in tracer.events)
    span = max(t1 - t0, 1e-9)
    if resources is None:
        resources = sorted({e.resource for e in tracer.events})
    lines = []
    scale = width / span
    for resource in resources:
        row = [" "] * width
        for event in tracer.events:
            if event.resource != resource:
                continue
            glyph = STAGE_GLYPHS.get(event.name, "?")
            lo = int((event.start - t0) * scale)
            hi = max(int((event.end - t0) * scale), lo + 1)
            for i in range(lo, min(hi, width)):
                row[i] = glyph
        lines.append(f"{resource:>8s} |{''.join(row)}|")
    legend = "legend: S=sample L=slice T=transfer C=train"
    return "\n".join(lines + [legend, f"span: {span*1000:.1f} ms"])
