"""Continuous runtime monitoring: the metrics registry, sampled into rings.

The spans of :mod:`.tracer` answer *what ran when*; they cannot answer
*what the runtime looked like* while it ran — how many batches the
prepare window held, how many were ready, how much of the pinned staging
pool was committed.  Every such quantity is already a
counter or gauge of the run's :class:`~repro.telemetry.metrics.MetricsRegistry`;
:class:`ProbeSampler` is a single low-overhead background thread that
periodically (default every 10 ms) reads every counter and gauge of the
registry it is attached to (:meth:`ProbeSampler.attach`) and appends each
value to a fixed-size :class:`ProbeRing` time series.  Histograms are not
sampled.  A series is named after its metric and labels, e.g.
``pinned_free_slots`` or ``pipeline_ready{stage=prepare}``; a metric
created after the first sweep gets its series at the next one.

Design constraints, mirroring the tracer's contract:

- **zero-cost when disabled** — ``ProbeSampler(enabled=False)`` ignores
  :meth:`~ProbeSampler.attach`, starts no thread, and every method is a
  cheap no-op;
- **bounded memory** — each series is a preallocated ring of ``capacity``
  samples; wraparound drops the *oldest* samples and counts them, never
  growing;
- **non-perturbing** — a sweep only reads metric values on the sampler
  thread; nothing the runtime does depends on being watched;
- **self-accounting** — the sampler measures its own CPU time, so tests
  can assert the monitoring overhead stays below a budget
  (:meth:`ProbeSampler.overhead_fraction`).

Series share a clock with the tracer when constructed with
``clock=tracer.now``, which is what lets the Chrome-trace export render
the window gauges as counter tracks *under* the span Gantt
(:meth:`ProbeSampler.counter_track_events`, ``ph="C"`` events).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .metrics import Histogram, LabelKey, Metric, MetricsRegistry

__all__ = ["ProbeRing", "ProbeSampler", "DEFAULT_PROBE_INTERVAL"]

#: default sampling period in seconds (10 ms)
DEFAULT_PROBE_INTERVAL = 0.01

#: default per-series capacity (samples retained before wraparound)
DEFAULT_RING_CAPACITY = 4096


class ProbeRing:
    """Fixed-capacity (timestamp, value) time series with wraparound.

    Appending beyond ``capacity`` overwrites the oldest sample;
    :attr:`dropped` counts how many were lost.  :meth:`series` returns the
    retained window in chronological order.
    """

    __slots__ = ("name", "capacity", "_t", "_v", "_written")

    def __init__(self, name: str, capacity: int = DEFAULT_RING_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._t = np.empty(capacity, dtype=np.float64)
        self._v = np.empty(capacity, dtype=np.float64)
        self._written = 0  # total samples ever appended

    def append(self, t: float, value: float) -> None:
        slot = self._written % self.capacity
        self._t[slot] = t
        self._v[slot] = value
        self._written += 1

    def __len__(self) -> int:
        """Samples currently retained (<= capacity)."""
        return min(self._written, self.capacity)

    @property
    def total(self) -> int:
        """Samples ever appended (retained + dropped)."""
        return self._written

    @property
    def dropped(self) -> int:
        """Oldest samples lost to wraparound."""
        return max(0, self._written - self.capacity)

    def series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(timestamps, values) of the retained window, oldest first."""
        n = len(self)
        if self._written <= self.capacity:
            return self._t[:n].copy(), self._v[:n].copy()
        start = self._written % self.capacity
        order = np.concatenate([np.arange(start, self.capacity), np.arange(start)])
        return self._t[order], self._v[order]

    def summary(self) -> dict:
        """Scalar digest of the retained window (NaNs when empty)."""
        _, values = self.series()
        empty = values.size == 0
        return {
            "count": int(len(self)),
            "total": int(self._written),
            "dropped": int(self.dropped),
            "mean": None if empty else float(values.mean()),
            "min": None if empty else float(values.min()),
            "max": None if empty else float(values.max()),
            "last": None if empty else float(values[-1]),
        }

    def to_doc(self, max_points: Optional[int] = None) -> dict:
        """JSON-serializable description (the RunReport ``probes`` entry).

        ``max_points`` decimates the series by striding (keeping the last
        sample) so reports stay small even at 1 ms intervals.
        """
        t, v = self.series()
        if max_points is not None and t.size > max_points:
            idx = np.linspace(0, t.size - 1, max_points).round().astype(np.int64)
            t, v = t[idx], v[idx]
        return {
            "name": self.name,
            "capacity": self.capacity,
            **self.summary(),
            "t": [round(float(x), 6) for x in t],
            "values": [float(x) for x in v],
        }


def _series_name(metric: Metric) -> str:
    """A metric's series name: ``name`` or ``name{label=value,...}``."""
    if not metric.labels:
        return metric.name
    labels = ",".join(f"{key}={value}" for key, value in metric.labels)
    return f"{metric.name}{{{labels}}}"


class ProbeSampler:
    """Background thread sampling one registry's counters and gauges.

    Parameters
    ----------
    interval:
        Seconds between sampling sweeps (default 10 ms).
    capacity:
        Per-series ring capacity.
    enabled:
        ``False`` makes every method a no-op: :meth:`attach` is ignored,
        no thread starts, no memory is held — the disabled-tracer contract.
    clock:
        Timestamp source for samples; pass ``tracer.now`` so probe series
        and spans share one time axis.  Defaults to seconds since the
        sampler's construction.
    """

    def __init__(
        self,
        interval: float = DEFAULT_PROBE_INTERVAL,
        capacity: int = DEFAULT_RING_CAPACITY,
        enabled: bool = True,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.enabled = enabled
        self.interval = interval
        self.capacity = capacity
        self._origin = time.perf_counter()
        self._clock = clock or (lambda: time.perf_counter() - self._origin)
        self._lock = threading.Lock()
        self._registry: Optional[MetricsRegistry] = None
        #: one ring per sampled metric, keyed by its (name, labels)
        self._rings: Dict[Tuple[str, LabelKey], ProbeRing] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._busy_seconds = 0.0
        self._monitored_seconds = 0.0
        self._started_at: Optional[float] = None

    def attach(self, registry: MetricsRegistry) -> None:
        """Sample every counter and gauge of ``registry`` from now on
        (ignored when disabled)."""
        if self.enabled:
            self._registry = registry

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_once(self) -> int:
        """One synchronous sweep over the attached registry; returns the
        samples taken.

        The sweep's cost is the CPU time of the sweeping thread
        (``time.thread_time``), not its wall time: waits for the GIL behind
        the threads it watches are not work the sampler adds.
        """
        registry = self._registry
        if not self.enabled or registry is None:
            return 0
        t0 = time.thread_time()
        now = self._clock()
        taken = 0
        # Rings are keyed by identity, so the sweep takes the metrics in
        # registration order; sorting them would only cost time.
        for metric in registry:
            if isinstance(metric, Histogram):
                continue
            key = (metric.name, metric.labels)
            ring = self._rings.get(key)
            if ring is None:
                ring = ProbeRing(_series_name(metric), capacity=self.capacity)
                with self._lock:
                    self._rings[key] = ring
            ring.append(now, float(metric.value))
            taken += 1
        self._busy_seconds += time.thread_time() - t0
        return taken

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def start(self) -> "ProbeSampler":
        """Start the background sampling thread (no-op when disabled)."""
        if not self.enabled or self._thread is not None:
            return self
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="probe-sampler"
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread after one final sweep (so short runs still record)."""
        if not self.enabled or self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=10)
        self._thread = None
        self.sample_once()
        if self._started_at is not None:
            self._monitored_seconds += time.perf_counter() - self._started_at
            self._started_at = None

    @property
    def running(self) -> bool:
        return self._thread is not None

    def __enter__(self) -> "ProbeSampler":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def ring(self, name: str) -> Optional[ProbeRing]:
        """The series called ``name`` (e.g. ``pipeline_ready{stage=prepare}``)."""
        return next((ring for ring in self.rings() if ring.name == name), None)

    def rings(self) -> List[ProbeRing]:
        with self._lock:
            rings = list(self._rings.values())
        return sorted(rings, key=lambda ring: ring.name)

    def overhead_fraction(self) -> float:
        """Sweep busy time / monitored wall time (0.0 before any sampling).

        This is the sampler's *own* cost: CPU seconds its sweeps spent
        reading the registry and appending to rings, divided by the wall
        seconds the sampler has been running.  The overhead budget test asserts this
        stays under 2% at the default 10 ms interval.
        """
        monitored = self._monitored_seconds
        if self._started_at is not None:
            monitored += time.perf_counter() - self._started_at
        if monitored <= 0.0:
            return 0.0
        return self._busy_seconds / monitored

    def counter_track_events(self, pid: int = 1) -> List[dict]:
        """Chrome trace-event counter tracks (``ph="C"``), one per series.

        Merged into :meth:`Tracer.to_chrome_trace`'s event list these
        render in Perfetto as numeric tracks under the span Gantt: the
        prepare window, free pinned slots, split ops over the same time
        axis as the stage spans (requires ``clock=tracer.now``).
        """
        events: List[dict] = []
        for ring in self.rings():
            t, v = ring.series()
            for ts, value in zip(t, v):
                events.append(
                    {
                        "ph": "C",
                        "name": ring.name,
                        "cat": "probe",
                        "ts": float(ts) * 1e6,
                        "pid": pid,
                        "args": {"value": float(value)},
                    }
                )
        return events

    def to_doc(self, max_points: Optional[int] = 512) -> dict:
        """JSON-serializable snapshot (the RunReport ``probes`` section)."""
        return {
            "interval_s": self.interval,
            "capacity": self.capacity,
            "overhead_fraction": self.overhead_fraction(),
            "series": [ring.to_doc(max_points=max_points) for ring in self.rings()],
        }
