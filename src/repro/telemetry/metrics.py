"""Labelled metrics registry: counters, gauges, histograms.

:class:`MetricsRegistry` is the runtime's single source of truth for
quantitative observability.  It models three metric kinds, each addressed
by a name plus a label set (``stage="slice"``, ``dataset="products"``):

- :class:`Counter` — monotonic accumulator (event counts stay ``int``,
  accumulated seconds are ``float``);
- :class:`Gauge` — last-written value (queue depth, free pinned slots);
- :class:`Histogram` — fixed-bucket distribution with exact ``count`` /
  ``sum`` / ``min`` / ``max`` and interpolated p50/p90/p99.  Two histograms
  over the same bucket boundaries merge associatively, so per-worker or
  per-epoch registries aggregate into pool views.

All metrics are thread-safe (pipeline workers share one registry) and the
registry itself merges: ``registry.merge(other)`` accumulates counters,
takes the latest gauge, and bucket-wise adds histograms.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterator, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
]

#: Default histogram boundaries for durations in seconds: log-spaced
#: 1-2.5-5 decades from 1us to 100s.  Everything above the last boundary
#: lands in the overflow bucket.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = tuple(
    base * 10.0 ** exponent
    for exponent in range(-6, 3)
    for base in (1.0, 2.5, 5.0)
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base: identity (name + labels) and a per-metric lock."""

    kind = "metric"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()

    @property
    def label_dict(self) -> Dict[str, str]:
        return dict(self.labels)

    def describe(self) -> dict:
        """JSON-serializable snapshot (RunReport's ``metrics`` entries)."""
        return {"name": self.name, "labels": self.label_dict, "kind": self.kind}


class Counter(Metric):
    """Monotonic accumulator."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge")
        with self._lock:
            self.value += amount

    def describe(self) -> dict:
        return {**super().describe(), "value": self.value}

    def _merge(self, other: "Counter") -> None:
        with self._lock:
            self.value += other.value


class Gauge(Metric):
    """Last-written value."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def describe(self) -> dict:
        return {**super().describe(), "value": self.value}

    def _merge(self, other: "Gauge") -> None:
        with self._lock:
            self.value = other.value


class Histogram(Metric):
    """Fixed-bucket distribution with exact moments and merge support.

    ``buckets`` are the upper boundaries of each bin (ascending); one
    overflow bin collects everything beyond the last boundary.  ``count``,
    ``sum``, ``min`` and ``max`` are exact; percentiles interpolate within
    the containing bucket and clamp to the observed [min, max], so an empty
    histogram reports NaN and a single-sample histogram reports the sample
    itself at every percentile.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelKey,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        super().__init__(name, labels)
        boundaries = tuple(float(b) for b in buckets)
        if not boundaries or any(
            b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])
        ):
            raise ValueError("buckets must be non-empty and strictly increasing")
        self.buckets = boundaries
        self.counts = [0] * (len(boundaries) + 1)  # +1 = overflow bin
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        index = self._bucket_index(value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self.buckets)
        while lo < hi:  # first boundary >= value (bisect_left)
            mid = (lo + hi) // 2
            if self.buckets[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def percentile(self, p: float) -> float:
        """Interpolated percentile, ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            if self.count == 0:
                return float("nan")
            target = p / 100.0 * self.count
            cumulative = 0
            for i, bin_count in enumerate(self.counts):
                if bin_count == 0:
                    continue
                lo = self.buckets[i - 1] if i > 0 else self.min
                hi = self.buckets[i] if i < len(self.buckets) else self.max
                if cumulative + bin_count >= target:
                    fraction = (target - cumulative) / bin_count
                    value = lo + fraction * (hi - lo)
                    return min(max(value, self.min), self.max)
                cumulative += bin_count
            return self.max

    def merge(self, other: "Histogram") -> None:
        """Bucket-wise accumulate ``other`` (same boundaries required).

        ``other`` is snapshotted under *its* lock first: reading its bins
        while a concurrent ``observe`` runs can otherwise tear the read —
        e.g. pick up ``count``/``sum`` but miss the matching overflow
        (+Inf) bucket increment, silently losing tail samples.  The two
        locks are never held together, so merges in any direction cannot
        deadlock.
        """
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.name}{dict(self.labels)}"
            )
        with other._lock:
            counts = list(other.counts)
            count, total = other.count, other.sum
            lo, hi = other.min, other.max
        with self._lock:
            for i, bin_count in enumerate(counts):
                self.counts[i] += bin_count
            self.count += count
            self.sum += total
            self.min = min(self.min, lo)
            self.max = max(self.max, hi)

    _merge = merge

    def describe(self) -> dict:
        empty = self.count == 0
        return {
            **super().describe(),
            "count": self.count,
            "sum": self.sum,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "p50": None if empty else self.percentile(50),
            "p90": None if empty else self.percentile(90),
            "p99": None if empty else self.percentile(99),
        }


class MetricsRegistry:
    """Thread-safe collection of labelled metrics.

    A metric is identified by ``(kind-independent name, labels)``.
    Re-requesting the same identity returns the same object; requesting it
    as a *different kind* is a label collision and raises ``TypeError`` —
    silent kind swaps would corrupt merge semantics.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Metric] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Accessors (get-or-create)
    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, labels: Dict[str, object], **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = cls(name, key[1], **kwargs)
            elif type(metric) is not cls:
                raise TypeError(
                    f"metric {name!r} with labels {dict(key[1])} already "
                    f"registered as {metric.kind}, requested {cls.kind}"
                )
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        **labels,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, name: str, **labels) -> Optional[Metric]:
        """The metric at this identity, or None (never creates)."""
        with self._lock:
            return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """Scalar view: counter/gauge value, histogram *sum*."""
        metric = self.get(name, **labels)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.sum
        return metric.value

    def __iter__(self) -> Iterator[Metric]:
        """Every metric, in registration order (a snapshot; unsorted)."""
        with self._lock:
            return iter(list(self._metrics.values()))

    def collect(self, name: Optional[str] = None) -> list[Metric]:
        """Every metric (optionally filtered by name), label-sorted."""
        metrics = list(self)
        if name is not None:
            metrics = [m for m in metrics if m.name == name]
        return sorted(metrics, key=lambda m: (m.name, m.labels))

    def snapshot(self) -> list[dict]:
        """JSON-serializable description of every metric."""
        return [metric.describe() for metric in self.collect()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Accumulate ``other`` into this registry.

        Counter and histogram values add; gauges take ``other``'s value (it is
        the more recent observation); missing metrics are deep-copied in
        kind-faithfully.  Merging is associative for counters/histograms,
        which is what lets per-epoch and per-worker registries aggregate
        into long-lived pool registries in any grouping.
        """
        with other._lock:
            items = list(other._metrics.items())
        for (name, labels), metric in items:
            if isinstance(metric, Histogram):
                mine = self._get_or_create(
                    type(metric), name, dict(labels), buckets=metric.buckets
                )
            else:
                mine = self._get_or_create(type(metric), name, dict(labels))
            mine._merge(metric)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self)} metrics)"
