"""Seconds histograms of the metric registry (count / sum / mean / merge),
and table/bar rendering."""

import math
import time
from contextlib import contextmanager

import pytest

from repro.telemetry import (
    MetricsRegistry,
    format_bar_chart,
    format_seconds,
    format_table,
)


@contextmanager
def _timed(histogram):
    """Observe the block's elapsed seconds into ``histogram``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        histogram.observe(time.perf_counter() - start)


class TestTimer:
    """A seconds histogram keeps the accumulating-stopwatch surface
    (``count`` / ``sum`` / ``mean`` / ``merge``) benches print through."""

    def test_reset(self):
        registry = MetricsRegistry()
        with _timed(registry.histogram("t")):
            pass
        registry.reset()
        assert registry.get("t") is None and registry.value("t") == 0.0

    def test_mean_of_empty(self):
        assert math.isnan(MetricsRegistry().histogram("t").mean)

    def test_merge_accumulates_totals_and_counts(self):
        left, right = MetricsRegistry().histogram("t"), MetricsRegistry().histogram("t")
        for seconds in (0.4, 0.6):
            left.observe(seconds)
        for seconds in (0.1, 0.2, 0.2):
            right.observe(seconds)
        left.merge(right)
        assert left.sum == pytest.approx(1.5)
        assert left.count == 5
        # The source stopwatch is untouched.
        assert right.sum == pytest.approx(0.5) and right.count == 3


class TestStageTimers:
    """One seconds histogram per stage label replaces the old
    ``StageTimers`` set."""

    @staticmethod
    def _time(registry, stage):
        return _timed(registry.histogram("stage_seconds", stage=stage))

    @staticmethod
    def _stages(registry):
        return {dict(m.labels)["stage"] for m in registry.collect("stage_seconds")}

    def test_named_accumulation(self):
        timers = MetricsRegistry()
        with self._time(timers, "sample"):
            time.sleep(0.001)
        with self._time(timers, "sample"):
            pass
        with self._time(timers, "train"):
            pass
        assert timers.histogram("stage_seconds", stage="sample").count == 2
        assert self._stages(timers) == {"sample", "train"}

    def test_reset_all(self):
        timers = MetricsRegistry()
        with self._time(timers, "x"):
            pass
        timers.reset()
        assert timers.value("stage_seconds", stage="x") == 0.0

    def test_merge_is_name_wise(self):
        pool, worker = MetricsRegistry(), MetricsRegistry()
        with self._time(pool, "sample"):
            pass
        with self._time(worker, "sample"):
            pass
        with self._time(worker, "slice"):
            pass
        pool.merge(worker)
        assert pool.histogram("stage_seconds", stage="sample").count == 2
        assert pool.histogram("stage_seconds", stage="slice").count == 1
        assert self._stages(pool) == {"sample", "slice"}


class TestFormatting:
    def test_format_seconds_scales(self):
        assert format_seconds(13.9) == "13.9s"
        assert format_seconds(2.42) == "2.42s"
        assert format_seconds(0.0123) == "12.3ms"
        assert format_seconds(45e-6) == "45us"

    def test_format_table_alignment(self):
        rows = [
            {"dataset": "arxiv", "epoch": 1.7},
            {"dataset": "products", "epoch": 8.6},
        ]
        out = format_table(rows, title="Table 1")
        lines = out.splitlines()
        assert lines[0] == "Table 1"
        assert "dataset" in lines[1] and "epoch" in lines[1]
        assert "products" in out

    def test_format_table_empty(self):
        assert "empty" in format_table([])

    def test_format_table_golden_output(self):
        rows = [
            {"dataset": "arxiv", "epoch_s": 1.5, "speedup": "2.0x"},
            {"dataset": "products", "epoch_s": 12.25, "speedup": "1.5x"},
        ]
        golden = "\n".join(
            [
                "Table",
                "dataset   epoch_s  speedup",
                "-" * 26,
                "arxiv     1.5      2.0x   ",
                "products  12.25    1.5x   ",
            ]
        )
        assert format_table(rows, title="Table") == golden

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        out = format_table(rows, columns=["b"])
        assert "a" not in out.splitlines()[0]

    def test_bar_chart_scales_to_peak(self):
        out = format_bar_chart(["x", "yy"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_bar_chart_empty(self):
        assert format_bar_chart([], []) == "(empty)"

    def test_bar_chart_zero_values(self):
        out = format_bar_chart(["a"], [0.0])
        assert "a" in out


class TestCounters:
    """The registry's counters keep the guarantees the former integer-only
    sink gave the arena/slicer ledgers: default zero, copy-out snapshots,
    additive merge, reset, and no lost updates under contention."""

    def test_inc_and_default_zero(self):
        registry = MetricsRegistry()
        assert registry.value("missing") == 0
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        assert registry.value("a") == 5
        assert isinstance(registry.value("a"), int)
        assert registry.get("a") is not None
        assert registry.get("missing") is None

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        snap = registry.snapshot()
        snap[0]["value"] = 99
        snap.append({"name": "b"})
        assert registry.value("a") == 2
        assert [m.name for m in registry.collect()] == ["a"]

    def test_merge_counters_and_mappings(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("a").inc(1)
        right.counter("a").inc(2)
        right.counter("b").inc(3)
        left.merge(right)
        for name, value in {"b": 1, "c": 5}.items():
            left.counter(name).inc(value)
        assert {m.name: m.value for m in left.collect()} == {"a": 3, "b": 4, "c": 5}
        assert all(isinstance(m.value, int) for m in left.collect())

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.snapshot() == []

    def test_thread_safety_under_contention(self):
        import threading

        registry = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                registry.counter("hits").inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.value("hits") == 8000
