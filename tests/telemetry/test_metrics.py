"""MetricsRegistry: metric kinds, percentiles, merge algebra, collisions."""

import math
import threading

import pytest

from repro.telemetry.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_monotonic_accumulation(self):
        registry = MetricsRegistry()
        counter = registry.counter("batches")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("batches") is counter

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("batches")
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 0

    def test_describe(self):
        counter = MetricsRegistry().counter("bytes", stage="slice")
        counter.inc(128)
        doc = counter.describe()
        assert doc == {
            "name": "bytes",
            "labels": {"stage": "slice"},
            "kind": "counter",
            "value": 128,
        }


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("free_slots")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 3.0

    def test_describe_kind(self):
        assert MetricsRegistry().gauge("depth").describe()["kind"] == "gauge"


class TestHistogramBuckets:
    def test_invalid_boundaries_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("h2", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h3", buckets=(2.0, 1.0))

    def test_bucket_assignment_including_overflow(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 11.0, 100.0):
            hist.observe(value)
        # bisect_left: values on a boundary land in that boundary's bin.
        assert hist.counts == [2, 2, 2]
        assert hist.count == 6
        assert hist.sum == pytest.approx(127.5)
        assert hist.min == 0.5 and hist.max == 100.0

    def test_default_time_buckets_are_strictly_increasing(self):
        assert all(
            b2 > b1
            for b1, b2 in zip(DEFAULT_TIME_BUCKETS, DEFAULT_TIME_BUCKETS[1:])
        )
        assert DEFAULT_TIME_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_TIME_BUCKETS[-1] == pytest.approx(500.0)


class TestHistogramPercentiles:
    def test_empty_histogram_reports_nan(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        assert math.isnan(hist.percentile(50))
        assert math.isnan(hist.mean)
        doc = hist.describe()
        assert doc["p50"] is None and doc["min"] is None and doc["max"] is None

    def test_single_sample_is_every_percentile(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        hist.observe(3.7)
        for p in (0, 1, 50, 99, 100):
            assert hist.percentile(p) == pytest.approx(3.7)

    def test_percentiles_clamp_to_observed_range(self):
        hist = MetricsRegistry().histogram("h", buckets=(10.0,))
        hist.observe(4.0)
        hist.observe(6.0)
        assert 4.0 <= hist.percentile(50) <= 6.0
        assert hist.percentile(100) == pytest.approx(6.0)

    def test_interpolation_within_bucket(self):
        hist = MetricsRegistry().histogram("h", buckets=(0.0, 100.0))
        for value in (10.0, 30.0, 50.0, 70.0, 90.0):
            hist.observe(value)
        # All mass in the (0, 100] bin: p50 interpolates inside it.
        p50 = hist.percentile(50)
        assert 10.0 <= p50 <= 90.0
        assert hist.percentile(10) <= p50 <= hist.percentile(90)

    def test_out_of_range_percentile_rejected(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            hist.percentile(-1)
        with pytest.raises(ValueError):
            hist.percentile(101)


def _hist(values, buckets=(1.0, 10.0, 100.0)):
    registry = MetricsRegistry()
    hist = registry.histogram("h", buckets=buckets)
    for value in values:
        hist.observe(value)
    return hist


def _state(hist):
    return (tuple(hist.counts), hist.count, hist.sum, hist.min, hist.max)


class TestHistogramMerge:
    def test_merge_accumulates_counts_and_moments(self):
        left = _hist([0.5, 5.0])
        right = _hist([50.0, 500.0])
        left.merge(right)
        assert left.counts == [1, 1, 1, 1]
        assert left.count == 4
        assert left.sum == pytest.approx(555.5)
        assert left.min == 0.5 and left.max == 500.0

    def test_merge_is_associative(self):
        samples = ([0.1, 2.0], [20.0, 0.7], [300.0, 9.0])
        # (a ⊕ b) ⊕ c
        left = _hist(samples[0])
        left.merge(_hist(samples[1]))
        left.merge(_hist(samples[2]))
        # a ⊕ (b ⊕ c)
        right_tail = _hist(samples[1])
        right_tail.merge(_hist(samples[2]))
        right = _hist(samples[0])
        right.merge(right_tail)
        assert _state(left) == _state(right)
        assert left.percentile(90) == pytest.approx(right.percentile(90))

    def test_merge_with_empty_is_identity(self):
        hist = _hist([0.5, 5.0])
        before = _state(hist)
        hist.merge(_hist([]))
        assert _state(hist) == before

    def test_bucket_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _hist([1.0]).merge(_hist([1.0], buckets=(2.0, 20.0)))

    def test_overflow_bucket_survives_merge_into_empty(self):
        # Regression: samples beyond the last boundary live in the +Inf
        # overflow bin; a merge must carry that bin along with count/sum,
        # in both directions and through the registry-level merge.
        populated = _hist([500.0, 1000.0])  # both in the overflow bin
        assert populated.counts[-1] == 2

        empty = _hist([])
        empty.merge(populated)
        assert empty.counts[-1] == 2
        assert empty.count == 2
        assert empty.sum == pytest.approx(1500.0)
        assert empty.percentile(100) == 1000.0

    def test_overflow_bucket_survives_merge_from_empty(self):
        populated = _hist([500.0])
        populated.merge(_hist([]))
        assert populated.counts[-1] == 1
        assert populated.count == 1

    def test_overflow_bucket_survives_registry_merge(self):
        source = MetricsRegistry()
        source.histogram("h", buckets=(1.0, 10.0)).observe(99.0)
        target = MetricsRegistry()
        target.histogram("h", buckets=(1.0, 10.0))
        target.merge(source)
        merged = target.get("h")
        assert merged.counts[-1] == 1
        assert merged.count == 1

    def test_merge_snapshot_consistent_under_concurrent_observe(self):
        # The merge snapshots ``other`` under its lock, so the sink's
        # invariant count == sum(counts) must hold after every merge even
        # while a writer hammers the overflow bin.
        import threading

        source = _hist([])
        sink = _hist([])
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                source.observe(500.0)  # overflow bin

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                fresh = _hist([])
                fresh.merge(source)
                assert fresh.count == sum(fresh.counts)
                sink.merge(source)
        finally:
            stop.set()
            thread.join()
        assert sink.count == sum(sink.counts)


class TestRegistryIdentity:
    def test_labels_distinguish_metrics(self):
        registry = MetricsRegistry()
        a = registry.counter("rows", stage="sample")
        b = registry.counter("rows", stage="slice")
        assert a is not b
        a.inc(3)
        assert registry.value("rows", stage="sample") == 3
        assert registry.value("rows", stage="slice") == 0

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        assert registry.counter("x", a=1, b=2) is registry.counter("x", b=2, a=1)

    def test_label_values_stringified(self):
        registry = MetricsRegistry()
        assert registry.counter("x", rank=0) is registry.counter("x", rank="0")

    def test_kind_collision_raises_type_error(self):
        registry = MetricsRegistry()
        registry.counter("depth", stage="sample")
        with pytest.raises(TypeError):
            registry.gauge("depth", stage="sample")
        # Same name under different labels is a different identity: fine.
        registry.gauge("depth", stage="slice")

    def test_timer_histogram_collision(self):
        # Seconds are histograms (there is no timer kind); a histogram's
        # identity still cannot be re-requested as a counter.
        registry = MetricsRegistry()
        registry.histogram("wait")
        with pytest.raises(TypeError):
            registry.counter("wait")

    def test_get_never_creates(self):
        registry = MetricsRegistry()
        assert registry.get("absent") is None
        assert len(registry) == 0
        assert registry.value("absent", default=7.5) == 7.5


class TestRegistryQueries:
    def test_value_semantics_per_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(9)
        hist = registry.histogram("h", buckets=(1.0,))
        hist.observe(0.25)
        hist.observe(0.5)
        assert registry.value("c") == 2
        assert registry.value("g") == 9.0
        # Histograms report their *sum* through value().
        assert registry.value("h") == pytest.approx(0.75)

    def test_collect_filters_and_sorts(self):
        registry = MetricsRegistry()
        registry.counter("b", stage="z")
        registry.counter("b", stage="a")
        registry.counter("a")
        names = [(m.name, m.labels) for m in registry.collect()]
        assert names == sorted(names)
        assert [m.labels for m in registry.collect("b")] == [
            (("stage", "a"),),
            (("stage", "z"),),
        ]

    def test_snapshot_is_json_serializable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        json.dumps(registry.snapshot())


class TestRegistryMerge:
    def _populated(self, scale):
        registry = MetricsRegistry()
        registry.counter("batches").inc(2 * scale)
        registry.gauge("depth").set(scale)
        registry.histogram("wait", buckets=(1.0, 10.0)).observe(0.5 * scale)
        registry.histogram("step", buckets=(1.0,)).observe(0.1 * scale)
        return registry

    def test_merge_per_kind_semantics(self):
        left, right = self._populated(1), self._populated(2)
        left.merge(right)
        assert left.value("batches") == 6
        assert left.value("depth") == 2.0  # gauge: other wins
        assert left.histogram("wait", buckets=(1.0, 10.0)).count == 2
        assert left.value("step") == pytest.approx(0.3)

    def test_merge_deep_copies_missing_metrics_kind_faithfully(self):
        source = MetricsRegistry()
        source.histogram("step", buckets=(1.0,)).observe(0.2)
        target = MetricsRegistry()
        target.merge(source)
        copied = target.get("step")
        assert isinstance(copied, Histogram)
        assert copied is not source.get("step")
        copied.observe(0.3)
        assert source.value("step") == pytest.approx(0.2)

    def test_merge_empty_registry_is_identity(self):
        registry = self._populated(1)
        registry.merge(MetricsRegistry())
        assert registry.value("batches") == 2

    def test_reset(self):
        registry = self._populated(1)
        registry.reset()
        assert len(registry) == 0


class TestThreadSafety:
    def test_concurrent_observation_and_creation(self):
        registry = MetricsRegistry()

        def hammer(rank):
            for i in range(500):
                registry.counter("hits").inc()
                registry.histogram(
                    "wait", buckets=(1.0, 10.0), rank=str(rank)
                ).observe(i % 3)

        threads = [threading.Thread(target=hammer, args=(r,)) for r in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.value("hits") == 4000
        assert sum(
            m.count for m in registry.collect("wait")
        ) == 4000

    def test_concurrent_merge(self):
        target = MetricsRegistry()

        def merger():
            source = MetricsRegistry()
            source.counter("n").inc(10)
            source.histogram("h", buckets=(1.0,)).observe(0.5)
            for _ in range(50):
                target.merge(source)

        threads = [threading.Thread(target=merger) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert target.value("n") == 2000
        assert target.histogram("h", buckets=(1.0,)).count == 200
