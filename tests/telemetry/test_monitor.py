"""ProbeSampler / ProbeRing: continuous-monitoring contract tests."""

import threading
import time

import numpy as np
import pytest

from repro.telemetry.monitor import (
    DEFAULT_PROBE_INTERVAL,
    ProbeRing,
    ProbeSampler,
)


class TestProbeRing:
    def test_append_and_series_in_order(self):
        ring = ProbeRing("q", unit="batches", capacity=8)
        for i in range(5):
            ring.append(float(i), float(i * 10))
        t, v = ring.series()
        assert list(t) == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert list(v) == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert len(ring) == 5
        assert ring.dropped == 0

    def test_wraparound_keeps_newest_chronologically(self):
        ring = ProbeRing("q", capacity=4)
        for i in range(10):
            ring.append(float(i), float(i))
        assert len(ring) == 4
        assert ring.total == 10
        assert ring.dropped == 6
        t, v = ring.series()
        # Oldest-first window of the last `capacity` samples.
        assert list(t) == [6.0, 7.0, 8.0, 9.0]
        assert list(v) == [6.0, 7.0, 8.0, 9.0]

    def test_wraparound_exactly_at_capacity_boundary(self):
        ring = ProbeRing("q", capacity=3)
        for i in range(3):
            ring.append(float(i), float(i))
        t, _ = ring.series()
        assert list(t) == [0.0, 1.0, 2.0]
        ring.append(3.0, 3.0)  # first overwrite
        t, _ = ring.series()
        assert list(t) == [1.0, 2.0, 3.0]
        assert ring.dropped == 1

    def test_summary_and_doc(self):
        ring = ProbeRing("depth", unit="batches", capacity=16)
        for i in range(4):
            ring.append(float(i), float(i))
        summary = ring.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(1.5)
        assert summary["min"] == 0.0
        assert summary["max"] == 3.0
        assert summary["last"] == 3.0
        doc = ring.to_doc()
        assert doc["name"] == "depth"
        assert doc["unit"] == "batches"
        assert doc["values"] == [0.0, 1.0, 2.0, 3.0]

    def test_doc_decimation_keeps_endpoints(self):
        ring = ProbeRing("q", capacity=1000)
        for i in range(1000):
            ring.append(float(i), float(i))
        doc = ring.to_doc(max_points=100)
        assert len(doc["t"]) == 100
        assert doc["t"][0] == 0.0
        assert doc["t"][-1] == 999.0

    def test_empty_summary_has_none_stats(self):
        summary = ProbeRing("q").summary()
        assert summary["count"] == 0
        assert summary["mean"] is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ProbeRing("q", capacity=0)


class TestProbeSamplerDisabled:
    """The zero-cost-when-disabled contract (mirrors the tracer's)."""

    def test_disabled_registers_nothing_and_starts_no_thread(self):
        sampler = ProbeSampler(enabled=False)
        sampler.add_probe("x", lambda: 1.0)
        assert sampler.probe_names() == []
        assert sampler.sample_once() == 0
        before = threading.active_count()
        with sampler:
            assert not sampler.running
            assert threading.active_count() == before
        assert sampler.rings() == []
        assert sampler.to_doc()["series"] == []

    def test_disabled_holds_no_ring_memory(self):
        sampler = ProbeSampler(enabled=False)
        for i in range(100):
            sampler.add_probe(f"p{i}", lambda: 0.0)
        assert sampler._rings == {}
        assert sampler._probes == {}


class TestProbeSampler:
    def test_sample_once_records_each_probe(self):
        sampler = ProbeSampler(interval=0.001)
        values = iter(range(100))
        sampler.add_probe("counter", lambda: next(values), unit="n")
        assert sampler.sample_once() == 1
        assert sampler.sample_once() == 1
        t, v = sampler.ring("counter").series()
        assert list(v) == [0.0, 1.0]
        assert list(t) == sorted(t)

    def test_background_thread_samples_and_stops(self):
        sampler = ProbeSampler(interval=0.002)
        sampler.add_probe("x", lambda: 42.0)
        with sampler:
            assert sampler.running
            time.sleep(0.05)
        assert not sampler.running
        ring = sampler.ring("x")
        assert len(ring) >= 2  # several sweeps plus the final one
        assert all(v == 42.0 for v in ring.series()[1])

    def test_failing_probe_is_disabled_not_fatal(self):
        sampler = ProbeSampler(interval=0.001)
        sampler.add_probe("good", lambda: 1.0)
        sampler.add_probe("bad", lambda: 1 / 0)
        sampler.sample_once()
        sampler.sample_once()
        assert "bad" in sampler.errors
        assert "ZeroDivisionError" in sampler.errors["bad"]
        assert sampler.probe_names() == ["good"]
        assert len(sampler.ring("good")) == 2

    def test_reregistration_swaps_fn_but_keeps_series(self):
        # Epoch 2 re-registers the same probe name over a fresh queue; the
        # recorded series must stay continuous.
        sampler = ProbeSampler(interval=0.001)
        sampler.add_probe("q", lambda: 1.0)
        sampler.sample_once()
        sampler.add_probe("q", lambda: 2.0)
        sampler.sample_once()
        _, v = sampler.ring("q").series()
        assert list(v) == [1.0, 2.0]

    def test_remove_probe_keeps_recorded_series(self):
        sampler = ProbeSampler(interval=0.001)
        sampler.add_probe("q", lambda: 5.0)
        sampler.sample_once()
        sampler.remove_probe("q")
        assert sampler.probe_names() == []
        assert len(sampler.ring("q")) == 1

    def test_shared_clock_with_tracer(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        sampler = ProbeSampler(interval=0.001, clock=tracer.now)
        sampler.add_probe("x", lambda: 0.0)
        before = tracer.now()
        sampler.sample_once()
        after = tracer.now()
        t, _ = sampler.ring("x").series()
        assert before <= t[0] <= after

    def test_counter_track_events_format(self):
        sampler = ProbeSampler(interval=0.001)
        sampler.add_probe("queue_depth/prepare", lambda: 3.0, unit="batches")
        sampler.sample_once()
        events = sampler.counter_track_events(pid=7)
        assert len(events) == 1
        event = events[0]
        assert event["ph"] == "C"
        assert event["cat"] == "probe"
        assert event["pid"] == 7
        assert event["name"] == "queue_depth/prepare (batches)"
        assert event["args"] == {"value": 3.0}
        assert event["ts"] >= 0.0

    def test_counter_tracks_merge_into_chrome_trace(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        with tracer.span("sample", "cpu:0", 0):
            pass
        sampler = ProbeSampler(interval=0.001, clock=tracer.now)
        sampler.add_probe("q", lambda: 1.0)
        sampler.sample_once()
        doc = tracer.to_chrome_trace(probes=sampler)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "C" in phases and "X" in phases

    def test_to_doc_is_json_serializable(self):
        import json

        sampler = ProbeSampler(interval=0.001)
        sampler.add_probe("x", lambda: 1.5)
        sampler.sample_once()
        doc = sampler.to_doc()
        json.dumps(doc)
        assert doc["interval_s"] == 0.001
        assert doc["series"][0]["name"] == "x"

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            ProbeSampler(interval=0.0)


class TestOverheadBudget:
    def test_overhead_under_two_percent_on_smoke_epoch(self):
        """ISSUE acceptance: monitoring overhead <= 2% at the default 10 ms
        interval while a real (smoke-scale) training epoch runs."""
        from dataclasses import replace

        from repro.datasets import get_dataset
        from repro.train import Trainer, get_config

        dataset = get_dataset("arxiv", scale=0.05, seed=0)
        config = replace(get_config("arxiv", "sage"), batch_size=48)
        sampler = ProbeSampler(interval=DEFAULT_PROBE_INTERVAL)
        trainer = Trainer(
            dataset, config, executor="pipelined", sampler="fast", probes=sampler
        )
        with sampler:
            trainer.train_epoch(0)
            # Give the sampler a few guaranteed sweeps even on a fast box.
            time.sleep(5 * DEFAULT_PROBE_INTERVAL)
        trainer.shutdown()
        assert sampler.ring("queue_depth/prepare") is not None
        assert sampler.overhead_fraction() <= 0.02, (
            f"probe overhead {sampler.overhead_fraction():.4f} exceeds 2%"
        )

    def test_overhead_fraction_zero_before_any_sampling(self):
        assert ProbeSampler().overhead_fraction() == 0.0


class TestPipelineProbeWiring:
    """Overlapped runs register queue/occupancy probes; serial runs don't."""

    def _run(self, executor, sampler_kind, probes, **runtime):
        from dataclasses import replace

        from repro.datasets import get_dataset
        from repro.train import Trainer, get_config

        dataset = get_dataset("arxiv", scale=0.05, seed=0)
        config = replace(get_config("arxiv", "sage"), batch_size=48)
        trainer = Trainer(
            dataset,
            config,
            executor=executor,
            sampler=sampler_kind,
            probes=probes,
            **runtime,
        )
        with probes:
            trainer.train_epoch(0)
        trainer.shutdown()

    def test_pipelined_run_records_expected_series(self):
        probes = ProbeSampler(interval=0.001)
        self._run("pipelined", "fast", probes)
        names = {ring.name for ring in probes.rings()}
        assert "pipeline/input_queue_depth" in names
        assert "pipeline/in_flight_envelopes" in names
        assert "queue_depth/prepare" in names
        assert "stage_occupancy/prepare" in names
        assert "pinned_pool/free_slots" in names
        assert "workspace/pooled_bytes" in names
        # Run-scoped probes are unregistered when the epoch drains; the
        # trainer-scoped pool/workspace probes stay live.
        live = set(probes.probe_names())
        assert "queue_depth/prepare" not in live
        assert "pinned_pool/free_slots" in live
        assert not probes.errors

    def test_multiprocess_run_records_stage_occupancy(self):
        """Worker-process occupancy is the dispatch threads' occupancy: one
        thread drives one process, so the stage probe is the only one."""
        probes = ProbeSampler(interval=0.001)
        self._run("multiprocess", "fast", probes, mp_start_method="fork")
        names = {ring.name for ring in probes.rings()}
        assert "stage_occupancy/prepare" in names
        assert "pinned_pool/free_slots" in names
        assert not [name for name in names if name.startswith("mp_prepare/")]
        _, busy = probes.ring("stage_occupancy/prepare").series()
        assert np.all((busy >= 0) & (busy <= 2))
        assert not probes.errors

    def test_values_are_within_physical_bounds(self):
        probes = ProbeSampler(interval=0.001)
        self._run("pipelined", "fast", probes)
        _, depths = probes.ring("queue_depth/prepare").series()
        assert np.all(depths >= 0)
        _, util = probes.ring("pinned_pool/utilization").series()
        assert np.all((util >= 0.0) & (util <= 1.0))
