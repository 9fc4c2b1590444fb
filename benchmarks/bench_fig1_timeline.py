"""Figure 1 — mini-batch timeline: standard PyTorch workflow vs SALIENT.

Runs a slice of a products epoch under both policies with tracing on a
bandwidth-metered device (:func:`repro.train.figure1_timelines`, the
implementation ``repro timeline`` prints), and renders the two ASCII Gantt
charts. The paper's qualitative picture must emerge: the serial workflow
leaves the GPU lane idle while the caller samples, slices and transfers,
while SALIENT prepares on cpu workers, keeps the dma lane full and computes
as soon as a batch lands — a busier GPU lane and a shorter trace.
"""

import pytest

from repro.telemetry import render_timeline
from repro.train import figure1_timelines

from common import emit

NUM_BATCHES = 8


@pytest.fixture(scope="module")
def traces(bench_datasets):
    return figure1_timelines(bench_datasets["products"], NUM_BATCHES)


def test_fig1_report(benchmark, traces):
    benchmark.pedantic(_emit_report, args=(traces,), rounds=1, iterations=1)


def _emit_report(traces):
    text = "\n\n".join(
        f"Figure 1{title} - epoch {stats.epoch_time * 1000:.0f} ms, "
        f"GPU busy {100 * tracer.gpu_utilization():.0f}%\n"
        + render_timeline(tracer, width=96)
        for title, tracer, stats in traces
    )
    emit("fig1_timeline", text)
    (_, serial_tracer, serial_stats), (_, pipe_tracer, pipe_stats) = traces
    # SALIENT keeps the GPU busier and finishes sooner
    assert pipe_tracer.gpu_utilization() > serial_tracer.gpu_utilization()
    assert pipe_stats.epoch_time < serial_stats.epoch_time


def test_benchmark_traced_pipeline(benchmark, bench_datasets):
    benchmark.pedantic(
        figure1_timelines,
        args=(bench_datasets["products"], NUM_BATCHES),
        rounds=1,
        iterations=1,
    )
