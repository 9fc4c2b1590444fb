"""Figure 2 — exhaustive exploration of sampler optimization parameters.

Methodology mirrors Section 4.1's microbenchmark: build a reference
hop-by-hop trace (the frontiers of sampled MFGs for products mini-batches),
then time *each individual hop* under all 96 parameterized sampler
variants, reporting throughput relative to the PyG-like baseline variant
(dict map + hash-set rejection + staged construction).

Expected shape on this substrate: selection strategy dominates (the
vectorizable random-keys method far outruns per-element scans), fusing
never hurts, and the fully vectorized ``FastNeighborSampler`` (the
production implementation of the winning choices) clears the paper's ~2.5x
bar over the baseline. The paper's C++-specific findings (swiss-table map
2x, array set +17%) do not transfer verbatim to CPython, where dict/set are
already C-optimized — see EXPERIMENTS.md for the discussion.
"""

import time

import numpy as np
import pytest

from repro.sampling import (
    BASELINE_VARIANT,
    WINNING_VARIANT,
    ParameterizedSampler,
    PyGNeighborSampler,
    all_variants,
)
from repro.sampling.arena import SamplerArena, expand_frontier_arena
from repro.telemetry import format_bar_chart, format_table

from common import emit

FANOUTS = [15, 10, 5]
#: the selection row of the variants that run the production hop
PRODUCTION_HOP = "production hop (array/linear_array/*/fused)"
NUM_TRACE_BATCHES = 2
BATCH_SIZE = 128


def build_reference_trace(dataset):
    """Hop-by-hop frontiers from real sampled MFGs (the paper's trace)."""
    sampler = PyGNeighborSampler(dataset.graph, FANOUTS)
    rng = np.random.default_rng(0)
    trace = []
    for i in range(NUM_TRACE_BATCHES):
        nodes = rng.choice(dataset.split.train, size=min(BATCH_SIZE, len(dataset.split.train)), replace=False)
        frontier = nodes
        mfg = sampler.sample(nodes, np.random.default_rng(i))
        # reconstruct per-hop frontiers from the telescoping sizes
        sizes = [adj.size for adj in reversed(mfg.adjs)]
        for fanout, size in zip(FANOUTS, sizes):
            trace.append((frontier, fanout))
            frontier = mfg.n_id[: size[0]]
    return trace


def time_variant(graph, trace, variant, repeats=3):
    """Min-of-k timing of one full trace replay (per the ml-systems guide:
    interpreter noise is one-sided, so the minimum is the robust signal)."""
    rng = np.random.default_rng(42)
    # one sampler per variant: its scratch (ID-map array, arena) persists
    # across hops and replays as it does across a sampler's batches
    sampler = ParameterizedSampler(graph, FANOUTS, variant)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for frontier, fanout in trace:
            sampler.expand_hop(frontier, fanout, rng)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def sweep(bench_datasets):
    dataset = bench_datasets["products"]
    trace = build_reference_trace(dataset)
    # Warm-up: touch every code path once so allocator/caches settle before
    # any timed measurement.
    time_variant(dataset.graph, trace, BASELINE_VARIANT, repeats=1)
    baseline_time = time_variant(dataset.graph, trace, BASELINE_VARIANT)
    results = []
    for variant in all_variants():
        elapsed = time_variant(dataset.graph, trace, variant)
        results.append((variant, baseline_time / elapsed))
    # the production kernel on the same trace (min of 3): what
    # FastNeighborSampler runs per hop, on one arena that persists across
    # hops and replays as it does across a sampler's batches
    rng = np.random.default_rng(42)
    arena = SamplerArena()
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for frontier, fanout in trace:
            expand_frontier_arena(dataset.graph, frontier, fanout, rng, arena)
        best = min(best, time.perf_counter() - start)
    vectorized_speedup = baseline_time / best
    return results, vectorized_speedup


def test_fig2_report(benchmark, sweep):
    benchmark.pedantic(_emit_report, args=(sweep,), rounds=1, iterations=1)


def _emit_report(sweep):
    results, vectorized_speedup = sweep
    ordered = sorted(results, key=lambda item: item[1], reverse=True)
    top = [
        {"variant": v.label(), "speedup_vs_baseline": round(s, 2)}
        for v, s in ordered[:10]
    ]
    bottom = [
        {"variant": v.label(), "speedup_vs_baseline": round(s, 2)}
        for v, s in ordered[-5:]
    ]
    by_knob = {}
    for v, s in results:
        for knob, value in (
            ("id_map", v.id_map),
            ("sample_set", v.sample_set),
            ("fused", str(v.fused)),
        ):
            by_knob.setdefault((knob, value), []).append(s)
        # The production-hop corners ignore their selection knob, so they
        # get a row of their own instead of one term in every selection's.
        selection = PRODUCTION_HOP if v.runs_production_hop else v.selection
        by_knob.setdefault(("selection", selection), []).append(s)
    knob_rows = [
        {"knob": knob, "value": value, "mean_speedup": round(float(np.mean(vals)), 3)}
        for (knob, value), vals in sorted(by_knob.items())
    ]
    winner_speedup = dict((v.label(), s) for v, s in results)[WINNING_VARIANT.label()]
    chart = format_bar_chart(
        [v.label() for v, _ in ordered[:12]],
        [s for _, s in ordered[:12]],
        width=40,
        unit="x",
    )
    text = "\n\n".join(
        [
            "Figure 2 (96 sampler variants, hop-by-hop trace on products; "
            "speedups relative to the PyG-like baseline variant)",
            format_table(top, title="Top 10 variants"),
            format_table(bottom, title="Bottom 5 variants"),
            format_table(knob_rows, title="Mean speedup per design knob"),
            f"Paper's winning configuration ({WINNING_VARIANT.label()}): "
            f"{winner_speedup:.2f}x",
            f"Production vectorized FastNeighborSampler: {vectorized_speedup:.2f}x "
            "(the paper's C++ sampler achieved 2.5x, Table 2)",
            chart,
        ]
    )
    emit("fig2_design_space", text)

    # Shape assertions, phrased for the Python substrate (see EXPERIMENTS.md:
    # the paper's C++ winners - flat map, array set - are near-ties under an
    # interpreter where dict/set are C-optimized; what transfers is that
    # per-edge data-structure choices dominate sampler cost):
    # (a) the production vectorized sampler clears ~2x like the paper's.
    assert vectorized_speedup > 1.7, vectorized_speedup
    # (b) selection strategy dominates: vectorizable random-keys far above
    #     the per-element reservoir scan, over the variants whose selection
    #     knob selects something (the production-hop corners excluded).
    random_keys = by_knob[("selection", "random_keys")]
    reservoir = by_knob[("selection", "reservoir")]
    assert np.mean(random_keys) > 2 * np.mean(reservoir), (
        np.mean(random_keys), np.mean(reservoir)
    )
    # (c) fusing never hurts materially.
    fused_mean = np.mean([s for v, s in results if v.fused])
    staged_mean = np.mean([s for v, s in results if not v.fused])
    assert fused_mean > 0.9 * staged_mean


def test_benchmark_winning_variant_hop(benchmark, bench_datasets):
    dataset = bench_datasets["products"]
    trace = build_reference_trace(dataset)
    frontier, fanout = trace[1]
    rng = np.random.default_rng(0)
    sampler = ParameterizedSampler(dataset.graph, FANOUTS, WINNING_VARIANT)
    benchmark(lambda: sampler.expand_hop(frontier, fanout, rng))


def test_benchmark_baseline_variant_hop(benchmark, bench_datasets):
    dataset = bench_datasets["products"]
    trace = build_reference_trace(dataset)
    frontier, fanout = trace[1]
    rng = np.random.default_rng(0)
    sampler = ParameterizedSampler(dataset.graph, FANOUTS, BASELINE_VARIANT)
    benchmark(lambda: sampler.expand_hop(frontier, fanout, rng))
