"""Prepare-only pipeline (``StagedPipeline(PrepareStage(...)).start()``):
coverage, determinism, buffer recycling, telemetry.

This is the seam DDP and the Table 3 "+ shared-memory batch prep" rung use:
worker threads prepare batches end-to-end into pinned slots and the caller
drives the rest itself.
"""

from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph
from repro.runtime import (
    PinnedBufferPool,
    PrepareStage,
    StagedPipeline,
    estimate_max_rows,
)
from repro.runtime.pipeline import SAMPLERS
from repro.sampling import FastNeighborSampler
from repro.slicing import FeatureStore
from repro.telemetry import MetricsRegistry


def make_pool(dataset, num_workers=2, slots=16, prefetch=4, seed=0, metrics=None):
    """A prepare-only pipeline plus the store it slices.

    Envelopes keep their pinned slot until the caller releases them, and
    delivery is in index order, so a multi-worker run needs a slot for every
    batch that can finish ahead of the one being waited for: ``slots``
    defaults to more than any test here prepares (0 = no pinned pool).
    """
    store = FeatureStore(dataset.features, dataset.labels)
    pinned_pool = None
    if slots:
        rows = estimate_max_rows([5, 3], 32, dataset.num_nodes)
        pinned_pool = PinnedBufferPool(
            slots, max_rows=rows, num_features=store.num_features, max_batch=32
        )
    pipeline = StagedPipeline(
        PrepareStage(
            lambda: FastNeighborSampler(dataset.graph, [5, 3]),
            store,
            pinned_pool=pinned_pool,
            workers=num_workers,
        ),
        prefetch_depth=prefetch,
        seed=seed,
        metrics=metrics,
    )
    return pipeline, store


def drain(pipeline, batches):
    """Consume every prepared envelope, copying pinned views before release,
    then close the pipeline (joining its prepare threads).

    Pinned slots are recycled after release, so (like the real device
    transfer) a consumer must copy the staged data out first.
    """
    with closing(pipeline):
        run = pipeline.start(batches)
        out = []
        while True:
            env = run.next_envelope()
            if env is None:
                break
            env.sliced.xs = env.sliced.xs.copy()
            env.sliced.ys = env.sliced.ys.copy()
            env.release_buffer()
            out.append(env)
        run.drain()
    return out


def _batches(dataset, rng, count, size):
    return [rng.choice(dataset.num_nodes, size=size, replace=False) for _ in range(count)]


@st.composite
def sampling_case(draw):
    """A random CSR graph (zero-degree rows and rows exactly as wide as a
    fanout among its cases), fanouts that may be ``None``, a slot sized for
    ``max_batch`` targets and a batch of 1..``max_batch`` nodes."""
    n = draw(st.integers(1, 24))
    rows = [
        draw(st.lists(st.integers(0, n - 1), max_size=min(n, 6), unique=True))
        for _ in range(n)
    ]
    graph = CSRGraph(
        indptr=np.cumsum([0] + [len(row) for row in rows]),
        indices=np.array([v for row in rows for v in row], dtype=np.int64),
    )
    fanouts = draw(
        st.lists(st.one_of(st.none(), st.integers(1, 6)), min_size=1, max_size=3)
    )
    max_batch = draw(st.integers(1, n))
    batch = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=max_batch, unique=True)
    )
    sampler = draw(st.sampled_from(sorted(SAMPLERS)))
    seed = draw(st.integers(0, 2**32 - 1))
    return graph, fanouts, max_batch, np.asarray(batch, dtype=np.int64), sampler, seed


class TestEstimateMaxRows:
    @settings(max_examples=80, deadline=None)
    @given(sampling_case())
    def test_bound_covers_every_sampled_batch(self, case):
        """The bound every staging slot is sized by: no batch either sampler
        draws has more rows, so a batch never outgrows its slot."""
        graph, fanouts, max_batch, batch, sampler, seed = case
        mfg = SAMPLERS[sampler](graph, fanouts).sample(
            batch, np.random.default_rng(seed)
        )
        assert len(mfg.n_id) <= estimate_max_rows(fanouts, max_batch, graph.num_nodes)

    def test_product_bound(self):
        assert estimate_max_rows([2, 3], 10, 10_000) == 10 * 3 * 4

    def test_caps_at_graph_size(self):
        assert estimate_max_rows([50, 50], 1000, 500) == 500

    def test_full_fanout_returns_graph_size(self):
        assert estimate_max_rows([None, 5], 10, 777) == 777


class TestPool:
    def test_all_batches_prepared_once(self, small_products, rng):
        pipeline, _ = make_pool(small_products)
        prepared = drain(pipeline, _batches(small_products, rng, 9, 16))
        assert [env.index for env in prepared] == list(range(9))

    def test_batches_identical_across_worker_counts(self, small_products, rng):
        """Per-batch-index RNG seeding: results don't depend on scheduling."""
        batches = _batches(small_products, rng, 6, 8)
        results = {}
        for workers in (1, 3):
            pipeline, _ = make_pool(small_products, num_workers=workers, seed=7)
            results[workers] = drain(pipeline, batches)
        for one, three in zip(results[1], results[3]):
            np.testing.assert_array_equal(one.sliced.mfg.n_id, three.sliced.mfg.n_id)
            np.testing.assert_array_equal(one.sliced.xs, three.sliced.xs)

    def test_sliced_content_correct(self, small_products, rng):
        pipeline, store = make_pool(small_products)
        sliced = drain(pipeline, _batches(small_products, rng, 1, 16))[0].sliced
        np.testing.assert_array_equal(sliced.xs, store.features[sliced.mfg.n_id])
        np.testing.assert_array_equal(sliced.ys, store.labels[sliced.mfg.target_ids()])

    def test_single_worker_preserves_order(self, small_products, rng):
        """One worker prepares batches in submission order: each batch it
        samples is the next index, and the caller receives them in it."""
        sampled = []

        class RecordingSampler(FastNeighborSampler):
            def sample(self, batch_nodes, rng):
                sampled.append(int(batch_nodes[0]))
                return super().sample(batch_nodes, rng)

        pipeline, _ = make_pool(small_products, num_workers=1)
        pipeline.prepare_stage.sampler_factory = lambda: RecordingSampler(
            small_products.graph, [5, 3]
        )
        batches = _batches(small_products, rng, 5, 8)
        with closing(pipeline):
            run = pipeline.start(batches)
            indices = []
            while (env := run.next_envelope()) is not None:
                np.testing.assert_array_equal(env.nodes, batches[env.index])
                indices.append(env.index)
                env.release_buffer()
            run.drain()
        assert indices == list(range(5))
        assert sampled == [int(nodes[0]) for nodes in batches]

    def test_pinned_buffers_all_recycled(self, small_products, rng):
        """Eight batches through two slots: every slot is reused and all
        come back (one worker completes in order, so two slots suffice)."""
        pipeline, _ = make_pool(small_products, num_workers=1, slots=2, prefetch=2)
        drain(pipeline, _batches(small_products, rng, 8, 16))
        pool = pipeline.pinned_pool
        assert pool.free_slots() == pool.total_slots
        # one wait-time observation per successful acquire
        assert pool.metrics.get("pinned_acquire_wait_seconds").count == 8
        assert pool.metrics.value("pinned_releases") == 8

    def test_works_without_pinned_pool(self, small_products, rng):
        pipeline, _ = make_pool(small_products, slots=0)
        prepared = drain(pipeline, _batches(small_products, rng, 1, 8))
        assert prepared[0].sliced.pinned_slot is None

    def test_invalid_worker_count(self, small_products):
        store = FeatureStore(small_products.features, small_products.labels)
        with pytest.raises(ValueError):
            PrepareStage(
                lambda: FastNeighborSampler(small_products.graph, [3]),
                store,
                workers=0,
            )


class TestPoolCounters:
    def test_pool_aggregates_sampler_and_slice_telemetry(self, small_products, rng):
        pipeline, _ = make_pool(small_products, num_workers=2)
        drain(pipeline, _batches(small_products, rng, 6, 32))
        # Workers attach their arena samplers to the pipeline's shared sink
        # and slice through it, so one registry tells the whole story.
        metrics = pipeline.ctx.metrics
        assert metrics.value("sampler_batches") == 6
        assert metrics.value("slice_batches", pinned="yes") == 6
        assert metrics.value("slice_batches", pinned="no") == 0
        assert metrics.value("slice_bytes", pinned="yes") > 0
        assert metrics.value("arena_grows") > 0

    def test_external_counters_instance_is_used(self, small_products, rng):
        shared = MetricsRegistry()
        pipeline, _ = make_pool(small_products, num_workers=1, metrics=shared)
        drain(pipeline, _batches(small_products, rng, 1, 16))
        assert shared is pipeline.ctx.metrics
        assert shared.value("sampler_batches") == 1
