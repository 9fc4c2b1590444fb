"""Arena hot-path tests: buffer semantics, parity with the reference kernel
and the sort-based dedup, allocation telemetry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling import FastNeighborSampler, SamplerArena
from repro.sampling.arena import (
    expand_frontier_arena,
    first_occurrence_dedup,
    gather_frontier_edges,
)
from repro.telemetry import MetricsRegistry


def random_batches(dataset, count, size, seed=0):
    rng = np.random.default_rng(seed)
    train = dataset.split.train
    return [
        rng.choice(train, size=min(size, len(train)), replace=False)
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# SamplerArena buffer semantics
# ----------------------------------------------------------------------
class TestSamplerArena:
    def test_request_returns_view_of_requested_size(self):
        arena = SamplerArena()
        buf = arena.request("scratch", 10)
        assert buf.shape == (10,)
        assert buf.dtype == np.int64

    def test_same_name_reuses_backing_buffer(self):
        arena = SamplerArena()
        first = arena.request("scratch", 10)
        first[:] = 7
        again = arena.request("scratch", 5)
        # Same storage: the smaller request is a prefix view of it.
        assert np.shares_memory(first, again)
        np.testing.assert_array_equal(again, 7)

    def test_growth_is_amortized_doubling(self):
        arena = SamplerArena()
        arena.request("scratch", 10)
        grows = arena.grow_count
        arena.request("scratch", 11)  # exceeds capacity -> doubles to 20
        assert arena.grow_count == grows + 1
        arena.request("scratch", 20)  # fits the doubled buffer -> no grow
        assert arena.grow_count == grows + 1
        arena.request("scratch", 1000)
        assert arena.grow_count == grows + 2

    def test_grow_counters_recorded(self):
        metrics = MetricsRegistry()
        arena = SamplerArena(metrics)
        arena.request("a", 100)
        arena.request("b", 100, dtype=np.float64)
        assert metrics.value("arena_grows") == 2
        assert metrics.value("arena_grow_bytes") >= 100 * 8
        assert arena.nbytes() > 0
        assert set(arena.buffer_names()) == {"a", "b"}

    def test_iota_prefix(self):
        arena = SamplerArena()
        np.testing.assert_array_equal(arena.iota(5), np.arange(5))
        big = arena.iota(50)
        np.testing.assert_array_equal(big, np.arange(50))
        # prefix view of the same persistent buffer
        assert np.shares_memory(arena.iota(5), big)

    def test_dtype_mismatch_reallocates(self):
        arena = SamplerArena()
        as_int = arena.request("keys", 8)
        as_float = arena.request("keys", 8, dtype=np.float64)
        assert as_int.dtype == np.int64
        assert as_float.dtype == np.float64


# ----------------------------------------------------------------------
# Kernel-level equivalence
# ----------------------------------------------------------------------
class TestArenaKernels:
    def test_gather_matches_csr(self, small_products):
        graph = small_products.graph
        arena = SamplerArena()
        frontier = np.array([0, 5, 17, 3], dtype=np.int64)
        src, dst, degrees, total = gather_frontier_edges(graph, frontier, arena)
        assert total == int(degrees.sum())
        for local, node in enumerate(frontier):
            mask = dst[:total] == local
            np.testing.assert_array_equal(
                np.sort(src[:total][mask]), np.sort(graph.neighbors(int(node)))
            )

    def test_first_occurrence_dedup_discovery_order(self):
        arena = SamplerArena()
        local_of = np.full(100, -1, dtype=np.int64)
        src_sel = np.array([42, 7, 42, 13, 7, 99], dtype=np.int64)
        src_local, ordered_new = first_occurrence_dedup(src_sel, local_of, 3, arena)
        np.testing.assert_array_equal(ordered_new, [42, 7, 13, 99])
        np.testing.assert_array_equal(src_local, [3, 4, 3, 5, 4, 6])
        local_of[ordered_new] = -1
        assert (local_of == -1).all()

    def test_dedup_with_no_new_nodes(self):
        arena = SamplerArena()
        local_of = np.full(10, -1, dtype=np.int64)
        local_of[[4, 6]] = [0, 1]
        src_sel = np.array([4, 6, 4], dtype=np.int64)
        src_local, ordered_new = first_occurrence_dedup(src_sel, local_of, 2, arena)
        assert ordered_new is None
        np.testing.assert_array_equal(src_local, [0, 1, 0])

    @settings(max_examples=60, deadline=None)
    @given(
        src_sel=st.lists(st.integers(0, 39), max_size=120),
        known=st.lists(st.integers(0, 39), unique=True, max_size=20),
    )
    def test_dedup_matches_unique_plus_stable_argsort(self, src_sel, known):
        """The O(D) reversed-write dedup against the sort-based formulation:
        ``np.unique(..., return_index=True)`` + a stable argsort of the
        first positions gives discovery order."""
        src_sel = np.asarray(src_sel, dtype=np.int64)
        local_of = np.full(40, -1, dtype=np.int64)
        local_of[known] = np.arange(len(known))
        expected_map = local_of.copy()
        new_globals = src_sel[expected_map[src_sel] < 0]
        uniq, first_pos = np.unique(new_globals, return_index=True)
        expected_new = uniq[np.argsort(first_pos, kind="stable")]
        expected_map[expected_new] = len(known) + np.arange(len(expected_new))

        src_local, ordered_new = first_occurrence_dedup(
            src_sel, local_of, len(known), SamplerArena()
        )
        if ordered_new is None:
            ordered_new = np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(ordered_new, expected_new)
        np.testing.assert_array_equal(src_local, expected_map[src_sel])
        np.testing.assert_array_equal(local_of, expected_map)

    def test_split_and_copy_paths_match_legacy_kernel(self, small_products):
        """The reference (lexsort) kernel and the arena kernel, copy, split
        and whole-array-sort branches alike, select the same edges."""
        from repro.sampling import expand_frontier_vectorized

        graph = small_products.graph
        arena = SamplerArena()
        rng_state = np.random.default_rng(3)
        frontier = rng_state.choice(
            graph.num_nodes, size=200, replace=False
        ).astype(np.int64)
        for fanout in (None, 1, 5, 50):
            old = expand_frontier_vectorized(
                graph, frontier, fanout, np.random.default_rng(11)
            )
            new = expand_frontier_arena(
                graph, frontier, fanout, np.random.default_rng(11), arena
            )
            np.testing.assert_array_equal(old[0], new[0])
            np.testing.assert_array_equal(old[1], new[1])


# ----------------------------------------------------------------------
# Exception safety (satellite a)
# ----------------------------------------------------------------------
class TestExceptionSafety:
    def test_out_of_range_batch_raises_and_leaves_map_clean(self, small_products):
        sampler = FastNeighborSampler(small_products.graph, [5, 5])
        bad = np.array([0, small_products.graph.num_nodes + 3], dtype=np.int64)
        with pytest.raises(ValueError, match="out of range"):
            sampler.sample(bad, np.random.default_rng(0))
        assert (sampler._local_of == -1).all()

    def test_negative_ids_rejected_before_map_write(self, small_products):
        sampler = FastNeighborSampler(small_products.graph, [5])
        with pytest.raises(ValueError, match="out of range"):
            sampler.sample(np.array([-1, 2]), np.random.default_rng(0))
        assert (sampler._local_of == -1).all()

    def test_mid_hop_failure_leaves_sampler_reusable(self, small_products):
        sampler = FastNeighborSampler(small_products.graph, [10, 5])
        nodes = small_products.split.train[:32]

        class ExplodingRng:
            """Fails on the second hop, after the map already has entries."""

            def __init__(self):
                self.calls = 0
                self._real = np.random.default_rng(0)

            def random(self, *args, **kwargs):
                self.calls += 1
                if self.calls > 1:
                    raise RuntimeError("injected failure")
                return self._real.random(*args, **kwargs)

        with pytest.raises(RuntimeError, match="injected failure"):
            sampler.sample(nodes, ExplodingRng())
        assert (sampler._local_of == -1).all()
        # and the sampler still produces correct batches afterwards
        mfg = sampler.sample(nodes, np.random.default_rng(1))
        mfg.validate()
        assert (sampler._local_of == -1).all()


# ----------------------------------------------------------------------
# Allocation telemetry: O(1) array allocations per batch after warm-up
# ----------------------------------------------------------------------
class TestAllocationTelemetry:
    def test_arena_stops_growing_after_warmup(self, small_products):
        sampler = FastNeighborSampler(small_products.graph, [15, 10, 5])
        metrics = sampler.metrics
        batches = random_batches(small_products, 25, 256, seed=2)
        # Warm-up on the first few batches grows buffers to steady state.
        for index, nodes in enumerate(batches[:5]):
            sampler.sample(nodes, np.random.default_rng([1, index]))
        grows_after_warmup = metrics.value("arena_grows")
        assert grows_after_warmup > 0  # warm-up really did allocate
        for index, nodes in enumerate(batches[5:]):
            sampler.sample(nodes, np.random.default_rng([2, index]))
        # O(1) allocations per batch in steady state: the arena performs
        # ZERO further scratch allocations; only fixed-count outputs
        # (edge_index, n_id, MFG wrappers) are created per batch.
        assert metrics.value("arena_grows") == grows_after_warmup
        assert metrics.value("sampler_batches") == 25

    def test_copy_and_sort_path_counters(self, small_products):
        # Fanouts sized against the products degree distribution so both
        # sub-paths engage (tiny fanouts push every segment over-degree,
        # which takes the whole-array sort fallback instead).
        sampler = FastNeighborSampler(small_products.graph, [25, 20])
        for index, nodes in enumerate(random_batches(small_products, 5, 256)):
            sampler.sample(nodes, np.random.default_rng([3, index]))
        # Heavy-tail degrees: both the verbatim-copy path (under-degree
        # segments) and the sort path (over-degree remainder) must engage.
        assert sampler.metrics.value("sampler_edges_copy_path") > 0
        assert sampler.metrics.value("sampler_edges_sort_path") > 0

    def test_attach_counters_redirects_arena(self, small_products):
        sampler = FastNeighborSampler(small_products.graph, [5])
        shared = MetricsRegistry()
        sampler.attach_metrics(shared)
        sampler.sample(small_products.split.train[:16], np.random.default_rng(0))
        assert shared.value("sampler_batches") == 1
        assert shared.value("arena_grows") > 0
