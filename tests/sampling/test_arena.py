"""Arena hot-path tests: buffer semantics, the selection kernel's contract on
random CSR graphs, parity of the dedup with its sort-based formulation,
allocation telemetry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import get_dataset
from repro.graph import CSRGraph
from repro.sampling import FastNeighborSampler, SamplerArena
from repro.sampling.arena import expand_frontier_arena, first_occurrence_dedup
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
        arena.request("scratch", 10)  # allocates twice the request: 20
        grows = arena.grow_count
        arena.request("scratch", 20)  # fits the headroom -> no grow
        assert arena.grow_count == grows
        arena.request("scratch", 21)  # exceeds capacity -> 42
        assert arena.grow_count == grows + 1
        arena.request("scratch", 42)
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

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_selection_contract_on_random_csr(self, data):
        """Each destination keeps exactly ``min(deg, fanout)`` distinct real
        edges of its own row, emitted in ascending adjacency order."""
        n = data.draw(st.integers(1, 16))
        rows = [
            sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
            for _ in range(n)
        ]
        degrees = np.array([len(row) for row in rows], dtype=np.int64)
        indptr = np.concatenate([[0], np.cumsum(degrees)])
        indices = np.array([v for row in rows for v in row], dtype=np.int64)
        graph = CSRGraph(indptr, indices, n)
        # Repeated frontier nodes are independent destinations.
        frontier = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12)),
            dtype=np.int64,
        )
        # degree == fanout for some destination whenever a row is non-empty
        row_degrees = sorted({1} | {int(d) for d in degrees if d > 0})
        fanout = data.draw(
            st.one_of(st.none(), st.integers(1, 6), st.sampled_from(row_degrees))
        )
        seed = data.draw(st.integers(0, 2**31 - 1))

        src, indptr = expand_frontier_arena(
            graph, frontier, fanout, np.random.default_rng(seed), SamplerArena()
        )
        assert indptr[0] == 0 and indptr[-1] == len(src)
        assert np.all(np.diff(indptr) >= 0)
        dst = np.repeat(np.arange(len(frontier)), np.diff(indptr))
        for local, node in enumerate(frontier):
            row = np.asarray(rows[node], dtype=np.int64)
            chosen = src[dst == local]
            cap = len(row) if fanout is None else min(len(row), fanout)
            assert len(chosen) == cap
            positions = np.searchsorted(row, chosen)
            assert np.all(positions < len(row))
            np.testing.assert_array_equal(row[positions], chosen)
            # strictly ascending positions: distinct, canonical order
            assert np.all(np.diff(positions) > 0)


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
        # O(1) allocations per batch in steady state: on fresh seeds and
        # fresh draws the arena performs ZERO further scratch allocations;
        # only fixed-count outputs (edge_index, n_id, MFG wrappers) are
        # created per batch.
        assert metrics.value("arena_grows") == grows_after_warmup
        assert metrics.value("sampler_batches") == 25

    def test_a_20_cubed_products_x4_arena_is_compact(self):
        """Index scratch in int32 (the graph fits) and one row of Floyd
        uniforms per pass: the arena of the 20^3 inference sampler on
        products x4 stays within 32 MB (52.8 MiB with int64 scratch and a
        (fanout, n_over) float64 draw)."""
        dataset = get_dataset("products", scale=4, seed=0)
        sampler = FastNeighborSampler(dataset.graph, [20, 20, 20])
        nodes = np.concatenate([dataset.split.val, dataset.split.test])
        for index in range(6):
            batch = nodes[index * 256 : (index + 1) * 256]
            sampler.sample(batch, np.random.default_rng([0, index]))
        arena = sampler.arena
        assert arena.index_dtype == np.int32
        assert arena.request("src_sel", 1).dtype == np.int32
        assert arena.nbytes() <= 32 * 10**6
        # one row of uniforms per Floyd pass, not a (fanout, n_over) block
        floats = [b for b in arena._buffers.values() if b.dtype == np.float64]
        assert sum(b.nbytes for b in floats) < 2**20

    def test_copy_and_sort_path_counters(self, small_products):
        # Fanouts sized against the products degree distribution so both
        # under-degree (copied) and over-degree (drawn) segments occur.
        sampler = FastNeighborSampler(small_products.graph, [25, 20])
        edges = 0
        for index, nodes in enumerate(random_batches(small_products, 5, 256)):
            mfg = sampler.sample(nodes, np.random.default_rng([3, index]))
            edges += sum(adj.num_edges for adj in mfg.adjs)
        copied = sampler.metrics.value("sampler_edges_copy_path")
        drawn = sampler.metrics.value("sampler_edges_drawn")
        assert copied > 0 and drawn > 0
        # the two counters partition the selected edges
        assert copied + drawn == edges

    def test_attach_counters_redirects_arena(self, small_products):
        sampler = FastNeighborSampler(small_products.graph, [5])
        shared = MetricsRegistry()
        sampler.attach_metrics(shared)
        sampler.sample(small_products.split.train[:16], np.random.default_rng(0))
        assert shared.value("sampler_batches") == 1
        assert shared.value("arena_grows") > 0
