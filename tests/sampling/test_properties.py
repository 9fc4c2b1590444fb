"""Property-based tests: sampler invariants on arbitrary random graphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import from_edge_index
from repro.sampling import (
    FastNeighborSampler,
    ParameterizedSampler,
    PyGNeighborSampler,
    SamplerVariant,
)


@st.composite
def graph_and_request(draw):
    """A random directed graph plus a sampling request over it."""
    n = draw(st.integers(min_value=2, max_value=30))
    m = draw(st.integers(min_value=0, max_value=120))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    edge_index = np.array([src, dst], dtype=np.int64).reshape(2, -1)
    graph = from_edge_index(edge_index, n, undirected=draw(st.booleans()))
    batch_size = draw(st.integers(min_value=1, max_value=min(8, n)))
    batch = draw(
        st.lists(
            st.integers(0, n - 1),
            min_size=batch_size,
            max_size=batch_size,
            unique=True,
        )
    )
    fanouts = draw(
        st.lists(
            st.one_of(st.none(), st.integers(1, 6)), min_size=1, max_size=3
        )
    )
    seed = draw(st.integers(0, 2**31 - 1))
    return graph, np.asarray(batch, dtype=np.int64), fanouts, seed


def assert_mfg_invariants(graph, batch, fanouts, mfg):
    mfg.validate()
    # batch prefix
    np.testing.assert_array_equal(mfg.n_id[: len(batch)], batch)
    # per-layer: counts respect fanout; every edge exists; no duplicates
    frontier_size = len(batch)
    for adj, fanout in zip(reversed(mfg.adjs), fanouts):
        counts = np.bincount(adj.edge_index[1], minlength=adj.size[1])
        dst_global = mfg.n_id[adj.edge_index[1]]
        src_global = mfg.n_id[adj.edge_index[0]]
        degrees = graph.degree()[mfg.n_id[: adj.size[1]]]
        cap = degrees if fanout is None else np.minimum(degrees, fanout)
        np.testing.assert_array_equal(counts, cap)
        for s, d in zip(src_global, dst_global):
            assert s in graph.neighbors(int(d))
        pairs = set(zip(adj.edge_index[0], adj.edge_index[1]))
        assert len(pairs) == adj.num_edges
        assert adj.size[1] == frontier_size
        frontier_size = adj.size[0]


class TestSamplerProperties:
    @settings(max_examples=40, deadline=None)
    @given(graph_and_request())
    def test_fast_sampler_invariants(self, case):
        graph, batch, fanouts, seed = case
        sampler = FastNeighborSampler(graph, fanouts)
        mfg = sampler.sample(batch, np.random.default_rng(seed))
        assert_mfg_invariants(graph, batch, fanouts, mfg)

    @settings(max_examples=25, deadline=None)
    @given(graph_and_request())
    def test_reference_sampler_invariants(self, case):
        graph, batch, fanouts, seed = case
        sampler = PyGNeighborSampler(graph, fanouts)
        mfg = sampler.sample(batch, np.random.default_rng(seed))
        assert_mfg_invariants(graph, batch, fanouts, mfg)

    @settings(max_examples=15, deadline=None)
    @given(
        graph_and_request(),
        st.sampled_from(
            [
                SamplerVariant("array", "linear_array", "rejection", True),
                SamplerVariant("hybrid", "bitmask", "random_keys", False),
                SamplerVariant("dict", "sorted_array", "fisher_yates", True),
            ]
        ),
    )
    def test_parameterized_variants_invariants(self, case, variant):
        graph, batch, fanouts, seed = case
        sampler = ParameterizedSampler(graph, fanouts, variant)
        mfg = sampler.sample(batch, np.random.default_rng(seed))
        assert_mfg_invariants(graph, batch, fanouts, mfg)

    @settings(max_examples=25, deadline=None)
    @given(graph_and_request())
    def test_fast_sampler_map_always_reset(self, case):
        """The persistent array ID map never leaks state across samples."""
        graph, batch, fanouts, seed = case
        sampler = FastNeighborSampler(graph, fanouts)
        sampler.sample(batch, np.random.default_rng(seed))
        assert (sampler._local_of == -1).all()

    @settings(max_examples=20, deadline=None)
    @given(graph_and_request())
    def test_fast_and_reference_agree_at_full_fanout(self, case):
        """Without randomness the two backends must produce the same edges."""
        graph, batch, fanouts, seed = case
        full = [None] * len(fanouts)
        mfg_a = FastNeighborSampler(graph, full).sample(
            batch, np.random.default_rng(0)
        )
        mfg_b = PyGNeighborSampler(graph, full).sample(
            batch, np.random.default_rng(0)
        )
        assert sorted(mfg_a.n_id) == sorted(mfg_b.n_id)
        for adj_a, adj_b in zip(mfg_a.adjs, mfg_b.adjs):
            edges_a = set(
                zip(mfg_a.n_id[adj_a.edge_index[0]], mfg_a.n_id[adj_a.edge_index[1]])
            )
            edges_b = set(
                zip(mfg_b.n_id[adj_b.edge_index[0]], mfg_b.n_id[adj_b.edge_index[1]])
            )
            assert edges_a == edges_b


class TestSelectionUniformity:
    """The fanout-selection kernels draw uniform without-replacement samples.

    Covers all three code shapes: the reference lexsort kernel, the arena
    *split* path (a mix of under- and over-degree segments), and the arena
    whole-array sort *fallback* (every segment over-degree).  For each, the
    per-neighbor selection frequency of an over-degree destination across
    many independent seeds must sit inside binomial confidence bounds, and
    no destination segment may ever exceed ``fanout``.
    """

    TRIALS = 300

    @staticmethod
    def _kernels():
        from repro.sampling import SamplerArena, expand_frontier_arena
        from repro.sampling.fast_sampler import expand_frontier_vectorized

        arena = SamplerArena()

        def arena_kernel(graph, frontier, fanout, rng):
            return expand_frontier_arena(graph, frontier, fanout, rng, arena)

        return {"reference": expand_frontier_vectorized, "arena": arena_kernel}

    @staticmethod
    def _build_graph(degree: int, split_path: bool):
        """Node 0 with ``degree`` out-neighbors (the over-degree segment).

        With ``split_path``, ``degree`` extra frontier nodes with a single
        neighbor each are added: every such segment is under-degree for any
        fanout >= 1, and the over-degree edge fraction drops to 0.5 — well
        below the sort-fallback threshold, forcing the arena split path.
        """
        k = degree if split_path else 0
        first_neighbor = 1 + k
        edges = [(0, first_neighbor + j) for j in range(degree)]
        edges += [(i, first_neighbor + degree + i - 1) for i in range(1, 1 + k)]
        frontier = np.arange(1 + k, dtype=np.int64)
        num_nodes = first_neighbor + degree + k
        edge_index = np.array(edges, dtype=np.int64).T.reshape(2, -1)
        graph = from_edge_index(edge_index, num_nodes)
        return graph, frontier, slice(first_neighbor, first_neighbor + degree)

    @settings(max_examples=6, deadline=None)
    @given(
        degree=st.integers(min_value=6, max_value=14),
        fanout=st.integers(min_value=1, max_value=5),
        split_path=st.booleans(),
        seed=st.integers(0, 2**20),
    )
    def test_selection_is_uniform_without_replacement(
        self, degree, fanout, split_path, seed
    ):
        # split_path=True mixes under- and over-degree segments in the
        # same call (arena split path); False leaves a single
        # over-degree segment (arena whole-array sort fallback).
        graph, frontier, neighbors = self._build_graph(degree, split_path)
        for name, kernel in self._kernels().items():
            counts = np.zeros(graph.num_nodes, dtype=np.int64)
            for trial in range(self.TRIALS):
                rng = np.random.default_rng([seed, trial])
                src_sel, dst_sel = kernel(graph, frontier, fanout, rng)
                seg = np.bincount(dst_sel, minlength=len(frontier))
                assert seg.max() <= fanout, name
                # without replacement within each segment
                assert len(np.unique(src_sel[dst_sel == 0])) == seg[0], name
                np.add.at(counts, src_sel, 1)
            # Binomial bounds for node 0's neighbors: each is kept with
            # p = fanout/degree per trial; 4.5 sigma two-sided, so a false
            # failure is ~1-in-10^5 even across all hypothesis examples.
            p = min(1.0, fanout / degree)
            expected = self.TRIALS * p
            slack = 4.5 * np.sqrt(self.TRIALS * p * (1 - p)) + 1e-9
            neighbor_counts = counts[neighbors]
            assert neighbor_counts.min() >= expected - slack, name
            assert neighbor_counts.max() <= expected + slack, name
