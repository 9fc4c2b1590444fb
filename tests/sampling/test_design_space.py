"""The 96-variant design space: enumeration and per-variant correctness."""

import numpy as np
import pytest

from repro.sampling import (
    BASELINE_VARIANT,
    WINNING_VARIANT,
    ParameterizedSampler,
    SamplerVariant,
    all_variants,
)
from repro.sampling.design_space import (
    _REJECTION_BY_SET,
    _select_fisher_yates,
    _select_random_keys,
    _select_reservoir,
)


class TestEnumeration:
    def test_exactly_96_variants(self):
        variants = all_variants()
        assert len(variants) == 96
        assert len(set(variants)) == 96  # all distinct (frozen dataclass)

    def test_baseline_and_winner_in_space(self):
        variants = set(all_variants())
        assert BASELINE_VARIANT in variants
        assert WINNING_VARIANT in variants

    def test_winner_matches_paper_findings(self):
        # Figure 2 analysis: array map + array set + fused construction
        assert WINNING_VARIANT.id_map == "array"
        assert WINNING_VARIANT.sample_set == "linear_array"
        assert WINNING_VARIANT.fused

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            SamplerVariant(id_map="btree")
        with pytest.raises(ValueError):
            SamplerVariant(sample_set="bloom")
        with pytest.raises(ValueError):
            SamplerVariant(selection="sorted")

    def test_label_readable(self):
        assert BASELINE_VARIANT.label() == "dict/hashset/rejection/staged"


class TestSelectionStrategies:
    """Each selection strategy must return `fanout` distinct valid offsets."""

    @pytest.mark.parametrize("degree,fanout", [(10, 3), (7, 7), (50, 12)])
    def test_rejection_all_sets(self, degree, fanout):
        assert set(_REJECTION_BY_SET) == {
            "hashset", "linear_array", "sorted_array", "bitmask"
        }
        for select in _REJECTION_BY_SET.values():
            picks = select(degree, fanout, np.random.default_rng(0))
            assert len(picks) == fanout
            assert len(set(picks)) == fanout
            assert all(0 <= p < degree for p in picks)

    @pytest.mark.parametrize(
        "strategy", [_select_fisher_yates, _select_reservoir, _select_random_keys]
    )
    def test_other_strategies(self, strategy):
        picks = strategy(20, 6, np.random.default_rng(1))
        assert len(picks) == 6
        assert len(set(picks)) == 6
        assert all(0 <= p < 20 for p in picks)

    @pytest.mark.parametrize(
        "strategy", [_select_fisher_yates, _select_reservoir, _select_random_keys]
    )
    def test_uniformity(self, strategy):
        """Each offset selected with probability fanout/degree."""
        degree, fanout, trials = 8, 2, 4000
        counts = np.zeros(degree)
        rng = np.random.default_rng(2)
        for _ in range(trials):
            for p in strategy(degree, fanout, rng):
                counts[p] += 1
        expected = trials * fanout / degree
        sigma = np.sqrt(trials * (fanout / degree) * (1 - fanout / degree))
        assert np.all(np.abs(counts - expected) < 5 * sigma)


@pytest.mark.parametrize(
    "variant",
    # exercising all 96 end-to-end is slow; cover the axes combinatorially:
    # every value of every knob appears, plus the two special corners.
    [
        BASELINE_VARIANT,
        WINNING_VARIANT,
        SamplerVariant("array", "bitmask", "fisher_yates", True),
        SamplerVariant("hybrid", "sorted_array", "reservoir", False),
        SamplerVariant("dict", "linear_array", "random_keys", True),
        SamplerVariant("hybrid", "hashset", "random_keys", True),
        SamplerVariant("array", "sorted_array", "rejection", False),
    ],
    ids=lambda v: v.label(),
)
class TestVariantCorrectness:
    def test_mfg_valid(self, variant, small_products, rng):
        sampler = ParameterizedSampler(small_products.graph, [5, 3], variant)
        batch = rng.choice(small_products.num_nodes, size=16, replace=False)
        mfg = sampler.sample(batch, np.random.default_rng(0))
        mfg.validate()
        # per-node counts respect fanout
        adj = mfg.adjs[-1]
        counts = np.bincount(adj.edge_index[1], minlength=16)
        degrees = small_products.graph.degree()[batch]
        np.testing.assert_array_equal(counts, np.minimum(degrees, 5))

    def test_edges_exist_in_graph(self, variant, small_products, rng):
        sampler = ParameterizedSampler(small_products.graph, [4], variant)
        batch = rng.choice(small_products.num_nodes, size=8, replace=False)
        mfg = sampler.sample(batch, np.random.default_rng(1))
        adj = mfg.adjs[0]
        for s, d in zip(
            mfg.n_id[adj.edge_index[0]], mfg.n_id[adj.edge_index[1]]
        ):
            assert s in small_products.graph.neighbors(int(d))


class TestHopEquivalenceAcrossVariants:
    def test_full_fanout_hop_identical_everywhere(self, small_products):
        """With full neighborhoods there is no sampling randomness, so all
        96 variants must produce exactly the same hop expansion."""
        frontier = np.array([3, 14, 159])
        reference = None
        for variant in all_variants():
            sampler = ParameterizedSampler(small_products.graph, [None], variant)
            n_id, edge_index = sampler.expand_hop(
                frontier, None, np.random.default_rng(0)
            )
            edges = set(zip(n_id[edge_index[0]], edge_index[1]))
            if reference is None:
                reference = (sorted(n_id), edges)
            else:
                assert sorted(n_id) == reference[0], variant.label()
                assert edges == reference[1], variant.label()

    def test_failed_hop_leaves_array_backed_maps_clean(self, small_products):
        """The array and hybrid ID maps keep scratch that outlives a hop; a
        hop that dies halfway must hand it back clean, or every later hop
        returns wrong local ids (the dict map, rebuilt per hop, is the
        oracle)."""

        class ExplodingRng:
            def __init__(self, draws):
                self.draws = draws
                self._real = np.random.default_rng(0)

            def integers(self, *args, **kwargs):
                self.draws -= 1
                if self.draws < 0:
                    raise RuntimeError("injected failure")
                return self._real.integers(*args, **kwargs)

        graph = small_products.graph
        batch = small_products.split.train[:24]
        samplers = {
            id_map: ParameterizedSampler(
                graph, [4, 3], SamplerVariant(id_map, "hashset", "rejection", True)
            )
            for id_map in ("dict", "array", "hybrid")
        }
        for sampler in samplers.values():
            with pytest.raises(RuntimeError, match="injected failure"):
                sampler.sample(batch, ExplodingRng(draws=20))
        mfgs = {
            id_map: sampler.sample(batch, np.random.default_rng(3))
            for id_map, sampler in samplers.items()
        }
        for id_map in ("array", "hybrid"):
            np.testing.assert_array_equal(mfgs[id_map].n_id, mfgs["dict"].n_id)
            for adj, oracle in zip(mfgs[id_map].adjs, mfgs["dict"].adjs):
                np.testing.assert_array_equal(adj.edge_index, oracle.edge_index)
