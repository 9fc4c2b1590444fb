"""Cluster model: Figure 5 scaling shapes, Figure 6 orderings, Table 7."""

import numpy as np
import pytest

from repro.perfmodel import (
    COMPARATOR_SYSTEMS,
    CONFIG_PYG,
    MODEL_PROFILES,
    model_param_bytes,
    ring_allreduce_time,
    salient_row,
    scaling_curve,
    simulate_cluster_epoch,
    systems_table,
)

DATASETS = ["arxiv", "products", "papers"]


class TestParamCounting:
    def test_sage_param_bytes_plausible(self):
        # 3-layer SAGE at in=128 h=256 out=172: a few hundred K params, fp32
        nbytes = model_param_bytes("sage", 256)
        assert 0.5e6 < nbytes < 5e6

    def test_sage_ri_much_larger(self):
        assert model_param_bytes("sage-ri", 1024) > 5 * model_param_bytes("sage", 256)

    def test_cache_stable(self):
        assert model_param_bytes("gat", 256) == model_param_bytes("gat", 256)


class TestAllreduce:
    def test_single_rank_free(self):
        assert ring_allreduce_time(1 << 20, 1) == 0.0

    def test_intra_machine_faster_than_cross(self):
        # 2 GPUs on one machine vs 4 GPUs over two machines
        assert ring_allreduce_time(1 << 22, 2) < ring_allreduce_time(1 << 22, 4)

    def test_grows_with_ranks(self):
        times = [ring_allreduce_time(1 << 22, k) for k in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_volume_term_dominates_for_large_buffers(self):
        small = ring_allreduce_time(1 << 10, 4)
        large = ring_allreduce_time(1 << 30, 4)
        assert large > 100 * small


class TestFigure5:
    @pytest.mark.parametrize("dataset", DATASETS)
    def test_epoch_time_monotone_decreasing(self, dataset):
        points = scaling_curve(dataset)
        times = [p.epoch_time for p in points]
        assert all(a > b for a, b in zip(times, times[1:])), times

    def test_16gpu_speedups_in_paper_band(self):
        """Paper: 4.45x to 8.05x at 16 GPUs; allow a generous band with the
        ordering preserved (bigger datasets scale better)."""
        speedups = {
            ds: scaling_curve(ds)[-1].speedup_vs_1gpu for ds in DATASETS
        }
        assert speedups["arxiv"] < speedups["products"] < speedups["papers"]
        assert 2.5 < speedups["arxiv"]
        assert speedups["papers"] < 10.0
        assert speedups["papers"] > 6.0

    def test_papers_16gpu_matches_headline(self):
        """The abstract's number: 2.0 s/epoch for papers on 16 GPUs."""
        epoch = simulate_cluster_epoch("papers", 16).epoch_time
        assert abs(epoch - 2.0) / 2.0 < 0.35

    def test_steps_shrink_with_gpus(self):
        a = simulate_cluster_epoch("products", 1)
        b = simulate_cluster_epoch("products", 16)
        assert b.steps == int(np.ceil(a.steps / 16))

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            simulate_cluster_epoch("papers", 0)


class TestFigure6:
    def test_all_models_speed_up_over_pyg(self):
        for model in MODEL_PROFILES:
            salient = simulate_cluster_epoch("papers", 16, model=model)
            pyg = simulate_cluster_epoch("papers", 16, config=CONFIG_PYG, model=model)
            assert pyg.epoch_time > salient.epoch_time, model

    def test_sage_benefits_most_sage_ri_least(self):
        """Figure 6's narrative: computation density inversely orders the
        speedup - GraphSAGE gains most, GraphSAGE-RI least."""
        speedups = {}
        for model in MODEL_PROFILES:
            salient = simulate_cluster_epoch("papers", 16, model=model)
            pyg = simulate_cluster_epoch("papers", 16, config=CONFIG_PYG, model=model)
            speedups[model] = pyg.epoch_time / salient.epoch_time
        assert speedups["sage"] == max(speedups.values())
        assert speedups["sage-ri"] == min(speedups.values())

    def test_training_times_vary_significantly(self):
        times = [
            simulate_cluster_epoch("papers", 16, model=m).epoch_time
            for m in MODEL_PROFILES
        ]
        assert max(times) > 3 * min(times)


class TestTable7:
    def test_salient_row_fastest_on_papers(self):
        row, infer = salient_row()
        papers_rows = [
            r for r in COMPARATOR_SYSTEMS if r.dataset == "ogbn-papers100M"
        ]
        assert all(row.seconds_per_epoch < r.seconds_per_epoch for r in papers_rows)
        assert infer > 0

    def test_train_and_infer_near_paper(self):
        row, infer = salient_row()
        assert abs(row.seconds_per_epoch - 2.0) / 2.0 < 0.35
        assert abs(infer - 2.4) / 2.4 < 0.45

    def test_systems_table_rows(self):
        rows = systems_table(measured_accuracy=64.58)
        assert len(rows) == len(COMPARATOR_SYSTEMS) + 1
        assert rows[-1]["acc (%)"] == 64.58

    def test_comparators_quote_sources(self):
        assert all(r.source for r in COMPARATOR_SYSTEMS)
