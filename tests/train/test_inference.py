"""Inference paths: sampled vs layer-wise full-neighborhood consistency."""

import numpy as np
import pytest

from repro.models import build_model
from repro.runtime import StagedPipeline, build_pipeline
from repro.sampling import FastNeighborSampler
from repro.slicing import FeatureStore
from repro.tensor import Tensor
from repro.train import layerwise_full_inference, sampled_inference
from repro.train.inference import LayerwiseResult, _propagate_full


@pytest.fixture(scope="module")
def trained_setup(small_products):
    """A briefly trained 2-layer SAGE model (training details irrelevant)."""
    from dataclasses import replace

    from repro.train import Trainer, get_config

    cfg = replace(
        get_config("products", "sage"),
        batch_size=64,
        hidden_channels=24,
        num_layers=2,
        train_fanouts=(10, 5),
        infer_fanouts=(10, 10),
        lr=0.01,
    )
    trainer = Trainer(small_products, cfg, executor="serial", seed=0)
    for epoch in range(10):
        trainer.train_epoch(epoch)
    trainer.shutdown()
    return small_products, trainer.model


MODELS_FOR_LAYERWISE = ["sage", "gat", "gin", "sage-ri", "mlp"]


class TestSampledInference:
    def test_output_aligned_with_nodes(self, trained_setup):
        ds, model = trained_setup
        nodes = ds.split.test[:100]
        out = sampled_inference(
            model, ds.features, ds.graph, nodes, [10, 10], batch_size=32
        )
        assert out.shape == (100, ds.num_classes)

    def test_deterministic_given_seed(self, trained_setup):
        ds, model = trained_setup
        nodes = ds.split.test[:50]
        a = sampled_inference(model, ds.features, ds.graph, nodes, [5, 5], seed=3)
        b = sampled_inference(model, ds.features, ds.graph, nodes, [5, 5], seed=3)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_changes_samples(self, trained_setup):
        ds, model = trained_setup
        nodes = ds.split.test[:50]
        a = sampled_inference(model, ds.features, ds.graph, nodes, [3, 3], seed=0)
        b = sampled_inference(model, ds.features, ds.graph, nodes, [3, 3], seed=1)
        assert not np.array_equal(a, b)

    def test_puts_model_in_eval_mode(self, trained_setup):
        ds, model = trained_setup
        model.train()
        sampled_inference(model, ds.features, ds.graph, ds.split.test[:10], [5, 5])
        assert not model.training

    @pytest.mark.parametrize("executor", ["serial", "pipelined"])
    def test_every_batch_builds_its_plans(self, trained_setup, executor):
        """Inference is the training compute path: the prepare stage builds
        one plan per MFG layer per batch, whatever the policy."""
        ds, model = trained_setup
        store = FeatureStore(ds.features, half_precision=None)
        pipeline = build_pipeline(
            executor, lambda: FastNeighborSampler(ds.graph, [5, 5]), store, max_batch=32
        )
        try:
            sampled_inference(
                model, store, ds.graph, ds.split.test[:100], [5, 5],
                batch_size=32, executor=executor, pipeline=pipeline,
            )
        finally:
            pipeline.close()
        assert pipeline.ctx.metrics.value("aggregation_plans_built") == 4 * 2

    @pytest.mark.parametrize("executor", ["serial", "pipelined"])
    def test_pipeline_closed_when_compute_raises(
        self, small_products, monkeypatch, executor
    ):
        """``sampled_inference`` owns the pipeline it builds: ``close`` runs
        even when the model raises mid-epoch."""
        closed = []
        original = StagedPipeline.close

        def close(pipeline):
            closed.append(pipeline)
            original(pipeline)

        monkeypatch.setattr(StagedPipeline, "close", close)

        class Exploding:
            def eval(self):
                return self

            def __call__(self, x, adjs):
                raise RuntimeError("boom")

        ds = small_products
        with pytest.raises(RuntimeError, match="boom"):
            sampled_inference(
                Exploding(), ds.features, ds.graph, ds.split.test[:64], [3, 3],
                batch_size=16, executor=executor,
            )
        assert len(closed) == 1

    @pytest.mark.parametrize("executor", ["serial", "pipelined"])
    def test_predict_on_no_nodes_is_a_value_error(self, tiny_dataset, executor):
        from repro.train import Trainer
        from repro.train.config import ExperimentConfig

        config = ExperimentConfig(
            dataset="arxiv",
            model="sage",
            num_layers=2,
            hidden_channels=16,
            train_fanouts=(6, 4),
            infer_fanouts=(6, 6),
            batch_size=64,
        )
        trainer = Trainer(
            tiny_dataset, config, executor="serial", infer_executor=executor
        )
        try:
            with pytest.raises(ValueError, match="empty node set"):
                trainer.predict(np.array([], np.int64))
        finally:
            trainer.shutdown()

    def test_full_fanout_matches_layerwise(self, trained_setup):
        """With fanouts=None the sampled path computes exact neighborhoods,
        so it must agree with layer-wise full inference."""
        ds, model = trained_setup
        nodes = ds.split.test[:64]
        sampled = sampled_inference(
            model, ds.features, ds.graph, nodes, [None, None], batch_size=32
        )
        full = layerwise_full_inference(model, ds.features, ds.graph)
        np.testing.assert_allclose(sampled, full.select(nodes), rtol=1e-3, atol=1e-4)


class TestLayerwiseFullInference:
    @pytest.mark.parametrize("name", MODELS_FOR_LAYERWISE)
    def test_runs_and_shapes(self, name, small_products):
        ds = small_products
        model = build_model(
            name, ds.num_features, 12, ds.num_classes, num_layers=2,
            rng=np.random.default_rng(0),
        )
        result = layerwise_full_inference(model, ds.features, ds.graph, batch_size=512)
        assert isinstance(result, LayerwiseResult)
        assert result.log_probs.shape == (ds.num_nodes, ds.num_classes)
        np.testing.assert_allclose(
            np.exp(result.log_probs).sum(axis=1), 1.0, rtol=1e-3
        )

    def test_layer_fn_receives_adjs_with_plans(self, small_products):
        ds = small_products
        seen = []

        def apply_layer(x_pair, adj):
            seen.append(adj.plan)
            return Tensor(x_pair[1].data[:, :3])

        out = _propagate_full(
            apply_layer, ds.features.astype(np.float32), ds.graph, batch_size=512
        )
        assert out.shape == (ds.num_nodes, 3)
        assert len(seen) == -(-ds.num_nodes // 512)
        assert all(plan is not None for plan in seen)

    def test_batch_size_does_not_change_result(self, trained_setup):
        ds, model = trained_setup
        a = layerwise_full_inference(model, ds.features, ds.graph, batch_size=128)
        b = layerwise_full_inference(model, ds.features, ds.graph, batch_size=1024)
        np.testing.assert_allclose(a.log_probs, b.log_probs, rtol=1e-4, atol=1e-5)

    def test_sage_ri_stores_all_layers(self, small_products):
        """Dense connections force every layer resident: SAGE-RI's peak host
        memory exceeds a plain stack's (the Section 5 trade-off)."""
        ds = small_products
        rngs = [np.random.default_rng(0), np.random.default_rng(0)]
        plain = build_model("sage", ds.num_features, 16, ds.num_classes,
                            num_layers=3, rng=rngs[0])
        dense = build_model("sage-ri", ds.num_features, 16, ds.num_classes,
                            num_layers=3, rng=rngs[1])
        plain_mem = layerwise_full_inference(plain, ds.features, ds.graph).peak_host_bytes
        dense_mem = layerwise_full_inference(dense, ds.features, ds.graph).peak_host_bytes
        assert dense_mem > plain_mem

    def test_select(self, trained_setup):
        ds, model = trained_setup
        result = layerwise_full_inference(model, ds.features, ds.graph)
        nodes = np.array([5, 0, 17])
        np.testing.assert_array_equal(result.select(nodes), result.log_probs[nodes])

    def test_unsupported_model_rejected(self, small_products):
        class Strange:
            def eval(self):
                return self

        with pytest.raises(TypeError):
            layerwise_full_inference(
                Strange(), small_products.features, small_products.graph
            )


class TestFanoutAccuracyShape:
    def test_accuracy_improves_with_fanout(self, trained_setup):
        """Table 6's core finding at small scale: accuracy is monotone-ish in
        inference fanout and saturates by ~20."""
        ds, model = trained_setup
        from repro.train import accuracy

        nodes = ds.split.test
        labels = ds.labels[nodes]
        accs = {}
        for fanout in (2, 20):
            out = sampled_inference(
                model, ds.features, ds.graph, nodes, [fanout, fanout], seed=0
            )
            accs[fanout] = accuracy(out, labels)
        full = layerwise_full_inference(model, ds.features, ds.graph)
        accs["full"] = accuracy(full.select(nodes), labels)
        assert accs[2] < accs[20] + 0.02  # tiny fanout is no better
        assert abs(accs[20] - accs["full"]) < 0.05  # fanout 20 ~ full
