"""End-to-end integration: the paper's headline claims at test scale.

These are the repository's acceptance tests. Each one exercises the full
stack (dataset -> sampler -> batch prep -> device -> model -> optimizer ->
inference) and asserts a *finding* from the paper rather than a unit
behaviour.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import generate_dataset
from repro.train import (
    Trainer,
    accuracy,
    accuracy_by_degree,
    get_config,
    layerwise_full_inference,
    sampled_inference,
)


@pytest.fixture(scope="module")
def trained_products():
    """products stand-in trained to convergence (the Table 6 workhorse)."""
    dataset = generate_dataset("products", scale=0.375, seed=0)  # 3000 nodes
    config = replace(
        get_config("products", "sage"),
        batch_size=64,
        hidden_channels=48,
        lr=0.01,
        train_fanouts=(15, 10, 5),
    )
    trainer = Trainer(dataset, config, executor="pipelined", sampler="fast", seed=0)
    for epoch in range(30):
        trainer.train_epoch(epoch)
    yield dataset, trainer
    trainer.shutdown()


class TestTrainingConverges:
    def test_loss_low_and_val_accuracy_reasonable(self, trained_products):
        dataset, trainer = trained_products
        acc = trainer.evaluate("val")
        assert acc > 0.55  # far above the 10% random baseline


class TestInferenceWithSampling:
    """Section 5 / Table 6: sampled inference matches full-neighborhood."""

    def test_fanout20_matches_full_neighborhood(self, trained_products):
        dataset, trainer = trained_products
        nodes = dataset.split.test
        labels = dataset.labels[nodes]

        full = layerwise_full_inference(
            trainer.model, dataset.features, dataset.graph
        )
        acc_full = accuracy(full.select(nodes), labels)
        acc_20 = accuracy(trainer.predict(nodes, fanouts=[20, 20, 20]), labels)
        acc_5 = accuracy(trainer.predict(nodes, fanouts=[5, 5, 5]), labels)

        assert abs(acc_20 - acc_full) < 0.03  # fanout 20 ~ full (Table 6)
        assert acc_5 <= acc_20 + 0.01  # small fanouts degrade, not improve

    def test_degree_accuracy_profile(self, trained_products):
        """Figure 3: low-degree nodes dominate the test set, a small fanout
        'already approximates well the left half of the accuracy
        distribution', and the sampling penalty concentrates on high-degree
        nodes (the right half needs larger fanouts)."""
        dataset, trainer = trained_products
        nodes = dataset.split.test
        labels = dataset.labels[nodes]
        degrees = dataset.graph.degree()[nodes]

        full = layerwise_full_inference(
            trainer.model, dataset.features, dataset.graph
        )
        prof_full = accuracy_by_degree(full.select(nodes), labels, degrees, num_bins=6)
        preds = trainer.predict(nodes, fanouts=[10, 10, 10])
        prof_10 = accuracy_by_degree(preds, labels, degrees, num_bins=6)

        # most test nodes live in the low-degree buckets
        counts = prof_full.node_counts
        median_bucket = np.argmax(np.cumsum(counts) >= counts.sum() / 2)
        assert median_bucket <= len(counts) // 2
        # sampling penalty (full - sampled accuracy) grows with degree:
        # negligible on the populous low-degree buckets, pronounced on hubs
        gap = prof_full.accuracies - prof_10.accuracies
        filled = counts >= 10
        gaps = gap[filled]
        assert gaps[0] < 0.10  # left half approximated well at fanout 10
        assert gaps[-1] >= gaps[0] - 0.02  # penalty concentrated on the right


class TestSamplerParity:
    """The fast sampler trains as well as the reference sampler."""

    def test_fast_vs_pyg_final_accuracy(self):
        dataset = generate_dataset("arxiv", scale=0.375, seed=0)
        config = replace(
            get_config("arxiv", "sage"),
            batch_size=64,
            hidden_channels=32,
            lr=0.01,
        )
        accs = {}
        for sampler in ("fast", "pyg"):
            trainer = Trainer(
                dataset, config, executor="serial", sampler=sampler, seed=0
            )
            for epoch in range(12):
                trainer.train_epoch(epoch)
            accs[sampler] = trainer.evaluate("test")
            trainer.shutdown()
        assert abs(accs["fast"] - accs["pyg"]) < 0.06


class TestDDPEndToEnd:
    """Multi-rank training reaches single-rank quality."""

    def test_two_rank_training_quality(self):
        from repro.train import DDPTrainer

        dataset = generate_dataset("arxiv", scale=0.375, seed=0)
        config = replace(
            get_config("arxiv", "sage"),
            batch_size=32,
            hidden_channels=32,
            lr=0.01,
        )
        ddp = DDPTrainer(dataset, config, num_ranks=2, seed=0)
        try:
            for epoch in range(10):
                ddp.train_epoch(epoch)
            assert ddp.max_replica_divergence() == 0.0
            assert ddp.evaluate("test") > 0.5
        finally:
            ddp.shutdown()
