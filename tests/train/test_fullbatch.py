"""Full-batch trainer (comparator batching scheme)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.train import get_config
from repro.train.fullbatch import FullBatchTrainer


@pytest.fixture()
def config():
    return replace(
        get_config("arxiv", "sage"),
        hidden_channels=24,
        num_layers=2,
        lr=0.01,
    )


class TestFullBatchTrainer:
    def test_loss_decreases(self, tiny_dataset, config):
        trainer = FullBatchTrainer(tiny_dataset, config, seed=0)
        losses = [trainer.train_epoch().loss for _ in range(10)]
        assert losses[-1] < losses[0]

    def test_plan_built_once_and_reused(self, tiny_dataset, config):
        trainer = FullBatchTrainer(tiny_dataset, config, seed=0)
        trainer.train_epoch()
        plans = [adj.plan for adj in trainer._layers]
        assert all(plan is not None and plan is plans[0] for plan in plans)
        trainer.train_epoch()
        trainer.evaluate("val")
        assert all(adj.plan is plans[0] for adj in trainer._layers)

    def test_learns_above_chance(self, tiny_dataset, config):
        trainer = FullBatchTrainer(tiny_dataset, config, seed=0)
        for _ in range(30):
            trainer.train_epoch()
        acc = trainer.evaluate("val")
        assert acc > 3.0 / tiny_dataset.num_classes

    def test_deterministic_given_seed(self, tiny_dataset, config):
        runs = []
        for _ in range(2):
            trainer = FullBatchTrainer(tiny_dataset, config, seed=7)
            runs.append([trainer.train_epoch().loss for _ in range(3)])
        np.testing.assert_allclose(runs[0], runs[1], rtol=1e-6)

    def test_gradient_only_from_train_mask(self, tiny_dataset, config):
        """Flipping a *test* node's label must not change the training loss."""
        trainer_a = FullBatchTrainer(tiny_dataset, config, seed=0)
        loss_a = trainer_a.train_epoch().loss

        mutated = tiny_dataset.labels.copy()
        victim = tiny_dataset.split.test[0]
        mutated[victim] = (mutated[victim] + 1) % tiny_dataset.num_classes
        import dataclasses

        dataset_b = dataclasses.replace(tiny_dataset, labels=mutated)
        trainer_b = FullBatchTrainer(dataset_b, config, seed=0)
        loss_b = trainer_b.train_epoch().loss
        assert loss_a == pytest.approx(loss_b, rel=1e-6)

    def test_peak_activation_bytes_scales_with_layers(self, tiny_dataset, config):
        shallow = FullBatchTrainer(tiny_dataset, config, seed=0)
        deep = FullBatchTrainer(
            tiny_dataset, replace(config, num_layers=3), seed=0
        )
        assert deep.peak_activation_bytes() > shallow.peak_activation_bytes()

    def test_epoch_time_recorded(self, tiny_dataset, config):
        trainer = FullBatchTrainer(tiny_dataset, config, seed=0)
        stats = trainer.train_epoch()
        assert stats.epoch_time > 0
