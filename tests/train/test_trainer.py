"""Trainer driver: fit/evaluate, executor and sampler options, configs."""

from dataclasses import replace

import numpy as np
import pytest

from repro.runtime import POLICIES
from repro.sampling import FastNeighborSampler
from repro.slicing.slicer import build_aggregation_plans, slice_batch_fused
from repro.train import TABLE5_CONFIGS, ExperimentConfig, Trainer, get_config


@pytest.fixture()
def quick_config():
    return replace(
        get_config("arxiv", "sage"),
        batch_size=64,
        hidden_channels=16,
        num_layers=2,
        train_fanouts=(8, 4),
        infer_fanouts=(8, 8),
        epochs=2,
    )


class TestConfig:
    def test_table5_covers_paper_rows(self):
        pairs = {(c.dataset, c.model) for c in TABLE5_CONFIGS}
        assert pairs == {
            ("arxiv", "sage"),
            ("products", "sage"),
            ("papers", "sage"),
            ("papers", "gat"),
            ("papers", "gin"),
            ("papers", "sage-ri"),
        }

    def test_paper_fanouts(self):
        assert get_config("papers", "gin").train_fanouts == (20, 20, 20)
        assert get_config("papers", "sage-ri").train_fanouts == (12, 12, 12)
        assert get_config("papers", "sage").train_fanouts == (15, 10, 5)

    def test_unknown_config(self):
        with pytest.raises(KeyError):
            get_config("papers", "gcn")

    def test_scaled_batch(self):
        cfg = ExperimentConfig(dataset="x", model="sage", batch_size=1000)
        assert cfg.scaled(0.1).batch_size == 100
        assert cfg.scaled(0.0001).batch_size == 32  # floor


class TestTrainer:
    def test_fit_returns_history(self, tiny_dataset, quick_config):
        trainer = Trainer(tiny_dataset, quick_config, executor="serial", seed=0)
        result = trainer.fit(epochs=2, evaluate_every=1)
        trainer.shutdown()
        assert len(result.epoch_stats) == 2
        assert len(result.val_accuracy) == 2
        assert result.total_time > 0
        assert np.isfinite(result.final_loss())

    def test_loss_decreases_over_epochs(self, tiny_dataset, quick_config):
        trainer = Trainer(tiny_dataset, quick_config, executor="serial", seed=0)
        result = trainer.fit(epochs=6)
        trainer.shutdown()
        first = np.mean(result.epoch_stats[0].losses)
        last = np.mean(result.epoch_stats[-1].losses)
        assert last < first

    def test_epoch_batches_deterministic(self, tiny_dataset, quick_config):
        t1 = Trainer(tiny_dataset, quick_config, executor="serial", seed=5)
        t2 = Trainer(tiny_dataset, quick_config, executor="serial", seed=5)
        for b1, b2 in zip(t1.epoch_batches(3), t2.epoch_batches(3)):
            np.testing.assert_array_equal(b1, b2)
        t1.shutdown()
        t2.shutdown()

    def test_epochs_reshuffle(self, tiny_dataset, quick_config):
        trainer = Trainer(tiny_dataset, quick_config, executor="serial", seed=0)
        a = np.concatenate(trainer.epoch_batches(0))
        b = np.concatenate(trainer.epoch_batches(1))
        trainer.shutdown()
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(np.sort(a), np.sort(b))

    def test_pyg_sampler_option(self, tiny_dataset, quick_config):
        trainer = Trainer(
            tiny_dataset, quick_config, executor="serial", sampler="pyg", seed=0
        )
        stats = trainer.train_epoch(0)
        trainer.shutdown()
        assert stats.num_batches > 0

    def test_pipelined_executor_trains(self, tiny_dataset, quick_config):
        trainer = Trainer(tiny_dataset, quick_config, executor="pipelined", seed=0)
        stats = trainer.train_epoch(0)
        trainer.shutdown()
        assert stats.num_batches == len(trainer.epoch_batches(0))

    def test_evaluate_bounds(self, tiny_dataset, quick_config):
        trainer = Trainer(tiny_dataset, quick_config, executor="serial", seed=0)
        trainer.train_epoch(0)
        acc = trainer.evaluate("val")
        trainer.shutdown()
        assert 0.0 <= acc <= 1.0

    def test_predict_slices_through_the_trainers_store(
        self, tiny_dataset, quick_config, monkeypatch
    ):
        """Inference gets the store training slices from, on the RAM tier
        too (not a per-call copy wrapped around its feature array)."""
        from repro.train import loop

        seen = []

        def spy(model, features, *args, **kwargs):
            seen.append(features)
            return loop_sampled_inference(model, features, *args, **kwargs)

        loop_sampled_inference = loop.sampled_inference
        monkeypatch.setattr(loop, "sampled_inference", spy)
        trainer = Trainer(tiny_dataset, quick_config, executor="serial", seed=0)
        out = trainer.predict(tiny_dataset.split.val[:20])
        trainer.shutdown()
        assert len(seen) == 1 and seen[0] is trainer.store
        assert out.shape == (20, tiny_dataset.num_classes)

    def test_invalid_options_rejected(self, tiny_dataset, quick_config):
        with pytest.raises(ValueError):
            Trainer(tiny_dataset, quick_config, executor="async")
        with pytest.raises(ValueError):
            Trainer(tiny_dataset, quick_config, sampler="ladies")

    def test_early_stopping_halts_and_restores_best(self, tiny_dataset, quick_config):
        trainer = Trainer(tiny_dataset, quick_config, executor="serial", seed=0)
        result = trainer.fit(
            epochs=30, evaluate_every=1, early_stopping_patience=2
        )
        trainer.shutdown()
        # either halted early or ran out of epochs; val history recorded
        assert len(result.val_accuracy) <= 30
        assert len(result.epoch_stats) == len(result.val_accuracy)
        # restored parameters reproduce (approximately) the best accuracy
        best = max(result.val_accuracy)
        trainer2_acc = None  # evaluate with the restored model
        restored = Trainer(tiny_dataset, quick_config, executor="serial", seed=0)
        restored.model.load_state_dict(trainer.model.state_dict())
        trainer2_acc = restored.evaluate("val")
        restored.shutdown()
        assert trainer2_acc >= best - 0.05

    def test_early_stopping_requires_evaluation(self, tiny_dataset, quick_config):
        trainer = Trainer(tiny_dataset, quick_config, executor="serial", seed=0)
        with pytest.raises(ValueError):
            trainer.fit(epochs=3, early_stopping_patience=2)
        trainer.shutdown()

    def test_same_seed_same_training(self, tiny_dataset, quick_config):
        results = []
        for _ in range(2):
            trainer = Trainer(tiny_dataset, quick_config, executor="serial", seed=11)
            stats = trainer.train_epoch(0)
            results.append(stats.losses)
            trainer.shutdown()
        np.testing.assert_allclose(results[0], results[1], rtol=1e-6)

    @pytest.mark.parametrize("executor", POLICIES)
    def test_train_batches_is_the_body_of_train_epoch(
        self, executor, tiny_dataset, quick_config
    ):
        losses = []
        for whole_epoch in (True, False):
            trainer = Trainer(
                tiny_dataset,
                quick_config,
                executor=executor,
                seed=11,
                mp_start_method="fork",
            )
            try:
                if whole_epoch:
                    stats = trainer.train_epoch(1)
                else:
                    stats = trainer.train_batches(trainer.epoch_batches(1))
            finally:
                trainer.shutdown()
            assert stats.num_batches > 1
            losses.append(stats.losses)
        assert np.array_equal(losses[0], losses[1])

    def test_train_step_returns_the_loss_train_epoch_records(
        self, tiny_dataset, quick_config
    ):
        """The loop spelled out call by call around ``train_step`` — sample
        with the ``[seed, index]`` generator, slice, build plans, transfer —
        records what ``train_epoch`` does."""
        trainer = Trainer(tiny_dataset, quick_config, executor="serial", seed=11)
        recorded = trainer.train_epoch(0).losses
        trainer.shutdown()

        trainer = Trainer(tiny_dataset, quick_config, executor="serial", seed=11)
        sampler = FastNeighborSampler(
            tiny_dataset.graph, list(quick_config.train_fanouts)
        )
        stepped = []
        for index, nodes in enumerate(trainer.epoch_batches(0)):
            rng = np.random.default_rng(np.random.SeedSequence([11, index]))
            mfg = sampler.sample(nodes, rng)
            sliced = slice_batch_fused(trainer.store, mfg)
            build_aggregation_plans(mfg)
            stepped.append(
                trainer.train_step(trainer.device.transfer_batch(sliced, index))
            )
        trainer.shutdown()
        assert len(stepped) > 1
        assert np.array_equal(stepped, recorded)

    def test_sage_step_computes_no_first_layer_input_gradient(
        self, tiny_dataset, quick_config, monkeypatch
    ):
        """``train_step`` wraps ``batch.xs`` in an off-tape ``Tensor``: the
        first conv's node skips both input-gradient gemms (``lin_neigh``'s
        into the aggregation, ``lin_root``'s into the target prefix); the
        second conv's computes both."""
        from repro.tensor import kernels

        calls = []
        real = kernels.linear_pair_backward

        def spy(g, a, weight_a, b, weight_b, **kwargs):
            result = real(g, a, weight_a, b, weight_b, **kwargs)
            calls.append((a.shape[-1], result[0] is None, result[2] is None))
            return result

        monkeypatch.setattr(kernels, "linear_pair_backward", spy)
        trainer = Trainer(tiny_dataset, quick_config, executor="serial", seed=0)
        try:
            trainer.train_batches(trainer.epoch_batches(0)[:1])
        finally:
            trainer.shutdown()
        in_width, hidden = tiny_dataset.num_features, quick_config.hidden_channels
        assert in_width != hidden
        # (input width, neighbour grad_x skipped, root grad_x skipped) per conv
        assert sorted(calls) == sorted([(hidden, False, False), (in_width, True, True)])

    def test_sage_step_backward_visits_one_node_per_layer_tail(
        self, tiny_dataset, quick_config, monkeypatch
    ):
        """Each conv is one ``sage_conv`` node and each relu→dropout one
        ``relu_dropout`` node: the backward visits no target-prefix slice,
        tape add, relu or dropout node."""
        from repro.tensor import Tensor

        ops = []
        real = Tensor.backward

        def spy(self, grad=None):
            stack, seen = [self], set()
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    if node._backward is not None:
                        ops.append(node._op)
                    stack.extend(node._parents)
            return real(self, grad)

        monkeypatch.setattr(Tensor, "backward", spy)
        trainer = Trainer(tiny_dataset, quick_config, executor="serial", seed=0)
        try:
            trainer.train_batches(trainer.epoch_batches(0)[:1])
        finally:
            trainer.shutdown()
        assert sorted(ops) == sorted(
            ["nll_loss", "log_softmax", "sage_conv", "sage_conv", "relu_dropout"]
        )
