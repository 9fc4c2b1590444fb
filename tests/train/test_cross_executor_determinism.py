"""Cross-executor determinism: serial and pipelined runs with one seed
must produce identical per-batch losses on every registered dataset.

Extends the PR 1 sampler-level determinism suite up through full training:
model init, batch shuffling, sampling RNG, slicing, transfer and optimizer
updates all flow through the staged-pipeline runtime, so any policy-specific
drift (worker scheduling, pinned staging, delivery order) would show up here
as a loss mismatch.
"""

import numpy as np
import pytest

from repro.datasets import available_datasets, get_dataset
from repro.train import Trainer
from repro.train.config import ExperimentConfig

EXECUTORS = ("serial", "pipelined")

#: small scales so the full matrix (datasets x executors) stays fast
SCALES = {"arxiv": 0.25, "products": 0.2, "papers": 0.15}


def _config(name: str) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=name,
        model="sage",
        num_layers=2,
        hidden_channels=16,
        train_fanouts=(6, 4),
        infer_fanouts=(6, 6),
        batch_size=64,
    )


@pytest.mark.parametrize("name", available_datasets())
def test_identical_losses_across_executors(name):
    dataset = get_dataset(name, scale=SCALES.get(name, 0.2), seed=5)
    config = _config(name)
    losses = {}
    for executor in EXECUTORS:
        trainer = Trainer(
            dataset, config, executor=executor, num_workers=2, seed=11
        )
        stats = trainer.train_epoch(0)
        trainer.shutdown()
        assert stats.num_batches > 1, "need a multi-batch epoch to compare"
        losses[executor] = stats.losses
    assert losses["pipelined"] == losses["serial"]


def test_multiprocess_executor_matches_serial(tiny_dataset):
    """The shared-memory multiprocess prepare executor is the third
    policy: worker processes re-derive each batch's RNG from the shared
    ``rng_entries`` seeding, so its losses are bitwise those of serial."""
    config = _config("arxiv")
    losses = {}
    for executor, extra in (
        ("serial", {}),
        # fork keeps the test fast; the spawn path is pinned by
        # tests/runtime/test_mp_prepare.py
        ("multiprocess", {"mp_start_method": "fork"}),
    ):
        trainer = Trainer(
            tiny_dataset, config, executor=executor, num_workers=2, seed=11, **extra
        )
        stats = trainer.train_epoch(0)
        trainer.shutdown()
        assert stats.num_batches > 1
        losses[executor] = stats.losses
    assert losses["multiprocess"] == losses["serial"]


def test_second_epoch_stays_identical(tiny_dataset):
    """Optimizer state and epoch-indexed shuffling must stay in lockstep
    across executors beyond the first epoch."""
    config = _config("arxiv")
    per_executor = {}
    for executor in EXECUTORS:
        trainer = Trainer(
            tiny_dataset, config, executor=executor, num_workers=2, seed=4
        )
        history = [trainer.train_epoch(epoch).losses for epoch in range(2)]
        trainer.shutdown()
        per_executor[executor] = history
    assert per_executor["pipelined"] == per_executor["serial"]
    assert per_executor["serial"][0] != per_executor["serial"][1]


def test_inference_identical_across_executors(tiny_dataset):
    """Sampled inference (Section 5.4) is deterministic across executor
    policies too — including the device-staged overlapped paths."""
    config = _config("arxiv")
    outputs = []
    for infer_executor in EXECUTORS:
        trainer = Trainer(
            tiny_dataset,
            config,
            executor="serial",
            seed=11,
            infer_executor=infer_executor,
        )
        trainer.train_epoch(0)
        outputs.append(trainer.predict(tiny_dataset.split.val[:80], seed=2))
        trainer.shutdown()
    np.testing.assert_array_equal(outputs[0], outputs[1])
