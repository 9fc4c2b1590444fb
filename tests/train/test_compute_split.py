"""The trainer's compute splitter: lifecycle and telemetry.

A ``Trainer`` owns one :class:`~repro.tensor.CoreSplitter`.  Its helper
thread starts at the first split, not at construction, and
``Trainer.shutdown`` joins it, so a trainer that has trained and predicted
leaves the process as it found it under every execution policy.
"""

import threading

import pytest

from repro.datasets import generate_dataset
from repro.train import ExperimentConfig, Trainer

from ..helpers import process_state, settled_process_state


@pytest.fixture(scope="module")
def dataset():
    """Large enough that layer-0 gemms and aggregations split."""
    return generate_dataset("arxiv", scale=2.0, seed=0)


CONFIG = ExperimentConfig(
    dataset="arxiv",
    model="sage",
    hidden_channels=128,
    num_layers=2,
    train_fanouts=(10, 10),
    infer_fanouts=(10, 10),
    batch_size=256,
    epochs=1,
)


def _helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-compute-helper")]


def _trainer(dataset, **kwargs):
    trainer = Trainer(dataset, CONFIG, seed=0, **kwargs)
    trainer._splitter.parts = 2  # split on any host, one helper
    return trainer


def test_no_helper_thread_before_the_first_split(dataset):
    trainer = _trainer(dataset, executor="serial")
    try:
        assert not _helper_threads()
        assert trainer.metrics.value("compute_split_ops") == 0
        trainer.train_batches(trainer.epoch_batches(0)[:1])
        assert len(_helper_threads()) == 1
    finally:
        trainer.shutdown()
    assert not _helper_threads()


@pytest.mark.parametrize(
    "executor,start_method",
    [("pipelined", "spawn"), ("multiprocess", "fork"), ("multiprocess", "spawn")],
    ids=["pipelined", "multiprocess-fork", "multiprocess-spawn"],
)
def test_process_state_restored_after_train_predict_shutdown(
    dataset, executor, start_method
):
    before = process_state()
    trainer = _trainer(
        dataset,
        executor=executor,
        mp_start_method=start_method,
        infer_executor="pipelined",
    )
    try:
        trainer.train_epoch(0)
        trainer.predict(dataset.split.val[:200])
        assert trainer.metrics.value("compute_split_ops") > 0
    finally:
        trainer.shutdown()
    assert settled_process_state(before) == before
    assert not _helper_threads()


def test_split_telemetry_lands_in_the_trainer_registry(dataset):
    trainer = _trainer(dataset, executor="serial")
    try:
        trainer.train_epoch(0)
        ops = trainer.metrics.value("compute_split_ops")
        waited = trainer.metrics.value("compute_helper_wait_seconds")
        trainer.predict(dataset.split.val[:200])
        assert ops > 0 and waited >= 0
        # predict splits too, into the same registry
        assert trainer.metrics.value("compute_split_ops") > ops
        assert isinstance(trainer.counters.snapshot()["compute_split_ops"], int)
    finally:
        trainer.shutdown()


def test_a_one_part_trainer_never_starts_a_helper(dataset):
    trainer = Trainer(dataset, CONFIG, executor="serial", seed=0)
    trainer._splitter.parts = 1
    try:
        trainer.train_epoch(0)
        trainer.predict(dataset.split.val[:64])
        assert not _helper_threads()
        assert trainer.metrics.value("compute_split_ops") == 0
    finally:
        trainer.shutdown()
