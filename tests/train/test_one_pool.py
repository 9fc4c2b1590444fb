"""One prepare pool per ``Trainer``: training epochs and ``predict`` are runs
on the trainer's one pipeline.

Its workers (threads, or processes under ``multiprocess``), their samplers,
the staging slots, the registry and the tracer are made once and serve
every later run.  Reusing them must not change a bit: interleaved epochs
and ``predict`` calls on one trainer equal the same calls each made on a
fresh pool.  And the pool must be a lifetime, not a leak: its arenas stop
growing, its thread count stays put, a failed ``predict`` gives every slot
back, and ``shutdown()`` leaves nothing running.  A ``DDPTrainer`` keeps
one such pipeline per rank, under the same checks.
"""

import threading

import numpy as np
import pytest

from repro.runtime import PinnedBufferPool, StageError, stages
from repro.sampling import FastNeighborSampler
from repro.telemetry import Tracer
from repro.train import DDPTrainer, ExperimentConfig, Trainer, inference

from ..helpers import process_state, settled_process_state

CONFIG = ExperimentConfig(
    dataset="arxiv",
    model="sage",
    num_layers=2,
    hidden_channels=16,
    train_fanouts=(5, 3),
    infer_fanouts=(6, 6),
    batch_size=64,
)

#: executor -> Trainer keywords; fork keeps the process-pool cells fast
POLICIES = {
    "serial": dict(executor="serial"),
    "pipelined": dict(executor="pipelined"),
    "multiprocess": dict(executor="multiprocess", mp_start_method="fork"),
}


def _trainer(dataset, policy, **kwargs):
    return Trainer(dataset, CONFIG, seed=3, num_workers=2, **POLICIES[policy], **kwargs)


def _prepare_threads():
    return [t for t in threading.enumerate() if t.name.startswith("prepare")]


#: the interleaved calls: (name, infer_executor or epoch)
CALLS = [
    ("epoch", 0),
    ("predict", "serial"),
    ("epoch", 1),
    ("predict", "pipelined"),
    ("predict", "serial"),
    ("epoch", 2),
    ("predict", "pipelined"),
]


def _call(trainer, call, nodes):
    kind, arg = call
    if kind == "epoch":
        return np.asarray(trainer.train_epoch(arg).losses)
    trainer.infer_executor = arg
    return trainer.predict(nodes, seed=5)


@pytest.mark.parametrize("policy", POLICIES)
def test_a_reused_pool_equals_a_fresh_pool_per_call(policy, tiny_dataset):
    """The same model and optimizer driven through one trainer's pool, and
    through a fresh trainer (fresh pool, samplers, slots) for every call:
    per-batch losses and log-probs are ``array_equal``."""
    nodes = tiny_dataset.split.val[:150]
    reused = _trainer(tiny_dataset, policy)
    try:
        once = [_call(reused, call, nodes) for call in CALLS]
    finally:
        reused.shutdown()

    state = _trainer(tiny_dataset, policy)  # carries model + optimizer
    state.shutdown()
    fresh_outputs = []
    for call in CALLS:
        fresh = _trainer(tiny_dataset, policy)
        fresh.model, fresh.optimizer = state.model, state.optimizer
        try:
            fresh_outputs.append(_call(fresh, call, nodes))
        finally:
            fresh.shutdown()
    for call, a, b in zip(CALLS, once, fresh_outputs):
        assert np.array_equal(a, b), call


@pytest.mark.parametrize("policy", POLICIES)
def test_both_inference_policies_agree_on_the_pool(policy, tiny_dataset):
    """On one model state, ``predict`` on the caller and on the trainer's
    workers (threads, or processes sent the run's fanouts) are equal."""
    trainer = _trainer(tiny_dataset, policy)
    nodes = tiny_dataset.split.val[:150]
    try:
        trainer.train_epoch(0)
        outputs = []
        for infer_executor in ("serial", "pipelined", "serial"):
            trainer.infer_executor = infer_executor
            outputs.append(trainer.predict(nodes, seed=9))
        assert np.array_equal(outputs[0], outputs[1])
        assert np.array_equal(outputs[0], outputs[2])
    finally:
        trainer.shutdown()


def test_predict_is_a_run_on_the_trainers_pipeline(tiny_dataset, monkeypatch):
    """``predict`` builds no pipeline, and lands in the trainer's registry
    and tracer as ``infer`` spans; after the first runs neither an epoch
    nor a ``predict`` makes a thread pool, a slot pool or a sampler."""
    tracer = Tracer()
    trainer = _trainer(tiny_dataset, "pipelined", tracer=tracer)
    nodes = tiny_dataset.split.val[:150]
    made = []
    try:
        for policy in ("serial", "pipelined"):  # warm-up: the first runs
            trainer.infer_executor = policy
            trainer.train_epoch(0)
            trainer.predict(nodes)

        def spy(cls):
            init = cls.__init__

            def counting_init(self, *args, **kwargs):
                made.append(cls.__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)

        for cls in (FastNeighborSampler, PinnedBufferPool, stages.ThreadPoolExecutor):
            spy(cls)
        monkeypatch.setattr(inference, "build_pipeline", lambda *a, **k: made.append("pipeline"))
        batches = trainer.metrics.value("sampler_batches")
        infer_s = trainer.metrics.value("caller_seconds", stage="infer")
        for epoch in range(1, 3):
            trainer.train_epoch(epoch)
            for policy in ("serial", "pipelined"):
                trainer.infer_executor = policy
                trainer.predict(nodes)
        assert made == []
        per_epoch = len(trainer.epoch_batches(1))
        per_predict = -(-len(nodes) // CONFIG.batch_size)
        expected = batches + 2 * per_epoch + 4 * per_predict
        assert trainer.metrics.value("sampler_batches") == expected
        assert trainer.metrics.value("caller_seconds", stage="infer") > infer_s
        assert {"infer", "train"} <= {event.name for event in tracer.events}
    finally:
        trainer.shutdown()


@pytest.mark.parametrize("policy", ["pipelined", "multiprocess"])
def test_fanouts_past_the_slots_run_on_the_caller(policy, small_products):
    """The slots hold a batch of the configured train or infer fanouts; a
    pipelined ``predict`` with fanouts whose batches could outgrow them runs
    host-only on the caller instead of failing, with the serial bits."""
    config = ExperimentConfig(
        dataset="products", model="sage", num_layers=2, hidden_channels=16,
        train_fanouts=(5, 3), infer_fanouts=(5, 3), batch_size=16,
    )
    trainer = Trainer(
        small_products, config, seed=0, num_workers=2, **POLICIES[policy],
        infer_executor="pipelined",
    )
    nodes = small_products.split.val[:64]
    try:
        assert trainer._pipeline.slots_fit([5, 3], 16)
        assert not trainer._pipeline.slots_fit([25, 25], 16)
        wide = trainer.predict(nodes, fanouts=[25, 25])
        trainer.infer_executor = "serial"
        np.testing.assert_array_equal(trainer.predict(nodes, fanouts=[25, 25]), wide)
    finally:
        trainer.shutdown()


@pytest.mark.parametrize("policy", ["pipelined", "multiprocess"])
def test_arenas_stop_growing_after_warmup(policy, small_products):
    """A worker's arena serves both the train and the infer fanouts and
    outlives every run: after two warm-up epochs and ``predict`` calls,
    three more of each grow nothing.  One worker, so which arena meets
    which batch is not left to scheduling."""
    config = ExperimentConfig(
        dataset="products", model="sage", num_layers=3, hidden_channels=16,
        batch_size=128,
    )
    trainer = Trainer(
        small_products, config, seed=0, num_workers=1, **POLICIES[policy],
        infer_executor="pipelined",
    )
    nodes = small_products.split.val[:256]
    try:
        for epoch in range(2):
            trainer.train_epoch(epoch)
            trainer.predict(nodes)
        grows = trainer.metrics.value("arena_grows")
        assert grows > 0
        for epoch in range(2, 5):
            trainer.train_epoch(epoch)
            trainer.predict(nodes, seed=epoch)
        assert trainer.metrics.value("arena_grows") == grows
    finally:
        trainer.shutdown()


@pytest.mark.parametrize("policy", ["pipelined", "multiprocess"])
def test_the_thread_and_child_counts_hold_across_predicts(policy, tiny_dataset):
    trainer = _trainer(tiny_dataset, policy, infer_executor="pipelined")
    nodes = tiny_dataset.split.val[:150]
    try:
        trainer.train_epoch(0)
        trainer.predict(nodes)
        state = process_state()
        workers = len(_prepare_threads())
        assert workers >= 1
        for seed in range(20):
            trainer.predict(nodes, seed=seed)
            assert process_state() == state
        assert len(_prepare_threads()) == workers
    finally:
        trainer.shutdown()


@pytest.mark.parametrize("policy", ["serial", "pipelined", "multiprocess"])
def test_a_failed_predict_frees_every_slot_and_the_next_epoch_runs(
    policy, tiny_dataset
):
    """A node id past the graph fails the sampler inside ``predict`` (on a
    worker thread or process): one StageError, every staging slot free, the
    failed run's threads joined, and the next epoch trains exactly as on a
    trainer that never failed."""
    bad = np.array([0, tiny_dataset.num_nodes + 5])
    trainer = _trainer(tiny_dataset, policy, infer_executor="pipelined")
    reference = _trainer(tiny_dataset, policy)
    try:
        trainer.train_epoch(0)
        reference.train_epoch(0)
        with pytest.raises(StageError, match="out of range"):
            trainer.predict(bad)
        assert trainer._pipeline._pool is None  # its threads are joined
        pool = trainer._pipeline.pinned_pool
        if pool is not None:
            assert pool.free_slots() == pool.total_slots
        losses = trainer.train_epoch(1).losses
        assert losses == reference.train_epoch(1).losses
    finally:
        trainer.shutdown()
        reference.shutdown()


@pytest.mark.parametrize("policy", ["pipelined", "multiprocess"])
def test_shutdown_leaves_no_prepare_thread_and_no_child(policy, tiny_dataset):
    before = process_state()
    trainer = _trainer(tiny_dataset, policy, infer_executor="pipelined")
    try:
        trainer.train_epoch(0)
        trainer.predict(tiny_dataset.split.val[:150])
        assert _prepare_threads()
    finally:
        trainer.shutdown()
    assert settled_process_state(before) == before
    assert not _prepare_threads()


# ----------------------------------------------------------------------
# DDPTrainer: one pipeline per rank, for the trainer's lifetime
# ----------------------------------------------------------------------
RANKS = 2

#: the interleaved DDP calls: (name, epoch or inference policy)
DDP_CALLS = [
    ("epoch", 0),
    ("infer", "serial"),
    ("epoch", 1),
    ("infer", "pipelined"),
    ("epoch", 2),
    ("infer", "serial"),
    ("infer", "pipelined"),
]


def _ddp(dataset):
    return DDPTrainer(dataset, CONFIG, num_ranks=RANKS, seed=3)


def _ddp_call(ddp, call, nodes):
    kind, arg = call
    if kind == "epoch":
        return np.asarray([step.loss for step in ddp.train_epoch(arg)])
    return ddp.distributed_inference(nodes, seed=5, executor=arg)


def test_ddp_rank_pipelines_equal_a_fresh_trainer_per_call(tiny_dataset):
    """Three epochs and sharded inference under both policies on one
    ``DDPTrainer``'s rank pipelines, and each call on a fresh ``DDPTrainer``
    carrying the same replicas and optimizers: losses and log-probs are
    ``array_equal``."""
    nodes = tiny_dataset.split.val[:150]
    reused = _ddp(tiny_dataset)
    try:
        once = [_ddp_call(reused, call, nodes) for call in DDP_CALLS]
    finally:
        reused.shutdown()

    state = _ddp(tiny_dataset)  # carries replicas + optimizers
    state.shutdown()
    for call, expected in zip(DDP_CALLS, once):
        fresh = _ddp(tiny_dataset)
        fresh.replicas, fresh.optimizers = state.replicas, state.optimizers
        try:
            assert np.array_equal(_ddp_call(fresh, call, nodes), expected), call
        finally:
            fresh.shutdown()


def test_ddp_makes_each_rank_thread_and_sampler_once(tiny_dataset, monkeypatch):
    """After construction, each rank makes one prepare thread (with its
    sampler) and one caller-side sampler for serial inference, however many
    epochs and inference calls follow; sharded inference builds no pipeline,
    the thread count stays flat after the first round, and ``shutdown()``
    leaves no prepare thread."""
    before = process_state()
    ddp = _ddp(tiny_dataset)
    nodes = tiny_dataset.split.val[:150]
    made = []

    def spy(cls):
        init = cls.__init__

        def counting_init(self, *args, **kwargs):
            made.append((cls.__name__, threading.current_thread().name))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)

    for cls in (FastNeighborSampler, stages.ThreadPoolExecutor):
        spy(cls)
    monkeypatch.setattr(
        inference, "build_pipeline", lambda *a, **k: made.append(("pipeline", None))
    )
    try:
        for epoch in range(3):
            ddp.train_epoch(epoch)
            for executor in ("serial", "pipelined"):
                ddp.distributed_inference(nodes, executor=executor)
            if epoch == 0:
                state, threads = process_state(), len(_prepare_threads())
            assert process_state() == state
        assert threads == RANKS
        assert sorted(made) == sorted(
            [("FastNeighborSampler", "MainThread")] * RANKS
            + [("FastNeighborSampler", "prepare_0")] * RANKS
            + [("ThreadPoolExecutor", "MainThread")] * RANKS
        )
        assert ddp.metrics.value("caller_seconds", stage="infer") > 0
    finally:
        ddp.shutdown()
    assert settled_process_state(before) == before
    assert not _prepare_threads()
