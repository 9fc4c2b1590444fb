"""Multiprocess prepare policy: determinism, failure handling, telemetry.

The de-simulation contract (ISSUE 9): worker *processes* sampling and
slicing over shared memory must be indistinguishable from the in-process
policies — byte-identical per-batch losses for a shared seed, the same
StageError cancellation on failure (including a worker killed mid-epoch),
and every pinned slot back in the pool afterwards.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import generate_dataset
from repro.models import GraphSAGE
from repro.nn import Adam
from repro.runtime import (
    Device,
    MPPrepareStage,
    SharedSlotPool,
    StageError,
    WorkerCrashed,
    build_pipeline,
    mp_prepare,
)
from repro.sampling import FastNeighborSampler
from repro.slicing import FeatureStore
from repro.tensor import Tensor, functional as F

from ..helpers import process_state, settled_process_state

FANOUTS = [5, 3]


class SlowSampler(FastNeighborSampler):
    """Answers well after a shortened result timeout."""

    def sample(self, batch_nodes, rng):
        time.sleep(1.5)
        return super().sample(batch_nodes, rng)


@pytest.fixture(scope="module")
def setup():
    dataset = generate_dataset("arxiv", scale=0.25, seed=3)
    store = FeatureStore(dataset.features, dataset.labels)
    rng = np.random.default_rng(0)
    batches = [
        rng.choice(dataset.split.train, size=32, replace=False) for _ in range(6)
    ]
    return dataset, store, batches


def make_train_fn(dataset, seed=4):
    model = GraphSAGE(
        dataset.num_features, 32, dataset.num_classes, num_layers=2,
        rng=np.random.default_rng(seed),
    )
    optimizer = Adam(model.parameters(), lr=1e-2)

    def train_fn(device_batch):
        model.train()
        optimizer.zero_grad()
        out = model(Tensor(device_batch.xs.data), device_batch.mfg.adjs)
        loss = F.nll_loss(out, device_batch.ys.data)
        loss.backward()
        optimizer.step()
        return loss.item()

    return train_fn


def serial_losses(setup, seed=9):
    dataset, store, batches = setup
    device = Device()
    executor = build_pipeline(
        "serial",
        lambda: FastNeighborSampler(dataset.graph, FANOUTS),
        store,
        device=device,
        seed=seed,
    )
    stats = executor.run_epoch(batches, make_train_fn(dataset))
    device.shutdown()
    return stats.losses


def mp_executor(setup, sampler_cls=FastNeighborSampler, **kwargs):
    dataset, store, _ = setup
    device = Device()
    defaults = dict(
        num_workers=2,
        max_batch=32,
        seed=9,
        start_method="fork",  # spawn is exercised separately; fork is fast
    )
    defaults.update(kwargs)
    pipeline = build_pipeline(
        "multiprocess",
        lambda: sampler_cls(dataset.graph, FANOUTS),
        store,
        device=device,
        **defaults,
    )
    return pipeline, device


class TestDeterminism:
    def test_losses_bitwise_identical_to_serial(self, setup):
        expected = serial_losses(setup)
        executor, device = mp_executor(setup)
        try:
            stats = executor.run_epoch(setup[2], make_train_fn(setup[0]))
        finally:
            executor.close()
            device.shutdown()
        assert stats.losses == expected
        assert stats.num_batches == len(setup[2])

    def test_spawn_start_method(self, setup):
        """The documented (portable) start method: slower to boot, same
        bytes out."""
        expected = serial_losses(setup)[:3]
        executor, device = mp_executor(setup, num_workers=1, start_method="spawn")
        try:
            stats = executor.run_epoch(setup[2][:3], make_train_fn(setup[0]))
        finally:
            executor.close()
            device.shutdown()
        assert stats.losses == expected

    def test_worker_count_does_not_change_results(self, setup):
        losses = []
        for workers in (1, 3):
            executor, device = mp_executor(setup, num_workers=workers)
            try:
                stats = executor.run_epoch(setup[2], make_train_fn(setup[0]))
            finally:
                executor.close()
                device.shutdown()
            losses.append(stats.losses)
        assert losses[0] == losses[1]

    def test_depth_zero_drives_worker_zero(self, setup):
        """Without prefetch the caller's one inline state drives worker 0."""
        expected = serial_losses(setup)
        executor, device = mp_executor(setup, prefetch_depth=0)
        try:
            stats = executor.run_epoch(setup[2], make_train_fn(setup[0]))
            metrics = executor.ctx.metrics
            assert metrics.value("mp_batches", worker="0") == len(setup[2])
            assert metrics.value("mp_batches", worker="1") == 0
        finally:
            executor.close()
            device.shutdown()
        assert stats.losses == expected


class TestFailureHandling:
    @pytest.fixture(autouse=True)
    def restores_process_state(self, setup):
        """Once the pipeline is closed after any fault, ``/dev/shm``, the
        thread count and the child-process list are as they were."""
        before = process_state()
        yield
        assert settled_process_state(before) == before

    def test_worker_exception_propagates_as_stage_error(self, setup):
        dataset, store, batches = setup
        poisoned = list(batches)
        # out-of-range node ids blow up inside the worker's slice step
        poisoned[2] = np.array([dataset.num_nodes + 5], dtype=np.int64)
        executor, device = mp_executor(setup)
        try:
            with pytest.raises(StageError) as excinfo:
                executor.run_epoch(poisoned, make_train_fn(dataset))
            assert excinfo.value.stage == "prepare"
            # cancellation must have returned every pinned slot
            pool = executor.pinned_pool
            assert pool.free_slots() == pool.total_slots
            # the pool is still healthy: a clean epoch runs afterwards
            stats = executor.run_epoch(batches, make_train_fn(dataset))
            assert stats.num_batches == len(batches)
        finally:
            executor.close()
            device.shutdown()

    def test_worker_killed_mid_epoch_releases_all_slots(self, setup):
        """SIGKILL a worker process: its dispatch thread must raise
        WorkerCrashed, the pipeline must cancel with a StageError, and
        every pinned slot must return to the pool."""
        dataset, store, batches = setup
        executor, device = mp_executor(setup, num_workers=1)
        try:
            victim = executor.prepare_stage.processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            for _ in range(2):
                # the dead worker fails every later epoch too, never hangs
                with pytest.raises(StageError) as excinfo:
                    executor.run_epoch(batches, make_train_fn(dataset))
                assert isinstance(excinfo.value.original, WorkerCrashed)
                pool = executor.pinned_pool
                assert pool.free_slots() == pool.total_slots
        finally:
            executor.close()
            device.shutdown()

    def test_result_timeout_kills_the_worker_before_its_slot_is_freed(
        self, setup, monkeypatch
    ):
        """A worker that misses the result timeout is dead by the time the
        StageError surfaces, so it cannot write into the slot the
        cancellation returned to the pool."""
        monkeypatch.setattr(mp_prepare, "RESULT_TIMEOUT_S", 0.3)
        dataset, store, batches = setup
        executor, device = mp_executor(setup, SlowSampler, num_workers=1)
        try:
            with pytest.raises(StageError) as excinfo:
                executor.run_epoch(batches, make_train_fn(dataset))
            assert isinstance(excinfo.value.original, TimeoutError)
            assert not executor.prepare_stage.processes[0].is_alive()
            pool = executor.pinned_pool
            assert pool.free_slots() == pool.total_slots
        finally:
            executor.close()
            device.shutdown()

    def test_a_worker_that_fails_to_start_leaves_nothing_behind(
        self, setup, monkeypatch
    ):
        """The second worker cannot start: the stage kills and reaps the
        first and unlinks both segments before the error surfaces."""
        dataset, store, _ = setup
        fork_process = multiprocessing.get_context("fork").Process
        real_start = fork_process.start
        started = []

        def start(process):
            if started:
                raise OSError("cannot start a second worker")
            started.append(process)
            real_start(process)

        monkeypatch.setattr(fork_process, "start", start)
        pool = SharedSlotPool(
            2,
            max_rows=64,
            num_features=store.num_features,
            max_batch=8,
            feature_dtype=store.feature_dtype,
        )
        with pytest.raises(OSError, match="second worker"):
            MPPrepareStage(
                dataset.graph,
                store,
                pool,
                FastNeighborSampler,
                FANOUTS,
                workers=2,
                start_method="fork",
            )
        assert len(started) == 1
        assert started[0].exitcode is not None  # killed and reaped

    def test_close_is_idempotent(self, setup):
        executor, device = mp_executor(setup, num_workers=1)
        executor.close()
        executor.close()
        device.shutdown()


class TestTelemetry:
    def test_per_worker_busy_metrics_recorded(self, setup):
        executor, device = mp_executor(setup)
        try:
            executor.run_epoch(setup[2], make_train_fn(setup[0]))
            snapshot = executor.ctx.metrics.snapshot()
            batches_per_worker = [
                entry
                for entry in snapshot
                if entry["name"] == "mp_batches"
            ]
            assert sum(e["value"] for e in batches_per_worker) == len(setup[2])
            busy = [
                entry
                for entry in snapshot
                if entry["name"] == "mp_worker_busy_seconds"
            ]
            assert busy and all(e["sum"] > 0 for e in busy)
            # dispatch overhead is tracked separately from worker busy time
            assert executor.ctx.metrics.value("mp_result_wait_seconds") >= 0.0
        finally:
            executor.close()
            device.shutdown()


def test_a_fresh_worker_interpreter_imports_no_scipy_sparse():
    """What a spawned worker imports (``repro.runtime.mp_prepare`` and all
    it pulls in) leaves ``scipy.sparse`` unloaded: the CSR kernels import
    it at first use, and a worker runs none."""
    src = Path(mp_prepare.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import sys, repro.runtime.mp_prepare; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
