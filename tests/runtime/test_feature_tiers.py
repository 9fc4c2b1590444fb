"""Tier-parity contract: the storage tier must never change training.

``feature_tier`` only says where feature bytes live — RAM, an on-disk
memmap slab, or uint8 codes — behind the one ``FeatureStore`` contract.
These tests pin the guarantee: per seed, ram and mmap produce
byte-identical loss traces on the serial, pipelined (threads sharing one
store) *and* multiprocess policies, quantized drift stays bounded (strictly,
under 1e-2, on the parity run of ``TestStrictParity``), and worker processes
reopen the slab read-only without copy-on-write growth.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import generate_dataset, write_dataset_slab
from repro.datasets.slab import dataset_slab_path
from repro.runtime import SharedDataset
from repro.slicing import FeatureStore, MemmapFeatureStore
from repro.telemetry import ProbeSampler
from repro.train import Trainer
from repro.train.config import ExperimentConfig


def _config() -> ExperimentConfig:
    return ExperimentConfig(
        dataset="arxiv",
        model="sage",
        num_layers=2,
        hidden_channels=16,
        train_fanouts=(6, 4),
        infer_fanouts=(6, 6),
        batch_size=64,
    )


def _losses(dataset, slab_dir, epochs=1, config=None, seed=11, **kw):
    """Per-batch losses of ``epochs`` epochs, concatenated."""
    trainer = Trainer(
        dataset, config or _config(), seed=seed, slab_dir=slab_dir / "slabs", **kw
    )
    try:
        losses = []
        for epoch in range(epochs):
            stats = trainer.train_epoch(epoch)
            assert stats.num_batches > 1
            losses += stats.losses
        return losses
    finally:
        trainer.shutdown()


@pytest.fixture(scope="module")
def ram_losses(tiny_dataset, tmp_path_factory):
    return _losses(tiny_dataset, tmp_path_factory.mktemp("ram"), executor="serial")


class TestTrainingParity:
    def test_mmap_matches_ram_bitwise_serial(
        self, tiny_dataset, tmp_path, ram_losses
    ):
        losses = _losses(
            tiny_dataset, tmp_path, feature_tier="mmap", executor="serial"
        )
        assert losses == ram_losses

    @pytest.mark.parametrize("seed", [0, 100])
    def test_mmap_matches_ram_bitwise_pipelined(self, tiny_dataset, tmp_path, seed):
        """Two prepare threads slice one shared store; several epochs give
        a scratch race the chance to show (it diverged from batch 1)."""
        expected = _losses(
            tiny_dataset, tmp_path, epochs=4, seed=seed, executor="serial"
        )
        losses = _losses(
            tiny_dataset,
            tmp_path,
            epochs=4,
            seed=seed,
            feature_tier="mmap",
            executor="pipelined",
            num_workers=2,
        )
        assert losses == expected

    def test_mmap_matches_ram_bitwise_multiprocess(
        self, tiny_dataset, tmp_path, ram_losses
    ):
        losses = _losses(
            tiny_dataset,
            tmp_path,
            feature_tier="mmap",
            executor="multiprocess",
            num_workers=2,
            mp_start_method="fork",
        )
        assert losses == ram_losses

    def test_quantized_loss_drift_bounded(self, tiny_dataset, tmp_path, ram_losses):
        """Quantization perturbs the loss, but only slightly.

        This 6-batch tiny-dataset epoch at hidden 16 is noisy; the strict
        1e-2 bound is ``TestStrictParity``'s, on its own configuration.
        """
        losses = _losses(tiny_dataset, tmp_path, feature_tier="mmap-quant")
        delta = abs(float(np.mean(losses)) - float(np.mean(ram_losses)))
        assert 0 < delta < 0.1

    def test_probes_record_mmap_wait(self, tiny_dataset, tmp_path):
        """The store's wait counter is a series of the trainer's registry."""
        probes = ProbeSampler(interval=0.001)
        trainer = Trainer(
            tiny_dataset,
            _config(),
            executor="serial",
            feature_tier="mmap-quant",
            slab_dir=tmp_path,
            probes=probes,
        )
        try:
            trainer.train_epoch(0)
        finally:
            trainer.shutdown()
        probes.sample_once()
        _, values = probes.ring("mmap_wait_seconds").series()
        assert values[-1] > 0

    def test_multiprocess_workers_count_rows_in_the_parent(
        self, tiny_dataset, tmp_path
    ):
        """The slab is read in the worker processes; their counters ride
        each reply, so the parent's ``mmap_rows_read`` is every row the
        epoch's batches sliced."""
        trainer = Trainer(
            tiny_dataset,
            _config(),
            executor="multiprocess",
            num_workers=2,
            mp_start_method="fork",
            feature_tier="mmap",
            slab_dir=tmp_path,
        )
        rows = []

        def step(batch):
            rows.append(len(batch.mfg.n_id))
            return trainer.train_step(batch)

        try:
            trainer._pipeline.run_epoch(trainer.epoch_batches(0), step)
        finally:
            trainer.shutdown()
        assert len(rows) > 1
        assert trainer.metrics.value("mmap_rows_read") == sum(rows)
        assert trainer.metrics.value("mmap_wait_seconds") > 0

    def test_unknown_tier_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="feature_tier"):
            Trainer(tiny_dataset, _config(), feature_tier="ssd")

    def test_stale_slab_detected(self, tiny_dataset, small_products, tmp_path):
        """Slab paths key on dataset name; reusing a directory holding the
        same name at another scale must fail loudly, not train on stale
        features."""
        slab_dir = tmp_path / "slabs"
        slab_dir.mkdir()
        write_dataset_slab(
            small_products, dataset_slab_path(slab_dir, tiny_dataset.name, "raw")
        )
        with pytest.raises(ValueError, match="nodes"):
            Trainer(
                tiny_dataset,
                _config(),
                feature_tier="mmap",
                slab_dir=slab_dir,
            )


class TestQuantizedPolicyParity:
    """Codes travel as stored and are decoded once, on the device side, so
    the quantized tier keeps the policy invariant byte for byte."""

    def test_losses_identical_across_policies(self, tiny_dataset, tmp_path):
        def run(**kw):
            return _losses(tiny_dataset, tmp_path, feature_tier="mmap-quant", **kw)

        serial = run(executor="serial")
        assert run(executor="pipelined", num_workers=2) == serial
        assert (
            run(executor="multiprocess", num_workers=2, mp_start_method="fork")
            == serial
        )

    def test_host_only_predict_matches_pipelined_with_device(
        self, tiny_dataset, tmp_path
    ):
        trainer = Trainer(
            tiny_dataset,
            _config(),
            executor="serial",
            feature_tier="mmap-quant",
            slab_dir=tmp_path,
        )
        try:
            trainer.train_epoch(0)
            nodes = tiny_dataset.split.val
            host_only = trainer.predict(nodes)  # serial: no device
            trainer.infer_executor = "pipelined"
            np.testing.assert_array_equal(trainer.predict(nodes), host_only)
        finally:
            trainer.shutdown()


class TestStrictParity:
    """The one strict gate: arxiv at scale 0.05, hidden 32, fanouts (5, 5),
    batch 64, seed 3, one epoch. ram and mmap losses are identical under
    ``serial`` and under ``multiprocess`` (2 spawned workers), and the
    quantized tier moves the epoch's mean loss by less than 1e-2."""

    @pytest.fixture(scope="class")
    def losses(self, tmp_path_factory):
        dataset = generate_dataset("arxiv", scale=0.05, seed=0)
        config = replace(
            _config(), hidden_channels=32, train_fanouts=(5, 5), infer_fanouts=(5, 5)
        )
        slab_dir = tmp_path_factory.mktemp("parity")

        def run(**kw):
            return _losses(dataset, slab_dir, config=config, seed=3, **kw)

        return run

    @pytest.fixture(scope="class")
    def ram(self, losses):
        return losses(feature_tier="ram")

    def test_ram_vs_mmap_identical_serial(self, losses, ram):
        assert losses(feature_tier="mmap") == ram

    def test_ram_vs_mmap_identical_multiprocess(self, losses, ram):
        mp = {"executor": "multiprocess", "num_workers": 2}
        assert losses(feature_tier="ram", **mp) == ram
        assert losses(feature_tier="mmap", **mp) == ram

    def test_quantized_final_loss_delta_under_1e_2(self, losses, ram):
        quant = losses(feature_tier="mmap-quant")
        delta = abs(float(np.mean(ram)) - float(np.mean(quant)))
        assert 0 <= delta < 1e-2


class TestWorkerAttach:
    @pytest.fixture()
    def slab_store(self, tmp_path, tiny_dataset):
        path = dataset_slab_path(tmp_path, tiny_dataset.name, "raw")
        write_dataset_slab(tiny_dataset, path)
        return MemmapFeatureStore(path)

    def test_shared_dataset_spec_carries_store_spec(self, tiny_dataset, slab_store):
        """A slab store is a FeatureStore too, yet shares its path, not
        a copy of its rows."""
        shared = SharedDataset.create(tiny_dataset.graph, slab_store)
        try:
            spec = shared.spec()
            assert spec["slab_path"] == str(slab_store.path)
            assert "features" not in spec["arena"]["layout"]
        finally:
            shared.close()
            shared.unlink()

    def test_reopened_worker_store_is_read_only(self, tiny_dataset, slab_store):
        """Workers map the slab ``mode="r"``: the pages are shared with
        every other process and can never be copied on write."""
        shared = SharedDataset.create(tiny_dataset.graph, slab_store)
        try:
            attached = SharedDataset.attach(shared.spec())
            worker_store = attached.store
            assert isinstance(worker_store, MemmapFeatureStore)
            assert worker_store.features.mode == "r"
            with pytest.raises(ValueError):
                worker_store.features[0, 0] = 1.0
            ids = np.arange(16)
            np.testing.assert_array_equal(
                worker_store.slice_features(ids), slab_store.slice_features(ids)
            )
        finally:
            shared.close()
            shared.unlink()

    def test_ram_store_still_travels_through_shm(self, tiny_dataset):
        """The pre-tier path is unchanged: an in-RAM store copies its
        arrays into the shared arena and attaches without a spec."""
        store = FeatureStore(tiny_dataset.features, tiny_dataset.labels)
        shared = SharedDataset.create(tiny_dataset.graph, store)
        try:
            assert shared.spec()["slab_path"] is None
            attached = SharedDataset.attach(shared.spec())
            np.testing.assert_array_equal(
                attached.store.slice_features(np.arange(8)),
                store.slice_features(np.arange(8)),
            )
        finally:
            shared.close()
            shared.unlink()
