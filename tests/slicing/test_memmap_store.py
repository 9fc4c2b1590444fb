"""On-disk feature slabs, the memmap cold tier, and the RAM-hot hierarchy."""

import sys
import threading

import numpy as np
import pytest

from repro.slicing import (
    FeatureStore,
    MemmapFeatureStore,
    TieredFeatureStore,
    open_store_from_spec,
    write_slab,
)
from repro.slicing.memmap_store import (
    SLAB_ALIGNMENT,
    SLAB_MAGIC,
    read_slab_header,
)
from repro.telemetry import MetricsRegistry


@pytest.fixture()
def slab(tmp_path, small_products):
    path = tmp_path / "products.raw.slab"
    write_slab(path, small_products.features, small_products.labels)
    return path


@pytest.fixture()
def quant_slab(tmp_path, small_products):
    path = tmp_path / "products.uint8.slab"
    write_slab(
        path, small_products.features, small_products.labels, encoding="uint8"
    )
    return path


@pytest.fixture()
def ram(small_products):
    return FeatureStore(small_products.features, small_products.labels)


class TestSlabFormat:
    def test_magic_and_header(self, slab):
        assert slab.read_bytes()[: len(SLAB_MAGIC)] == SLAB_MAGIC
        header = read_slab_header(slab)
        assert header["encoding"] == "raw"
        assert set(header["sections"]) == {"features", "labels"}

    def test_sections_are_aligned(self, quant_slab):
        header = read_slab_header(quant_slab)
        assert set(header["sections"]) == {"codes", "scale", "offset", "labels"}
        for meta in header["sections"].values():
            assert meta["offset"] % SLAB_ALIGNMENT == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.slab"
        path.write_bytes(b"NOTASLAB" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            read_slab_header(path)

    def test_unknown_encoding_rejected(self, tmp_path, small_products):
        with pytest.raises(ValueError, match="encoding"):
            write_slab(tmp_path / "x.slab", small_products.features, encoding="zstd")

    def test_labels_default_to_zeros(self, tmp_path):
        path = write_slab(tmp_path / "x.slab", np.zeros((4, 2), np.float16))
        store = MemmapFeatureStore(path)
        np.testing.assert_array_equal(store.labels, np.zeros(4, np.int64))


class TestMemmapFeatureStore:
    def test_matches_ram_store_exactly(self, slab, ram, rng):
        """The cold tier is byte-identical to the in-RAM fp16 store."""
        store = MemmapFeatureStore(slab)
        assert store.feature_dtype == ram.feature_dtype
        ids = rng.choice(store.num_nodes, size=64)
        np.testing.assert_array_equal(
            store.slice_features(ids), ram.slice_features(ids)
        )
        np.testing.assert_array_equal(store.slice_labels(ids), ram.slice_labels(ids))

    def test_slice_into_out_buffer(self, slab, ram, rng):
        store = MemmapFeatureStore(slab)
        ids = rng.choice(store.num_nodes, size=10)
        out = np.empty((10, store.num_features), dtype=store.feature_dtype)
        assert store.slice_features(ids, out=out) is out
        np.testing.assert_array_equal(out, ram.slice_features(ids))

    def test_out_shape_validated(self, slab):
        store = MemmapFeatureStore(slab)
        with pytest.raises(ValueError):
            store.slice_features(
                np.arange(5), out=np.empty((4, store.num_features), np.float16)
            )
        with pytest.raises(ValueError):
            store.slice_labels(np.arange(5), out=np.empty(4, np.int64))

    def test_ids_out_of_range_raise(self, slab):
        store = MemmapFeatureStore(slab)
        with pytest.raises(IndexError):
            store.slice_features(np.array([store.num_nodes]))

    def test_mapping_is_read_only(self, slab):
        store = MemmapFeatureStore(slab)
        with pytest.raises(ValueError):
            store._features[0, 0] = 1.0

    def test_gather_metrics_accumulate(self, slab, rng):
        store = MemmapFeatureStore(slab)
        ids = rng.choice(store.num_nodes, size=32)
        store.slice_features(ids)
        assert store.metrics.value("mmap_rows_read") == 32
        assert store.metrics.value("mmap_bytes_read") == 32 * store.stored_row_bytes()
        assert store.metrics.value("mmap_wait_seconds") > 0

    def test_attach_metrics_rebinds_registry(self, slab):
        store = MemmapFeatureStore(slab)
        registry = MetricsRegistry()
        store.attach_metrics(registry)
        store.slice_features(np.arange(4))
        assert registry.value("mmap_rows_read") == 4

    def test_resident_bytes_excludes_the_slab(self, slab, ram):
        store = MemmapFeatureStore(slab)
        assert store.resident_bytes() < ram.features.nbytes / 100

    def test_spec_round_trip(self, slab, rng):
        store = MemmapFeatureStore(slab)
        reopened = open_store_from_spec(store.mmap_spec())
        ids = rng.choice(store.num_nodes, size=16)
        np.testing.assert_array_equal(
            reopened.slice_features(ids), store.slice_features(ids)
        )

    def test_spec_with_missing_slab_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_store_from_spec(
                {"kind": "memmap", "path": str(tmp_path / "gone.slab")}
            )

    def test_unknown_spec_kind_raises(self):
        with pytest.raises(ValueError):
            open_store_from_spec({"kind": "s3"})


class TestQuantizedStore:
    def test_reconstruction_error_bounded(self, quant_slab, small_products, rng):
        store = MemmapFeatureStore(quant_slab)
        assert store.feature_dtype == np.float16
        assert store.stored_row_bytes() == store.num_features  # 1 byte/value
        ids = rng.choice(store.num_nodes, size=64)
        recon = store.slice_features(ids).astype(np.float32)
        exact = small_products.features[ids].astype(np.float32)
        step = float(store.params.scale.max())
        # half a quantization step plus fp16 rounding of the output
        assert np.max(np.abs(recon - exact)) <= step

    def test_dequantizes_into_pinned_shaped_out(self, quant_slab, rng):
        store = MemmapFeatureStore(quant_slab)
        ids = rng.choice(store.num_nodes, size=8)
        out = np.empty((8, store.num_features), dtype=np.float16)
        assert store.slice_features(ids, out=out) is out
        np.testing.assert_array_equal(out, store.slice_features(ids))


class TestTieredFeatureStore:
    @pytest.fixture()
    def tiered(self, slab):
        cold = MemmapFeatureStore(slab)
        return TieredFeatureStore(cold, np.arange(0, cold.num_nodes, 2))

    def test_byte_identical_to_cold(self, tiered, rng):
        """Tier routing can never change what a slice returns."""
        ids = rng.choice(tiered.num_nodes, size=128)
        np.testing.assert_array_equal(
            tiered.slice_features(ids), tiered.cold.slice_features(ids)
        )

    def test_slice_into_out_buffer(self, tiered, rng):
        ids = rng.choice(tiered.num_nodes, size=16)
        out = np.empty((16, tiered.num_features), dtype=tiered.feature_dtype)
        assert tiered.slice_features(ids, out=out) is out
        with pytest.raises(ValueError):
            tiered.slice_features(ids, out=out[:4])

    def test_per_tier_counters_and_hit_rate(self, tiered):
        ids = np.array([0, 2, 4, 1])  # evens are hot
        tiered.slice_features(ids)
        assert tiered.metrics.value("feature_tier_rows", tier="hot") == 3
        assert tiered.metrics.value("feature_tier_rows", tier="cold") == 1
        assert tiered.hit_rate() == pytest.approx(0.75)

    def test_all_cold_fast_path(self, tiered, rng):
        odds = np.arange(1, tiered.num_nodes, 2)[:32]
        np.testing.assert_array_equal(
            tiered.slice_features(odds), tiered.cold.slice_features(odds)
        )
        assert tiered.metrics.value("feature_tier_rows", tier="hot") == 0

    def test_hot_ids_validated(self, slab):
        cold = MemmapFeatureStore(slab)
        with pytest.raises(ValueError):
            TieredFeatureStore(cold, np.array([cold.num_nodes]))

    def test_labels_delegate_to_cold(self, tiered, rng):
        ids = rng.choice(tiered.num_nodes, size=8)
        np.testing.assert_array_equal(
            tiered.slice_labels(ids), tiered.cold.slice_labels(ids)
        )

    def test_worker_spec_attaches_cold_tier_only(self, tiered):
        assert tiered.mmap_spec() == tiered.cold.mmap_spec()

    def test_resident_bytes_counts_hot_rows(self, tiered):
        assert tiered.resident_bytes() >= tiered.hot_rows.nbytes

    def test_register_probes(self, tiered):
        probes = {}

        class Sampler:
            def add_probe(self, name, fn, unit=None):
                probes[name] = fn

        tiered.register_probes(Sampler())
        tiered.slice_features(np.array([0, 1]))
        assert probes["feature_tier/hot_hit_rate"]() == pytest.approx(0.5)
        assert probes["feature_tier/cold_bytes"]() > 0
        assert probes["feature_tier/mmap_wait_s"]() > 0


class TestConcurrentSlicing:
    """One store is shared by every prepare thread of a pipeline, so slicing
    must be safe to call concurrently: anything with persistent scratch is
    per-thread state (DESIGN.md, "Ownership")."""

    THREADS = 8
    BATCHES_PER_THREAD = 150

    def _store(self, kind, slab, quant_slab, small_products):
        if kind == "mmap":
            return MemmapFeatureStore(slab)
        if kind == "mmap-quant":
            return MemmapFeatureStore(quant_slab)
        hot_ids = np.arange(0, small_products.num_nodes, 3)  # a third is hot
        return TieredFeatureStore(MemmapFeatureStore(slab), hot_ids)

    @pytest.mark.parametrize("kind", ["mmap", "mmap+hot", "mmap-quant"])
    def test_threads_sharing_one_store_gather_their_own_rows(
        self, kind, slab, quant_slab, small_products
    ):
        store = self._store(kind, slab, quant_slab, small_products)
        rng = np.random.default_rng(5)
        id_batches = [
            [
                rng.integers(0, store.num_nodes, size=rng.integers(1, 48))
                for _ in range(self.BATCHES_PER_THREAD)
            ]
            for _ in range(self.THREADS)
        ]
        # The single-threaded gather is the reference for every block.
        expected = [
            [store.slice_features(ids) for ids in ids_of] for ids_of in id_batches
        ]
        scratch_before = store.resident_bytes()

        wrong: list[tuple[int, int]] = []
        start = threading.Barrier(self.THREADS)

        def worker(tid: int) -> None:
            out = np.empty((48, store.num_features), dtype=store.feature_dtype)
            start.wait(timeout=30)
            for i, ids in enumerate(id_batches[tid]):
                block = store.slice_features(ids, out=out[: len(ids)])
                if not np.array_equal(block, expected[tid][i]):
                    wrong.append((tid, i))

        threads = [
            threading.Thread(target=worker, args=(tid,), daemon=True)
            for tid in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between (almost) every bytecode
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        # Worker scratch died with its thread: the store is no heavier than
        # before, and what the calling thread holds is still counted.
        assert store.resident_bytes() == scratch_before
