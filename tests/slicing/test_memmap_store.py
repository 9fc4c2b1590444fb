"""On-disk feature slabs and the memmap cold tier, a ``FeatureStore``."""

import sys
import threading

import numpy as np
import pytest

from repro.slicing import FeatureStore, MemmapFeatureStore, write_slab
from repro.slicing.memmap_store import (
    SLAB_ALIGNMENT,
    SLAB_MAGIC,
    read_slab_header,
)
from repro.slicing.quantize import max_quantization_error
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
            store.features[0, 0] = 1.0

    def test_gather_metrics_accumulate(self, slab, rng):
        store = MemmapFeatureStore(slab)
        ids = rng.choice(store.num_nodes, size=32)
        store.slice_features(ids)
        assert store.metrics.value("mmap_rows_read") == 32
        assert store.metrics.value("mmap_bytes_read") == 32 * store.row_bytes()
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
        """A worker reopens the slab from its path alone."""
        store = MemmapFeatureStore(slab)
        reopened = MemmapFeatureStore(str(store.path))
        ids = rng.choice(store.num_nodes, size=16)
        np.testing.assert_array_equal(
            reopened.slice_features(ids), store.slice_features(ids)
        )

    def test_spec_with_missing_slab_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="gone.slab"):
            MemmapFeatureStore(str(tmp_path / "gone.slab"))


class TestQuantizedStore:
    """A quantized store slices its codes; ``decode`` is the inverse."""

    def test_reconstruction_error_bounded(self, quant_slab, small_products, rng):
        store = MemmapFeatureStore(quant_slab)
        assert store.feature_dtype == np.uint8
        assert store.row_bytes() == store.num_features  # 1 byte/value
        ids = rng.choice(store.num_nodes, size=64)
        recon = store.decode(store.slice_features(ids))
        assert recon.dtype == np.float32
        exact = small_products.features[ids].astype(np.float32)
        bound = max_quantization_error(store.params) + 1e-6
        assert np.max(np.abs(recon - exact)) <= bound

    def test_dequantizes_into_pinned_shaped_out(self, quant_slab, rng):
        """The pinned slot holds the stored codes byte for byte; decoding
        the slot gives fresh float32 rows that do not alias it."""
        store = MemmapFeatureStore(quant_slab)
        ids = rng.choice(store.num_nodes, size=8)
        slot = np.empty((16, store.num_features), dtype=store.feature_dtype)
        view = slot[:8]
        assert store.slice_features(ids, out=view) is view
        np.testing.assert_array_equal(view, store.features[ids])
        decoded = store.decode(view)
        assert not np.shares_memory(decoded, slot)
        np.testing.assert_array_equal(decoded, store.decode(store.slice_features(ids)))


class TestConcurrentSlicing:
    """One store is shared by every prepare thread of a pipeline, so slicing
    must be safe to call concurrently: the store keeps no scratch, and
    anything with persistent scratch is per-thread state (DESIGN.md,
    "Ownership")."""

    THREADS = 8
    BATCHES_PER_THREAD = 150

    @pytest.mark.parametrize("kind", ["mmap", "mmap-quant"])
    def test_threads_sharing_one_store_gather_their_own_rows(
        self, kind, slab, quant_slab
    ):
        store = MemmapFeatureStore(slab if kind == "mmap" else quant_slab)
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
        resident_before = store.resident_bytes()

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
        # Slicing grows nothing on the store: it holds only its quant params.
        assert store.resident_bytes() == resident_before
        params = store.params
        assert resident_before == (params.nbytes() if params is not None else 0)


@pytest.mark.parametrize("bad", [-1, 4], ids=["minus-one", "num-nodes"])
@pytest.mark.parametrize("use_out", [False, True], ids=["no-out", "out"])
@pytest.mark.parametrize("what", ["features", "labels"])
@pytest.mark.parametrize("tier", ["ram", "mmap", "mmap-quant"])
def test_out_of_range_ids_raise_on_every_path(tier, what, use_out, bad, tmp_path):
    """Regression: on the paths without an ``out`` buffer a negative id
    wrapped silently (``[0, -1]`` returned row / label 3 of a 4-node store)."""
    features = np.arange(8, dtype=np.float32).reshape(4, 2)
    labels = np.arange(10, 14)
    if tier == "ram":
        store = FeatureStore(features, labels)
    else:
        encoding = "raw" if tier == "mmap" else "uint8"
        store = MemmapFeatureStore(
            write_slab(tmp_path / "four.slab", features, labels, encoding=encoding)
        )
    out = None
    if use_out and what == "features":
        out = np.empty((2, store.num_features), dtype=store.feature_dtype)
    elif use_out:
        out = np.empty(2, dtype=np.int64)
    with pytest.raises(IndexError):
        getattr(store, f"slice_{what}")(np.array([0, bad]), out=out)
