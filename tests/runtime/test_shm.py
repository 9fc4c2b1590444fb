"""Shared-memory carriers: arena layout, slot pool, dataset."""

import numpy as np

from repro.graph import CSRGraph
from repro.runtime import PinnedBuffer, SharedArena, SharedDataset, SharedSlotPool
from repro.sampling import FastNeighborSampler
from repro.slicing import FeatureStore


class TestSharedArena:
    def test_create_attach_roundtrip(self):
        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.linspace(0, 1, 7, dtype=np.float16).reshape(1, 7),
            "c": np.zeros(3, dtype=np.uint8),
        }
        arena = SharedArena.create(arrays)
        try:
            attached = SharedArena.attach(arena.spec())
            for name, array in arrays.items():
                np.testing.assert_array_equal(attached.array(name), array)
                assert attached.array(name).dtype == array.dtype
            attached.close()
        finally:
            arena.close()
            arena.unlink()

    def test_writes_are_shared(self):
        arena = SharedArena.allocate({"x": ((4,), np.int64)})
        try:
            attached = SharedArena.attach(arena.spec())
            attached.array("x")[:] = [9, 8, 7, 6]
            np.testing.assert_array_equal(arena.array("x"), [9, 8, 7, 6])
            attached.close()
        finally:
            arena.close()
            arena.unlink()

    def test_arrays_are_aligned(self):
        arena = SharedArena.allocate(
            {"a": ((3,), np.uint8), "b": ((5,), np.float16), "c": ((2,), np.int64)}
        )
        try:
            for _, (offset, _, _) in arena._layout.items():
                assert offset % 64 == 0
        finally:
            arena.close()
            arena.unlink()

    def test_close_and_unlink_idempotent(self):
        arena = SharedArena.allocate({"x": ((2,), np.int64)})
        arena.close()
        arena.close()
        arena.unlink()
        arena.unlink()

    def test_attacher_never_unlinks(self):
        arena = SharedArena.allocate({"x": ((2,), np.int64)})
        try:
            attached = SharedArena.attach(arena.spec())
            attached.close()
            attached.unlink()  # must be a no-op for non-owners
            # segment still attachable
            again = SharedArena.attach(arena.spec())
            again.close()
        finally:
            arena.close()
            arena.unlink()


class TestSharedDataset:
    def test_attach_sees_identical_dataset(self, tiny_dataset):
        store = FeatureStore(tiny_dataset.features, tiny_dataset.labels)
        shared = SharedDataset.create(tiny_dataset.graph, store)
        try:
            attached = SharedDataset.attach(shared.spec())
            np.testing.assert_array_equal(
                attached.graph.indptr, tiny_dataset.graph.indptr
            )
            np.testing.assert_array_equal(
                attached.graph.indices, tiny_dataset.graph.indices
            )
            # byte-identical feature slab (fp16 conversion happened once,
            # in the parent store — the determinism contract)
            np.testing.assert_array_equal(attached.store.features, store.features)
            assert attached.store.features.dtype == store.features.dtype
            np.testing.assert_array_equal(attached.store.labels, store.labels)
            attached.close()
        finally:
            shared.close()
            shared.unlink()

    def test_sampling_over_shared_views_matches(self, tiny_dataset, rng):
        store = FeatureStore(tiny_dataset.features, tiny_dataset.labels)
        shared = SharedDataset.create(tiny_dataset.graph, store)
        try:
            attached = SharedDataset.attach(shared.spec())
            nodes = rng.choice(tiny_dataset.split.train, size=16, replace=False)
            a = FastNeighborSampler(tiny_dataset.graph, [4, 3]).sample(
                nodes, np.random.default_rng(3)
            )
            b = FastNeighborSampler(attached.graph, [4, 3]).sample(
                nodes, np.random.default_rng(3)
            )
            np.testing.assert_array_equal(a.n_id, b.n_id)
            for adj_a, adj_b in zip(a.adjs, b.adjs):
                np.testing.assert_array_equal(adj_a.edge_index, adj_b.edge_index)
            attached.close()
        finally:
            shared.close()
            shared.unlink()


class TestSharedSlotPool:
    def _pool(self, **kwargs):
        defaults = dict(
            num_slots=2,
            max_rows=16,
            num_features=4,
            max_batch=8,
        )
        defaults.update(kwargs)
        return SharedSlotPool(**defaults)

    def test_is_a_pinned_pool(self):
        pool = self._pool()
        try:
            a = pool.acquire()
            assert type(a) is PinnedBuffer
            assert a.features.shape == (16, 4)
            assert a.labels.shape == (8,)
            pool.release(a)
            assert pool.free_slots() == 2
        finally:
            pool.close()
            pool.unlink()

    def test_worker_views_alias_parent_slots(self):
        pool = self._pool()
        try:
            views = SharedSlotPool.attach_views(pool.spec())
            assert len(views) == pool.total_slots
            assert all(type(view) is PinnedBuffer for view in views)
            views[1].features[:] = 2.5
            views[1].labels[:] = 42
            parent = pool._buffers[1]
            assert float(parent.features[0, 0]) == 2.5
            assert int(parent.labels[0]) == 42
        finally:
            pool.close()
            pool.unlink()

    def test_slots_do_not_overlap(self):
        pool = self._pool()
        try:
            a, b = pool._buffers
            a.features[:] = 1.0
            b.features[:] = 2.0
            assert float(a.features[0, 0]) == 1.0
            a.labels[:] = 5
            b.labels[:] = 6
            assert int(a.labels[-1]) == 5
        finally:
            pool.close()
            pool.unlink()

    def test_nbytes_counts_the_arena(self):
        pool = self._pool()
        try:
            assert pool.nbytes() == 2 * (16 * 4 * 2 + 8 * 8)
        finally:
            pool.close()
            pool.unlink()
