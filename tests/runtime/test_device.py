"""Simulated device: the transfer stream, transfer metering, pinned pool."""

import threading
import time

import numpy as np
import pytest

from repro.runtime import Device, PinnedBufferPool
from repro.sampling import FastNeighborSampler
from repro.slicing import FeatureStore, slice_batch_fused


class TestStream:
    """``Device.transfer_stream``: an in-order queue whose futures are the
    completion events."""

    def test_in_order_execution(self):
        device = Device()
        order = []
        futures = [
            device.transfer_stream.submit(lambda i=i: order.append(i))
            for i in range(10)
        ]
        for future in futures:
            future.result()
        assert order == list(range(10))
        device.shutdown()

    def test_synchronize_waits_for_all(self):
        device = Device()
        done = []
        device.transfer_stream.submit(lambda: (time.sleep(0.02), done.append(1)))
        device.synchronize()
        assert done == [1]
        device.shutdown()

    def test_error_propagates_to_waiter(self):
        device = Device()

        def boom():
            raise RuntimeError("kaboom")

        future = device.transfer_stream.submit(boom)
        with pytest.raises(RuntimeError, match="kaboom"):
            future.result()
        # the stream survives the error
        device.transfer_stream.submit(lambda: None).result()
        device.shutdown()

    def test_submit_after_shutdown_raises(self):
        device = Device()
        device.shutdown()
        with pytest.raises(RuntimeError):
            device.transfer_stream.submit(lambda: None)

    def test_event_timeout(self):
        device = Device()
        release = threading.Event()
        future = device.transfer_stream.submit(release.wait)
        with pytest.raises(TimeoutError):
            future.result(timeout=0.01)
        release.set()
        device.shutdown()


class TestDeviceTransfers:
    def _batch(self, small_products, seed=0):
        store = FeatureStore(small_products.features, small_products.labels)
        sampler = FastNeighborSampler(small_products.graph, [4, 3])
        rng = np.random.default_rng(seed)
        batch_nodes = rng.choice(small_products.num_nodes, 8, replace=False)
        mfg = sampler.sample(batch_nodes, rng)
        return store, slice_batch_fused(store, mfg)

    def test_transfer_upcasts_to_fp32(self, small_products):
        device = Device()
        _, sliced = self._batch(small_products)
        out = device.transfer_batch(sliced)
        assert out.xs.data.dtype == np.float32
        np.testing.assert_allclose(out.xs.data, sliced.xs.astype(np.float32))
        device.shutdown()

    def test_transfer_counts_bytes(self, small_products):
        device = Device()
        _, sliced = self._batch(small_products)
        device.transfer_batch(sliced)
        assert device.bytes_transferred == sliced.nbytes()
        assert device.num_transfers == 1
        device.shutdown()

    def test_bandwidth_metering_slows_transfer(self, small_products):
        _, sliced = self._batch(small_products)
        fast = Device(transfer_bandwidth=None)
        slow = Device(transfer_bandwidth=sliced.nbytes() / 0.05)  # ~50ms
        t0 = time.perf_counter()
        fast.transfer_batch(sliced)
        fast_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        slow.transfer_batch(sliced)
        slow_time = time.perf_counter() - t0
        assert slow_time > fast_time + 0.03
        fast.shutdown()
        slow.shutdown()

    def test_roundtrip_latency_charged_per_tensor(self, small_products):
        _, sliced = self._batch(small_products)
        lat = Device(roundtrip_latency=0.01)
        t0 = time.perf_counter()
        lat.transfer_batch(sliced)
        elapsed = time.perf_counter() - t0
        expected_tensors = 2 + 1 + len(sliced.mfg.adjs)
        assert elapsed >= 0.01 * expected_tensors * 0.9
        lat.shutdown()

    def test_async_transfer_completes(self, small_products):
        device = Device()
        _, sliced = self._batch(small_products)
        future = device.transfer_stream.submit(device.transfer_batch, sliced, 7)
        assert future.result().batch_index == 7
        device.shutdown()

    def test_fp32_store_transfer_does_not_alias_the_pinned_slot(self, small_products):
        """A float32 store's decode is still a copy: the slot is recycled
        as soon as the transfer returns, so device rows must not view it."""
        store = FeatureStore(
            small_products.features, small_products.labels, half_precision=False
        )
        sampler = FastNeighborSampler(small_products.graph, [4, 3])
        rng = np.random.default_rng(0)
        mfg = sampler.sample(rng.choice(small_products.num_nodes, 8, replace=False), rng)
        pool = PinnedBufferPool(
            1, max_rows=len(mfg.n_id), num_features=store.num_features,
            max_batch=8, feature_dtype=store.feature_dtype,
        )
        slot = pool.acquire()
        sliced = slice_batch_fused(
            store, mfg, xs_out=slot.features, ys_out=slot.labels, pinned_slot=slot.slot
        )
        device = Device()
        out = device.transfer_batch(sliced)
        assert out.xs.data.dtype == np.float32
        assert not np.shares_memory(out.xs.data, slot.features)
        np.testing.assert_array_equal(out.xs.data, sliced.xs)
        device.shutdown()


class TestPinnedBufferPool:
    def test_acquire_release_cycle(self):
        pool = PinnedBufferPool(2, max_rows=10, num_features=4, max_batch=4)
        a = pool.acquire()
        b = pool.acquire()
        assert pool.free_slots() == 0
        pool.release(a)
        assert pool.free_slots() == 1
        pool.release(b)

    def test_acquire_blocks_when_exhausted(self):
        pool = PinnedBufferPool(1, max_rows=4, num_features=2, max_batch=2)
        buf = pool.acquire()
        acquired = []

        def taker():
            acquired.append(pool.acquire())

        t = threading.Thread(target=taker, daemon=True)
        t.start()
        time.sleep(0.02)
        assert not acquired
        pool.release(buf)
        t.join(timeout=2)
        assert len(acquired) == 1

    def test_acquire_timeout(self):
        pool = PinnedBufferPool(1, max_rows=4, num_features=2, max_batch=2)
        pool.acquire()
        with pytest.raises(TimeoutError):
            pool.acquire(timeout=0.01)

    def test_double_release_rejected(self):
        pool = PinnedBufferPool(1, max_rows=4, num_features=2, max_batch=2)
        buf = pool.acquire()
        pool.release(buf)
        with pytest.raises(ValueError):
            pool.release(buf)

    def test_acquire_timeout_survives_spurious_wakeups(self):
        """Regression: the wait loop used to restart the *full* timeout on
        every Condition wakeup, so notifies without a free slot could block
        an acquire(timeout=t) far past its deadline.  The deadline is now
        monotonic: spam notifies and the call must still time out on
        schedule."""
        pool = PinnedBufferPool(1, max_rows=4, num_features=2, max_batch=2)
        pool.acquire()
        stop = threading.Event()

        def spammer():
            while not stop.is_set():
                with pool._available:
                    pool._available.notify_all()
                time.sleep(0.005)

        thread = threading.Thread(target=spammer, daemon=True)
        thread.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                pool.acquire(timeout=0.2)
            elapsed = time.monotonic() - t0
        finally:
            stop.set()
            thread.join(timeout=2)
        assert elapsed < 1.0, f"timeout restarted by wakeups: {elapsed:.2f}s"

    def test_release_rejects_foreign_buffer(self):
        """Regression: a buffer from *another* pool with a valid slot index
        used to slip into the free list (corrupting it); identity against
        self._buffers[slot] is now enforced."""
        pool = PinnedBufferPool(2, max_rows=4, num_features=2, max_batch=2)
        other = PinnedBufferPool(2, max_rows=4, num_features=2, max_batch=2)
        foreign = other.acquire()
        with pytest.raises(ValueError, match="does not belong"):
            pool.release(foreign)
        # the victim pool's free list must be intact
        assert pool.free_slots() == 2

    def test_release_rejects_out_of_range_slot(self):
        from repro.runtime import PinnedBuffer

        pool = PinnedBufferPool(1, max_rows=4, num_features=2, max_batch=2)
        rogue = PinnedBuffer(
            slot=7,
            features=np.empty((4, 2), np.float16),
            labels=np.empty(2, np.int64),
        )
        with pytest.raises(ValueError, match="does not belong"):
            pool.release(rogue)

    def test_buffer_shapes(self):
        pool = PinnedBufferPool(1, max_rows=7, num_features=3, max_batch=5)
        buf = pool.acquire()
        assert buf.features.shape == (7, 3)
        assert buf.labels.shape == (5,)
        assert buf.features.dtype == np.float16

    def test_nbytes(self):
        pool = PinnedBufferPool(2, max_rows=10, num_features=4, max_batch=4)
        assert pool.nbytes() == 2 * (10 * 4 * 2 + 4 * 8)

    def test_invalid_slots(self):
        with pytest.raises(ValueError):
            PinnedBufferPool(0, max_rows=1, num_features=1, max_batch=1)
