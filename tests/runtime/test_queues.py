"""Work queues: dynamic balancing, backpressure, close semantics."""

import threading
import time

import pytest

from repro.runtime import BoundedOutputQueue, InputQueue, QueueClosed


class TestInputQueue:
    def test_fifo_order(self):
        q = InputQueue([1, 2, 3])
        assert [q.get(), q.get(), q.get()] == [1, 2, 3]
        assert q.get() is None

    def test_put_then_get(self):
        q = InputQueue()
        q.put("x")
        assert q.get() == "x"

    def test_len(self):
        q = InputQueue([1, 2])
        assert len(q) == 2
        q.get()
        assert len(q) == 1

    def test_concurrent_consumers_get_disjoint_items(self):
        q = InputQueue(range(200))
        seen = [[] for _ in range(4)]

        def consume(i):
            while True:
                item = q.get()
                if item is None:
                    return
                seen[i].append(item)

        threads = [threading.Thread(target=consume, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        flat = sorted(x for part in seen for x in part)
        assert flat == list(range(200))


class TestBoundedOutputQueue:
    def test_put_get_roundtrip(self):
        q = BoundedOutputQueue(2)
        q.put("a")
        assert q.get() == "a"

    def test_capacity_blocks_producer(self):
        q = BoundedOutputQueue(1)
        q.put(1)
        produced_second = threading.Event()

        def producer():
            q.put(2)
            produced_second.set()

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        time.sleep(0.05)
        assert not produced_second.is_set()  # blocked at capacity
        assert q.get() == 1
        t.join(timeout=2)
        assert produced_second.is_set()

    def test_get_blocks_until_put(self):
        q = BoundedOutputQueue(1)
        result = []

        def consumer():
            result.append(q.get())

        t = threading.Thread(target=consumer, daemon=True)
        t.start()
        time.sleep(0.02)
        q.put("late")
        t.join(timeout=2)
        assert result == ["late"]

    def test_close_drains_then_raises(self):
        q = BoundedOutputQueue(4)
        q.put(1)
        q.put(2)
        q.close()
        assert q.get() == 1
        assert q.get() == 2
        with pytest.raises(QueueClosed):
            q.get()

    def test_put_after_close_raises(self):
        q = BoundedOutputQueue(1)
        q.close()
        with pytest.raises(QueueClosed):
            q.put(1)

    def test_get_timeout(self):
        q = BoundedOutputQueue(1)
        with pytest.raises(TimeoutError):
            q.get(timeout=0.01)

    def test_close_wakes_blocked_consumer(self):
        q = BoundedOutputQueue(1)
        outcome = []

        def consumer():
            try:
                q.get()
            except QueueClosed:
                outcome.append("closed")

        t = threading.Thread(target=consumer, daemon=True)
        t.start()
        time.sleep(0.02)
        q.close()
        t.join(timeout=2)
        assert outcome == ["closed"]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BoundedOutputQueue(0)
