"""Work queues for batch preparation.

SALIENT's batch-preparation threads "balance load dynamically via a
lock-free input queue that contains the destination nodes for each
mini-batch" (Section 4.2). CPython cannot express a true lock-free MPMC
queue, so :class:`InputQueue` uses a deque guarded by a single lock, which
preserves the architectural property that matters: dynamic (work-stealing
style) load balancing, as opposed to the PyTorch DataLoader's *static*
round-robin pre-assignment, which strands workers when neighborhood sizes
vary (the paper's stated motivation).
"""

from __future__ import annotations

import collections
import threading
from typing import Generic, Iterable, Optional, TypeVar

__all__ = ["InputQueue", "BoundedOutputQueue", "QueueClosed"]

T = TypeVar("T")


class QueueClosed(Exception):
    """Raised by blocking consumers when the queue is closed and drained."""


class InputQueue(Generic[T]):
    """Dynamically load-balanced MPMC queue of pending work items."""

    def __init__(self, items: Optional[Iterable[T]] = None) -> None:
        self._items: collections.deque[T] = collections.deque(items or [])
        self._lock = threading.Lock()

    def put(self, item: T) -> None:
        with self._lock:
            self._items.append(item)

    def get(self) -> Optional[T]:
        """Pop the next item, or None when empty (non-blocking)."""
        with self._lock:
            if self._items:
                return self._items.popleft()
            return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class BoundedOutputQueue(Generic[T]):
    """Bounded blocking queue for prepared batches (producer backpressure).

    Workers block in :meth:`put` when ``capacity`` batches are already
    waiting, bounding pinned-memory usage; the consumer blocks in
    :meth:`get` until a batch (or close) arrives.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: collections.deque[T] = collections.deque()
        self._mutex = threading.Lock()
        self._not_full = threading.Condition(self._mutex)
        self._not_empty = threading.Condition(self._mutex)
        self._closed = False

    def put(self, item: T) -> None:
        with self._not_full:
            while len(self._items) >= self.capacity and not self._closed:
                self._not_full.wait()
            if self._closed:
                raise QueueClosed
            self._items.append(item)
            self._not_empty.notify()

    def get(self, timeout: Optional[float] = None) -> T:
        with self._not_empty:
            while not self._items:
                if self._closed:
                    raise QueueClosed
                if not self._not_empty.wait(timeout=timeout):
                    raise TimeoutError("queue.get timed out")
            item = self._items.popleft()
            self._not_full.notify()
            return item

    def close(self) -> None:
        """Wake all waiters; subsequent puts raise, gets drain then raise."""
        with self._mutex:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._items)
