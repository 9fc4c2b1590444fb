"""Shared-memory carriers for true multi-core batch preparation.

SALIENT's batch-prep workers are C++ threads sharing one address space.
On CPython the GIL forbids that, so the de-simulated equivalent (Section
4.2, Table 2) is worker *processes* over POSIX shared memory — without
re-introducing the double copy the paper criticizes: the feature rows a
worker slices land in ``multiprocessing.shared_memory`` segments that both
sides map directly.

Three building blocks:

- :class:`SharedArena` — one named segment holding several aligned numpy
  arrays, with a picklable :meth:`SharedArena.spec` so a spawn-started
  worker can re-attach by name (fork inherits nothing either way — both
  start methods go through attach-by-spec, which is what makes the
  lifecycle spawn-safe).
- :class:`SharedDataset` — the read-only inputs: CSR topology plus, for an
  in-RAM store, its stored feature rows and labels, copied into shared
  memory **once** at stage construction (a slab store travels as its path);
  workers sample and slice over zero-copy views.
- :class:`SharedSlotPool` — a :class:`~repro.runtime.pinned.PinnedBufferPool`
  whose slots live in shared memory.  A slot holds a batch's feature rows
  and labels, nothing else: the MFG topology rides the worker's reply, a
  fresh object that outlives the slot's recycle-after-transfer.

Lifecycle: the creating process owns the segments and must call
:meth:`close` + :meth:`unlink`; attached processes :meth:`close` only.
Attachments deregister themselves from the ``resource_tracker`` so worker
exit does not tear segments out from under the parent (CPython's tracker
would otherwise unlink an attached-but-not-owned segment at shutdown).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cached_property
from multiprocessing import shared_memory
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..slicing.memmap_store import MemmapFeatureStore
from ..slicing.store import FeatureStore
from .pinned import PinnedBuffer, PinnedBufferPool

__all__ = ["SharedArena", "SharedDataset", "SharedSlotPool"]

#: segment-internal alignment for every array (cache-line friendly)
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@contextmanager
def _no_tracker_registration():
    """Suppress resource-tracker registration while attaching a segment.

    Only the creating process should own a segment's tracker entry (it is
    what unlinks at interpreter exit).  CPython < 3.13 registers on plain
    attach too; under ``fork`` all workers share the parent's tracker, so
    attach-then-unregister would tear out the *parent's* entry (and spam
    KeyError tracebacks on the second unregister).  Not registering in the
    first place keeps the tracker consistent for both start methods.
    """
    try:
        from multiprocessing import resource_tracker
    except Exception:  # pragma: no cover - tracker internals vary
        yield
        return
    original = resource_tracker.register

    def register(name, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register
    try:
        yield
    finally:
        resource_tracker.register = original


class SharedArena:
    """One shared-memory segment holding a set of named numpy arrays."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        layout: Dict[str, Tuple[int, Tuple[int, ...], str]],
        owner: bool,
    ) -> None:
        self._shm = shm
        self._layout = layout  # name -> (offset, shape, dtype-str)
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def allocate(
        cls, specs: Mapping[str, Tuple[Tuple[int, ...], np.dtype]]
    ) -> "SharedArena":
        """Create a segment with room for every ``name -> (shape, dtype)``."""
        layout: Dict[str, Tuple[int, Tuple[int, ...], str]] = {}
        offset = 0
        for name, (shape, dtype) in specs.items():
            dtype = np.dtype(dtype)
            offset = _aligned(offset)
            layout[name] = (offset, tuple(int(s) for s in shape), dtype.str)
            offset += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        return cls(shm, layout, owner=True)

    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray]) -> "SharedArena":
        """Create a segment and copy ``arrays`` into it."""
        arena = cls.allocate(
            {name: (array.shape, array.dtype) for name, array in arrays.items()}
        )
        for name, array in arrays.items():
            arena.array(name)[...] = array
        return arena

    def spec(self) -> dict:
        """Picklable attach recipe (segment name + layout)."""
        return {"shm_name": self._shm.name, "layout": dict(self._layout)}

    @classmethod
    def attach(cls, spec: dict) -> "SharedArena":
        with _no_tracker_registration():
            shm = shared_memory.SharedMemory(name=spec["shm_name"])
        return cls(shm, dict(spec["layout"]), owner=False)

    # ------------------------------------------------------------------
    def array(self, name: str) -> np.ndarray:
        """Zero-copy view of one named array."""
        offset, shape, dtype = self._layout[name]
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=offset)

    def nbytes(self) -> int:
        return self._shm.size

    def close(self) -> None:
        """Unmap this process's view (safe to call twice).

        Live numpy views keep the mapping exported; in that case the unmap
        is deferred to process exit (the *name* still disappears on
        :meth:`unlink`, which is what bounds shared-memory usage).
        """
        if not self._closed:
            self._closed = True
            try:
                self._shm.close()
            except BufferError:  # views outstanding; mapping dies with us
                pass

    def unlink(self) -> None:
        """Destroy the segment (creator only; attachers must not)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


# ----------------------------------------------------------------------
# Read-only dataset segment
# ----------------------------------------------------------------------
class SharedDataset:
    """CSR topology + feature store in one attachable bundle.

    In-RAM stores copy their feature rows and labels into the shared
    segment; workers rebuild a :class:`FeatureStore` over zero-copy views
    (``half_precision=None`` preserves the parent's exact stored bytes,
    keeping the determinism contract byte-for-byte).

    A :class:`~repro.slicing.memmap_store.MemmapFeatureStore` shares only
    the CSR: its slab path travels alongside the arena spec and each
    worker **reopens the slab read-only** — the OS page cache is the
    shared medium, so attaching adds no per-worker feature copies and no
    copy-on-write growth.
    """

    def __init__(self, arena: SharedArena, slab_path: Optional[str] = None) -> None:
        self._arena = arena
        self._slab_path = slab_path
        self.graph = CSRGraph(
            indptr=arena.array("indptr"),
            indices=arena.array("indices"),
        )
        if slab_path is None:
            self.store = FeatureStore(
                arena.array("features"),
                arena.array("labels"),
                half_precision=None,
            )
        else:
            self.store = MemmapFeatureStore(slab_path)

    @classmethod
    def create(cls, graph: CSRGraph, store: FeatureStore) -> "SharedDataset":
        topology = {"indptr": graph.indptr, "indices": graph.indices}
        # A slab store is a FeatureStore too: test for it first, or its
        # mapped rows would be copied into the segment.
        if isinstance(store, MemmapFeatureStore):
            return cls(SharedArena.create(topology), slab_path=str(store.path))
        arena = SharedArena.create(
            {**topology, "features": store.features, "labels": store.labels}
        )
        return cls(arena)

    def spec(self) -> dict:
        return {"arena": self._arena.spec(), "slab_path": self._slab_path}

    @classmethod
    def attach(cls, spec: dict) -> "SharedDataset":
        return cls(SharedArena.attach(spec["arena"]), spec["slab_path"])

    def close(self) -> None:
        self._arena.close()

    def unlink(self) -> None:
        self._arena.unlink()


# ----------------------------------------------------------------------
# Shared-memory pinned slot pool
# ----------------------------------------------------------------------
def _slot_views(arena: SharedArena, slot: int) -> PinnedBuffer:
    return PinnedBuffer(
        slot=slot,
        features=arena.array(f"features{slot}"),
        labels=arena.array(f"labels{slot}"),
    )


class SharedSlotPool(PinnedBufferPool):
    """Pinned-buffer pool carved from one shared-memory segment.

    The parent-side pool object keeps the usual blocking acquire/release
    semantics and constructor (it *is* a :class:`PinnedBufferPool`; only
    where a slot's arrays live differs); workers attach the same segment
    via :meth:`spec` + :meth:`attach_views` and write into whichever slot
    the parent assigned to their task — slot ownership is decided entirely
    on the parent side, so no cross-process locking is needed.
    """

    @cached_property
    def _arena(self) -> SharedArena:
        """The one segment every slot lives in, allocated by the first
        :meth:`_make_buffer` call."""
        specs: Dict[str, Tuple[Tuple[int, ...], np.dtype]] = {}
        for i in range(self.total_slots):
            specs[f"features{i}"] = ((self.max_rows, self.num_features), self.feature_dtype)
            specs[f"labels{i}"] = ((self.max_batch,), np.dtype(np.int64))
        return SharedArena.allocate(specs)

    def _make_buffer(self, slot: int) -> PinnedBuffer:
        return _slot_views(self._arena, slot)

    def spec(self) -> dict:
        return {"arena": self._arena.spec(), "num_slots": self.total_slots}

    @staticmethod
    def attach_views(spec: dict) -> list[PinnedBuffer]:
        """Worker-side slot views (no pool semantics — the parent owns
        acquire/release; workers only write the slot they were handed)."""
        arena = SharedArena.attach(spec["arena"])
        buffers = [_slot_views(arena, i) for i in range(spec["num_slots"])]
        # The arena must stay mapped as long as the views exist.
        for buffer in buffers:
            buffer._arena = arena  # type: ignore[attr-defined]
        return buffers

    def close(self) -> None:
        self._arena.close()

    def unlink(self) -> None:
        self._arena.unlink()
