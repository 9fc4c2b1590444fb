"""Shared-memory carriers for true multi-core batch preparation.

SALIENT's batch-prep workers are C++ threads sharing one address space.
On CPython the GIL forbids that, so the de-simulated equivalent (Section
4.2, Table 2) is worker *processes* over POSIX shared memory — without
re-introducing the double copy the paper criticizes: nothing on the hot
path is pickled, every payload lives in ``multiprocessing.shared_memory``
segments that both sides map directly.

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
  whose slots live in shared memory.  Each :class:`SharedPinnedBuffer`
  carries the usual feature/label staging regions plus an int64 region
  where the worker serializes the MFG topology (:func:`encode_mfg`); the
  parent decodes with :func:`decode_mfg`, copying the small int arrays out
  of the slot so recycling the slot after the DMA copy cannot corrupt a
  batch still being trained on.

Lifecycle: the creating process owns the segments and must call
:meth:`close` + :meth:`unlink`; attached processes :meth:`close` only.
Attachments deregister themselves from the ``resource_tracker`` so worker
exit does not tear segments out from under the parent (CPython's tracker
would otherwise unlink an attached-but-not-owned segment at shutdown).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..sampling.mfg import MFG, Adj
from ..slicing.memmap_store import MemmapFeatureStore
from ..slicing.store import FeatureStore
from .pinned import PinnedBuffer, PinnedBufferPool

__all__ = [
    "SharedArena",
    "SharedDataset",
    "SharedPinnedBuffer",
    "SharedSlotPool",
    "encode_mfg",
    "decode_mfg",
    "mfg_ints_needed",
]

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
# MFG serialization into a slot's int64 region
# ----------------------------------------------------------------------
#: header words before the per-layer (n_src, n_dst, n_edges) triples
_HEADER_FIXED = 4


def header_capacity(max_layers: int) -> int:
    return _HEADER_FIXED + 3 * max_layers


def mfg_ints_needed(mfg: MFG) -> int:
    """int64 words :func:`encode_mfg` writes for ``mfg``."""
    return len(mfg.n_id) + sum(2 * adj.num_edges for adj in mfg.adjs)


def encode_mfg(mfg: MFG, header: np.ndarray, ints: np.ndarray) -> bool:
    """Serialize ``mfg`` into a slot's header + int64 region.

    Layout: ``header = [n_total, batch_size, num_layers, ints_used,
    (n_src, n_dst, n_edges) per layer]``; ``ints = n_id ++ flattened
    row-major edge_index per layer`` (model consumption order).  Returns
    False — leaving the regions untouched — when the MFG does not fit, in
    which case the caller falls back to pickling (counted, off the common
    path).  ``e_id`` is always None on sampler output, so topology is the
    whole payload.
    """
    total = mfg_ints_needed(mfg)
    layers = len(mfg.adjs)
    if header_capacity(layers) > len(header) or total > len(ints):
        return False
    header[0] = len(mfg.n_id)
    header[1] = mfg.batch_size
    header[2] = layers
    header[3] = total
    pos = len(mfg.n_id)
    ints[:pos] = mfg.n_id
    for li, adj in enumerate(mfg.adjs):
        base = _HEADER_FIXED + 3 * li
        header[base] = adj.size[0]
        header[base + 1] = adj.size[1]
        header[base + 2] = adj.num_edges
        width = 2 * adj.num_edges
        ints[pos : pos + width] = adj.edge_index.reshape(-1)
        pos += width
    return True


def decode_mfg(header: np.ndarray, ints: np.ndarray) -> MFG:
    """Rebuild the MFG a worker serialized with :func:`encode_mfg`.

    Every array is **copied out** of the slot: the MFG outlives the slot
    (compute consumes it after the transfer stage recycled the buffer), so
    views into the slot would be corrupted on reuse.  The copies are the
    small int64 topology, not the feature slab — features stay zero-copy
    in the slot until the DMA copy, exactly like the threaded policy.
    """
    n_total = int(header[0])
    batch_size = int(header[1])
    layers = int(header[2])
    n_id = ints[:n_total].copy()
    pos = n_total
    adjs = []
    for li in range(layers):
        base = _HEADER_FIXED + 3 * li
        n_src, n_dst, n_edges = (int(header[base + k]) for k in range(3))
        width = 2 * n_edges
        edge_index = ints[pos : pos + width].copy().reshape(2, n_edges)
        pos += width
        adjs.append(Adj(edge_index=edge_index, e_id=None, size=(n_src, n_dst)))
    return MFG(n_id=n_id, adjs=adjs, batch_size=batch_size)


# ----------------------------------------------------------------------
# Shared-memory pinned slot pool
# ----------------------------------------------------------------------
@dataclass
class SharedPinnedBuffer(PinnedBuffer):
    """A pinned staging slot whose regions live in shared memory.

    Adds the MFG serialization regions; ``features``/``labels`` keep the
    base-class contract so :func:`~repro.slicing.slicer.slice_batch_fused`
    and the transfer stage work unchanged.
    """

    header: Optional[np.ndarray] = None  # int64 MFG header
    mfg_ints: Optional[np.ndarray] = None  # int64 MFG payload


class SharedSlotPool(PinnedBufferPool):
    """Pinned-buffer pool carved from one shared-memory segment.

    The parent-side pool object keeps the usual blocking acquire/release
    semantics (it *is* a :class:`PinnedBufferPool`); workers attach the
    same segment via :meth:`spec` + :meth:`attach_views` and write into
    whichever slot the parent assigned to their task — slot ownership is
    decided entirely on the parent side, so no cross-process locking is
    needed.
    """

    def __init__(
        self,
        num_slots: int,
        max_rows: int,
        num_features: int,
        max_batch: int,
        mfg_capacity: int,
        max_layers: int,
        feature_dtype=np.float16,
        metrics=None,
    ) -> None:
        if num_slots < 1:
            raise ValueError("need at least one slot")
        self.mfg_capacity = int(mfg_capacity)
        self.max_layers = int(max_layers)
        self._arena = SharedArena.allocate(
            self._slot_specs(
                num_slots, max_rows, num_features, max_batch,
                self.mfg_capacity, self.max_layers, np.dtype(feature_dtype),
            )
        )
        super().__init__(
            num_slots,
            max_rows,
            num_features,
            max_batch,
            feature_dtype=feature_dtype,
            metrics=metrics,
        )

    @staticmethod
    def _slot_specs(
        num_slots, max_rows, num_features, max_batch, mfg_capacity, max_layers, dtype
    ) -> Dict[str, Tuple[Tuple[int, ...], np.dtype]]:
        int64 = np.dtype(np.int64)
        specs: Dict[str, Tuple[Tuple[int, ...], np.dtype]] = {}
        for i in range(num_slots):
            specs[f"features{i}"] = ((max_rows, num_features), dtype)
            specs[f"labels{i}"] = ((max_batch,), int64)
            specs[f"header{i}"] = ((header_capacity(max_layers),), int64)
            specs[f"ints{i}"] = ((mfg_capacity,), int64)
        return specs

    def _make_buffer(self, slot: int) -> SharedPinnedBuffer:
        return SharedPinnedBuffer(
            slot=slot,
            features=self._arena.array(f"features{slot}"),
            labels=self._arena.array(f"labels{slot}"),
            header=self._arena.array(f"header{slot}"),
            mfg_ints=self._arena.array(f"ints{slot}"),
        )

    def spec(self) -> dict:
        return {"arena": self._arena.spec(), "num_slots": self.total_slots}

    @staticmethod
    def attach_views(spec: dict) -> list[SharedPinnedBuffer]:
        """Worker-side slot views (no pool semantics — the parent owns
        acquire/release; workers only write the slot they were handed)."""
        arena = SharedArena.attach(spec["arena"])
        buffers = [
            SharedPinnedBuffer(
                slot=i,
                features=arena.array(f"features{i}"),
                labels=arena.array(f"labels{i}"),
                header=arena.array(f"header{i}"),
                mfg_ints=arena.array(f"ints{i}"),
            )
            for i in range(spec["num_slots"])
        ]
        # The arena must stay mapped as long as the views exist.
        for buffer in buffers:
            buffer._arena = arena  # type: ignore[attr-defined]
        return buffers

    def nbytes(self) -> int:
        return self._arena.nbytes()

    def close(self) -> None:
        self._arena.close()

    def unlink(self) -> None:
        self._arena.unlink()
