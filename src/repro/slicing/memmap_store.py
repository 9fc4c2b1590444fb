"""The on-disk cold tier: a feature store over a memory-mapped slab.

The paper's batch-prep analysis (Section 3) assumes the feature matrix
fits in host RAM.  papers100M-scale workloads break that assumption, so
:class:`MemmapFeatureStore` is a :class:`~repro.slicing.store.FeatureStore`
whose rows live in an on-disk slab (see the format below) opened
read-only with ``np.memmap``; slicing is the identical zero-intermediate
``np.take(..., out=pinned, mode="clip")`` gather, with the OS page cache
standing in for RAM residency.  Slabs may store raw float16 rows or uint8
per-channel affine codes (:mod:`repro.slicing.quantize`); the quantized
path fuses dequantization into the slice so the float row materializes
directly in the pinned slot, never as an intermediate.  The gather time
(``mmap_wait_seconds``) feeds the "storage-bound" attribution verdict.

Multiprocess prepare workers reopen the slab by its path, travelling
through ``runtime/shm.py`` alongside the shared CSR: every worker maps
the same read-only pages — no per-worker copy, no copy-on-write growth.

Slab format (single file)::

    bytes 0..8    magic  b"RPSLAB01"
    bytes 8..16   uint64 little-endian header length H
    bytes 16..16+H  JSON header:
        {"version": 1, "num_nodes": N, "num_features": F,
         "encoding": "raw" | "uint8",
         "sections": {name: {"offset": o, "shape": [...], "dtype": "..."}}}
    sections      each 64-byte aligned; "features" (raw) or
                  "codes"/"scale"/"offset" (uint8), plus "labels".
"""

from __future__ import annotations

import json
import threading
import weakref
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from ..telemetry import MetricsRegistry
from .quantize import QuantizationParams, dequantize_rows, quantize_uint8
from .store import FeatureStore

__all__ = [
    "SLAB_MAGIC",
    "SLAB_ALIGNMENT",
    "write_slab",
    "read_slab_header",
    "MemmapFeatureStore",
]

SLAB_MAGIC = b"RPSLAB01"
SLAB_ALIGNMENT = 64  # cache-line alignment for every section
SLAB_VERSION = 1


class _ThreadScratch:
    """Grow-only scratch rows, one block per calling thread.

    A store is shared by every prepare thread of a pipeline, and anything
    with persistent scratch must be per-worker state (paper Section 4.2:
    one thread owns a batch end to end, which is why SALIENT needs no
    locks).  Each thread therefore gets its own block; a block dies with
    its thread, and :meth:`nbytes` sums the live ones so
    ``resident_bytes()`` stays honest.
    """

    class _Block:
        __slots__ = ("rows", "__weakref__")

    def __init__(self, num_features: int, dtype) -> None:
        self._num_features = num_features
        self._dtype = np.dtype(dtype)
        self._local = threading.local()
        self._live: "weakref.WeakSet[_ThreadScratch._Block]" = weakref.WeakSet()
        self._lock = threading.Lock()  # guards _live (add vs. iterate)

    def rows(self, count: int) -> np.ndarray:
        """This thread's scratch, grown to at least ``count`` rows."""
        block = getattr(self._local, "block", None)
        if block is None:
            block = self._local.block = self._Block()
            block.rows = np.empty((0, self._num_features), dtype=self._dtype)
            with self._lock:
                self._live.add(block)
        if block.rows.shape[0] < count:
            block.rows = np.empty((count, self._num_features), dtype=self._dtype)
        return block.rows[:count]

    def nbytes(self) -> int:
        with self._lock:
            return sum(block.rows.nbytes for block in self._live)


def _align(offset: int) -> int:
    return (offset + SLAB_ALIGNMENT - 1) // SLAB_ALIGNMENT * SLAB_ALIGNMENT


def write_slab(
    path,
    features: np.ndarray,
    labels: Optional[np.ndarray] = None,
    encoding: str = "raw",
) -> Path:
    """Serialize a feature matrix (+labels) to an on-disk slab.

    ``encoding="raw"`` stores features as float16 (the host store's
    half-precision convention); ``encoding="uint8"`` quantizes with
    per-channel affine codes.  Labels are always raw int64.  Returns the
    written path.
    """
    path = Path(path)
    if features.ndim != 2:
        raise ValueError("features must be 2-D (nodes x channels)")
    num_nodes, num_features = features.shape
    if labels is None:
        labels = np.zeros(num_nodes, dtype=np.int64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if labels.shape != (num_nodes,):
        raise ValueError("labels must be 1-D with one entry per node")

    if encoding == "raw":
        sections = {"features": np.ascontiguousarray(features, dtype=np.float16)}
    elif encoding == "uint8":
        codes, params = quantize_uint8(features)
        sections = {
            "codes": codes,
            "scale": params.scale,
            "offset": params.offset,
        }
    else:
        raise ValueError(f"unknown slab encoding {encoding!r}")
    sections["labels"] = labels

    layout: dict[str, dict] = {}
    # Header length depends on the offsets, which depend on the header
    # length; iterate to a fixed point (two passes always suffice because
    # digit-count growth is bounded and offsets are 64-byte aligned).
    header_len = 0
    for _ in range(4):
        cursor = _align(len(SLAB_MAGIC) + 8 + header_len)
        layout = {}
        for name, arr in sections.items():
            cursor = _align(cursor)
            layout[name] = {
                "offset": cursor,
                "shape": list(arr.shape),
                "dtype": arr.dtype.name,
            }
            cursor += arr.nbytes
        header = {
            "version": SLAB_VERSION,
            "num_nodes": int(num_nodes),
            "num_features": int(num_features),
            "encoding": encoding,
            "sections": layout,
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        if len(blob) == header_len:
            break
        header_len = len(blob)

    with open(path, "wb") as f:
        f.write(SLAB_MAGIC)
        f.write(len(blob).to_bytes(8, "little"))
        f.write(blob)
        for name, arr in sections.items():
            f.seek(layout[name]["offset"])
            f.write(np.ascontiguousarray(arr).tobytes())
    return path


def read_slab_header(path) -> dict:
    """Parse and validate a slab's JSON header."""
    with open(path, "rb") as f:
        magic = f.read(len(SLAB_MAGIC))
        if magic != SLAB_MAGIC:
            raise ValueError(f"{path}: not a feature slab (bad magic {magic!r})")
        header_len = int.from_bytes(f.read(8), "little")
        header = json.loads(f.read(header_len).decode("utf-8"))
    if header.get("version") != SLAB_VERSION:
        raise ValueError(f"{path}: unsupported slab version {header.get('version')}")
    return header


class MemmapFeatureStore(FeatureStore):
    """A :class:`~repro.slicing.store.FeatureStore` over a read-only slab.

    Inherits the slicing contract and overrides only the feature gather,
    without ever materializing the full matrix in process memory: the
    mapping is ``mode="r"``, so pages are shared across every process
    that opens the same slab and are never copied on write.  ``features``
    is the mapped stored rows — float16, or uint8 codes on a quantized
    slab; ``feature_dtype`` is float16 either way.

    For quantized slabs the gather is two-phase but still intermediate-
    free on the float side: uint8 code rows land in a small persistent
    per-thread scratch, then the fused multiply/add of
    :func:`~repro.slicing.quantize.dequantize_rows` writes the
    reconstruction directly into ``out`` (the pinned slot).  A missing
    slab raises ``FileNotFoundError`` naming the path.
    """

    def __init__(self, path, metrics: Optional[MetricsRegistry] = None) -> None:
        self.path = Path(path)
        header = read_slab_header(self.path)
        self.encoding: str = header["encoding"]
        sections = header["sections"]

        def _map(name: str) -> np.memmap:
            meta = sections[name]
            return np.memmap(
                self.path,
                mode="r",
                dtype=np.dtype(meta["dtype"]),
                shape=tuple(meta["shape"]),
                offset=int(meta["offset"]),
            )

        self.labels = _map("labels")
        self.params: Optional[QuantizationParams] = None
        if self.encoding == "raw":
            self.features = _map("features")
        else:
            self.features = _map("codes")
            # scale/offset are tiny (two f32 per channel): copy into RAM so
            # every dequantize doesn't fault slab pages for them.
            self.params = QuantizationParams(
                scale=np.array(_map("scale")), offset=np.array(_map("offset"))
            )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._code_scratch = _ThreadScratch(self.num_features, np.uint8)

    @property
    def feature_dtype(self) -> np.dtype:
        # Dequantized rows surface as float16, matching the host store's
        # half-precision convention (optimization (iii)).
        return np.dtype(np.float16)

    def stored_row_bytes(self) -> int:
        """On-disk bytes per feature row (1 for uint8 codes, 2 for f16)."""
        return self.num_features * self.features.itemsize

    def attach_metrics(self, metrics: MetricsRegistry) -> None:
        """Late-bind the registry the gather timers report into."""
        self.metrics = metrics

    def register_probes(self, sampler) -> None:
        """Expose the storage wait to a continuous-monitoring ProbeSampler."""
        sampler.add_probe(
            "feature_tier/mmap_wait_s",
            lambda: self.metrics.value("mmap_wait_seconds"),
            unit="seconds",
        )

    def _gather(self, n_id: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """Gather from the mapped slab, dequantizing on the quantized path.

        The wall-clock spent faulting/copying mapped pages accumulates in
        the ``mmap_wait_seconds`` counter — the signal behind the
        "storage-bound" diagnose verdict.
        """
        start = perf_counter()
        if self.params is None:
            out = super()._gather(n_id, out)
        else:
            codes = self._code_scratch.rows(len(n_id))
            np.take(self.features, n_id, axis=0, out=codes, mode="clip")
            out = dequantize_rows(codes, self.params, out=out, dtype=self.feature_dtype)
        self.metrics.counter("mmap_wait_seconds").inc(perf_counter() - start)
        self.metrics.counter("mmap_rows_read").inc(len(n_id))
        self.metrics.counter("mmap_bytes_read").inc(
            len(n_id) * self.stored_row_bytes()
        )
        return out

    def resident_bytes(self) -> int:
        """Process-heap bytes held by this store (scratch + quant params).

        The slab itself is file-backed and excluded — that is the point
        of the cold tier.
        """
        total = self._code_scratch.nbytes()
        if self.params is not None:
            total += self.params.nbytes()
        return total
