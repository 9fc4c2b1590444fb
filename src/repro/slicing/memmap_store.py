"""The on-disk cold tier: a feature store over a memory-mapped slab.

The paper's batch-prep analysis (Section 3) assumes the feature matrix
fits in host RAM.  papers100M-scale workloads break that assumption, so
:class:`MemmapFeatureStore` is a :class:`~repro.slicing.store.FeatureStore`
whose rows live in an on-disk slab (see the format below) opened
read-only with ``np.memmap``; slicing is the identical zero-intermediate
``np.take(..., out=pinned, mode="clip")`` gather, with the OS page cache
standing in for RAM residency.  Slabs may store raw float16 rows or uint8
per-channel affine codes (:mod:`repro.slicing.quantize`); either way the
slice is the stored bytes, and the codes ride the pinned slot and the
transfer at 1 byte per value.  Dequantization is :meth:`decode`, the
store's float32 seam, which runs on the device side of the transfer.  The
gather time (``mmap_wait_seconds``) is storage only — page faults and the
copy, no dequantize — and feeds the "storage-bound" attribution verdict.

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

    Inherits the slicing contract, without ever materializing the full
    matrix in process memory: the mapping is ``mode="r"``, so pages are
    shared across every process that opens the same slab and are never
    copied on write.  ``features`` is the mapped stored rows — float16, or
    uint8 codes on a quantized slab — and ``feature_dtype`` is theirs, so
    slots and transfers carry the stored bytes.

    Overrides :meth:`_gather` (the inherited ``np.take``, metered) and, on a
    quantized slab, :meth:`decode` (affine reconstruction straight into
    float32).  A missing slab raises ``FileNotFoundError`` naming the path.
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

    def attach_metrics(self, metrics: MetricsRegistry) -> None:
        """Late-bind the registry the gather timers report into."""
        self.metrics = metrics

    def _gather(self, n_id: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """Gather stored rows from the mapped slab.

        The wall-clock spent faulting/copying mapped pages accumulates in
        the ``mmap_wait_seconds`` counter — the signal behind the
        "storage-bound" diagnose verdict.
        """
        start = perf_counter()
        out = super()._gather(n_id, out)
        self.metrics.counter("mmap_wait_seconds").inc(perf_counter() - start)
        self.metrics.counter("mmap_rows_read").inc(len(n_id))
        self.metrics.counter("mmap_bytes_read").inc(len(n_id) * self.row_bytes())
        return out

    def decode(self, rows: np.ndarray) -> np.ndarray:
        """Sliced rows as fresh float32: codes are dequantized, fp16 cast."""
        if self.params is None:
            return super().decode(rows)
        return dequantize_rows(rows, self.params)

    def resident_bytes(self) -> int:
        """Process-heap bytes held by this store (the quant params).

        The slab itself is file-backed and excluded — that is the point
        of the cold tier.
        """
        return self.params.nbytes() if self.params is not None else 0
