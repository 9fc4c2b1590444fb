"""Tiered feature store: memory-mapped cold slabs + RAM-hot cache hierarchy.

The paper's batch-prep analysis (Section 3) assumes the feature matrix
fits in host RAM.  papers100M-scale workloads break that assumption, so
this module grows :class:`~repro.slicing.store.FeatureStore` into a
hierarchy behind the *same* slicing contract:

- :class:`MemmapFeatureStore` — the **cold tier**.  Features live in an
  on-disk slab (see the format below) opened read-only with
  ``np.memmap``; slicing is the identical zero-intermediate
  ``np.take(..., out=pinned, mode="clip")`` gather, with the OS page
  cache standing in for RAM residency.  Slabs may store raw float16 rows
  or uint8 per-channel affine codes (:mod:`repro.slicing.quantize`); the
  quantized path fuses dequantization into the slice so the float row
  materializes directly in the pinned slot, never as an intermediate.
- :class:`TieredFeatureStore` — the **hot tier**.  A degree-ordered node
  subset (:func:`hottest_nodes`) stays pinned in RAM as float16 rows;
  everything else is gathered from the cold tier.
  Per-tier hit/miss/byte counters flow through ``MetricsRegistry`` and
  ``mmap_wait_seconds`` feeds the "storage-bound" attribution verdict.

Multiprocess prepare workers reopen the slab by its picklable
:meth:`~MemmapFeatureStore.mmap_spec` (path + encoding), travelling
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
import os
import threading
import weakref
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..telemetry import MetricsRegistry
from .quantize import QuantizationParams, dequantize_rows, quantize_uint8

__all__ = [
    "SLAB_MAGIC",
    "SLAB_ALIGNMENT",
    "write_slab",
    "read_slab_header",
    "MemmapFeatureStore",
    "hottest_nodes",
    "TieredFeatureStore",
    "open_store_from_spec",
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


class MemmapFeatureStore:
    """Cold-tier feature store over a read-only on-disk slab.

    Implements the :class:`~repro.slicing.store.FeatureStore` slicing
    contract (``slice_features`` / ``slice_labels`` with optional ``out``,
    ``num_nodes`` / ``num_features`` / ``feature_dtype`` / ``row_bytes``)
    without ever materializing the full matrix in process memory: the
    mapping is ``mode="r"``, so pages are shared across every process
    that opens the same slab and are never copied on write.

    For quantized slabs the gather is two-phase but still intermediate-
    free on the float side: uint8 code rows land in a small persistent
    per-thread scratch, then the fused multiply/add of
    :func:`~repro.slicing.quantize.dequantize_rows` writes the
    reconstruction directly into ``out`` (the pinned slot).
    """

    def __init__(self, path, metrics: Optional[MetricsRegistry] = None) -> None:
        self.path = Path(path)
        header = read_slab_header(self.path)
        self.encoding: str = header["encoding"]
        self._num_nodes = int(header["num_nodes"])
        self._num_features = int(header["num_features"])
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

        self._labels = _map("labels")
        if self.encoding == "raw":
            self._features = _map("features")
            self._codes = None
            self.params: Optional[QuantizationParams] = None
            self._dtype = self._features.dtype
        else:
            self._features = None
            self._codes = _map("codes")
            # scale/offset are tiny (two f32 per channel): copy into RAM so
            # every dequantize doesn't fault slab pages for them.
            self.params = QuantizationParams(
                scale=np.array(_map("scale")), offset=np.array(_map("offset"))
            )
            # Dequantized rows surface as float16, matching the host
            # store's half-precision convention (optimization (iii)).
            self._dtype = np.dtype(np.float16)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._code_scratch = _ThreadScratch(self._num_features, np.uint8)

    # -- FeatureStore contract -----------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_features(self) -> int:
        return self._num_features

    @property
    def feature_dtype(self) -> np.dtype:
        return self._dtype

    def row_bytes(self) -> int:
        return self._num_features * self._dtype.itemsize

    def stored_row_bytes(self) -> int:
        """On-disk bytes per feature row (1 for uint8 codes, 2 for f16)."""
        if self._codes is not None:
            return self._num_features * self._codes.itemsize
        return self._num_features * self._features.itemsize

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    def attach_metrics(self, metrics: MetricsRegistry) -> None:
        """Late-bind the registry the gather timers report into."""
        self.metrics = metrics

    def slice_features(
        self, n_id: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Gather feature rows from the mapped slab, optionally into ``out``.

        The wall-clock spent faulting/copying mapped pages accumulates in
        the ``mmap_wait_seconds`` counter — the signal behind the
        "storage-bound" diagnose verdict.
        """
        if out is not None and out.shape != (len(n_id), self._num_features):
            raise ValueError(
                f"out shape {out.shape} != ({len(n_id)}, {self._num_features})"
            )
        self._check_ids(n_id)
        start = perf_counter()
        if self._codes is None:
            if out is not None:
                np.take(self._features, n_id, axis=0, out=out, mode="clip")
            else:
                out = np.asarray(self._features[n_id])
        else:
            codes = self._code_scratch.rows(len(n_id))
            np.take(self._codes, n_id, axis=0, out=codes, mode="clip")
            out = dequantize_rows(codes, self.params, out=out, dtype=self._dtype)
        self.metrics.counter("mmap_wait_seconds").inc(perf_counter() - start)
        self.metrics.counter("mmap_rows_read").inc(len(n_id))
        self.metrics.counter("mmap_bytes_read").inc(
            len(n_id) * self.stored_row_bytes()
        )
        return out

    def slice_labels(
        self, n_id: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Gather label entries for ``n_id`` (the batch targets)."""
        if out is not None:
            if out.shape != (len(n_id),):
                raise ValueError(f"out shape {out.shape} != ({len(n_id)},)")
            self._check_ids(n_id)
            np.take(self._labels, n_id, out=out, mode="clip")
            return out
        return np.asarray(self._labels[n_id])

    def _check_ids(self, n_id: np.ndarray) -> None:
        if len(n_id) == 0:
            return
        lo, hi = int(n_id.min()), int(n_id.max())
        if lo < 0 or hi >= self._num_nodes:
            raise IndexError(
                f"node ids [{lo}, {hi}] out of range for store of "
                f"{self._num_nodes} nodes"
            )

    # -- multiprocess attach -------------------------------------------
    def mmap_spec(self) -> dict:
        """Picklable description a worker process can reopen the slab from.

        Travels through ``runtime/shm.py``'s ``SharedDataset`` spec next
        to the shared-memory CSR; reopening maps the same read-only pages
        (shared page cache), so workers add no resident feature copies.
        """
        return {"kind": "memmap", "path": str(self.path)}

    def resident_bytes(self) -> int:
        """Process-heap bytes held by this store (scratch + quant params).

        The slab itself is file-backed and excluded — that is the point
        of the cold tier.
        """
        total = self._code_scratch.nbytes()
        if self.params is not None:
            total += self.params.nbytes()
        return total


def hottest_nodes(graph: CSRGraph, cache_size: int) -> np.ndarray:
    """The ``cache_size`` highest-degree nodes (most frequently sampled).

    Deterministic: degree ties at the selection boundary are broken by
    ascending node id, and the result is ordered by (descending degree,
    ascending id).  ``np.argpartition`` alone breaks ties in unspecified
    order, which made the resident set — and hence hit rates and metered
    transfer bytes — vary run-to-run on tie-heavy synthetic graphs.
    """
    if cache_size < 0 or cache_size > graph.num_nodes:
        raise ValueError("cache_size out of range")
    if cache_size == 0:
        return np.empty(0, dtype=np.int64)
    degrees = np.asarray(graph.degree(), dtype=np.int64)
    n = len(degrees)
    if cache_size == n:
        chosen = np.arange(n, dtype=np.int64)
    else:
        # argpartition finds the k-th largest degree; membership above the
        # threshold is unambiguous, and the tie boundary is filled with the
        # smallest node ids (flatnonzero scans in ascending-id order).
        kth = np.partition(degrees, n - cache_size)[n - cache_size]
        sure = np.flatnonzero(degrees > kth)
        tied = np.flatnonzero(degrees == kth)[: cache_size - len(sure)]
        chosen = np.concatenate([sure, tied]).astype(np.int64)
    order = np.lexsort((chosen, -degrees[chosen]))
    return chosen[order]


class TieredFeatureStore:
    """RAM-hot / mmap-cold feature hierarchy behind the store contract.

    ``hot_ids`` (typically ``hottest_nodes(graph, n)`` — degree-ordered,
    deterministic) are gathered once from the cold tier and pinned in RAM
    at the cold tier's dtype (float16), so a hot-tier hit returns *bytes
    identical* to the cold gather — tier choice can never change training
    results.  Slices route each row to its tier: hits copy from the RAM
    block, misses gather from the memmap, both directly into ``out``.
    """

    def __init__(
        self,
        cold: MemmapFeatureStore,
        hot_ids: np.ndarray,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.cold = cold
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        cold.attach_metrics(self.metrics)
        hot_ids = np.asarray(hot_ids, dtype=np.int64)
        if len(hot_ids) and (
            hot_ids.min() < 0 or hot_ids.max() >= cold.num_nodes
        ):
            raise ValueError("hot_ids out of range for cold store")
        # int32 row map: halves the resident index for 100M-node stores.
        if len(hot_ids) >= np.iinfo(np.int32).max:
            raise ValueError("hot tier larger than int32 row indices allow")
        self._hot_row_of = np.full(cold.num_nodes, -1, dtype=np.int32)
        self._hot_row_of[hot_ids] = np.arange(len(hot_ids), dtype=np.int32)
        self.hot_ids = hot_ids
        self.hot_rows = np.empty(
            (len(hot_ids), cold.num_features), dtype=cold.feature_dtype
        )
        if len(hot_ids):
            cold.slice_features(hot_ids, out=self.hot_rows)
        self._miss_scratch = _ThreadScratch(cold.num_features, cold.feature_dtype)

    # -- FeatureStore contract -----------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.cold.num_nodes

    @property
    def num_features(self) -> int:
        return self.cold.num_features

    @property
    def feature_dtype(self) -> np.dtype:
        return self.cold.feature_dtype

    def row_bytes(self) -> int:
        return self.cold.row_bytes()

    @property
    def labels(self) -> np.ndarray:
        return self.cold.labels

    @property
    def hot_size(self) -> int:
        return len(self.hot_ids)

    def attach_metrics(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        self.cold.attach_metrics(metrics)

    def slice_features(
        self, n_id: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if out is None:
            out = np.empty(
                (len(n_id), self.num_features), dtype=self.feature_dtype
            )
        elif out.shape != (len(n_id), self.num_features):
            raise ValueError(
                f"out shape {out.shape} != ({len(n_id)}, {self.num_features})"
            )
        self.cold._check_ids(n_id)
        hot_rows = self._hot_row_of[n_id]
        hit = hot_rows >= 0
        hit_idx = np.flatnonzero(hit)
        miss_idx = np.flatnonzero(~hit)
        if len(miss_idx) == len(n_id):
            # All-cold fast path: gather straight into ``out``, no scatter.
            self.cold.slice_features(n_id, out=out)
        else:
            if len(hit_idx):
                out[hit_idx] = self.hot_rows[hot_rows[hit_idx]]
            if len(miss_idx):
                scratch = self._miss_scratch.rows(len(miss_idx))
                self.cold.slice_features(n_id[miss_idx], out=scratch)
                out[miss_idx] = scratch
        row_nbytes = self.row_bytes()
        self.metrics.counter("feature_tier_rows", tier="hot").inc(len(hit_idx))
        self.metrics.counter("feature_tier_rows", tier="cold").inc(len(miss_idx))
        self.metrics.counter("feature_tier_bytes", tier="hot").inc(
            len(hit_idx) * row_nbytes
        )
        self.metrics.counter("feature_tier_bytes", tier="cold").inc(
            len(miss_idx) * row_nbytes
        )
        return out

    def slice_labels(
        self, n_id: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return self.cold.slice_labels(n_id, out=out)

    # -- observability --------------------------------------------------
    def hit_rate(self) -> float:
        hot = self.metrics.value("feature_tier_rows", tier="hot")
        cold = self.metrics.value("feature_tier_rows", tier="cold")
        total = hot + cold
        return hot / total if total else 0.0

    def register_probes(self, sampler) -> None:
        """Expose tier health to a continuous-monitoring ProbeSampler."""
        sampler.add_probe("feature_tier/hot_hit_rate", self.hit_rate, unit="fraction")
        sampler.add_probe(
            "feature_tier/cold_bytes",
            lambda: self.metrics.value("feature_tier_bytes", tier="cold"),
            unit="bytes",
        )
        sampler.add_probe(
            "feature_tier/mmap_wait_s",
            lambda: self.metrics.value("mmap_wait_seconds"),
            unit="seconds",
        )

    def resident_bytes(self) -> int:
        """RAM held by the hierarchy: hot rows + row map + cold scratch."""
        return (
            self.hot_rows.nbytes
            + self._hot_row_of.nbytes
            + self._miss_scratch.nbytes()
            + self.cold.resident_bytes()
        )

    def mmap_spec(self) -> dict:
        """Workers attach the cold tier only: the hot tier is a per-process
        RAM optimization with byte-identical values, so skipping it in
        workers changes nothing but avoids N copies of the hot block."""
        return self.cold.mmap_spec()


def open_store_from_spec(spec: dict, metrics: Optional[MetricsRegistry] = None):
    """Reopen a store from a picklable spec (the worker-side entry point)."""
    kind = spec.get("kind")
    if kind == "memmap":
        if not os.path.exists(spec["path"]):
            raise FileNotFoundError(f"feature slab missing: {spec['path']}")
        return MemmapFeatureStore(spec["path"], metrics=metrics)
    raise ValueError(f"unknown feature store spec kind {kind!r}")
