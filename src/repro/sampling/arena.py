"""Reusable sampling/slicing arena: persistent scratch buffers + O(D) kernels.

SALIENT's C++ sampler owes much of its speed to *not allocating*: every
thread owns a bundle of persistent, growable buffers that survive across
batches, and each hop is a fixed number of flat-array passes over them.
This module is the numpy translation of that discipline:

- :class:`SamplerArena` — named, growable, persistent ``int64``/``float64``/
  ``bool`` buffers with a shared iota (``arange``) cache.  A buffer is
  allocated (or doubled) only when a hop needs more capacity than any
  previous hop did; after warm-up the arena performs **zero** allocations
  per batch, which the attached :class:`~repro.telemetry.MetricsRegistry`
  can prove (``arena_grows`` stays flat).
- :func:`gather_frontier_edges` — candidate-edge gather (CSR rows of the
  frontier) built from in-place cumsum/fill kernels instead of fresh
  ``np.repeat``/``np.arange`` arrays.
- :func:`expand_frontier_arena` — fanout selection with a *split path*:
  under-degree segments (degree <= fanout) are copied through verbatim and
  only the over-degree remainder is sorted.  Sorting uses a single stable
  argsort of the composite key ``dst + key`` (see note below) instead of a
  two-pass ``lexsort``, which is the single largest win on this substrate.
- :func:`first_occurrence_dedup` — O(D) discovery-order deduplication
  driven by the persistent global->local map (no ``np.unique`` sort).

Composite-key note: candidate edges are grouped by destination segment and
random keys live in ``[0, 1)``, so sorting the float64 composite
``dst_local + key`` with a *stable* sort orders edges by ``(dst, key)``
exactly like ``np.lexsort((key, dst))`` — float addition is monotone, so
the only way the two can disagree is two keys in one segment colliding
within one ulp of the composite (< 2^-40 per pair; never observed, and the
determinism suite pins exact equality for its seeds).  One stable argsort
is ~5-10x faster than ``lexsort``'s two merge sorts.

Output order note: the copy-through and sort sub-paths both emit selected
edges in *canonical adjacency order* (ascending candidate-edge position), so
which one ran never shows in the MFG — and the reference kernel,
:func:`~repro.sampling.fast_sampler.expand_frontier_vectorized`, agrees with
either byte for byte under a shared RNG stream.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..telemetry import MetricsRegistry

__all__ = [
    "SamplerArena",
    "gather_frontier_edges",
    "expand_frontier_arena",
    "first_occurrence_dedup",
    "SORT_FALLBACK_FRACTION",
]

#: When more than this fraction of candidate edges belongs to over-degree
#: segments, splitting buys nothing: sort everything in one whole-array
#: argsort.  Both paths produce identical output.
SORT_FALLBACK_FRACTION = 0.9


class SamplerArena:
    """A bundle of named, growable, persistent scratch buffers.

    ``request(name, size, dtype)`` returns a length-``size`` view of the
    buffer registered under ``name``, allocating or doubling it only when
    capacity is exceeded.  Views are valid until the next ``request`` of
    the same name; kernels request each name at most once per hop.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._iota: Optional[np.ndarray] = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.grow_count = 0

    def attach_metrics(self, metrics: MetricsRegistry) -> None:
        """Redirect telemetry to a shared (e.g. per-pipeline) registry."""
        self.metrics = metrics

    def _record_grow(self, nbytes: int) -> None:
        self.grow_count += 1
        self.metrics.counter("arena_grows").inc()
        self.metrics.counter("arena_grow_bytes").inc(nbytes)
        self.metrics.gauge("arena_bytes").set(float(self.nbytes()))

    def request(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] < size or buf.dtype != np.dtype(dtype):
            capacity = max(size, 0 if buf is None else 2 * buf.shape[0])
            buf = np.empty(capacity, dtype=dtype)
            self._buffers[name] = buf
            self._record_grow(buf.nbytes)
        return buf[:size]

    def iota(self, size: int) -> np.ndarray:
        """A persistent ``arange(size)`` prefix (read-only by convention)."""
        if self._iota is None or self._iota.shape[0] < size:
            capacity = max(size, 0 if self._iota is None else 2 * self._iota.shape[0])
            self._iota = np.arange(capacity, dtype=np.int64)
            self._record_grow(self._iota.nbytes)
        return self._iota[:size]

    def nbytes(self) -> int:
        total = sum(buf.nbytes for buf in self._buffers.values())
        if self._iota is not None:
            total += self._iota.nbytes
        return total

    def buffer_names(self) -> list[str]:
        return sorted(self._buffers)


def _fill_repeat(
    values: np.ndarray,
    degrees: np.ndarray,
    seg_starts: np.ndarray,
    total: int,
    out: np.ndarray,
) -> None:
    """``out[:total] = np.repeat(values, degrees)`` without a fresh array.

    Writes per-segment increments at segment boundaries and integrates with
    an in-place cumsum.  Zero-degree segments contribute nothing; the
    boundary positions of non-empty segments are strictly increasing, so
    plain fancy assignment (not ``add.at``) suffices.
    """
    view = out[:total]
    view[:] = 0
    nonzero = degrees > 0
    if not nonzero.any():
        return
    starts = seg_starts[nonzero]
    vals = values[nonzero]
    view[starts[0]] = vals[0]
    if len(starts) > 1:
        view[starts[1:]] = vals[1:] - vals[:-1]
    np.cumsum(view, out=view)


def gather_frontier_edges(
    graph: CSRGraph, frontier: np.ndarray, arena: SamplerArena
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """All incident candidate edges of ``frontier``, gathered into the arena.

    Returns ``(src_global, dst_local, degrees, total)`` where the first two
    are arena views of length ``total`` in adjacency (canonical) order.
    """
    indptr, indices = graph.indptr, graph.indices
    n_frontier = len(frontier)
    degrees = arena.request("degrees", n_frontier)
    row_starts = arena.request("row_starts", n_frontier)
    np.take(indptr, frontier, out=row_starts)
    np.take(indptr[1:], frontier, out=degrees)
    np.subtract(degrees, row_starts, out=degrees)
    total = int(degrees.sum())
    if total == 0:
        empty = arena.request("src_global", 0)
        return empty, arena.request("dst_local", 0), degrees, 0

    seg_starts = arena.request("seg_starts", n_frontier)
    np.cumsum(degrees, out=seg_starts)
    np.subtract(seg_starts, degrees, out=seg_starts)  # exclusive prefix sum

    # Edge offset into ``indices``: row_start[seg] + (e - seg_start[seg]),
    # built as iota + repeat(row_start - seg_start, degrees).
    edge_offsets = arena.request("edge_offsets", total)
    np.subtract(row_starts, seg_starts, out=row_starts)  # reuse as bias
    _fill_repeat(row_starts, degrees, seg_starts, total, edge_offsets)
    np.add(edge_offsets, arena.iota(total), out=edge_offsets)

    src_global = arena.request("src_global", total)
    np.take(indices, edge_offsets, out=src_global)
    dst_local = arena.request("dst_local", total)
    _fill_repeat(arena.iota(n_frontier), degrees, seg_starts, total, dst_local)
    return src_global, dst_local, degrees, total


def _select_over_degree(
    composite: np.ndarray,
    over_idx: np.ndarray,
    over_degrees: np.ndarray,
    fanout: int,
    keep: np.ndarray,
    arena: SamplerArena,
) -> None:
    """Mark the ``fanout`` smallest-composite edges of each over-degree
    segment in ``keep`` (edge-domain boolean mask)."""
    n_over = len(over_idx)
    over_comp = arena.request("over_comp", n_over, np.float64)
    np.take(composite, over_idx, out=over_comp)
    order = np.argsort(over_comp, kind="stable")
    # In sorted order edges are grouped by segment (composite's integer part
    # is the destination), so rank-in-segment is position minus the
    # segment's exclusive prefix sum; every segment here is over-degree, so
    # the cap is simply ``fanout``.
    over_seg_starts = arena.request("over_seg_starts", len(over_degrees))
    np.cumsum(over_degrees, out=over_seg_starts)
    np.subtract(over_seg_starts, over_degrees, out=over_seg_starts)
    rank = arena.request("over_rank", n_over)
    _fill_repeat(over_seg_starts, over_degrees, over_seg_starts, n_over, rank)
    np.subtract(arena.iota(n_over), rank, out=rank)
    keep_sorted = arena.request("keep_sorted", n_over, bool)
    np.less(rank, fanout, out=keep_sorted)
    n_sel = int(np.count_nonzero(keep_sorted))
    sel_in_subset = arena.request("sel_in_subset", n_sel)
    np.compress(keep_sorted, order, out=sel_in_subset)
    sel_edges = arena.request("sel_edges", n_sel)
    np.take(over_idx, sel_in_subset, out=sel_edges)
    keep[sel_edges] = True


def expand_frontier_arena(
    graph: CSRGraph,
    frontier: np.ndarray,
    fanout: Optional[int],
    rng: np.random.Generator,
    arena: SamplerArena,
) -> tuple[np.ndarray, np.ndarray]:
    """One-hop uniform without-replacement expansion on arena buffers.

    Returns ``(src_global, dst_local)`` arena views for the selected edges
    in canonical adjacency order.  Consumes the RNG stream exactly like the
    reference :func:`~repro.sampling.fast_sampler.expand_frontier_vectorized`
    (one uniform key per candidate edge whenever any segment exceeds the
    fanout), so both produce identical selections for a shared generator.
    """
    metrics = arena.metrics
    src_global, dst_local, degrees, total = gather_frontier_edges(
        graph, frontier, arena
    )
    if fanout is None or total == 0 or int(degrees.max()) <= fanout:
        metrics.counter("sampler_edges_copy_path").inc(total)
        return src_global, dst_local

    keys = arena.request("keys", total, np.float64)
    rng.random(out=keys)
    composite = arena.request("composite", total, np.float64)
    np.add(dst_local, keys, out=composite)

    keep = arena.request("keep", total, bool)
    deg_of_edge = arena.request("deg_of_edge", total)
    np.take(degrees, dst_local, out=deg_of_edge)
    over_edge = arena.request("over_edge", total, bool)
    np.greater(deg_of_edge, fanout, out=over_edge)
    n_over = int(np.count_nonzero(over_edge))

    if n_over >= SORT_FALLBACK_FRACTION * total:
        # Nearly everything needs sorting: fall back to one whole-array
        # sort.  Identical output.
        metrics.counter("sampler_edges_sort_path").inc(total)
        keep[:] = False
        order = np.argsort(composite, kind="stable")
        seg_starts = arena.request("seg_starts_sorted", len(degrees))
        np.cumsum(degrees, out=seg_starts)
        np.subtract(seg_starts, degrees, out=seg_starts)
        rank = arena.request("over_rank", total)
        _fill_repeat(seg_starts, degrees, seg_starts, total, rank)
        np.subtract(arena.iota(total), rank, out=rank)
        cap = arena.request("cap", len(degrees))
        np.minimum(degrees, fanout, out=cap)
        cap_rep = arena.request("cap_rep", total)
        _fill_repeat(cap, degrees, seg_starts, total, cap_rep)
        keep_sorted = arena.request("keep_sorted", total, bool)
        np.less(rank, cap_rep, out=keep_sorted)
        n_sel = int(np.count_nonzero(keep_sorted))
        sel_edges = arena.request("sel_edges", n_sel)
        np.compress(keep_sorted, order, out=sel_edges)
        keep[sel_edges] = True
    else:
        # Split path: under-degree segments copy through verbatim; only the
        # over-degree remainder is sorted.
        metrics.counter("sampler_edges_sort_path").inc(n_over)
        metrics.counter("sampler_edges_copy_path").inc(total - n_over)
        np.logical_not(over_edge, out=keep)
        if n_over:
            over_idx = arena.request("over_idx", n_over)
            np.compress(over_edge, arena.iota(total), out=over_idx)
            over_seg = arena.request("over_seg_mask", len(degrees), bool)
            np.greater(degrees, fanout, out=over_seg)
            n_over_segs = int(np.count_nonzero(over_seg))
            over_degrees = arena.request("over_degrees", n_over_segs)
            np.compress(over_seg, degrees, out=over_degrees)
            _select_over_degree(
                composite, over_idx, over_degrees, fanout, keep, arena
            )

    n_keep = int(np.count_nonzero(keep))
    src_sel = arena.request("src_sel", n_keep)
    dst_sel = arena.request("dst_sel", n_keep)
    np.compress(keep, src_global, out=src_sel)
    np.compress(keep, dst_local, out=dst_sel)
    return src_sel, dst_sel


def first_occurrence_dedup(
    src_sel: np.ndarray,
    local_of: np.ndarray,
    base: int,
    arena: SamplerArena,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Remap selected sources to local ids, discovering new nodes in O(D).

    ``local_of`` is the persistent global->local map (−1 means unseen);
    ``base`` is the number of locals already assigned.  Returns
    ``(src_local, ordered_new)`` where ``src_local`` is an arena view and
    ``ordered_new`` is a *fresh* array of newly discovered globals in
    first-occurrence (discovery) order — what ``np.unique(...,
    return_index=True)`` + a stable argsort would give, without the sort.

    The trick: write each new edge's position into ``local_of`` in
    *reversed* order, so fancy-assignment's last-write-wins semantics leave
    the first occurrence's position behind; an edge is a first occurrence
    iff the map returns its own position.  A cumulative count over that
    mask assigns dense discovery-ordered local ids.

    Callers must add ``ordered_new`` to their reset list: after this call
    ``local_of`` holds final local ids for exactly ``ordered_new``'s nodes.
    """
    n_edges = len(src_sel)
    src_local = arena.request("src_local", n_edges)
    np.take(local_of, src_sel, out=src_local)
    new_mask = arena.request("new_mask", n_edges, bool)
    np.less(src_local, 0, out=new_mask)
    n_new_edges = int(np.count_nonzero(new_mask))
    if n_new_edges == 0:
        return src_local, None

    new_globals = arena.request("new_globals", n_new_edges)
    np.compress(new_mask, src_sel, out=new_globals)
    positions = arena.request("new_positions", n_new_edges)
    np.compress(new_mask, arena.iota(n_edges), out=positions)
    # Reversed write: first occurrence's position survives.
    local_of[new_globals[::-1]] = positions[::-1]
    first_pos = arena.request("first_pos", n_new_edges)
    np.take(local_of, new_globals, out=first_pos)
    first_mask = arena.request("first_mask", n_new_edges, bool)
    np.equal(first_pos, positions, out=first_mask)
    # Fresh array: it escapes into the MFG's n_id.
    ordered_new = new_globals[first_mask]
    local_of[ordered_new] = base + np.arange(len(ordered_new), dtype=np.int64)
    np.take(local_of, src_sel, out=src_local)
    return src_local, ordered_new
