"""Reusable sampling arena: persistent scratch buffers + O(selected) kernels.

SALIENT's C++ sampler owes much of its speed to *not allocating* and to
doing O(fanout) work per destination: every thread owns a bundle of
persistent, growable buffers that survive across batches, and each hop is a
fixed number of flat-array passes over them.  This module is the numpy
translation of that discipline:

- :class:`SamplerArena` — named, growable, persistent index/``float64``/
  ``bool`` buffers with a shared iota (``arange``) cache.  Index buffers are
  in the arena's ``index_dtype``: the fast sampler picks int32 when the
  graph's node ids and edge offsets fit (``csr_index_dtype``'s rule), which
  halves every index buffer.  A buffer is
  allocated only when a hop needs more than its capacity, and then at twice
  the request, so the batch-to-batch jitter of hop sizes stays inside what
  warm-up allocated: after warm-up the arena performs **zero** allocations
  per batch, which the attached :class:`~repro.telemetry.MetricsRegistry`
  can prove (``arena_grows`` stays flat).
- :func:`expand_frontier_arena` — fanout selection that never materialises
  the neighbourhood: a destination of degree <= fanout copies its row
  through, and an over-degree destination gets ``fanout`` distinct
  positions from a vectorised Floyd's algorithm (one flat pass per pick,
  each drawing one row of uniforms, then a row-wise sort).  Only the selected edges are gathered from
  ``indices``, in canonical adjacency order (ascending position per
  destination).
- :func:`first_occurrence_dedup` — O(selected) discovery-order
  deduplication driven by the persistent global->local map (no
  ``np.unique`` sort).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..telemetry import MetricsRegistry

__all__ = [
    "SamplerArena",
    "expand_frontier_arena",
    "first_occurrence_dedup",
]


class SamplerArena:
    """A bundle of named, growable, persistent scratch buffers.

    ``request(name, size, dtype)`` returns a length-``size`` view of the
    buffer registered under ``name``, reallocating it at ``2 * size`` only
    when capacity is exceeded; ``dtype`` defaults to ``index_dtype`` (int64
    unless the owner knows its indices fit a narrower type).  The headroom is what keeps fresh batches,
    whose hops are a few percent larger or smaller than warm-up's, from
    growing anything; untouched headroom pages cost no resident memory.
    Views are valid until the next ``request`` of the same name; kernels
    request each name at most once per hop.
    """

    def __init__(
        self, metrics: Optional[MetricsRegistry] = None, index_dtype=np.int64
    ) -> None:
        self.index_dtype = np.dtype(index_dtype)
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

    def request(self, name: str, size: int, dtype=None) -> np.ndarray:
        dtype = self.index_dtype if dtype is None else np.dtype(dtype)
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] < size or buf.dtype != dtype:
            buf = np.empty(2 * size, dtype=dtype)
            self._buffers[name] = buf
            self._record_grow(buf.nbytes)
        return buf[:size]

    def iota(self, size: int) -> np.ndarray:
        """A persistent ``arange(size)`` prefix (read-only by convention)."""
        if self._iota is None or self._iota.shape[0] < size:
            self._iota = np.arange(2 * size, dtype=self.index_dtype)
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


def _floyd_positions(
    over_degrees: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
    arena: SamplerArena,
) -> np.ndarray:
    """A uniform ``fanout``-subset of ``range(deg)`` for every over-degree row.

    Floyd's algorithm, vectorised across rows: pass ``k`` sets
    ``j = deg - fanout + k``, draws ``t`` uniform in ``[0, j]`` and keeps
    ``t`` unless an earlier pass already picked it, in which case it keeps
    ``j`` (which no earlier pass can have picked, since pass ``i`` picks at
    most ``deg - fanout + i``).  Returns an ``(n_over, fanout)`` arena view
    of within-row positions, ascending along each row.

    Each pass draws its own row of ``n_over`` uniforms: ``fanout`` draws of
    one row consume the generator exactly as one ``(fanout, n_over)`` draw
    would, so the stream is the same while the float scratch is one row.
    """
    n_over = len(over_degrees)
    # Pass-major (fanout, n_over) layout: every pass reads and writes whole
    # contiguous rows, which is ~3x faster than per-row short reductions.
    drawn = arena.request("floyd_drawn", fanout * n_over).reshape(fanout, n_over)
    draw = arena.request("floyd_draw", n_over, np.float64)
    span = arena.request("floyd_span", n_over)  # j + 1 of the current pass
    np.subtract(over_degrees, fanout, out=span)
    seen = arena.request("floyd_seen", fanout * n_over, bool).reshape(fanout, n_over)
    hit = arena.request("floyd_hit", n_over, bool)
    for k in range(fanout):
        np.add(span, 1, out=span)
        rng.random(out=draw)
        np.multiply(draw, span, out=draw)
        # u * (j + 1) < j + 1 in float64 for u < 1, so truncation lands in [0, j].
        np.copyto(drawn[k], draw, casting="unsafe")
        if k:
            np.equal(drawn[:k], drawn[k], out=seen[:k])
            np.logical_or.reduce(seen[:k], axis=0, out=hit)
            np.subtract(span, 1, out=drawn[k], where=hit)
    picks = arena.request("floyd_picks", n_over * fanout).reshape(n_over, fanout)
    np.copyto(picks, drawn.T)
    picks.sort(axis=1)
    return picks


def expand_frontier_arena(
    graph: CSRGraph,
    frontier: np.ndarray,
    fanout: Optional[int],
    rng: np.random.Generator,
    arena: SamplerArena,
) -> tuple[np.ndarray, np.ndarray]:
    """One-hop uniform without-replacement expansion on arena buffers.

    Returns ``(src_global, indptr)`` arena views: the selected edges'
    global sources grouped by destination (frontier position), in
    canonical adjacency order within each, and the ``len(frontier) + 1``
    offsets of those groups — the layer's CSR, with global sources.  A
    destination of degree <= ``fanout`` (or any destination when
    ``fanout`` is ``None``) keeps its whole row; the others keep the
    ``fanout`` positions :func:`_floyd_positions` draws.  Work and memory
    are O(selected edges), never O(candidate edges).
    """
    n_frontier = len(frontier)
    row_starts = arena.request("row_starts", n_frontier)
    degrees = arena.request("degrees", n_frontier)
    np.take(graph.indptr, frontier, out=row_starts)
    np.take(graph.indptr[1:], frontier, out=degrees)
    np.subtract(degrees, row_starts, out=degrees)
    cap = degrees
    if fanout is not None:
        cap = arena.request("cap", n_frontier)
        np.minimum(degrees, fanout, out=cap)
    indptr = arena.request("indptr", n_frontier + 1)
    indptr[0] = 0
    np.cumsum(cap, out=indptr[1:])
    n_sel = int(indptr[-1])
    out_starts = indptr[:-1]  # exclusive prefix sum

    # Every segment first copies through positions 0..cap-1:
    # edge offset = row_start[seg] + (e - out_start[seg]).
    bias = arena.request("bias", n_frontier)
    np.subtract(row_starts, out_starts, out=bias)
    edge_offsets = arena.request("edge_offsets", n_sel)
    _fill_repeat(bias, cap, out_starts, n_sel, edge_offsets)
    np.add(edge_offsets, arena.iota(n_sel), out=edge_offsets)

    n_drawn = 0
    if fanout is not None:
        over = arena.request("over", n_frontier, bool)
        np.greater(degrees, fanout, out=over)
        n_over = int(np.count_nonzero(over))
        if n_over:
            # Over-degree segments overwrite their fanout copied slots with
            # drawn positions.
            over_degrees = arena.request("over_degrees", n_over)
            np.compress(over, degrees, out=over_degrees)
            picks = _floyd_positions(over_degrees, fanout, rng, arena)
            over_row_starts = arena.request("over_row_starts", n_over)
            np.compress(over, row_starts, out=over_row_starts)
            np.add(picks, over_row_starts[:, None], out=picks)
            over_out_starts = arena.request("over_out_starts", n_over)
            np.compress(over, out_starts, out=over_out_starts)
            slots = arena.request("over_slots", n_over * fanout)
            slots = slots.reshape(n_over, fanout)
            np.add(over_out_starts[:, None], arena.iota(fanout), out=slots)
            edge_offsets[slots] = picks
            n_drawn = n_over * fanout
    arena.metrics.counter("sampler_edges_drawn").inc(n_drawn)
    arena.metrics.counter("sampler_edges_copy_path").inc(n_sel - n_drawn)

    src_sel = arena.request("src_sel", n_sel)
    np.take(graph.indices, edge_offsets, out=src_sel)
    return src_sel, indptr


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
    local_of[ordered_new] = base + np.arange(len(ordered_new), dtype=local_of.dtype)
    np.take(local_of, src_sel, out=src_local)
    return src_local, ordered_new
