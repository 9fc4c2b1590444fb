"""Per-batch aggregation plans: precomputed segment-reduction metadata.

Every segment reduction over a message-flow-graph layer needs the same
setup metadata — per-destination counts for means, and for max/softmax a
destination-sorted edge permutation with its segment boundaries.  The
reference kernels recompute it (an argsort or a ``bincount`` over the
index) inside *every* ``segment_mean/max/softmax`` call, i.e. once per op
per layer per direction.  An :class:`AggregationPlan` holds it **once per
batch** and is reused by every layer's forward *and* backward pass.

A sampled layer arrives as the CSR the compute reads: ``indptr`` over
destinations, ``indices`` the source of every edge, destination-grouped in
edge order (:meth:`AggregationPlan.from_csr`, what every
:class:`~repro.sampling.mfg.Adj` builds).  Its plan *is* that CSR: the
counts are ``diff(indptr)``, the gather operator is ``(indptr, indices)``
as given, and the scatter operator (the gather's backward) is its stable
counting transpose in C.  The per-edge views only max aggregation, softmax
and GAT read — ``dst``, ``starts``, ``seg_ids`` — are built on first use,
and the identity ``perm`` only when asked for: max reduces a CSR plan's
values in place (:meth:`AggregationPlan.segment_order`).  The COO
constructor (``AggregationPlan(src, dst, n_src, n_dst)``) stays for raw
callers and for GAT's self-loop-augmented edge set, whose edges are not
destination-sorted: it groups them by a stable sort of ``dst`` once, and
the augmented plan is memoized on the batch plan so every head and both
passes share it.

Bitwise contract: each output slot of a segment *sum* accumulates its
edges sequentially **in original edge order, in the input dtype** — the
reference kernels' ``np.add.at`` semantics.  The plan materializes that
same accumulation as CSR operators (rows grouped by destination — or, for
the scatter, by source — with entries within a row in edge order; all-ones
data in the operand's dtype, :meth:`AggregationPlan.ones`): ``A @ x`` runs
the identical per-slot add sequence through scipy's C matvec loop, an
order of magnitude faster than ``np.add.at``'s per-index loop.
``np.add.reduceat`` is deliberately *not* used for sums — its pairwise
summation re-associates float adds and is not bit-identical — but
``maximum.reduceat`` is order-exact, so the sorted view drives
max/softmax.
``tests/tensor/test_fused_kernels.py`` pins the twin property
bit-for-bit, and ``tests/tensor/test_plan_csr.py`` holds the CSR plan
``array_equal`` to the sort-built one.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

__all__ = ["AggregationPlan", "csr_index_dtype", "csr_rows", "group_by_dst"]


def csr_tools():
    """scipy's compiled CSR loops (``scipy.sparse._sparsetools``), imported
    at first use: ``import scipy.sparse`` takes ~0.13 s and ~25 MB of
    resident memory, and a prepare worker process runs no CSR kernel."""
    from scipy.sparse import _sparsetools

    return _sparsetools


def csr_index_dtype(n_cols: int, num_edges: int) -> np.dtype:
    """int32 when every CSR index and offset fits (as scipy would pick),
    else int64.  ``indices`` run below ``n_cols`` and ``indptr`` up to
    ``num_edges``."""
    fits = max(int(n_cols), int(num_edges)) < np.iinfo(np.int32).max
    return np.dtype(np.int32 if fits else np.int64)


def group_by_dst(
    src: np.ndarray, dst: np.ndarray, n_src: int, n_dst: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group a COO edge list by destination: ``(indptr, indices, perm)``.

    ``perm`` is the stable argsort of ``dst`` (int64 stable argsort is a
    radix sort, so this is O(E)): each destination keeps its edges in their
    original order.  ``indptr`` and ``indices`` (the sources in ``perm``
    order) are in :func:`csr_index_dtype`.  Both ends are range-checked
    here, before the narrowing cast.
    """
    src = np.asarray(src)
    dst = np.asarray(dst)
    if src.ndim != 1 or dst.ndim != 1 or src.shape != dst.shape:
        raise ValueError("src/dst must be 1-D arrays of equal length")
    if src.shape[0]:
        if src.min() < 0 or src.max() >= n_src:
            raise ValueError("edge source exceeds source-set size")
        if dst.min() < 0 or dst.max() >= n_dst:
            raise ValueError("edge destination exceeds target-set size")
    perm = np.argsort(dst, kind="stable")
    dtype = csr_index_dtype(n_src, src.shape[0])
    indptr = np.zeros(int(n_dst) + 1, dtype=dtype)
    np.cumsum(np.bincount(dst, minlength=n_dst), out=indptr[1:])
    return indptr, src[perm].astype(dtype), perm


def csr_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every CSR entry, int64, in storage order (a grouped
    layer's per-edge destination)."""
    counts = np.diff(indptr)
    return np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)


class CSROperator(NamedTuple):
    """Structure of one all-ones CSR operator: ``A @ x`` sums, for each
    row, the ``x`` rows its ``indices`` name, in storage order.  The
    data array is the plan's :meth:`AggregationPlan.ones` in the
    operand's dtype, shared by every operator of the plan."""

    indptr: np.ndarray
    indices: np.ndarray
    shape: tuple[int, int]


class AggregationPlan:
    """Precomputed metadata for segment reductions over one edge list.

    Parameters
    ----------
    src, dst:
        Local edge endpoints, each ``(E,)`` integer, in any order; messages
        flow ``src -> dst``.  Ranges are checked here.
    n_src, n_dst:
        Sizes of the source/destination node sets.

    :meth:`from_csr` builds the plan of an already destination-grouped
    layer without a sort or a copy.
    """

    __slots__ = (
        "indptr",
        "indices",
        "n_src",
        "n_dst",
        "num_edges",
        "counts",
        "_src",
        "_dst",
        "_perm",
        "_starts",
        "_seg_ids",
        "_with_loops",
        "_edge_matrix",
        "_scatter_matrix",
        "_ones",
    )

    def __init__(self, src: np.ndarray, dst: np.ndarray, n_src: int, n_dst: int):
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        n_src, n_dst = int(n_src), int(n_dst)
        indptr, indices, perm = group_by_dst(src, dst, n_src, n_dst)
        self._init(indptr, indices, n_src, n_dst, np.diff(indptr))
        self._src, self._dst, self._perm = src, dst, perm

    def _init(self, indptr, indices, n_src, n_dst, counts) -> None:
        self.indptr = indptr
        self.indices = indices
        self.n_src = n_src
        self.n_dst = n_dst
        self.num_edges = int(indices.shape[0])
        #: per-destination in-degree (mean kernels divide by this)
        self.counts = counts.astype(np.int64, copy=False)
        self._src = self._dst = self._perm = None
        self._starts = self._seg_ids = None
        self._with_loops: Optional["AggregationPlan"] = None
        self._edge_matrix = None
        self._scatter_matrix = None
        self._ones: dict[np.dtype, np.ndarray] = {}

    @classmethod
    def from_csr(
        cls, indptr: np.ndarray, indices: np.ndarray, n_src: int, n_dst: int
    ) -> "AggregationPlan":
        """The plan of a destination-grouped layer, taking its arrays as is.

        ``indptr`` (``n_dst + 1`` offsets) and ``indices`` (source ids, in
        edge order within each destination) must share one integer dtype
        and be checked already — :class:`~repro.sampling.mfg.Adj` checks
        them where it is built.
        """
        plan = cls.__new__(cls)
        plan._init(indptr, indices, int(n_src), int(n_dst), np.diff(indptr))
        return plan

    @classmethod
    def from_edge_index(
        cls, edge_index: np.ndarray, size: tuple[int, int]
    ) -> "AggregationPlan":
        """Build from a PyG-style ``(2, E)`` local edge index and layer size."""
        edge_index = np.asarray(edge_index)
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise ValueError(f"edge_index must be (2, E), got {edge_index.shape}")
        return cls(edge_index[0], edge_index[1], size[0], size[1])

    # ------------------------------------------------------------------
    # Per-edge views, in edge order.  A CSR plan's edge order is its
    # storage order, so ``src`` is ``indices`` and ``perm`` the identity;
    # ``dst``, ``perm``, ``starts`` and ``seg_ids`` are built on first use
    # (only max aggregation, softmax and GAT read them, and max reads a CSR
    # plan's values in place of ``perm``).

    @property
    def src(self) -> np.ndarray:
        return self.indices if self._src is None else self._src

    @property
    def dst(self) -> np.ndarray:
        if self._dst is None:
            self._dst = csr_rows(self.indptr)
        return self._dst

    @property
    def perm(self) -> np.ndarray:
        """Destination-sorted edge order (stable: edges keep their original
        order within a segment)."""
        if self._perm is None:
            self._perm = np.arange(self.num_edges, dtype=np.int64)
        return self._perm

    @property
    def starts(self) -> np.ndarray:
        """Start of every non-empty segment in the ``perm`` order."""
        if self._starts is None:
            self._build_segments()
        return self._starts

    @property
    def seg_ids(self) -> np.ndarray:
        """Destination of every non-empty segment, ascending."""
        if self._seg_ids is None:
            self._build_segments()
        return self._seg_ids

    def segment_order(self, values: np.ndarray) -> np.ndarray:
        """Per-edge ``values`` in ``perm`` order, the order ``starts``
        indexes: ``values`` itself on a plan built from CSR, whose edge
        order is its storage order, else the ``values[perm]`` copy."""
        return values if self._src is None else values[self.perm]

    def _build_segments(self) -> None:
        self._seg_ids = np.flatnonzero(self.counts)
        self._starts = self.indptr[self._seg_ids].astype(np.int64)

    # ------------------------------------------------------------------
    # CSR aggregation operators.  Rows keep edge order within a segment,
    # so scipy's matvec loop visits each slot's entries in original edge
    # order and (with all-ones data in the operand's dtype) reproduces the
    # sequential ``np.add.at`` accumulation bit for bit.  Indices are
    # intentionally NOT per-row sorted: sorting them (scipy's
    # ``sort_indices``/``sum_duplicates``) would re-associate the adds.

    def ones(self, dtype) -> np.ndarray:
        """The operators' all-ones data in ``dtype`` (every operator has
        ``num_edges`` entries, so one array per dtype serves all three)."""
        dtype = np.dtype(dtype)
        ones = self._ones.get(dtype)
        if ones is None:
            ones = self._ones[dtype] = np.ones(self.num_edges, dtype=dtype)
        return ones

    def edge_matrix(self) -> CSROperator:
        """``(n_dst, E)`` operator: ``A @ values`` == segment-sum of
        per-edge rows by destination."""
        if self._edge_matrix is None:
            dtype = csr_index_dtype(self.num_edges, self.num_edges)
            if self._perm is None:  # CSR order: the identity, never built
                order = np.arange(self.num_edges, dtype=dtype)
            else:
                order = self._perm.astype(dtype)
            self._edge_matrix = CSROperator(
                self.indptr.astype(dtype, copy=False),
                order,
                (self.n_dst, self.num_edges),
            )
        return self._edge_matrix

    def gather_matrix(self) -> CSROperator:
        """``(n_dst, n_src)`` operator: ``A @ x`` == gather source rows
        along each edge then segment-sum by destination, without ever
        materializing the ``(E, F)`` message array.  It is the plan's CSR
        itself."""
        return CSROperator(self.indptr, self.indices, (self.n_dst, self.n_src))

    def scatter_matrix(self) -> CSROperator:
        """``(n_src, n_dst)`` operator: ``A @ g`` == gather destination
        rows along each edge then scatter-add into source rows (the
        backward of :meth:`gather_matrix`).  Each source row lists its
        edges in edge order."""
        if self._scatter_matrix is None:
            if self._src is None:  # built from CSR: storage order is edge order
                self._scatter_matrix = self._transpose()
            else:
                src_perm = np.argsort(self._src, kind="stable")
                dtype = csr_index_dtype(self.n_dst, self.num_edges)
                indptr = np.zeros(self.n_src + 1, dtype=dtype)
                np.cumsum(np.bincount(self._src, minlength=self.n_src), out=indptr[1:])
                self._scatter_matrix = CSROperator(
                    indptr, self._dst[src_perm].astype(dtype), (self.n_src, self.n_dst)
                )
        return self._scatter_matrix

    def _transpose(self) -> CSROperator:
        """The stable counting transpose of the gather operator (scipy's
        ``csr_tocsc`` in C): source rows list their edges in storage
        order, which for a plan built from CSR is edge order."""
        n_edges = self.num_edges
        dtype = self.indptr.dtype
        indptr = np.empty(self.n_src + 1, dtype=dtype)
        indices = np.empty(n_edges, dtype=dtype)
        csr_tools().csr_tocsc(
            self.n_dst,
            self.n_src,
            self.indptr,
            self.indices,
            np.ones(n_edges, dtype=np.bool_),
            indptr,
            indices,
            np.empty(n_edges, dtype=np.bool_),
        )
        return CSROperator(indptr, indices, (self.n_src, self.n_dst))

    # ------------------------------------------------------------------
    def with_self_loops(self) -> "AggregationPlan":
        """Plan for the self-loop-augmented edge set used by GAT.

        GAT appends one ``j -> j`` edge per destination (the PyG
        ``add_self_loops=True`` convention, valid because destinations are
        a prefix of the source set).  The augmented plan is memoized so all
        heads and both passes of a layer share it.
        """
        if self._with_loops is None:
            loops = np.arange(self.n_dst, dtype=np.int64)
            self._with_loops = AggregationPlan(
                np.concatenate([self.src, loops]),
                np.concatenate([self.dst, loops]),
                self.n_src,
                self.n_dst,
            )
        return self._with_loops

    def nbytes(self) -> int:
        """Host bytes held by this plan (excluded from transfer metering:
        the wire carries the layer's CSR once, as the ``Adj``'s arrays)."""
        total = self.indptr.nbytes + self.indices.nbytes + self.counts.nbytes
        for name in ("_src", "_dst", "_perm", "_starts", "_seg_ids"):
            array = getattr(self, name)
            if array is not None:
                total += array.nbytes
        for mat in (self._edge_matrix, self._scatter_matrix):
            if mat is not None:
                total += mat.indices.nbytes + mat.indptr.nbytes
        total += sum(ones.nbytes for ones in self._ones.values())
        if self._with_loops is not None:
            total += self._with_loops.nbytes()
        return total

    def __repr__(self) -> str:
        return (
            f"AggregationPlan(E={self.num_edges}, n_src={self.n_src}, "
            f"n_dst={self.n_dst})"
        )
