"""Reverse-mode automatic differentiation on numpy arrays.

This module provides the :class:`Tensor` class, the substrate on which the
whole reproduction's neural-network stack is built (the paper uses PyTorch;
see DESIGN.md for the substitution rationale).

The implementation is a classic dynamic tape: every differentiable operation
records its parents and a backward closure on the output tensor, and
:meth:`Tensor.backward` replays the tape in reverse topological order.
Numerical work is delegated to numpy; Python-level overhead is kept off the
hot path by avoiding per-element loops everywhere (see the ml-systems guide).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

# Default floating dtype for all tensors created from Python data.
DEFAULT_DTYPE = np.float32

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]


class _GradMode:
    """Process-wide switch mirroring ``torch.no_grad`` semantics."""

    enabled: bool = True


class no_grad:
    """Context manager that disables gradient tape recording.

    Used by evaluation loops (inference with sampling, layer-wise full
    inference) to avoid building backward graphs for forward-only work.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GradMode.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GradMode.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    When an op broadcast an operand up to a larger shape, the gradient that
    flows back has the broadcast shape; summing over the broadcast axes
    recovers the operand-shaped gradient.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype == np.float16:
        # Compute happens in at least single precision (fp16 is a storage
        # format for the host feature store only).
        return arr.astype(DEFAULT_DTYPE)
    if arr.dtype.kind == "f":
        return arr  # keep float32/float64 as provided
    if arr.dtype.kind in "iu" and arr.dtype != np.int64:
        return arr.astype(np.int64)
    if arr.dtype.kind == "O":
        return arr.astype(DEFAULT_DTYPE)
    return arr


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to ``numpy.ndarray``. Float data is stored as
        float32 by default (matching the paper's GPU compute precision).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` on
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _op: str = "",
    ) -> None:
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = tuple(_parents) if is_grad_enabled() else ()
        self._op: str = _op

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{grad_tag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Parameters
        ----------
        grad:
            Seed gradient. Defaults to ones for scalar outputs; required for
            non-scalar outputs (mirrors PyTorch semantics).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"output, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"seed gradient shape {grad.shape} != output shape {self.data.shape}"
            )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        # Iterative DFS: sampled neighborhoods produce deep graphs, and the
        # recursion limit is easy to hit with many-layer MFGs.
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                node._accumulate(node_grad)
            if node._backward is None:
                continue
            for parent, parent_grad in node._backward(node_grad):
                if parent_grad is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + parent_grad
                else:
                    grads[key] = parent_grad

    def _on_tape(self) -> bool:
        """Whether a gradient reaching this tensor is read: it accumulates
        one (``requires_grad``) or passes it on to its own parents.  An op
        may skip computing the gradient of an input for which this is
        False (a leaf built from data, e.g. the batch features)."""
        return self.requires_grad or bool(self._parents) or self._backward is not None

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Optional[Callable],
        op: str,
    ) -> "Tensor":
        out = Tensor(data)
        if is_grad_enabled() and any(p._on_tape() for p in parents):
            out._parents = tuple(parents)
            out._backward = backward
            out._op = op
        return out

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def _operand(self, other: ArrayLike) -> "Tensor":
        """Wrap the other operand of ``+ - * /``.

        A Python ``int``/``float`` beside a float tensor takes the tensor's
        dtype: wrapped as a 0-d float64 array it would upcast float32 to
        float64 under NumPy 2. Arrays and tensors keep their own dtype.
        """
        if isinstance(other, Tensor):
            return other
        if isinstance(other, (int, float)) and self.data.dtype.kind == "f":
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return Tensor(other)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        data = self.data + other.data

        def backward(g: np.ndarray):
            return (
                (self, _unbroadcast(g, self.data.shape)),
                (other, _unbroadcast(g, other.data.shape)),
            )

        return Tensor._make(data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        data = self.data - other.data

        def backward(g: np.ndarray):
            return (
                (self, _unbroadcast(g, self.data.shape)),
                (other, _unbroadcast(-g, other.data.shape)),
            )

        return Tensor._make(data, (self, other), backward, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._operand(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        data = self.data * other.data
        a, b = self, other

        def backward(g: np.ndarray):
            return (
                (a, _unbroadcast(g * b.data, a.data.shape)),
                (b, _unbroadcast(g * a.data, b.data.shape)),
            )

        return Tensor._make(data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        data = self.data / other.data
        a, b = self, other

        def backward(g: np.ndarray):
            return (
                (a, _unbroadcast(g / b.data, a.data.shape)),
                (b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)),
            )

        return Tensor._make(data, (self, other), backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._operand(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray):
            return ((self, -g),)

        return Tensor._make(-self.data, (self,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(g: np.ndarray):
            return ((self, g * exponent * self.data ** (exponent - 1)),)

        return Tensor._make(data, (self,), backward, "pow")

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data
        a, b = self, other

        def backward(g: np.ndarray):
            ga = g @ b.data.swapaxes(-1, -2)
            gb = a.data.swapaxes(-1, -2) @ g
            return (
                (a, _unbroadcast(ga, a.data.shape)),
                (b, _unbroadcast(gb, b.data.shape)),
            )

        return Tensor._make(data, (self, other), backward, "matmul")

    def matmul(self, other: "Tensor") -> "Tensor":
        return self.__matmul__(other)

    def transpose(self, axes: Optional[tuple] = None) -> "Tensor":
        data = np.transpose(self.data, axes)
        if axes is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(axes))

        def backward(g: np.ndarray):
            return ((self, np.transpose(g, inverse)),)

        return Tensor._make(data, (self,), backward, "transpose")

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.data.shape

        def backward(g: np.ndarray):
            return ((self, g.reshape(original)),)

        return Tensor._make(data, (self,), backward, "reshape")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g: np.ndarray):
            if axis is None:
                grad = np.broadcast_to(g, shape)
            else:
                g_expanded = g if keepdims else np.expand_dims(g, axis)
                grad = np.broadcast_to(g_expanded, shape)
            return ((self, np.ascontiguousarray(grad)),)

        return Tensor._make(data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if np.isscalar(axis) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray):
            if axis is None:
                mask = (self.data == data).astype(self.data.dtype)
                mask /= mask.sum()
                return ((self, mask * g),)
            expanded = data if keepdims else np.expand_dims(data, axis)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient evenly among ties (matches the subgradient choice
            # used by numpy-based reference implementations).
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1)
            return ((self, mask * g_expanded),)

        return Tensor._make(data, (self,), backward, "max")

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0)

        def backward(g: np.ndarray):
            return ((self, g * (self.data > 0)),)

        return Tensor._make(data, (self,), backward, "relu")

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        data = np.where(self.data > 0, self.data, negative_slope * self.data)

        def backward(g: np.ndarray):
            return ((self, g * np.where(self.data > 0, 1.0, negative_slope).astype(g.dtype)),)

        return Tensor._make(data, (self,), backward, "leaky_relu")

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g: np.ndarray):
            return ((self, g * data),)

        return Tensor._make(data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(g: np.ndarray):
            return ((self, g / self.data),)

        return Tensor._make(data, (self,), backward, "log")

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(g: np.ndarray):
            return ((self, g * (1 - data * data)),)

        return Tensor._make(data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g: np.ndarray):
            return ((self, g * data * (1 - data)),)

        return Tensor._make(data, (self,), backward, "sigmoid")

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(g: np.ndarray):
            return ((self, g * 0.5 / data),)

        return Tensor._make(data, (self,), backward, "sqrt")

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(g: np.ndarray):
            return ((self, g * np.sign(self.data)),)

        return Tensor._make(data, (self,), backward, "abs")

    # ------------------------------------------------------------------
    # Indexing and composition
    # ------------------------------------------------------------------
    def __getitem__(self, key) -> "Tensor":
        if isinstance(key, Tensor):
            key = key.data
        data = self.data[key]
        shape = self.data.shape
        dtype = self.data.dtype

        unique_key = isinstance(key, (slice, int)) or (
            isinstance(key, tuple) and all(isinstance(k, (slice, int)) for k in key)
        )

        def backward(g: np.ndarray):
            if isinstance(key, slice) and key.step in (None, 1):
                # The hot case (``x[:n_dst]`` destination slices): assign the
                # covered rows and zero only the complement, skipping a
                # full zero-fill pass.
                grad = np.empty(shape, dtype)
                grad[key] = g
                start, stop, _ = key.indices(shape[0])
                grad[:start] = 0
                grad[stop:] = 0
            elif unique_key:
                # Slices/ints cannot alias; direct assignment is much faster
                # than np.add.at's unbuffered scatter.
                grad = np.zeros(shape, dtype)
                grad[key] = g
            else:
                grad = np.zeros(shape, dtype)
                np.add.at(grad, key, g)
            return ((self, grad),)

        return Tensor._make(data, (self,), backward, "getitem")

    def gather_rows(self, index: np.ndarray) -> "Tensor":
        """Row gather ``self[index]`` whose backward is the reference
        scatter-add, :func:`repro.tensor.kernels.scatter_add_rows`.

        The gradient accumulates each row's contributions in index order, in
        the upstream gradient's dtype, then takes this tensor's dtype — the
        order the fused plan kernels reproduce bit for bit.
        """
        from . import kernels

        index = np.asarray(index)
        data = self.data[index]
        n_rows = self.data.shape[0]

        def backward(g: np.ndarray):
            # Transpose of a row gather is a row scatter-add.
            grad = kernels.scatter_add_rows(g, index, n_rows).astype(
                self.data.dtype, copy=False
            )
            return ((self, grad),)

        return Tensor._make(data, (self,), backward, "gather_rows")

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(g: np.ndarray):
            outs = []
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * g.ndim
                slicer[axis] = slice(start, stop)
                outs.append((t, g[tuple(slicer)]))
            return tuple(outs)

        return Tensor._make(data, tuple(tensors), backward, "concat")

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(g: np.ndarray):
            parts = np.split(g, len(tensors), axis=axis)
            return tuple(
                (t, np.squeeze(part, axis=axis)) for t, part in zip(tensors, parts)
            )

        return Tensor._make(data, tuple(tensors), backward, "stack")
