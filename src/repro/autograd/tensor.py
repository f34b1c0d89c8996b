"""The :class:`Tensor` class: numpy arrays with reverse-mode autodiff.

Design notes
------------
* Each differentiable op builds a child ``Tensor`` holding references to its
  parents and a ``_backward`` closure that, given the child's gradient,
  accumulates gradients into the parents.
* Broadcasting follows numpy semantics; gradients are "unbroadcast" (summed
  over the broadcast axes) before accumulation.
* Graph construction is disabled inside :func:`no_grad` blocks or when no
  input requires gradients, so inference costs no extra memory.
* ``float64`` is the default dtype — the library's networks are tiny, and
  double precision makes finite-difference gradient checks tight.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs as _obs

ArrayLike = Union[np.ndarray, float, int, list, tuple]

_grad_state = threading.local()


def is_grad_enabled() -> bool:
    """Whether new ops are currently being recorded for backprop."""
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (like ``torch.no_grad``)."""
    previous = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it has ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    # Sum leading dims added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along dims that were size 1 in the original.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus gradient bookkeeping.

    Parameters
    ----------
    data:
        Array-like payload.  Copied only when conversion is required.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _op: str = "",
    ):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = _parents if self.requires_grad else ()
        self._op = _op

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
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
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_tag})"

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy); do not mutate while in a graph."""
        return self.data

    def detach(self) -> "Tensor":
        """A view of the same data cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        op: str,
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=parents, _op=op)
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Fold ``grad`` into ``self.grad``.

        ``owned=True`` asserts the caller hands over a freshly computed
        array nobody else references (the common case for backward-closure
        products), letting the first accumulation adopt it without a
        defensive copy.  Pass-through gradients (identity ops, views of a
        child's gradient, user-supplied seeds) must stay ``owned=False``.
        """
        grad = np.asarray(grad)
        if grad.dtype != np.float64:
            grad = grad.astype(np.float64)  # fresh conversion -> ours
            owned = True
        if grad.shape != self.shape:
            grad = _unbroadcast(grad, self.shape)  # summed -> fresh
            owned = True
        if self.grad is None:
            self.grad = grad if owned else grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1 for scalar tensors; non-scalar roots require
        an explicit seed gradient of matching shape.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError(
                    "backward() without a gradient argument is only valid for "
                    f"scalar tensors, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        seed = np.asarray(grad, dtype=np.float64)
        if seed.shape != self.shape:
            raise ValueError(
                f"seed gradient shape {seed.shape} != tensor shape {self.shape}"
            )

        with _obs.span("autograd.backward"):
            order = self._topological_order()
            self._accumulate(seed)
            for node in reversed(order):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
        if _obs.enabled():
            _obs.counter("autograd.backward.calls").inc()
            _obs.counter("autograd.backward.nodes").inc(len(order))

    def _topological_order(self) -> List["Tensor"]:
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return Tensor._make(out_data, (self, other), "add", backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad, owned=True)

        return Tensor._make(-self.data, (self,), "neg", backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data, owned=True)
            if other.requires_grad:
                other._accumulate(grad * self.data, owned=True)

        return Tensor._make(out_data, (self, other), "mul", backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data, owned=True)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2), owned=True)

        return Tensor._make(out_data, (self, other), "div", backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: Union[int, float]) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    grad * exponent * self.data ** (exponent - 1), owned=True
                )

        return Tensor._make(out_data, (self,), f"pow{exponent}", backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1 and a.ndim >= 2:
                    self._accumulate(np.expand_dims(grad, -1) * b, owned=True)
                elif a.ndim == 1 and b.ndim >= 2:
                    self._accumulate(grad @ np.swapaxes(b, -1, -2), owned=True)
                elif a.ndim == 1 and b.ndim == 1:
                    self._accumulate(grad * b, owned=True)
                else:
                    self._accumulate(grad @ np.swapaxes(b, -1, -2), owned=True)
            if other.requires_grad:
                if a.ndim == 1 and b.ndim >= 2:
                    other._accumulate(np.outer(a, grad), owned=True)
                elif b.ndim == 1 and a.ndim >= 2:
                    other._accumulate(
                        np.tensordot(a, grad, axes=(tuple(range(a.ndim - 1)),) * 2)
                        if a.ndim > 2
                        else a.T @ grad,
                        owned=True,
                    )
                elif a.ndim == 1 and b.ndim == 1:
                    other._accumulate(grad * a, owned=True)
                else:
                    other._accumulate(np.swapaxes(a, -1, -2) @ grad, owned=True)

        return Tensor._make(out_data, (self, other), "matmul", backward)

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data, owned=True)

        return Tensor._make(out_data, (self,), "exp", backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data, owned=True)

        return Tensor._make(out_data, (self,), "log", backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2), owned=True)

        return Tensor._make(out_data, (self,), "tanh", backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data), owned=True)

        return Tensor._make(out_data, (self,), "sigmoid", backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return Tensor._make(out_data, (self,), "relu", backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign, owned=True)

        return Tensor._make(out_data, (self,), "abs", backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient flows only through the unclipped region."""
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return Tensor._make(out_data, (self,), "clip", backward)

    def maximum(self, other: ArrayLike) -> "Tensor":
        """Elementwise maximum; ties send the full gradient to ``self``."""
        other = self._coerce(other)
        take_self = self.data >= other.data
        out_data = np.where(take_self, self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * take_self, owned=True)
            if other.requires_grad:
                other._accumulate(grad * ~take_self, owned=True)

        return Tensor._make(out_data, (self, other), "maximum", backward)

    def minimum(self, other: ArrayLike) -> "Tensor":
        """Elementwise minimum; ties send the full gradient to ``self``."""
        other = self._coerce(other)
        take_self = self.data <= other.data
        out_data = np.where(take_self, self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * take_self, owned=True)
            if other.requires_grad:
                other._accumulate(grad * ~take_self, owned=True)

        return Tensor._make(out_data, (self, other), "minimum", backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(
        self,
        axis: Optional[Union[int, Tuple[int, ...]]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor._make(out_data, (self,), "sum", backward)

    def mean(
        self,
        axis: Optional[Union[int, Tuple[int, ...]]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) ** 2
        return sq.mean(axis=axis, keepdims=keepdims)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                expanded = np.expand_dims(out_data, axis)
            mask = self.data == expanded
            # Split gradient equally among ties to keep backward deterministic.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(np.where(mask, g / counts, 0.0), owned=True)

        return Tensor._make(out_data, (self,), "max", backward)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: Union[int, Tuple[int, ...]]) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return Tensor._make(out_data, (self,), "reshape", backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        """Flatten dimensions ``start_dim..end`` into one axis."""
        kept = self.shape[:start_dim]
        return self.reshape(kept + (-1,))

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        out_data = np.transpose(self.data, axes)
        if axes is None:
            inverse = None
        else:
            inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), "transpose", backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full, owned=True)

        return Tensor._make(out_data, (self,), "getitem", backward)

    # ------------------------------------------------------------------ #
    # combination helpers (static)
    # ------------------------------------------------------------------ #
    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    t._accumulate(grad[tuple(slicer)])

        return Tensor._make(out_data, tuple(tensors), "concat", backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            pieces = np.moveaxis(grad, axis, 0)
            for t, piece in zip(tensors, pieces):
                if t.requires_grad:
                    t._accumulate(piece)

        return Tensor._make(out_data, tuple(tensors), "stack", backward)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)
