"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap contiguous numpy arrays (row major, NCHW for feature maps) and
record parent links while gradients are enabled.  ``backward()`` on a scalar
replays the recorded graph once per node in reverse topological order and
accumulates gradients into every reachable tensor that requires them.

float32 is the working precision; float64 is supported throughout so that
finite-difference gradient checks can run at full accuracy.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "cat",
    "no_grad",
    "is_grad_enabled",
    "logistic",
]

_GRAD_ENABLED = True
DEFAULT_DTYPE = np.float32


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def logistic(x: np.ndarray) -> np.ndarray:
    """Stable ``1 / (1 + exp(-x))`` in the dtype of ``x``: one ``exp`` of ``-|x|``, never overflowing."""
    e = np.exp(-np.abs(x))
    out = np.maximum(e, x >= 0)  # 1 where x >= 0 (e <= 1 there), else e: no data-dependent branch
    out /= 1.0 + e
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Dense N-dimensional array with optional gradient-tape participation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if isinstance(data, np.ndarray):
            # np.ascontiguousarray would promote 0-d arrays to 1-d; guard it
            arr = np.asarray(data, dtype=dtype) if dtype else data
            if not arr.flags["C_CONTIGUOUS"]:
                arr = np.ascontiguousarray(arr)
        else:
            arr = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        if requires_grad and not np.issubdtype(arr.dtype, np.floating):
            raise TypeError(f"gradients need a float dtype, got {arr.dtype}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    ) -> "Tensor":
        """Wrap an op result, linking it into the graph when grads are on."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    @staticmethod
    def as_tensor(value, like: "Tensor | None" = None) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        dtype = like.data.dtype if like is not None else DEFAULT_DTYPE
        return Tensor(np.asarray(value, dtype=dtype))

    # -- basic introspection --------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
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

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise ValueError(f"expected a scalar tensor, got shape {self.shape}")

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # -- elementwise arithmetic -----------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other, like=self)
        data = self.data + other.data
        return Tensor.from_op(
            data,
            (self, other),
            lambda g: (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape)),
        )

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other, like=self)
        data = self.data * other.data
        return Tensor.from_op(
            data,
            (self, other),
            lambda g: (
                _unbroadcast(g * other.data, self.shape),
                _unbroadcast(g * self.data, other.shape),
            ),
        )

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return Tensor.from_op(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other, like=self)
        data = self.data - other.data
        return Tensor.from_op(
            data,
            (self, other),
            lambda g: (_unbroadcast(g, self.shape), _unbroadcast(-g, other.shape)),
        )

    def __rsub__(self, other) -> "Tensor":
        return Tensor.as_tensor(other, like=self) - self

    def __truediv__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other, like=self)
        data = self.data / other.data
        return Tensor.from_op(
            data,
            (self, other),
            lambda g: (
                _unbroadcast(g / other.data, self.shape),
                _unbroadcast(-g * self.data / (other.data * other.data), other.shape),
            ),
        )

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.as_tensor(other, like=self) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent
        return Tensor.from_op(
            data,
            (self,),
            lambda g: (g * exponent * self.data ** (exponent - 1),),
        )

    # -- elementwise transcendental ------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        return Tensor.from_op(data, (self,), lambda g: (g * data,))

    def log(self) -> "Tensor":
        return Tensor.from_op(np.log(self.data), (self,), lambda g: (g / self.data,))

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        return Tensor.from_op(data, (self,), lambda g: (g * (0.5 / data),))

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        return Tensor.from_op(data, (self,), lambda g: (g * (1.0 - data * data),))

    def sigmoid(self) -> "Tensor":
        data = logistic(self.data)
        return Tensor.from_op(data, (self,), lambda g: (g * data * (1.0 - data),))

    def softplus(self) -> "Tensor":
        x = self.data
        data = np.log1p(np.exp(-np.abs(x)))  # log(1 + e^x) = log1p(e^-|x|) + max(x, 0), never overflowing
        data += np.maximum(x, 0)
        return Tensor.from_op(data, (self,), lambda g: (g * logistic(x),))

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, self.shape).copy(),)

        return Tensor.from_op(np.asarray(data), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod([self.shape[a] for a in _norm_axes(axis, self.ndim)])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def _extremum(self, axis: int, keepdims: bool, mode: str) -> "Tensor":
        """Max/min over one axis; ties route gradient to the first element."""
        ax = axis % self.ndim
        moved = np.moveaxis(self.data, ax, -1)
        lead = moved.shape[:-1]
        flat = moved.reshape(-1, moved.shape[-1])
        idx = flat.argmax(axis=1) if mode == "max" else flat.argmin(axis=1)
        vals = flat[np.arange(flat.shape[0]), idx].reshape(lead)
        data = np.moveaxis(vals.reshape(lead + (1,)), -1, ax)
        if not keepdims:
            data = data.squeeze(ax)

        def backward(g):
            gg = g if keepdims else np.expand_dims(g, ax)
            gflat = np.moveaxis(gg, ax, -1).reshape(-1)
            out = np.zeros_like(flat)
            out[np.arange(flat.shape[0]), idx] = gflat
            return (np.moveaxis(out.reshape(moved.shape), -1, ax),)

        return Tensor.from_op(np.ascontiguousarray(data), (self,), backward)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        return self._extremum(axis, keepdims, "max")

    def min(self, axis: int, keepdims: bool = False) -> "Tensor":
        return self._extremum(axis, keepdims, "min")

    # -- shape manipulation -----------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        data = self.data.reshape(shape)
        return Tensor.from_op(data, (self,), lambda g: (g.reshape(old),))

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inv = np.argsort(axes)
        data = np.ascontiguousarray(self.data.transpose(axes))
        return Tensor.from_op(data, (self,), lambda g: (np.ascontiguousarray(g.transpose(inv)),))

    def moveaxis(self, src: int, dst: int) -> "Tensor":
        data = np.ascontiguousarray(np.moveaxis(self.data, src, dst))
        return Tensor.from_op(data, (self,), lambda g: (np.ascontiguousarray(np.moveaxis(g, dst, src)),))

    def __getitem__(self, key) -> "Tensor":
        data = np.ascontiguousarray(self.data[key])

        def backward(g):
            full = np.zeros_like(self.data)
            full[key] = g
            return (full,)

        return Tensor.from_op(data, (self,), backward)

    # -- autodiff ---------------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar, filling grads of reachable tensors.

        Repeated calls without clearing accumulate into existing grads.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that is not part of a gradient graph")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        seed = np.ones_like(self.data)
        self.grad = seed if self.grad is None else self.grad + seed
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            grads = node._backward(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
            if node is not self:
                node.grad = None  # free intermediate buffers
            node._backward = None
            node._parents = ()


class Parameter(Tensor):
    """Trainable tensor with a hierarchical name and weight-decay flag."""

    __slots__ = ("name", "weight_decay_exempt")

    def __init__(self, data, weight_decay_exempt: bool = False, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = ""
        self.weight_decay_exempt = bool(weight_decay_exempt)

    def zero_grad(self) -> None:
        self.grad = None


def cat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along `axis`; gradient splits back to each input."""
    ts = list(tensors)
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer = [slice(None)] * g.ndim
        outs = []
        for i in range(len(ts)):
            slicer[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            outs.append(np.ascontiguousarray(g[tuple(slicer)]))
        return outs

    return Tensor.from_op(data, ts, backward)


def _norm_axes(axis, ndim: int) -> tuple[int, ...]:
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)
