"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap contiguous numpy arrays (row major, NCHW for feature maps).
While gradients are enabled, an op result that depends on a tensor requiring
grad gets a graph node (``_Node``): its grad, its edges and its backward
closure, but no data.  Edges point at the parents' nodes, or at the parent
itself when it is a leaf (a parameter or an input with ``requires_grad``);
a parent that needs no grad is recorded as ``None``.  So the graph keeps
alive only what the closures capture, and each closure captures only the
arrays and shapes its backward reads: an intermediate array that no
backward reads is freed as soon as the forward drops its tensor.  An op
whose output is a cheap function of arrays its backward keeps anyway also
gives its node a ``rebuild`` of that output; a consumer that needs the output
in its backward keeps the rebuild instead, so the output is not held twice.

``backward()`` on a scalar orders the nodes topologically, then pops them
in reverse order.  Each popped node passes its grad on to its parents and
drops its grad, edges and closure, so what it saved is freed during the
sweep, not when ``backward()`` returns.  Grads accumulate into every
reachable leaf.  While ordering, the sweep counts each leaf's edges; once
the last node with an edge to a leaf is popped, that leaf's grad is final,
and ``backward(on_leaf=...)`` hands the leaf over right then, so an
optimizer can update it and drop its grad inside the sweep.

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


class _Node:
    """Graph role of one op result: its grad, its parents' nodes, its backward and, where
    its op gives one, its rebuild; no data."""

    __slots__ = ("grad", "parents", "backward", "rebuild")

    def __init__(self, parents: tuple, backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward = backward
        self.rebuild: Callable[[], np.ndarray] | None = None


class Tensor:
    """Dense N-dimensional array with optional gradient-tape participation."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

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
        self._node: _Node | None = None  # None for a leaf, which is its own graph node

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    ) -> "Tensor":
        """Wrap an op result, linking it into the graph when grads are on.

        ``backward(g)`` returns one grad (or ``None``) per parent, in order.
        """
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._node = None
        if _GRAD_ENABLED:
            edges = tuple((p._node or p) if p.requires_grad else None for p in parents)
            if any(e is not None for e in edges):
                out.requires_grad = True
                out._node = _Node(edges, backward)
        return out

    @property
    def _backward(self) -> Callable[[np.ndarray], Sequence[np.ndarray | None]] | None:
        """The backward closure of this op result (``None`` for a leaf or a result outside the graph)."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn) -> None:
        self._node.backward = fn

    @property
    def _rebuild(self) -> Callable[[], np.ndarray] | None:
        """``rebuild()`` -> this op result's array, bitwise, or ``None`` (see ``_with_rebuild``)."""
        return None if self._node is None else self._node.rebuild

    def _with_rebuild(self, rebuild: Callable[[], np.ndarray]) -> "Tensor":
        """Attach ``rebuild`` to this op result's graph node (if it has one) and return it.

        ``rebuild()`` recomputes ``self.data`` bit for bit from arrays the op's
        backward keeps anyway (and its parents' data), so a consumer whose
        backward needs this array can keep ``rebuild`` in its place and the
        array leaves the graph.  See ``backward`` for when it may run.
        """
        if self._node is not None:
            self._node.rebuild = rebuild
        return self

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

    # -- elementwise arithmetic -----------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other, like=self)
        data = self.data + other.data
        sa, sb = self.shape, other.shape
        return Tensor.from_op(data, (self, other), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))

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
        sa, sb = self.shape, other.shape
        return Tensor.from_op(data, (self, other), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))

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

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, shape).copy(),)

        return Tensor.from_op(np.asarray(data), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod([self.shape[a] for a in _norm_axes(axis, self.ndim)])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def _extremum(self, axis: int, keepdims: bool, mode: str) -> "Tensor":
        """Max/min over one axis; ties route gradient to the first element."""
        ax = axis % self.ndim
        idx = (np.argmax if mode == "max" else np.argmin)(self.data, axis=ax, keepdims=True)
        data = np.take_along_axis(self.data, idx, axis=ax)
        shape, dtype = self.shape, self.dtype

        def backward(g):
            out = np.zeros(shape, dtype)
            np.put_along_axis(out, idx, g if keepdims else np.expand_dims(g, ax), axis=ax)
            return (out,)

        return Tensor.from_op(data if keepdims else data.squeeze(ax), (self,), backward)

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
        """A contiguous copy with axis ``src`` moved to ``dst``; it passes its input's rebuild through."""
        data = np.ascontiguousarray(np.moveaxis(self.data, src, dst))
        out = Tensor.from_op(data, (self,), lambda g: (np.ascontiguousarray(np.moveaxis(g, dst, src)),))
        rebuild = self._rebuild
        if rebuild is None:
            return out
        return out._with_rebuild(lambda: np.ascontiguousarray(np.moveaxis(rebuild(), src, dst)))

    def __getitem__(self, key) -> "Tensor":
        data = np.ascontiguousarray(self.data[key])
        shape, dtype = self.shape, self.dtype

        def backward(g):
            full = np.zeros(shape, dtype)
            full[key] = g
            return (full,)

        return Tensor.from_op(data, (self,), backward)

    # -- autodiff ---------------------------------------------------------------

    def backward(self, on_leaf: Callable[["Tensor"], None] | None = None) -> None:
        """Backpropagate from a scalar, filling grads of reachable tensors.

        Repeated calls without clearing accumulate into existing grads.
        ``on_leaf(leaf)`` is called once for every leaf the loss depends on,
        as soon as the last node with an edge to it has been popped, whether
        or not a grad reached it: its ``grad`` is then final (or ``None``).
        The callback may change ``leaf.data`` in place, because every node
        whose closure reads that array, or a view of it, has an edge to the
        leaf (or to a node between the two) and was popped before.  That
        holds as long as no closure reads a leaf's data that it did not get
        through the graph.

        A consumer's backward may call a producer's rebuild (``_with_rebuild``).
        A rebuild reads only what its op's backward keeps, plus its op's
        parents; every consumer pops before its producer, so the ``on_leaf``
        callback has not yet changed those parents when a rebuild runs.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that is not part of a gradient graph")
        seed = np.ones_like(self.data)
        self.grad = seed if self.grad is None else self.grad + seed
        if self._node is None:  # a leaf: nothing to pass on
            if on_leaf is not None:
                on_leaf(self)
            return
        topo: list[_Node] = []
        visited: set[int] = set()
        pending: dict[int, int] = {}  # id of a leaf -> edges to it from nodes not yet popped
        stack: list[tuple[_Node, bool]] = [(self._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if type(parent) is _Node:
                    if id(parent) not in visited:
                        stack.append((parent, False))
                elif parent is not None:
                    pending[id(parent)] = pending.get(id(parent), 0) + 1

        self._node.grad = self.grad
        while topo:  # popped in reverse topological order; a finished node keeps nothing
            node = topo.pop()
            grad, backward, parents = node.grad, node.backward, node.parents
            node.grad, node.backward, node.parents, node.rebuild = None, None, (), None
            grads = () if backward is None or grad is None else backward(grad)
            for parent, g in zip(parents, grads):
                if parent is not None and g is not None:
                    parent.grad = g if parent.grad is None else parent.grad + g
            grad = backward = grads = g = None  # free the closure and the grads before a leaf is handed over
            for parent in parents:
                if parent is None or type(parent) is _Node:
                    continue
                pending[id(parent)] -= 1
                if not pending[id(parent)] and on_leaf is not None:
                    on_leaf(parent)


class Parameter(Tensor):
    """Trainable tensor with a hierarchical name and weight-decay flag."""

    __slots__ = ("name", "weight_decay_exempt")

    def __init__(self, data, weight_decay_exempt: bool = False, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = ""
        self.weight_decay_exempt = bool(weight_decay_exempt)


def cat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along `axis`; gradient splits back to each input."""
    ts = list(tensors)
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer = [slice(None)] * g.ndim
        outs = []
        for i in range(len(sizes)):
            slicer[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            outs.append(np.ascontiguousarray(g[tuple(slicer)]))
        return outs

    return Tensor.from_op(data, ts, backward)


def _norm_axes(axis, ndim: int) -> tuple[int, ...]:
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)
