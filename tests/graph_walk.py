"""What an autograd graph keeps between forward and backward, found by walking its closures.

``closure_arrays(fn)`` lists the arrays one backward closure reaches, and
``graph_arrays(y)`` the buffers every closure of ``y``'s graph holds, each once.
``Producers`` records, while a forward runs, which op (and which module) made
each array, so ``Producers.breakdown(y)`` can say whose arrays the graph holds.
Tests use them to show which arrays an op keeps, and which it rebuilds instead.
"""

from __future__ import annotations

import sys
import types
import weakref

import numpy as np

from cvmhunet.module import Module
from cvmhunet.tensor import Tensor, _Node

__all__ = ["closure_arrays", "graph_arrays", "Producers"]


def closure_arrays(fn, through_rebuilds: bool = True) -> list[np.ndarray]:
    """The arrays ``fn``'s closure reaches, through nested functions, containers and tensors,
    and, with ``through_rebuilds``, through a memoized rebuild (``Tensor._rebuild``) to its
    producer's rebuild and memo."""
    found, seen, todo = [], set(), [fn]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, Tensor):
            todo.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif isinstance(obj, _Node):
            if through_rebuilds:
                todo.extend((obj.rebuild, obj.memo))
        elif isinstance(obj, types.MethodType):
            todo.append(obj.__self__)
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
    return found


def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _holdings(y: Tensor) -> dict[int, tuple[np.ndarray, _Node]]:
    """id -> (buffer, the node whose own closures hold it) over ``y``'s graph: a memoized
    rebuild another node keeps is the producer's, and the producer is in the graph too."""
    nodes, seen, todo = [], set(), [y._node]
    while todo:
        node = todo.pop()
        if node is None or isinstance(node, Tensor) or id(node) in seen:  # no grad, or a leaf
            continue
        seen.add(id(node))
        nodes.append(node)
        todo.extend(node.parents)
    held = {}
    for node in nodes:
        for a in closure_arrays((node.backward, node.rebuild, node.memo), through_rebuilds=False):
            a = _base(a)
            held.setdefault(id(a), (a, node))
    return held


def graph_arrays(y: Tensor) -> list[np.ndarray]:
    """The buffers the closures of ``y``'s graph hold, each once (a view counts as its base)."""
    return [a for a, _ in _holdings(y).values()]


class Producers:
    """While active, label every op result with the op that made it (by wrapping ``Tensor.from_op``).

    A label is ``"<module>: <op>"``: the function that called ``from_op`` (``_channel_dense``,
    ``_tap_conv``, ``silu``, ...) and where the innermost module of ``model`` whose
    ``forward`` ran it sits, as its parent's class and its attribute there
    (``CrossScanModule.main_proj``; a list's items take the list's place).  An array is
    labelled by the first op result that is it or a view of it, so a reshape does not
    relabel its input; ``labels`` is every label made.  ``breakdown(y)`` groups what
    ``y``'s graph holds by that label; a buffer no op returned (a ``xhat``, a scan's
    carries) gets the label of the op whose closures hold it, marked ``(kept)``.
    """

    def __init__(self, model: Module | None = None):
        self._modules = {} if model is None else _module_labels(model)
        self._arrays: dict[int, tuple[weakref.ref, str]] = {}
        self._nodes: dict[int, str] = {}
        self.labels: set[str] = set()

    def __enter__(self) -> "Producers":
        self._original = Tensor.__dict__["from_op"]
        made = self._original.__func__

        def from_op(data, parents, backward):
            out = made(data, parents, backward)
            label = self._label(sys._getframe(1))
            self.labels.add(label)
            base = _base(out.data)
            known = self._arrays.get(id(base))
            if known is None or known[0]() is not base:
                self._arrays[id(base)] = (weakref.ref(base), label)
            if out._node is not None:
                self._nodes[id(out._node)] = label
            return out

        Tensor.from_op = staticmethod(from_op)
        return self

    def __exit__(self, *exc) -> None:
        Tensor.from_op = self._original

    def _label(self, frame) -> str:
        op, module = frame.f_code.co_name, ""
        while frame is not None and not module:
            if frame.f_code.co_name == "forward":
                module = self._modules.get(id(frame.f_locals.get("self")), "")
            frame = frame.f_back
        return f"{module}: {op}"

    def label(self, a: np.ndarray) -> str | None:
        """The label of the op result whose buffer ``a`` is, or views; ``None`` for any other array."""
        base = _base(a)
        known = self._arrays.get(id(base))
        return known[1] if known is not None and known[0]() is base else None

    def breakdown(self, y: Tensor, exclude=()) -> dict[str, int]:
        """Bytes ``y``'s graph holds per producer label, largest first, leaving out
        buffers that share memory with an array of ``exclude`` (the parameters)."""
        total: dict[str, int] = {}
        for a, node in _holdings(y).values():
            if any(np.shares_memory(a, e) for e in exclude):
                continue
            label = self.label(a) or f"{self._nodes.get(id(node), '?')} (kept)"
            total[label] = total.get(label, 0) + a.nbytes
        return dict(sorted(total.items(), key=lambda kv: -kv[1]))


def _module_labels(model: Module) -> dict[int, str]:
    """id of each module of ``model`` -> ``"<parent class>.<attribute>"`` (the model: its class)."""
    labels, todo = {}, [(model, type(model).__name__)]
    while todo:
        module, label = todo.pop()
        labels[id(module)] = label
        for name, child in module._modules.items():
            todo.append((child, label if name.isdigit() else f"{type(module).__name__}.{name}"))
    return labels
