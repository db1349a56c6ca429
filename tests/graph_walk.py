"""What an autograd graph keeps between forward and backward, found by walking its closures.

``closure_arrays(fn)`` lists the arrays one backward closure reaches, and
``graph_arrays(y)`` the buffers every closure of ``y``'s graph holds, each once.
Tests use them to show which arrays an op keeps, and which it rebuilds instead.
"""

from __future__ import annotations

import numpy as np

from cvmhunet.tensor import Tensor

__all__ = ["closure_arrays", "graph_arrays"]


def closure_arrays(fn) -> list[np.ndarray]:
    """The arrays ``fn``'s closure reaches, through nested functions, containers and tensors."""
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
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
    return found


def graph_arrays(y: Tensor) -> list[np.ndarray]:
    """The buffers the closures of ``y``'s graph hold, each once (a view counts as its base)."""
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
        for a in closure_arrays(node.backward):
            while isinstance(a.base, np.ndarray):
                a = a.base
            held[id(a)] = a
    return list(held.values())
