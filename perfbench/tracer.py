"""Spans around the package's layer boundaries, recorded from outside it.

``Tracer`` replaces public functions and methods with timing wrappers at the
place their callers look them up, runs the workload, and puts the originals
back.  Every wrapped call becomes one span ``[name, parent, op, t0, t1,
macs, peak_bytes, info]`` kept in memory; ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the id of the training step or
evaluated image in progress.  An op ends when the workload's boundary method
(``AdamW.step`` or ``ConfusionMatrix.update``) returns.

Autograd ops are split into a forward span (the call) and a backward span:
the wrapper replaces the backward closure of the tensor the op returns, so
the engine's reverse sweep runs through it.

With ``spans=False`` only the op boundary is wrapped, to time ops in the
untraced run at the cost of one extra call per op.
"""

from __future__ import annotations

import gzip
import math
import os
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

NAME, PARENT, OP, T0, T1, MACS, PEAK, INFO = range(8)


def weight_macs(args, out) -> int:
    """Weight taps per output times outputs: linear, conv2d, depthwise, conv1d."""
    return out.data.size * math.prod(args[1].shape[1:])


def scan_macs(args, out) -> int:
    """One MAC per (sample, channel, state, step): N*D*S*L."""
    return args[0].data.size * args[2].shape[1]


def scan_shape(args, kwargs, out) -> tuple:
    """((N, D, L), S, block) of one ``selective_scan`` call."""
    return args[0].shape, args[2].shape[1], kwargs.get("block")


def tile_info(args, kwargs, out):
    """(real pixels, tiled pixels) of one ``tile_image`` call."""
    _, h, w = args[0].shape
    return h * w, sum(t["image"].shape[1] * t["image"].shape[2] for t in out)


class Tracer:
    def __init__(self, spans: bool):
        self.recording = spans
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.op_ends: list[float] = []
        self.nodes = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------------

    def _call(self, name, fn, args, kwargs, peak=False):
        rec = [name, self.stack[-1] if self.stack else -1, self.op, 0.0, 0.0, 0, 0, None]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        own_trace = peak and not tracemalloc.is_tracing()
        if own_trace:
            tracemalloc.start()
        rec[T0] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[T1] = time.perf_counter()
            if own_trace:
                rec[PEAK] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.stack.pop()
        return out, rec

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- wrapper kinds -----------------------------------------------------------

    def span(self, owner, attr: str, name: str, info=None) -> None:
        """Plain span around a function or method; ``info(args, kwargs, out)`` is kept."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            out, rec = tracer._call(name, fn, args, kwargs)
            if info is not None:
                rec[INFO] = info(args, kwargs, out)
            return out

        self._replace(owner, attr, wrapper)

    def autograd_op(self, owner, attr: str, name: str, macs=None, info=None, peak=False) -> None:
        """Forward span around the op, backward span around its closure.

        ``peak`` keeps the tracemalloc peak of each call; tracemalloc slows
        numpy-heavy code about twofold, so timed passes leave it off.
        """
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            out, rec = tracer._call(name + ".fwd", fn, args, kwargs, peak)
            if macs is not None:
                rec[MACS] = macs(args, out)
            if info is not None:
                rec[INFO] = info(args, kwargs, out)
            closure = out._backward
            if closure is not None:

                def backward(g):
                    return tracer._call(name + ".bwd", closure, (g,), {}, peak)[0]

                out._backward = backward
            return out

        self._replace(owner, attr, wrapper)

    def count_nodes(self, tensor_cls) -> None:
        fn = tensor_cls.from_op
        tracer = self

        def from_op(data, parents, backward):
            tracer.nodes += 1
            return fn(data, parents, backward)

        self._replace(tensor_cls, "from_op", staticmethod(from_op))

    def op_boundary(self, cls, attr: str, name: str) -> None:
        """The method whose return ends one op (a training step or an image)."""
        fn = cls.__dict__[attr]
        tracer = self

        if self.recording:

            def wrapper(*args, **kwargs):
                out = tracer._call(name, fn, args, kwargs)[0]
                tracer.op_ends.append(time.perf_counter())
                tracer.op += 1
                return out

        else:

            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                tracer.op_ends.append(time.perf_counter())
                tracer.op += 1
                return out

        self._replace(cls, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, MACs, peak bytes, info."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[T1] - rec[T0]
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "macs": 0, "peak_bytes": 0, "info": []}
        )
        for i, rec in enumerate(self.spans):
            st = out[rec[NAME]]
            dur = rec[T1] - rec[T0]
            st["calls"] += 1
            st["s"] += dur
            st["self_s"] += dur - child[i]
            st["macs"] += rec[MACS]
            st["peak_bytes"] = max(st["peak_bytes"], rec[PEAK])
            if rec[INFO] is not None:
                st["info"].append(rec[INFO])
        return dict(out)

    def first_forward_macs(self, name: str) -> tuple[int, object] | None:
        """MACs of all op spans inside the first span called ``name``, and its info."""
        for i, rec in enumerate(self.spans):
            if rec[NAME] == name:
                t0, t1 = rec[T0], rec[T1]
                total = sum(s[MACS] for s in self.spans[i + 1 :] if t0 <= s[T0] and s[T1] <= t1)
                return total, rec[INFO]
        return None

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: id, parent, op, name, t0, t1, macs, peak_bytes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + f".{os.getpid()}.tmp")
        with gzip.open(tmp, "wt", compresslevel=1) as fh:
            fh.write("id,parent,op,name,t0,t1,macs,peak_bytes\n")
            for i, r in enumerate(self.spans):
                fh.write(f"{i},{r[PARENT]},{r[OP]},{r[NAME]},{r[T0]!r},{r[T1]!r},{r[MACS]},{r[PEAK]}\n")
        os.replace(tmp, path)
