"""Binary checkpoint format for named tensors.

Layout (all integers little-endian):

    magic   4 bytes  b"CVCK"
    version u32      currently 1
    count   u32      number of entries
    entry*  u16 name length, UTF-8 name bytes,
            u8 rank, u32 dims[rank], float32 payload (row major)

Model checkpoints store every parameter plus every persistent buffer
(batch-norm running statistics) under their hierarchical names.  Loading is
strict: unknown names, missing names, or shape mismatches raise
``CheckpointError``.  Per-direction scan entries of older checkpoints are
stacked into the current parameters first.  A restore passes the model's
own arrays to ``load_tensors(path, into=...)``, so each entry is read once,
straight into the array it fills.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import struct
from typing import IO, Iterator, Mapping

import numpy as np

from .module import Module

__all__ = ["CheckpointError", "save_tensors", "load_tensors"]

MAGIC = b"CVCK"
VERSION = 1
_ENTRY_DTYPE = np.dtype("<f4")


class CheckpointError(IOError):
    pass


@contextlib.contextmanager
def replacing(path: str | os.PathLike, mode: str = "wb") -> Iterator[IO]:
    """Open ``<path>.tmp`` for writing; it replaces ``path`` on success and is removed on error.

    ``os.replace`` within one directory is atomic, so a reader (or a crash
    mid-write) sees either the old file or the whole new one, never a torn one.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_tensors(path: str, tensors: Mapping[str, np.ndarray]) -> None:
    """Write ``tensors`` to ``path``, one entry at a time (no second copy of the payload).

    The file is written next to ``path`` and moved over it once complete.
    """
    with replacing(path) as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(tensors)))
        for name, arr in tensors.items():
            encoded = name.encode("utf-8")
            arr = np.asarray(arr, dtype=_ENTRY_DTYPE)
            if not arr.flags["C_CONTIGUOUS"]:  # np.ascontiguousarray would store a 0-d array as shape (1,)
                arr = np.ascontiguousarray(arr)
            fh.write(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape))
            fh.write(arr.data)


def _read(fh: IO, fmt: str) -> tuple:
    return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))


def load_tensors(path: str, into: Mapping[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Read a CVCK file; any malformed or truncated content raises ``CheckpointError``.

    The file is streamed entry by entry.  An entry whose name, shape and dtype
    match an array of ``into`` is read straight into that array, which the
    result then holds; every other entry gets a fresh array.  On error the
    arrays of ``into`` may hold part of the file.
    """
    into = into or {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        try:
            version, count = _read(fh, "<II")
            if version != VERSION:
                raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
            offset = 12
            out: dict[str, np.ndarray] = {}
            for _ in range(count):
                (name_len,) = _read(fh, "<H")
                name = fh.read(name_len).decode("utf-8")
                (rank,) = _read(fh, "<B")
                dims = _read(fh, f"<{rank}I")
                offset += 3 + name_len + 4 * rank
                nbytes = 4 * math.prod(dims)
                if offset + nbytes > size:  # before anything of that size is allocated
                    raise CheckpointError(f"{path}: truncated checkpoint (entry {name!r} of shape {dims})")
                arr = into.get(name)
                if not (
                    arr is not None
                    and arr.shape == dims
                    and arr.dtype == _ENTRY_DTYPE
                    and arr.flags.c_contiguous
                    and arr.flags.writeable
                ):
                    arr = np.empty(dims, dtype=_ENTRY_DTYPE)
                if fh.readinto(arr) != nbytes:  # the file shrank since fstat
                    raise CheckpointError(f"{path}: truncated checkpoint (entry {name!r} of shape {dims})")
                out[name] = arr
                offset += nbytes
            if offset != size:
                raise CheckpointError(f"{path}: {size - offset} trailing bytes after last entry")
        except struct.error as exc:
            raise CheckpointError(f"{path}: truncated checkpoint ({exc})") from exc
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: entry name is not UTF-8 ({exc})") from exc
        except ValueError as exc:  # an empty entry whose other dims overflow numpy's size limit
            raise CheckpointError(f"{path}: impossible tensor shape ({exc})") from exc
    return out


def model_state(model: Module) -> dict[str, np.ndarray]:
    state: dict[str, np.ndarray] = {}
    for name, p in model.named_parameters():
        state[name] = p.data
    for name, buf in model.named_buffers():
        state[name] = buf
    return state


# checkpoints from before the scan directions shared stacked parameters
# hold row k of ``<prefix><name>`` as ``<prefix>directions.k.<name>``
_DIRECTION_KEY = re.compile(r"((?:.+\.)?)directions\.([0-3])\.([^.]+)")


def _stack_directions(loaded: Mapping[str, np.ndarray], source: str) -> dict[str, np.ndarray]:
    """Stack the four per-direction entries of a checkpoint in the old key layout."""
    out: dict[str, np.ndarray] = {}
    rows: dict[str, dict[int, np.ndarray]] = {}
    for name, arr in loaded.items():
        m = _DIRECTION_KEY.fullmatch(name)
        if m:
            rows.setdefault(m[1] + m[3], {})[int(m[2])] = arr
        else:
            out[name] = arr
    for name, by_k in rows.items():
        if len(by_k) != 4 or len({a.shape for a in by_k.values()}) != 1:
            raise CheckpointError(f"{source}: {name} needs four same-shaped direction entries")
        out[name] = np.stack([by_k[k] for k in range(4)])
    return out


def apply_model_state(model: Module, loaded: Mapping[str, np.ndarray], source: str = "state") -> None:
    """Strictly copy a name->array mapping into a model's params and buffers."""
    loaded = _stack_directions(loaded, source)
    expected = model_state(model)
    missing = sorted(set(expected) - set(loaded))
    unknown = sorted(set(loaded) - set(expected))
    if missing or unknown:
        raise CheckpointError(
            f"{source}: state mismatch (missing: {missing[:5]}, unknown: {unknown[:5]})"
        )
    for name, p in model.named_parameters():
        arr = loaded[name]
        if arr.shape != p.data.shape:
            raise CheckpointError(f"{source}: {name} has shape {arr.shape}, expected {p.data.shape}")
        if arr is not p.data:  # else ``load_tensors`` already read it in place
            p.data = arr.astype(p.data.dtype)
    for name, buf in model.named_buffers():
        arr = loaded[name]
        if arr.shape != buf.shape:
            raise CheckpointError(f"{source}: {name} has shape {arr.shape}, expected {buf.shape}")
        if arr is not buf:
            buf[...] = arr.astype(buf.dtype)
