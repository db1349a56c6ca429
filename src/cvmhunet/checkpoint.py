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
``CheckpointError``.
"""

from __future__ import annotations

import math
import struct
from typing import Mapping

import numpy as np

from .module import Module

__all__ = ["CheckpointError", "save_tensors", "load_tensors"]

MAGIC = b"CVCK"
VERSION = 1


class CheckpointError(IOError):
    pass


def save_tensors(path: str, tensors: Mapping[str, np.ndarray]) -> None:
    """Write ``tensors`` to ``path``, one entry at a time (no second copy of the payload)."""
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(tensors)))
        for name, arr in tensors.items():
            encoded = name.encode("utf-8")
            arr = np.ascontiguousarray(arr, dtype="<f4")  # a 0-d array is stored as shape (1,)
            fh.write(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape))
            fh.write(arr.data)


def load_tensors(path: str) -> dict[str, np.ndarray]:
    """Read a CVCK file; any malformed or truncated content raises ``CheckpointError``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    try:
        version, count = struct.unpack_from("<II", blob, 4)
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        offset = 12
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<B", blob, offset)
            dims = struct.unpack_from(f"<{rank}I", blob, offset + 1)
            offset += 1 + 4 * rank
            n = math.prod(dims)
            if offset + 4 * n > len(blob):
                raise CheckpointError(f"{path}: truncated checkpoint (entry {name!r} of shape {dims})")
            out[name] = np.frombuffer(blob, dtype="<f4", count=n, offset=offset).reshape(dims).copy()
            offset += 4 * n
        if offset != len(blob):
            raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes after last entry")
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


def apply_model_state(model: Module, loaded: Mapping[str, np.ndarray], source: str = "state") -> None:
    """Strictly copy a name->array mapping into a model's params and buffers."""
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
        p.data = arr.astype(p.data.dtype)
    for name, buf in model.named_buffers():
        arr = loaded[name]
        if arr.shape != buf.shape:
            raise CheckpointError(f"{source}: {name} has shape {arr.shape}, expected {buf.shape}")
        buf[...] = arr.astype(buf.dtype)
