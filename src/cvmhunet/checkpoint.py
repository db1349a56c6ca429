"""CVCK, the one binary container for named tensors: checkpoints and ``.cvtn`` tensor files.

Layout of version 2 (all integers little-endian):

    magic   4 bytes  b"CVCK"
    version u32      2
    meta    u32 length, UTF-8 JSON object ({} for a plain tensor file)
    count   u32      number of entries
    entry*  u16 name length, UTF-8 name bytes, u8 dtype (0 = float32, 1 = uint8),
            u8 rank, u32 dims[rank], payload (row major)

uint8 arrays are stored as uint8, every other array as float32.  A training
checkpoint holds every parameter and persistent buffer under its hierarchical
name, with the run metadata in its header; a ``.cvtn`` file holds one entry.
This is the only layout read: any other magic or version raises
``CheckpointError``.  One reader streams the entries, each straight into the
array it fills, and is the one place that checks an entry against that array:
a file that does not fit the arrays it restores raises ``CheckpointError``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from typing import IO, Callable, Iterator, Mapping

import numpy as np

from .module import Module

__all__ = ["CheckpointError", "save_tensors", "load_tensors"]

MAGIC = b"CVCK"
VERSION = 2
_DTYPES = (np.dtype("<f4"), np.dtype("u1"))  # indexed by the entry's dtype code


class CheckpointError(IOError):
    pass


def save_tensors(path: str, tensors: Mapping[str, np.ndarray], meta: dict | None = None) -> None:
    """Write ``tensors`` and ``meta`` to ``path``, one entry at a time (no second copy of the payload).

    The file is written to ``<path>.tmp`` and moved over ``path`` once complete.
    ``os.replace`` within one directory is atomic, so a reader (or a crash
    mid-write) sees either the old file or the whole new one, never a torn one.
    """
    header = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + struct.pack(f"<II{len(header)}sI", VERSION, len(header), header, len(tensors)))
            for name, arr in tensors.items():
                encoded = name.encode("utf-8")
                code = int(np.asarray(arr).dtype == np.uint8)
                arr = np.asarray(arr, dtype=_DTYPES[code])
                if not arr.flags["C_CONTIGUOUS"]:  # np.ascontiguousarray would store a 0-d array as shape (1,)
                    arr = np.ascontiguousarray(arr)
                fh.write(struct.pack(f"<H{len(encoded)}sBB{arr.ndim}I", len(encoded), encoded, code, arr.ndim,
                                     *arr.shape))
                fh.write(arr.data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _read(fh: IO, fmt: str) -> tuple:
    return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))


def _entries(fh: IO) -> Iterator[tuple[str, int, tuple]]:
    (count,) = _read(fh, "<I")
    for _ in range(count):
        (name_len,) = _read(fh, "<H")
        name = fh.read(name_len).decode("utf-8")
        code, rank = _read(fh, "<BB")
        yield name, code, _read(fh, f"<{rank}I")


def _header(fh: IO, path: str, size: int) -> tuple[dict, Iterator[tuple[str, int, tuple]]]:
    """The metadata, and the (name, dtype code, dims) of each entry as the reader reaches it."""
    magic = fh.read(4)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    (version,) = _read(fh, "<I")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported CVCK version {version}")
    (meta_len,) = _read(fh, "<I")
    if fh.tell() + meta_len > size:  # before anything of that size is allocated
        raise CheckpointError(f"{path}: truncated metadata ({meta_len} bytes claimed)")
    meta = json.loads(fh.read(meta_len).decode("utf-8"))
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata must be a JSON object, got {type(meta).__name__}")
    return meta, _entries(fh)


@contextlib.contextmanager
def _malformed(path: str) -> Iterator[None]:
    """Raise every way a malformed file can fail to parse as ``CheckpointError``."""
    try:
        yield
    except struct.error as exc:
        raise CheckpointError(f"{path}: truncated checkpoint ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: a name or the metadata is not UTF-8 ({exc})") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: metadata is not JSON ({exc})") from exc
    except ValueError as exc:  # an empty entry whose other dims overflow numpy's size limit
        raise CheckpointError(f"{path}: impossible tensor shape ({exc})") from exc


def load_tensors(path: str, into: Callable[[dict], Mapping[str, np.ndarray]] | None = None) -> dict[str, np.ndarray]:
    """Read a version-2 CVCK file; another layout, or malformed or truncated content, raises ``CheckpointError``.

    The file is streamed entry by entry.  ``into`` gets the file's metadata,
    read before any entry, and returns target arrays by name.  An entry that
    a target is named for is read straight into it, which the result then
    holds; an entry of another shape or dtype, a target that is not a
    C-contiguous writeable array, or a target the file lacks raises
    ``CheckpointError``.  Entries no target is named for get fresh arrays.
    On error the targets may hold part of the file.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        with _malformed(path):
            meta, entries = _header(fh, path, size)
        targets = into(meta) if into else {}
        out: dict[str, np.ndarray] = {}
        with _malformed(path):
            for name, code, dims in entries:
                if code >= len(_DTYPES):
                    raise CheckpointError(f"{path}: entry {name!r} has unknown dtype code {code}")
                if name in out:
                    raise CheckpointError(f"{path}: entry {name!r} appears twice")
                dtype = _DTYPES[code]
                nbytes = dtype.itemsize * math.prod(dims)
                if fh.tell() + nbytes > size:  # before anything of that size is allocated
                    raise CheckpointError(f"{path}: truncated checkpoint (entry {name!r} of shape {dims})")
                arr = targets.get(name)
                if arr is None:
                    arr = np.empty(dims, dtype=dtype)
                elif not (arr.shape == dims and arr.dtype == dtype and arr.flags.c_contiguous and arr.flags.writeable):
                    layout = "" if arr.flags.c_contiguous and arr.flags.writeable else "non-contiguous or read-only "
                    raise CheckpointError(f"{path}: entry {name!r} is {dtype} of shape {dims}, its target a "
                                          f"{layout}{arr.dtype} of shape {arr.shape}")
                if fh.readinto(arr) != nbytes:  # the file shrank since fstat
                    raise CheckpointError(f"{path}: truncated checkpoint (entry {name!r} of shape {dims})")
                out[name] = arr
        if fh.tell() != size:
            raise CheckpointError(f"{path}: {size - fh.tell()} trailing bytes after last entry")
    missing = [name for name in targets if name not in out]
    if missing:
        raise CheckpointError(f"{path}: missing entries {missing[:5]} ({len(missing)} in all)")
    return out


def model_state(model: Module) -> dict[str, np.ndarray]:
    state: dict[str, np.ndarray] = {}
    for name, p in model.named_parameters():
        state[name] = p.data
    for name, buf in model.named_buffers():
        state[name] = buf
    return state

