"""Fixtures shared by the test modules: a writer of version-1 CVCK files and a failing file."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest


def _save_v1(path, tensors, meta=None):
    """Write ``tensors`` as a version-1 CVCK file (all float32) and ``meta``, if given, as its sidecar."""
    blob = b"CVCK" + struct.pack("<II", 1, len(tensors))
    for name, arr in tensors.items():
        arr, encoded = np.asarray(arr, dtype="<f4"), name.encode("utf-8")
        blob += struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape)
        blob += arr.tobytes()
    Path(path).write_bytes(blob)
    if meta is not None:
        Path(path).with_suffix(".json").write_text(json.dumps(meta))


class WritesFailAfter:
    """A file whose ``write`` raises once ``n`` writes have gone through."""

    def __init__(self, fh, n: int):
        self.fh, self.left = fh, n

    def write(self, data):
        if self.left == 0:
            raise OSError("no space left on device")
        self.left -= 1
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture()
def save_v1():
    return _save_v1


@pytest.fixture()
def writes_fail_after():
    return WritesFailAfter
