"""Fixtures shared by the test modules: a writer of version-1 CVCK files, a failing file, and
the inverse of a palette-colored prediction."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from cvmhunet.data import DataError


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


def _palette_to_labels(image: np.ndarray, palette: tuple[tuple[int, int, int], ...]) -> np.ndarray:
    """Invert a color map written by ``emit_prediction``; unmatched colors raise."""
    colors = np.array(palette, dtype=np.uint8)
    flat = image.reshape(-1, 3)
    match = (flat[:, None, :] == colors[None, :, :]).all(axis=2)
    if not match.any(axis=1).all():
        raise DataError("color map contains colors outside the palette")
    return match.argmax(axis=1).reshape(image.shape[:2]).astype(np.int64)


@pytest.fixture()
def palette_to_labels():
    return _palette_to_labels
