"""Fixtures shared by the test modules: a failing file, and the inverse of a palette-colored
prediction."""

import numpy as np
import pytest

from cvmhunet.data import DataError


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
