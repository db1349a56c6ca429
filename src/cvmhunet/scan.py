"""2D scan-path generation for sequence models over feature maps.

A scan order is a bijection between spatial positions (row-major flat index)
and sequence time steps.  Two four-direction families are provided:

- ``ss2d``: horizontal raster, its exact reversal, vertical (column-major)
  raster, and its exact reversal.
- ``cs2d``: horizontal raster, vertical raster, diagonal (anti-diagonal bands
  ``r + c`` ascending, top-to-bottom inside each band), and anti-diagonal
  (bands ``r + (W-1-c)`` starting from the top-right corner, top-to-bottom
  inside each band).

``perm[t]`` is the flat row-major index visited at time ``t``; ``inv`` is the
inverse permutation.  Tables are cached per ``(height, width, mode)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functional import permute_last
from .tensor import Tensor

__all__ = [
    "SCAN_MODES",
    "ScanOrder",
    "scan_orders",
    "flatten_spatial",
    "unflatten_spatial",
]

SCAN_MODES = ("ss2d", "cs2d")


@dataclass(frozen=True)
class ScanOrder:
    """One traversal direction: time step -> flat spatial index."""

    name: str
    height: int
    width: int
    perm: np.ndarray = field(repr=False)
    inv: np.ndarray = field(repr=False)


def _order(name: str, h: int, w: int, perm: np.ndarray) -> ScanOrder:
    perm = np.ascontiguousarray(perm, dtype=np.int64)
    return ScanOrder(name, h, w, perm, np.argsort(perm))


def _horizontal(h: int, w: int) -> np.ndarray:
    return np.arange(h * w, dtype=np.int64)


def _vertical(h: int, w: int) -> np.ndarray:
    return np.arange(h * w, dtype=np.int64).reshape(h, w).T.reshape(-1)


def _diagonal(h: int, w: int) -> np.ndarray:
    rows, cols = np.indices((h, w))
    # stable sort by band index r+c, then by row within the band
    return np.lexsort((rows.reshape(-1), (rows + cols).reshape(-1))).astype(np.int64)


def _anti_diagonal(h: int, w: int) -> np.ndarray:
    rows, cols = np.indices((h, w))
    return np.lexsort((rows.reshape(-1), (rows + (w - 1 - cols)).reshape(-1))).astype(np.int64)


_CACHE: dict[tuple[int, int, str], tuple[ScanOrder, ...]] = {}


def scan_orders(height: int, width: int, mode: str) -> tuple[ScanOrder, ...]:
    """The four traversal directions for a feature map of the given size."""
    if mode not in SCAN_MODES:
        raise ValueError(f"unknown scan mode {mode!r}, expected one of {SCAN_MODES}")
    if height < 1 or width < 1:
        raise ValueError(f"scan grid must be at least 1x1, got {height}x{width}")
    key = (height, width, mode)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    hperm = _horizontal(height, width)
    vperm = _vertical(height, width)
    if mode == "ss2d":
        orders = (
            _order("horizontal", height, width, hperm),
            _order("horizontal_reversed", height, width, hperm[::-1]),
            _order("vertical", height, width, vperm),
            _order("vertical_reversed", height, width, vperm[::-1]),
        )
    else:
        orders = (
            _order("horizontal", height, width, hperm),
            _order("vertical", height, width, vperm),
            _order("diagonal", height, width, _diagonal(height, width)),
            _order("anti_diagonal", height, width, _anti_diagonal(height, width)),
        )
    _CACHE[key] = orders
    return orders


def flatten_spatial(x: Tensor, order: ScanOrder) -> Tensor:
    """(N, C, H, W) -> (N, C, L) sequence following the scan order."""
    n, c, h, w = x.shape
    if (h, w) != (order.height, order.width):
        raise ValueError(f"scan order built for {order.height}x{order.width}, feature map is {h}x{w}")
    return permute_last(x.reshape(n, c, h * w), order.perm, order.inv)


def unflatten_spatial(y: Tensor, order: ScanOrder) -> Tensor:
    """(N, C, L) sequence -> (N, C, H, W), inverting ``flatten_spatial``."""
    n, c, length = y.shape
    if length != order.height * order.width:
        raise ValueError(f"sequence length {length} != {order.height}x{order.width} grid")
    return permute_last(y, order.inv, order.perm).reshape(n, c, order.height, order.width)
