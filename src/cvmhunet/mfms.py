"""Frequency-aware skip fusion: DCT-profile global channel attention, a
pointwise local bottleneck, and a soft convex blend of the two feature maps.

Both attention paths end in zero-initialized layers, so a fresh block blends
with weight exactly 0.5 (plain averaging) and learns to prefer one side.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import functional as F
from .layers import BatchNorm2d, ChannelConv1d, Conv2d
from .module import Module
from .tensor import Tensor

if TYPE_CHECKING:
    from .network import NetworkConfig

__all__ = [
    "TOP16_FREQUENCIES",
    "dct_basis",
    "frequency_bases",
    "compress_frequencies",
    "adaptive_kernel_size",
    "GlobalFrequencyAttention",
    "LocalPointwiseAttention",
    "MFMSBlock",
]

# (u, v) frequency index pairs ranked by channel-attention usefulness on a 7x7
# grid (the published top-16 selection, lowest frequencies first); ``freq_k``
# takes the first k.
TOP16_FREQUENCIES = (
    (0, 0), (0, 1), (6, 0), (0, 5), (0, 2), (1, 0), (1, 2), (4, 0),
    (5, 0), (1, 6), (3, 0), (0, 4), (0, 6), (0, 3), (2, 2), (3, 5),
)


def dct_basis(h: int, w: int, u: int, v: int) -> np.ndarray:
    """Cosine basis map ``cos(pi*h/H*(u+1/2)) * cos(pi*w/W*(v+1/2))``.

    The half-sample offset rides on the frequency index, not the spatial
    index, matching the closed form this implementation follows.
    """
    if h < 1 or w < 1:
        raise ValueError(f"basis needs a positive grid, got {h}x{w}")
    rows = np.cos(np.pi * np.arange(h) / h * (u + 0.5))
    cols = np.cos(np.pi * np.arange(w) / w * (v + 0.5))
    return np.outer(rows, cols)


_BASIS_CACHE: dict[tuple[int, int, int], np.ndarray] = {}


def frequency_bases(h: int, w: int, k: int) -> np.ndarray:
    """(k, H*W) stack of the basis maps of the first ``k`` table frequencies, cached."""
    key = (h, w, k)
    got = _BASIS_CACHE.get(key)
    if got is None:
        got = np.stack([dct_basis(h, w, u, v).reshape(-1) for u, v in TOP16_FREQUENCIES[:k]]).astype(np.float64)
        _BASIS_CACHE[key] = got
    return got


def compress_frequencies(x: Tensor, k: int) -> Tensor:
    """(N,C,H,W) -> (N,C,k): per-channel projection onto each basis map."""
    n, c, h, w = x.shape
    bases = Tensor(frequency_bases(h, w, k).astype(x.data.dtype))
    return F.linear(x.reshape(n * c, h * w), bases).reshape(n, c, -1)


def adaptive_kernel_size(channels: int, alpha: float, beta: float) -> int:
    """Nearest odd integer to ``log2(C)/alpha + beta/alpha`` (ties -> smaller)."""
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    lam = math.log2(channels) / alpha + beta / alpha
    if not math.isfinite(lam):  # a tiny alpha, or a huge beta
        raise ValueError(f"kernel_alpha {alpha!r} and kernel_beta {beta!r} give no finite kernel size")
    lower = 2 * math.floor((lam - 1.0) / 2.0) + 1
    upper = lower + 2
    phi = lower if (lam - lower) <= (upper - lam) else upper
    return max(1, phi)


class GlobalFrequencyAttention(Module):
    """Channel scores from avg/max/min pooling of the frequency profile.

    Each pooled (N, C) vector runs through its own 1D conv along the channel
    axis with the adaptive kernel size; the three results are summed.
    """

    def __init__(self, dim: int, cfg: NetworkConfig):
        super().__init__()
        self.freq_k = cfg.freq_k
        self.kernel_size = adaptive_kernel_size(dim, cfg.kernel_alpha, cfg.kernel_beta)
        self.conv_avg = ChannelConv1d(self.kernel_size)
        self.conv_max = ChannelConv1d(self.kernel_size)
        self.conv_min = ChannelConv1d(self.kernel_size)

    def forward(self, x: Tensor) -> Tensor:
        profile = compress_frequencies(x, self.freq_k)  # (N,C,K)
        avg = profile.mean(axis=2)
        mx = profile.max(axis=2)
        mn = profile.min(axis=2)
        return self.conv_avg(avg) + self.conv_max(mx) + self.conv_min(mn)


class LocalPointwiseAttention(Module):
    """Per-position channel bottleneck: BN(pw2(relu(BN(pw1(x)))))."""

    def __init__(self, dim: int, reduction: int, rng: np.random.Generator):
        super().__init__()
        hidden = dim // reduction
        self.pw1 = Conv2d(dim, hidden, 1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(hidden)
        self.pw2 = Conv2d(hidden, dim, 1, bias=False, rng=rng).zero_()
        self.bn2 = BatchNorm2d(dim)

    def forward(self, x: Tensor) -> Tensor:
        return self.bn2(self.pw2(F.relu(self.bn1(self.pw1(x)))))


class MFMSBlock(Module):
    """Soft fusion of two same-shape feature maps.

    ``X = F + F~``; the fusion weight ``w = sigmoid(G(X) + L(X))`` combines a
    global frequency-profile score and a local bottleneck score, and the
    output is the convex blend ``w*F + (1-w)*F~`` (computed as
    ``F~ + w*(F-F~)`` so equal inputs pass through bit-exactly).
    """

    def __init__(self, dim: int, cfg: NetworkConfig, rng: np.random.Generator):
        super().__init__()
        self.global_attention = GlobalFrequencyAttention(dim, cfg)
        self.local_attention = LocalPointwiseAttention(dim, cfg.mfms_reduction, rng)

    def fusion_weight(self, x: Tensor) -> Tensor:
        n, c = x.shape[0], x.shape[1]
        g = self.global_attention(x).reshape(n, c, 1, 1)
        return F.sigmoid(g + self.local_attention(x))

    def forward(self, f: Tensor, f_other: Tensor) -> Tensor:
        if f.shape != f_other.shape:
            raise ValueError(f"fusion inputs must match, got {f.shape} vs {f_other.shape}")
        w = self.fusion_weight(f + f_other)
        return f_other + w * (f - f_other)
