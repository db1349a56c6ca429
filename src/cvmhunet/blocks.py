"""State-space encoder/decoder block: cross-scan global branch, convolutional
local branch, channel/spatial attention, gated fusion, and an efficient FFN.

Every residual branch ends in a zero-initialized projection, so a freshly
constructed block is exactly the identity map and a pair of blocks doubles
its input.  Training moves the blocks away from identity smoothly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import functional as F
from .layers import Conv2d, DepthwiseConv2d, LayerNorm, Linear
from .module import Module
from .ssm import DirectionalSSM, default_dt_rank
from .tensor import Tensor, cat

if TYPE_CHECKING:
    from .network import NetworkConfig

__all__ = [
    "CrossScanModule",
    "ChannelAttention",
    "SpatialAttention",
    "EFFN",
    "CVSSBlock",
    "BlockPair",
]


class CrossScanModule(Module):
    """Global pathway: gated multi-directional selective scan with residual.

    ``out = x + out_proj( norm(ssm(silu(dwconv(main(x̂))))) * silu(gate(x̂)) )``
    with ``x̂ = layer_norm(x)``.  Every step runs on the (N, C, H, W) map: the
    three projections are ``linear`` over the channel axis, and the scan
    takes its (N, C, L) sequences from the same layout.  Both factors of the
    gated product come with a rebuild, and so does the product
    (``Tensor.__mul__``), so the graph holds neither factor nor the product.
    The output projection starts at zero, so the module starts as the identity.
    """

    def __init__(self, dim: int, cfg: NetworkConfig, rng: np.random.Generator):
        super().__init__()
        d = cfg.ssm_expand * dim
        self.norm = LayerNorm(dim, axis=1)
        self.main_proj = Linear(dim, d, bias=False, rng=rng)
        self.gate_proj = Linear(dim, d, bias=False, rng=rng)
        self.dwconv = DepthwiseConv2d(d, rng=rng)
        self.ssm = DirectionalSSM(d, default_dt_rank(dim), cfg.state_dim, cfg.scan_mode, cfg.scan_block, rng=rng)
        self.out_norm = LayerNorm(d, axis=1)
        self.out_proj = Linear(d, dim, bias=False, rng=rng).zero_()

    def forward(self, x: Tensor) -> Tensor:
        feats = self.norm(x)
        main = self.ssm(F.silu(self.dwconv(self.main_proj(feats))))
        return x + self.out_proj(self.out_norm(main) * F.silu(self.gate_proj(feats)))


class ChannelAttention(Module):
    """Per-channel gate from pooled statistics through a shared bottleneck MLP."""

    def __init__(self, dim: int, reduction: int, rng: np.random.Generator):
        super().__init__()
        hidden = dim // reduction
        self.fc1 = Linear(dim, hidden, bias=False, rng=rng)
        self.fc2 = Linear(hidden, dim, bias=False, rng=rng).zero_()

    def _mlp(self, v: Tensor) -> Tensor:
        return self.fc2(F.relu(self.fc1(v)))

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        scores = self._mlp(x.mean(axis=(2, 3))) + self._mlp(x.reshape(n, c, h * w).max(axis=2))
        return x * F.sigmoid(scores).reshape(n, c, 1, 1)


class SpatialAttention(Module):
    """Per-position gate from channel mean/max maps through a 7x7 conv."""

    def __init__(self, rng: np.random.Generator):
        super().__init__()
        self.conv = Conv2d(2, 1, 7, padding=3, rng=rng).zero_()

    def forward(self, x: Tensor) -> Tensor:
        stats = cat([x.mean(axis=1, keepdims=True), x.max(axis=1, keepdims=True)], axis=1)
        return x * F.sigmoid(self.conv(stats))


class EFFN(Module):
    """Efficient FFN: norm, expand 1x1, depthwise 3x3, GELU, project 1x1.

    The final projection starts at zero so the FFN contributes nothing until
    trained (the caller adds the result residually).
    """

    def __init__(self, dim: int, cfg: NetworkConfig, rng: np.random.Generator):
        super().__init__()
        h = max(1, int(round(dim * cfg.effn_ratio)))
        self.norm = LayerNorm(dim, axis=1)
        self.pw1 = Conv2d(dim, h, 1, rng=rng)
        self.dw = DepthwiseConv2d(h, rng=rng)
        self.pw2 = Conv2d(h, dim, 1, rng=rng).zero_()

    def forward(self, x: Tensor) -> Tensor:
        return self.pw2(F.gelu(self.dw(self.pw1(self.norm(x)))))


class CVSSBlock(Module):
    """Full block: global branch + local branch, attention-refined, fused.

    F_g = channel_attention(cross_scan(x))
    F_l = spatial_attention(local_conv(x))
    F_u = x + conv1x1(norm(dwconv3(F_g + F_l)))
    out = F_u + effn(F_u)
    """

    def __init__(self, dim: int, cfg: NetworkConfig, rng: np.random.Generator):
        super().__init__()
        self.cross_scan = CrossScanModule(dim, cfg, rng)
        self.channel_attention = ChannelAttention(dim, cfg.ca_reduction, rng)
        self.local_conv = DepthwiseConv2d(dim, rng=rng)
        self.spatial_attention = SpatialAttention(rng)
        self.fuse_dw = DepthwiseConv2d(dim, rng=rng)
        self.fuse_norm = LayerNorm(dim, axis=1)
        self.fuse_pw = Conv2d(dim, dim, 1, rng=rng).zero_()
        self.effn = EFFN(dim, cfg, rng)

    def forward(self, x: Tensor) -> Tensor:
        f_g = self.channel_attention(self.cross_scan(x))
        f_l = self.spatial_attention(self.local_conv(x))
        f_u = x + self.fuse_pw(self.fuse_norm(self.fuse_dw(f_g + f_l)))
        return f_u + self.effn(f_u)


class BlockPair(Module):
    """Two chained blocks wrapped in one outer residual: ``x + B(A(x))``."""

    def __init__(self, block_a: CVSSBlock, block_b: CVSSBlock):
        super().__init__()
        self.block_a = block_a
        self.block_b = block_b

    def forward(self, x: Tensor) -> Tensor:
        return x + self.block_b(self.block_a(x))
