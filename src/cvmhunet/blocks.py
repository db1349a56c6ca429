"""State-space encoder/decoder block: cross-scan global branch, convolutional
local branch, channel/spatial attention, gated fusion, and an efficient FFN.

Every residual branch ends in a zero-initialized projection, so a freshly
constructed block is exactly the identity map and a pair of blocks doubles
its input.  Training moves the blocks away from identity smoothly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functional as F
from .layers import Conv2d, DepthwiseConv2d, LayerNorm, Linear
from .module import Module
from .ssm import DEFAULT_SCAN_BLOCK, DEFAULT_STATE_DIM, DirectionalSSM, default_dt_rank
from .tensor import Tensor, cat

__all__ = [
    "CVSSConfig",
    "CrossScanModule",
    "ChannelAttention",
    "SpatialAttention",
    "EFFN",
    "CVSSBlock",
    "BlockPair",
]


@dataclass(frozen=True)
class CVSSConfig:
    """Hyper-parameters of one block at a given stage width."""

    dim: int
    ssm_expand: int = 2
    state_dim: int = DEFAULT_STATE_DIM
    scan_mode: str = "cs2d"
    scan_block: int = DEFAULT_SCAN_BLOCK
    ca_reduction: int = 4
    effn_ratio: float = 0.5

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.dim % self.ca_reduction != 0:
            raise ValueError(f"dim {self.dim} not divisible by ca_reduction {self.ca_reduction}")
        if self.ssm_expand < 1:
            raise ValueError(f"ssm_expand must be >= 1, got {self.ssm_expand}")

    @property
    def inner_dim(self) -> int:
        return self.ssm_expand * self.dim

    @property
    def effn_hidden(self) -> int:
        return max(1, int(round(self.dim * self.effn_ratio)))


class CrossScanModule(Module):
    """Global pathway: gated multi-directional selective scan with residual.

    ``out = x + out_proj( norm(ssm(silu(dwconv(main(x̂))))) * silu(gate(x̂)) )``
    with ``x̂ = layer_norm(x)``.  Every step runs on the (N, C, H, W) map: the
    three projections are ``linear`` over the channel axis, and the scan
    takes its (N, C, L) sequences from the same layout.  The output
    projection starts at zero, so the module starts as the identity.
    """

    def __init__(self, cfg: CVSSConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        d = cfg.inner_dim
        self.norm = LayerNorm(cfg.dim, axis=1)
        self.main_proj = Linear(cfg.dim, d, bias=False, rng=rng)
        self.gate_proj = Linear(cfg.dim, d, bias=False, rng=rng)
        self.dwconv = DepthwiseConv2d(d, kernel=3, padding=1, rng=rng)
        self.ssm = DirectionalSSM(
            d,
            state_dim=cfg.state_dim,
            dt_rank=default_dt_rank(cfg.dim),
            scan_mode=cfg.scan_mode,
            scan_block=cfg.scan_block,
            rng=rng,
        )
        self.out_norm = LayerNorm(d, axis=1)
        self.out_proj = Linear(d, cfg.dim, bias=False, rng=rng).zero_()

    def forward(self, x: Tensor) -> Tensor:
        feats = self.norm(x)
        main = self.ssm(F.silu(self.dwconv(self.main_proj(feats))))
        gate = F.silu(self.gate_proj(feats))
        return x + self.out_proj(self.out_norm(main) * gate)


class ChannelAttention(Module):
    """Per-channel gate from pooled statistics through a shared bottleneck MLP."""

    def __init__(self, dim: int, reduction: int = 4, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
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

    def __init__(self, kernel: int = 7, rng: np.random.Generator | None = None):
        super().__init__()
        self.conv = Conv2d(2, 1, kernel, padding=kernel // 2, rng=rng).zero_()

    def forward(self, x: Tensor) -> Tensor:
        stats = cat([x.mean(axis=1, keepdims=True), x.max(axis=1, keepdims=True)], axis=1)
        return x * F.sigmoid(self.conv(stats))


class EFFN(Module):
    """Efficient FFN: norm, expand 1x1, depthwise 3x3, GELU, project 1x1.

    The final projection starts at zero so the FFN contributes nothing until
    trained (the caller adds the result residually).
    """

    def __init__(self, cfg: CVSSConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        h = cfg.effn_hidden
        self.norm = LayerNorm(cfg.dim, axis=1)
        self.pw1 = Conv2d(cfg.dim, h, 1, rng=rng)
        self.dw = DepthwiseConv2d(h, kernel=3, padding=1, rng=rng)
        self.pw2 = Conv2d(h, cfg.dim, 1, rng=rng).zero_()

    def forward(self, x: Tensor) -> Tensor:
        return self.pw2(F.gelu(self.dw(self.pw1(self.norm(x)))))


class CVSSBlock(Module):
    """Full block: global branch + local branch, attention-refined, fused.

    F_g = channel_attention(cross_scan(x))
    F_l = spatial_attention(local_conv(x))
    F_u = x + conv1x1(norm(dwconv3(F_g + F_l)))
    out = F_u + effn(F_u)
    """

    def __init__(self, cfg: CVSSConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.cfg = cfg
        self.cross_scan = CrossScanModule(cfg, rng=rng)
        self.channel_attention = ChannelAttention(cfg.dim, cfg.ca_reduction, rng=rng)
        self.local_conv = DepthwiseConv2d(cfg.dim, kernel=3, padding=1, rng=rng)
        self.spatial_attention = SpatialAttention(rng=rng)
        self.fuse_dw = DepthwiseConv2d(cfg.dim, kernel=3, padding=1, rng=rng)
        self.fuse_norm = LayerNorm(cfg.dim, axis=1)
        self.fuse_pw = Conv2d(cfg.dim, cfg.dim, 1, rng=rng).zero_()
        self.effn = EFFN(cfg, rng=rng)

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
