"""Encoder/decoder segmentation network assembled from state-space blocks.

Layout (stage widths C, 2C, 4C, 8C):

    input (N,3,H,W)
      patch_embed 4x4/4 ........ (N,  C, H/4,  W/4)
      enc stage 0 blocks ......> skip0, patch_merge
      enc stage 1 blocks ......> skip1, patch_merge
      enc stage 2 blocks ......> skip2, patch_merge
      enc stage 3 blocks ....... bridge (N, 8C, H/32, W/32)
      dec stage 0 blocks at 8C
      3 x [patch_expand -> fuse with skip (frequency fusion or add) -> blocks]
      final: two patch_expands + 1x1 conv to classes at full resolution

``param_count``/``flops_count`` sum the two columns of one closed-form walk
that yields (params, MACs) per layer over the ``stage_plan`` layout; tests
assert both agree exactly with instantiated models and a counted forward.
FLOPs are multiply-accumulate counts: one MAC per weight tap per output for
convolutions and dense layers, plus ``L * D_inner * N_state`` per scan
direction for the selective scan; normalizations, activations, pooling and
elementwise arithmetic are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockPair, CVSSBlock
from .config import Record
from .layers import Conv2d, LayerNorm, Linear
from .mfms import MFMSBlock, adaptive_kernel_size
from .module import Module, ModuleList
from .scan import SCAN_MODES
from .ssm import DEFAULT_SCAN_BLOCK, default_dt_rank
from .tensor import Tensor, cat

__all__ = [
    "NetworkConfig",
    "StageInfo",
    "stage_plan",
    "PatchEmbed",
    "PatchMerge",
    "PatchExpand",
    "CVMHUNet",
    "param_count",
    "flops_count",
]


def _checked_size(h: int, w: int) -> tuple[int, int]:
    """``(h, w)``, which the patch embed (4x) and the three merges (8x) divide to at least one position."""
    if h < 32 or w < 32 or h % 32 or w % 32:
        raise ValueError(f"input size must be a multiple of 32, at least 32, on each side, got {h}x{w}")
    return h, w


@dataclass(frozen=True)
class NetworkConfig(Record):
    embed_dim: int = 96
    enc_depths: tuple[int, int, int, int] = (2, 2, 2, 2)
    dec_depths: tuple[int, int, int, int] = (2, 2, 2, 1)
    num_classes: int = 4
    scan_mode: str = "cs2d"
    mfms_enabled: bool = True
    input_size: tuple[int, int] = (256, 256)
    effn_ratio: float = 0.5
    ssm_expand: int = 2
    state_dim: int = 16
    scan_block: int = DEFAULT_SCAN_BLOCK
    ca_reduction: int = 4
    freq_k: int = 16
    kernel_alpha: float = 2.0
    kernel_beta: float = 1.0
    mfms_reduction: int = 4

    def __post_init__(self):
        super().__post_init__()  # a float or bool would pass the range checks below and fail in the build
        if self.embed_dim < 4 or self.embed_dim % 4 != 0:
            raise ValueError(f"embed_dim must be a positive multiple of 4, got {self.embed_dim}")
        if any(d < 1 for d in self.enc_depths + self.dec_depths):
            raise ValueError("stage depths must be >= 1")
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        for name in ("ssm_expand", "state_dim", "ca_reduction", "mfms_reduction"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.embed_dim % self.ca_reduction != 0:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by ca_reduction {self.ca_reduction}")
        if self.mfms_enabled:
            if self.embed_dim % self.mfms_reduction != 0:
                raise ValueError(f"embed_dim {self.embed_dim} not divisible by mfms_reduction {self.mfms_reduction}")
            if not 1 <= self.freq_k <= 16:
                raise ValueError(f"freq_k must lie in [1, 16] (the top-16 frequency table), got {self.freq_k}")
            if not self.kernel_alpha > 0:
                raise ValueError(f"kernel_alpha must be > 0, got {self.kernel_alpha}")
            for i in range(3):  # the fusion widths; raises if the kernel size is not finite
                adaptive_kernel_size(self.stage_dim(i), self.kernel_alpha, self.kernel_beta)
        if not self.effn_ratio > 0:
            raise ValueError(f"effn_ratio must be > 0, got {self.effn_ratio}")
        if self.scan_mode not in SCAN_MODES:
            raise ValueError(f"scan_mode must be one of {SCAN_MODES}, got {self.scan_mode!r}")
        _checked_size(*self.input_size)

    # -- derived -----------------------------------------------------------------

    def stage_dim(self, i: int) -> int:
        return self.embed_dim * (1 << i)


@dataclass(frozen=True)
class StageInfo:
    role: str
    dim: int
    height: int
    width: int
    depth: int

    @property
    def positions(self) -> int:
        return self.height * self.width


def stage_plan(cfg: NetworkConfig, input_size: tuple[int, int] | None = None) -> list[StageInfo]:
    """Resolution/width/depth of every stage for a given input size."""
    h, w = _checked_size(*(input_size or cfg.input_size))
    plan = [StageInfo("patch_embed", cfg.embed_dim, h // 4, w // 4, 0)]
    for i in range(4):
        plan.append(StageInfo(f"encoder_{i}", cfg.stage_dim(i), h // (4 << i), w // (4 << i), cfg.enc_depths[i]))
    for j in range(4):
        i = 3 - j  # decoder runs deepest-first
        plan.append(StageInfo(f"decoder_{j}", cfg.stage_dim(i), h // (4 << i), w // (4 << i), cfg.dec_depths[j]))
    plan.append(StageInfo("head", cfg.num_classes, h, w, 0))
    return plan


# ---------------------------------------------------------------------------
# resolution-changing layers
# ---------------------------------------------------------------------------


class PatchEmbed(Module):
    """Non-overlapping 4x4 patches to channels: strided conv + layer norm."""

    def __init__(self, in_channels: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.conv = Conv2d(in_channels, dim, kernel=4, stride=4, rng=rng)
        self.norm = LayerNorm(dim, axis=1)

    def forward(self, x: Tensor) -> Tensor:
        return self.norm(self.conv(x))  # conv2d rejects sides that are not whole patches


class PatchMerge(Module):
    """2x2 neighborhood concat (4D channels), layer norm, linear 4D -> 2D."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.norm = LayerNorm(4 * dim, axis=1)
        self.reduce = Linear(4 * dim, 2 * dim, bias=False, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        n, d, h, w = x.shape
        if h % 2 != 0 or w % 2 != 0:
            raise ValueError(f"patch merge needs even extents, got {h}x{w}")
        quads = cat(
            [x[:, :, 0::2, 0::2], x[:, :, 1::2, 0::2], x[:, :, 0::2, 1::2], x[:, :, 1::2, 1::2]],
            axis=1,
        )
        return self.reduce(self.norm(quads))


class PatchExpand(Module):
    """Linear D -> 2D, scatter as a 2x2 spatial block of D/2 channels, norm."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        if dim % 2 != 0:
            raise ValueError(f"patch expand needs even channels, got {dim}")
        self.dim = dim
        self.project = Linear(dim, 2 * dim, bias=False, rng=rng)
        self.norm = LayerNorm(dim // 2, axis=-1)

    def forward(self, x: Tensor) -> Tensor:
        n, d, h, w = x.shape
        if d != self.dim:
            raise ValueError(f"patch expand built for {self.dim} channels, got {d}")
        half = d // 2
        y = self.project(x)  # (N,2D,H,W); channel i*D + j*half + c goes to pixel (2h+i, 2w+j)
        y = y.reshape(n, 2, 2, half, h, w).transpose(0, 4, 1, 5, 2, 3)  # (N,H,2,W,2,half)
        y = self.norm(y.reshape(n, 2 * h, 2 * w, half))
        return y.moveaxis(3, 1)


class BlockSequence(Module):
    """Stage body: pairs of blocks under outer residuals, plus one odd block."""

    def __init__(self, dim: int, cfg: NetworkConfig, depth: int, rng: np.random.Generator):
        super().__init__()
        mods: list[Module] = []
        for _ in range(depth // 2):
            mods.append(BlockPair(CVSSBlock(dim, cfg, rng), CVSSBlock(dim, cfg, rng)))
        if depth % 2:
            mods.append(CVSSBlock(dim, cfg, rng))
        self.blocks = ModuleList(mods)

    def forward(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return x


class AddFusion(Module):
    """Skip fusion fallback when frequency fusion is disabled."""

    def forward(self, skip: Tensor, up: Tensor) -> Tensor:
        if skip.shape != up.shape:
            raise ValueError(f"fusion inputs must match, got {skip.shape} vs {up.shape}")
        return skip + up


# ---------------------------------------------------------------------------
# full network
# ---------------------------------------------------------------------------


class _Undrawn:
    """Stands in for the init generator of a model whose weights a checkpoint will overwrite.

    ``uniform`` returns zeros of the requested shape and draws nothing; it is
    the only draw the init sites make, so a new site that calls anything
    else fails with ``AttributeError`` instead of silently drawing.
    """

    __slots__ = ()

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return np.zeros(size, dtype=np.float32)


class CVMHUNet(Module):
    IN_CHANNELS = 3

    def __init__(self, config: NetworkConfig, seed: int | None = 0):
        """``seed=None`` skips the random init: for a model a strict checkpoint load will fill."""
        super().__init__()
        rng = _Undrawn() if seed is None else np.random.default_rng(seed)
        self.config = config
        c = config.embed_dim

        self.patch_embed = PatchEmbed(self.IN_CHANNELS, c, rng)
        self.enc_stages = ModuleList(
            [BlockSequence(config.stage_dim(i), config, config.enc_depths[i], rng) for i in range(4)]
        )
        self.merges = ModuleList([PatchMerge(config.stage_dim(i), rng) for i in range(3)])

        self.dec_bridge = BlockSequence(config.stage_dim(3), config, config.dec_depths[0], rng)
        expands, fusions, dec_stages = [], [], []
        for j in range(1, 4):
            i = 3 - j  # target stage index after expanding
            dim = config.stage_dim(i)
            expands.append(PatchExpand(2 * dim, rng))
            fusions.append(MFMSBlock(dim, config, rng) if config.mfms_enabled else AddFusion())
            dec_stages.append(BlockSequence(dim, config, config.dec_depths[j], rng))
        self.expands = ModuleList(expands)
        self.fusions = ModuleList(fusions)
        self.dec_stages = ModuleList(dec_stages)

        self.final_expand_1 = PatchExpand(c, rng)
        self.final_expand_2 = PatchExpand(c // 2, rng)
        self.head = Conv2d(c // 4, config.num_classes, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        if c != self.IN_CHANNELS:
            raise ValueError(f"expected {self.IN_CHANNELS}-channel input, got {c}")
        _checked_size(h, w)

        e = self.patch_embed(x)
        skips = []
        for i in range(4):
            e = self.enc_stages[i](e)
            skips.append(e)
            if i < 3:
                e = self.merges[i](e)

        d = self.dec_bridge(e)
        for j in range(3):
            d = self.expands[j](d)
            d = self.fusions[j](skips[2 - j], d)  # frequency fusion weights the skip side
            d = self.dec_stages[j](d)

        y = self.final_expand_2(self.final_expand_1(d))
        return self.head(y)


# ---------------------------------------------------------------------------
# analytic counters (pure functions of the config; no tensors allocated)
# ---------------------------------------------------------------------------


def _block_cost(cfg: NetworkConfig, c: int, positions: int) -> tuple[int, int]:
    """(params, MACs) of one ``CVSSBlock`` of width ``c`` over ``positions`` spatial positions."""
    d = cfg.ssm_expand * c
    r = default_dt_rank(c)
    s = cfg.state_dim
    h = max(1, int(round(c * cfg.effn_ratio)))
    cr = c // cfg.ca_reduction
    p = positions
    layers = [
        (2 * c, 0),  # cross-scan pre-norm
        (2 * d * c, 2 * d * c * p),  # main + gate projections
        (9 * d + d, 9 * d * p),  # depthwise conv
        (4 * (d * (r + 2 * s) + d * r + d), 4 * (d * (r + 2 * s) + d * r) * p),  # per-direction x/dt projections
        (4 * (d * s + d), 4 * d * s * p),  # A and D per direction; scan: one MAC per (step, channel, state)
        (2 * d, 0),  # scan output norm
        (d * c, d * c * p),  # out projection
        (2 * c * cr, 2 * 2 * c * cr),  # channel-attention MLP on two pooled vectors
        (2 * 49 + 1, 2 * 49 * p),  # spatial-attention conv
        (9 * c + c, 9 * c * p),  # local depthwise conv
        (9 * c + c + 2 * c + c * c + c, (9 * c + c * c) * p),  # fusion dw conv + norm + 1x1
        (2 * c + c * h + h + 9 * h + h + h * c + c, (c * h + 9 * h + h * c) * p),  # effn
    ]
    return sum(a for a, _ in layers), sum(m for _, m in layers)


def _mfms_cost(cfg: NetworkConfig, c: int, positions: int) -> tuple[int, int]:
    """(params, MACs) of one ``MFMSBlock`` of width ``c`` over ``positions`` spatial positions."""
    phi = adaptive_kernel_size(c, cfg.kernel_alpha, cfg.kernel_beta)
    cr = c // cfg.mfms_reduction
    layers = [
        (0, c * cfg.freq_k * positions),  # frequency compression against fixed bases
        (3 * (phi + 1), 3 * phi * c),  # three channel convs with bias
        (c * cr + 2 * cr, c * cr * positions),  # local bottleneck pw1 + bn1 affine
        (cr * c + 2 * c, cr * c * positions),  # local bottleneck pw2 + bn2 affine
    ]
    return sum(a for a, _ in layers), sum(m for _, m in layers)


def _layer_costs(cfg: NetworkConfig, input_size: tuple[int, int] | None = None):
    """Yield (params, MACs) of every layer, in forward order, for one sample at ``input_size``."""
    plan = stage_plan(cfg, input_size)
    embed, enc, dec, head = plan[0], plan[1:5], plan[5:9], plan[9]
    c = embed.dim

    def blocks(st: StageInfo) -> list[tuple[int, int]]:
        return [_block_cost(cfg, st.dim, st.positions)] * st.depth

    yield 48 * c + c + 2 * c, 48 * c * embed.positions  # patch embed: 4x4x3 conv + bias, norm
    yield from blocks(enc[0])
    for st, lower in zip(enc, enc[1:]):
        yield 8 * st.dim + 8 * st.dim**2, 8 * st.dim**2 * lower.positions  # merge: norm(4D), linear 4D->2D at half size
        yield from blocks(lower)
    yield from blocks(dec[0])
    for src, st in zip(dec, dec[1:]):
        yield 2 * src.dim**2 + src.dim, 2 * src.dim**2 * src.positions  # expand: linear D->2D, then norm(D/2)
        if cfg.mfms_enabled:
            yield _mfms_cost(cfg, st.dim, st.positions)
        yield from blocks(st)
    for dim, positions in ((c, embed.positions), (c // 2, 4 * embed.positions)):
        yield 2 * dim * dim + dim, 2 * dim * dim * positions  # final expands at H/4 and H/2
    yield (c // 4 + 1) * head.dim, (c // 4) * head.dim * head.positions  # head: 1x1 conv + bias


def param_count(cfg: NetworkConfig) -> int:
    """Exact number of trainable parameters for a model built from ``cfg``."""
    return sum(params for params, _ in _layer_costs(cfg))


def flops_count(cfg: NetworkConfig, input_size: tuple[int, int] | None = None) -> int:
    """MAC count for one sample at the given spatial size (see module docstring)."""
    return sum(macs for _, macs in _layer_costs(cfg, input_size))
