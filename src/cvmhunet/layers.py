"""Small parameterized layers shared by the larger blocks."""

from __future__ import annotations

import numpy as np

from . import functional as F
from .module import Module, init_conv, init_linear
from .tensor import Parameter, Tensor

__all__ = [
    "Linear",
    "Conv2d",
    "DepthwiseConv2d",
    "ChannelConv1d",
    "LayerNorm",
    "BatchNorm2d",
]


class Linear(Module):
    """Dense layer over the channel axis 1: (N, Din, *rest) -> (N, Dout, *rest)."""

    def __init__(self, din: int, dout: int, bias: bool = True, *, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(init_linear(rng, dout, din))
        self.bias = Parameter(np.zeros(dout, dtype=np.float32), weight_decay_exempt=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv2d(Module):
    def __init__(
        self,
        cin: int,
        cout: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        *,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(init_conv(rng, cout, cin, kernel, kernel))
        self.bias = Parameter(np.zeros(cout, dtype=np.float32), weight_decay_exempt=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class DepthwiseConv2d(Module):
    """3x3 depthwise conv with bias, padded to keep the extent."""

    def __init__(self, channels: int, rng: np.random.Generator):
        super().__init__()
        bound = 1.0 / 3.0  # 1/sqrt(fan-in), nine taps per channel
        self.weight = Parameter(rng.uniform(-bound, bound, size=(channels, 1, 3, 3)).astype(np.float32))
        self.bias = Parameter(np.zeros(channels, dtype=np.float32), weight_decay_exempt=True)

    def forward(self, x: Tensor) -> Tensor:
        return F.depthwise_conv2d(x, self.weight, self.bias, padding=1)


class ChannelConv1d(Module):
    """1D conv sliding over the channel axis of (N, C) vectors, same padding, zero-initialized."""

    def __init__(self, kernel: int):
        super().__init__()
        self.weight = Parameter(np.zeros((1, 1, kernel), dtype=np.float32))
        self.bias = Parameter(np.zeros(1, dtype=np.float32), weight_decay_exempt=True)

    def forward(self, vec: Tensor) -> Tensor:
        n, c = vec.shape
        out = F.conv1d(vec.reshape(n, 1, c), self.weight, self.bias)
        return out.reshape(n, c)


class LayerNorm(Module):
    """Layer norm over one axis (default the channel axis of NCHW maps)."""

    def __init__(self, dim: int, axis: int = 1, eps: float = 1e-5):
        super().__init__()
        self.axis = axis
        self.eps = eps
        self.gamma = Parameter(np.ones(dim, dtype=np.float32), weight_decay_exempt=True)
        self.beta = Parameter(np.zeros(dim, dtype=np.float32), weight_decay_exempt=True)

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gamma, self.beta, axis=self.axis, eps=self.eps)


class BatchNorm2d(Module):
    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(channels, dtype=np.float32), weight_decay_exempt=True)
        self.beta = Parameter(np.zeros(channels, dtype=np.float32), weight_decay_exempt=True)
        self.register_buffer("running_mean", np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_var", np.ones(channels, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )
