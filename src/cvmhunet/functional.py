"""Neural-network operators built on the autograd tensor.

Feature maps are NCHW, and every dense map contracts the channel axis 1:
``linear`` takes (N, Din, *rest) to (N, Dout, *rest), so it runs on feature
maps and (N, D, L) scan sequences as they are, and a 1x1 ``conv2d`` is the
same kernel.  Larger convolutions gather sliding windows with numpy stride
tricks and contract them with ``tensordot`` (BLAS); the depthwise one
contracts contiguous tap slices of flat channel rows with a batched matmul.
Backwards are analytic.
Dtype follows the inputs, so every op runs in float64 when gradient checking.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .tensor import Tensor, logistic

__all__ = [
    "linear",
    "conv2d",
    "depthwise_conv2d",
    "conv1d",
    "layer_norm",
    "batch_norm",
    "relu",
    "silu",
    "gelu",
    "softplus",
    "sigmoid",
    "log_softmax",
    "permute_last",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# linear / convolutions
# ---------------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Dense map over the channel axis 1: (N, Din, *rest) -> (N, Dout, *rest), ``weight`` (Dout, Din)."""
    _require(x.ndim >= 2, f"linear: input must be (N, Din, ...), got shape {x.shape}")
    din = x.shape[1]
    dout, win = weight.shape
    _require(win == din, f"linear: input features {din} != weight in-features {win}")
    return _channel_dense(x, weight, bias)


def _channel_dense(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    """``out[n, o, ...] = sum_i w[o, i] x[n, i, ...] + b[o]`` for ``linear`` and 1x1 ``conv2d``.

    ``weight`` is (O, I) or (O, I, 1, 1).  Each sample is one (O, I) @ (I, rest)
    GEMM; an input with nothing after the channel axis, such as (N, I), is one
    (N, I) @ (I, O) GEMM instead of N matrix-vector products.
    """
    n, din = x.shape[:2]
    dout = weight.shape[0]
    w2 = weight.data.reshape(dout, din)
    rows = x.data.size == n * din
    xr = x.data.reshape(n, din) if rows else x.data.reshape(n, din, -1)
    out = xr @ w2.T if rows else np.matmul(w2, xr)
    if bias is not None:
        out += bias.data if rows else bias.data[:, None]
    parents = (x, weight) if bias is None else (x, weight, bias)
    xshape, wshape = x.shape, weight.shape

    def backward(g):
        if rows:
            g2 = g.reshape(n, dout)
            dx, dw, db = g2 @ w2, g2.T @ xr, g2.sum(axis=0)
        else:
            g3 = g.reshape(n, dout, -1)
            dx = np.matmul(w2.T, g3)
            dw = np.tensordot(g3, xr, axes=[(0, 2), (0, 2)])
            db = g3.sum(axis=(0, 2))
        if bias is None:
            return dx.reshape(xshape), dw.reshape(wshape)
        return dx.reshape(xshape), dw.reshape(wshape), db

    return Tensor.from_op(out.reshape((n, dout) + x.shape[2:]), parents, backward)


def _windows(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return win[:, :, ::sh, ::sw]


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Dense 2D cross-correlation, NCHW input, OIHW weight."""
    n, cin, h, w = x.shape
    cout, cw, kh, kw = weight.shape
    _require(cw == cin, f"conv2d: input channels {cin} != weight in-channels {cw}")
    _require(h + 2 * padding >= kh and w + 2 * padding >= kw,
             f"conv2d: kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}")
    if kh == 1 and kw == 1 and stride == 1 and padding == 0:
        return _channel_dense(x, weight, bias)
    sh = sw = stride
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x.data
    win = _windows(xp, kh, kw, sh, sw)
    out = np.tensordot(win, weight.data, axes=[(1, 4, 5), (1, 2, 3)])  # (N,H',W',O)
    out = np.ascontiguousarray(np.moveaxis(out, 3, 1))
    if bias is not None:
        out = out + bias.data[None, :, None, None]
    ho, wo = out.shape[2], out.shape[3]
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        dw = np.tensordot(g, win, axes=[(0, 2, 3), (0, 2, 3)])  # (O,C,kh,kw)
        t = np.tensordot(g, weight.data, axes=[(1,), (0,)])  # (N,H',W',C,kh,kw)
        t = np.moveaxis(t, 3, 1)  # (N,C,H',W',kh,kw)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i : i + sh * (ho - 1) + 1 : sh, j : j + sw * (wo - 1) + 1 : sw] += t[:, :, :, :, i, j]
        dx = dxp[:, :, padding : padding + h, padding : padding + w] if padding else dxp
        if bias is None:
            return np.ascontiguousarray(dx), dw
        return np.ascontiguousarray(dx), dw, g.sum(axis=(0, 2, 3))

    return Tensor.from_op(out, parents, backward)


# Bytes of tap columns one channel block of ``depthwise_conv2d`` may copy:
# the block's columns and output then stay in a 2 MB L2 for its matmul.
TAP_BLOCK_BYTES = 1 << 19


def _taps(rows: np.ndarray, start: int, wp: int, kh: int, kw: int, q: int) -> np.ndarray:
    """Read-only (N, C, kh, kw, Q) view of (N, C, R) flat channel rows of row stride ``wp``:
    tap (i, j) is the contiguous slice of ``q`` elements at ``start + i * wp + j``."""
    s = rows.strides[-1]
    base = rows[..., start:]
    shape, strides = base.shape[:-1] + (kh, kw, q), base.strides[:-1] + (wp * s, s, s)
    return np.lib.stride_tricks.as_strided(base, shape, strides, writeable=False)


def _correlate_rows(rows: np.ndarray, k: np.ndarray, wp: int, start: int, out: np.ndarray) -> None:
    """``out[n, c, q] = sum_ij k[c, i, j] * rows[n, c, start + q + i * wp + j]``.

    ``rows`` is (N, C, R) flat channel rows of row stride ``wp`` and ``out``
    (N, C, Q).  Channels go in blocks of ``TAP_BLOCK_BYTES``: a block's
    kh * kw tap slices are copied into one column buffer, which a batched
    (1, kh * kw) @ (kh * kw, Q) matmul contracts while it is in cache.
    """
    n, c = rows.shape[:2]
    kh, kw = k.shape[1:]
    q = out.shape[-1]
    taps = _taps(rows, start, wp, kh, kw, q)
    kt = k.reshape(c, 1, kh * kw)
    block = max(1, min(c, TAP_BLOCK_BYTES // (kh * kw * q * out.itemsize)))
    cols = np.empty((block, kh, kw, q), out.dtype)
    for b in range(n):
        for c0 in range(0, c, block):
            c1 = min(c0 + block, c)
            np.copyto(cols[: c1 - c0], taps[b, c0:c1])
            np.matmul(kt[c0:c1], cols[: c1 - c0].reshape(c1 - c0, kh * kw, q), out=out[b, c0:c1, None])


def depthwise_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    padding: int = 0,
) -> Tensor:
    """Per-channel 2D cross-correlation, stride 1; weight is (C, 1, kh, kw).

    Each channel of the zero-padded input is one flat row of row stride
    ``wp = w + 2 * padding``, so tap (i, j) is the contiguous slice of that
    row at offset ``i * wp + j`` (``_correlate_rows``).  The output comes out
    in rows of stride ``wp`` whose last ``kw - 1`` columns straddle a row edge
    and are cropped.  The backward runs the same kernel with the taps mirrored
    on ``g`` laid out in rows of stride ``wp``, which gathers into ``dx`` what
    each tap scattered, and takes ``dw`` as one dot product per channel and tap.
    """
    n, c, h, w = x.shape
    cw, one, kh, kw = weight.shape
    _require(cw == c and one == 1,
             f"depthwise_conv2d: weight {weight.shape} incompatible with {c} channels")
    hp, wp = h + 2 * padding, w + 2 * padding
    _require(hp >= kh and wp >= kw,
             f"depthwise_conv2d: kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    ho, wo = hp - kh + 1, wp - kw + 1
    m = ho * wp - kw + 1  # flat outputs whose taps all stay inside the padded row
    xp = np.zeros((n, c, hp * wp), x.dtype)
    xp.reshape(n, c, hp, wp)[:, :, padding : padding + h, padding : padding + w] = x.data
    k3 = weight.data.reshape(c, kh, kw)
    dtype = np.result_type(xp, k3)
    flat = np.empty((n, c, ho * wp), dtype)
    _correlate_rows(xp, k3, wp, 0, flat[..., :m])
    out = np.ascontiguousarray(flat.reshape(n, c, ho, wp)[..., :wo])
    if bias is not None:
        out += bias.data[:, None, None]
    parents = (x, weight) if bias is None else (x, weight, bias)
    wshape = weight.shape

    def backward(g):
        # g in rows of stride wp, zero in the cropped columns, after `lead` zeros:
        # dx at padded flat position P is sum_ij k[kh-1-i, kw-1-j] * gbuf[P + i*wp + j]
        lead = (kh - 1) * wp + kw - 1
        gbuf = np.zeros((n, c, lead + hp * wp), dtype)
        gflat = gbuf[..., lead : lead + ho * wp]
        gflat.reshape(n, c, ho, wp)[..., :wo] = g
        dflat = np.empty((n, c, h * wp), dtype)
        span = (h - 1) * wp + w  # padded flat positions of the unpadded input, from its first
        _correlate_rows(gbuf, k3[:, ::-1, ::-1], wp, padding * wp + padding, dflat[..., :span])
        dx = dflat.reshape(n, c, h, wp)[..., :w].astype(xp.dtype)
        dw = np.vecdot(_taps(xp, 0, wp, kh, kw, m), gflat[:, :, None, None, :m]).sum(axis=0).reshape(wshape)
        if bias is None:
            return dx, dw
        return dx, dw, g.sum(axis=(0, 2, 3))

    return Tensor.from_op(out, parents, backward)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Single-channel same-padded 1D cross-correlation with odd kernel size."""
    n, ch, length = x.shape
    _require(ch == 1 and weight.shape[:2] == (1, 1),
             f"conv1d: expected single-channel input/weight, got {x.shape} / {weight.shape}")
    k = weight.shape[2]
    _require(k % 2 == 1, f"conv1d: kernel size must be odd, got {k}")
    pad = (k - 1) // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad))) if pad else x.data
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)  # (N,1,L,k)
    kern = weight.data.reshape(k)
    out = win @ kern
    if bias is not None:
        out = out + bias.data[0]
    parents = (x, weight) if bias is None else (x, weight, bias)
    wshape = weight.shape

    def backward(g):
        dw = np.tensordot(g, win, axes=[(0, 1, 2), (0, 1, 2)]).reshape(wshape)
        dxp = np.zeros_like(xp)
        for j in range(k):
            dxp[:, :, j : j + length] += g * kern[j]
        dx = dxp[:, :, pad : pad + length] if pad else dxp
        if bias is None:
            return np.ascontiguousarray(dx), dw
        return np.ascontiguousarray(dx), dw, np.asarray([g.sum()], dtype=g.dtype)

    return Tensor.from_op(out, parents, backward)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Normalize over a single axis, then scale/shift by per-feature affine."""
    ax = axis % x.ndim
    c = x.shape[ax]
    _require(gamma.shape == (c,) and beta.shape == (c,),
             f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match {c} features")
    bshape = [1] * x.ndim
    bshape[ax] = c
    gam = gamma.data.reshape(bshape)
    bet = beta.data.reshape(bshape)
    mu = x.data.mean(axis=ax, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=ax, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gam + bet
    reduce_axes = tuple(i for i in range(x.ndim) if i != ax)

    def backward(g):
        dgamma = (g * xhat).sum(axis=reduce_axes)
        dbeta = g.sum(axis=reduce_axes)
        dxhat = g * gam
        m1 = dxhat.mean(axis=ax, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=ax, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgamma, dbeta

    return Tensor.from_op(out, (x, gamma, beta), backward)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """2D batch norm over channel axis 1; running stats updated in train mode."""
    n, c = x.shape[0], x.shape[1]
    _require(gamma.shape == (c,), f"batch_norm: affine shape {gamma.shape} does not match {c} channels")
    axes = (0,) + tuple(range(2, x.ndim))
    bshape = (1, c) + (1,) * (x.ndim - 2)
    gam = gamma.data.reshape(bshape)
    bet = beta.data.reshape(bshape)

    if training:
        mu = x.data.mean(axis=axes)
        xc = x.data - mu.reshape(bshape)
        var = np.mean(xc * xc, axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu.astype(running_mean.dtype)
        running_var *= 1.0 - momentum
        running_var += momentum * var.astype(running_var.dtype)
        inv = (1.0 / np.sqrt(var + eps)).reshape(bshape)
        xhat = xc * inv
        out = xhat * gam + bet
        m = x.data.size // c

        def backward(g):
            dgamma = (g * xhat).sum(axis=axes)
            dbeta = g.sum(axis=axes)
            dxhat = g * gam
            s1 = dxhat.sum(axis=axes).reshape(bshape)
            s2 = (dxhat * xhat).sum(axis=axes).reshape(bshape)
            dx = inv * (dxhat - s1 / m - xhat * (s2 / m))
            return dx, dgamma, dbeta

        return Tensor.from_op(out, (x, gamma, beta), backward)

    inv = (1.0 / np.sqrt(running_var + eps)).astype(x.dtype).reshape(bshape)
    mu = running_mean.astype(x.dtype).reshape(bshape)
    xhat = (x.data - mu) * inv
    out = xhat * gam + bet

    def backward_eval(g):
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        return g * gam * inv, dgamma, dbeta

    return Tensor.from_op(out, (x, gamma, beta), backward_eval)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return Tensor.from_op(np.where(mask, x.data, 0).astype(x.dtype, copy=False), (x,), lambda g: (g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def softplus(x: Tensor) -> Tensor:
    return x.softplus()


def silu(x: Tensor) -> Tensor:
    """``x * sigmoid(x)`` as a single fused op."""
    s = logistic(x.data)
    out = x.data * s
    return Tensor.from_op(out, (x,), lambda g: (g * (s + out * (1.0 - s)),))


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit, ``0.5 x (1 + erf(x / sqrt(2)))``, in the input's dtype."""
    inv_sqrt2, inv_sqrt2pi = (x.dtype.type(v) for v in (_INV_SQRT2, _INV_SQRT2PI))
    phi = 0.5 * (1.0 + erf(x.data * inv_sqrt2))
    out = x.data * phi

    def backward(g):
        pdf = inv_sqrt2pi * np.exp(-0.5 * x.data * x.data)
        return (g * (phi + x.data * pdf),)

    return Tensor.from_op(out, (x,), backward)


def log_softmax(x: Tensor, axis: int = 1) -> Tensor:
    """Numerically stable ``log softmax`` along ``axis``."""
    ax = axis % x.ndim
    m = x.data.max(axis=ax, keepdims=True)
    z = x.data - m
    lse = np.log(np.exp(z).sum(axis=ax, keepdims=True))
    out = z - lse

    def backward(g):
        return (g - np.exp(out) * g.sum(axis=ax, keepdims=True),)

    return Tensor.from_op(out, (x,), backward)


# ---------------------------------------------------------------------------
# gather
# ---------------------------------------------------------------------------


def permute_last(x: Tensor, perm: np.ndarray, inv: np.ndarray | None = None) -> Tensor:
    """Reorder the last axis by a permutation; backward applies the inverse."""
    length = x.shape[-1]
    _require(perm.shape == (length,), f"permute_last: permutation length {perm.shape} != axis length {length}")
    if inv is None:
        inv = np.argsort(perm)
    out = np.ascontiguousarray(x.data[..., perm])
    return Tensor.from_op(out, (x,), lambda g: (np.ascontiguousarray(g[..., inv]),))
