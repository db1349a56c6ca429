"""Neural-network operators built on the autograd tensor.

Feature maps are NCHW, and every dense map contracts the channel axis 1:
``linear`` takes (N, Din, *rest) to (N, Dout, *rest), so it runs on feature
maps and (N, D, L) scan sequences as they are.  Every convolution runs on one
of two kernels: non-overlapping patches (1x1, and the strided patch embedding)
are a space-to-depth reshape and that same channel GEMM; stride-1 convs (dense,
depthwise and ``conv1d``) contract contiguous tap slices of flat channel rows
with a batched matmul.  Backwards are analytic.
Dtype follows the inputs, so every op runs in float64 when gradient checking.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, no_grad

__all__ = [
    "linear",
    "linear_softplus",
    "conv2d",
    "depthwise_conv2d",
    "conv1d",
    "layer_norm",
    "gated_layer_norm",
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

# erf by the rational forms of Cephes ``ndtr.c`` (S. L. Moshier), the ones
# scipy.special.erf evaluates: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, else
# 1 - erfc(|x|) with erfc(x) = exp(-x^2) P(x) / Q(x).  Leading coefficient
# first; U and Q are monic, their leading 1 left out.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)

# Float64 bytes of one ``_erf`` block: its few temporaries then stay in a 2 MB L2.
ERF_BLOCK_BYTES = 1 << 18


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _logistic(x: np.ndarray) -> np.ndarray:
    """Stable ``1 / (1 + exp(-x))`` in the dtype of ``x``: one ``exp`` of ``-|x|``, never overflowing."""
    e = np.exp(-np.abs(x))
    out = np.maximum(e, x >= 0)  # 1 where x >= 0 (e <= 1 there), else e: no data-dependent branch
    out /= 1.0 + e
    return out


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner's rule from the leading coefficient, rounding as Cephes ``polevl`` does."""
    p = coef[0] * x
    p += coef[1]
    for c in coef[2:]:
        p *= x
        p += c
    return p


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """``_polevl`` with a leading coefficient of 1 that ``coef`` leaves out (Cephes ``p1evl``)."""
    p = x + coef[0]
    for c in coef[1:]:
        p *= x
        p += c
    return p


def _erf(x: np.ndarray) -> np.ndarray:
    """``erf(x)`` in the dtype of ``x``, evaluated in float64 blocks of ``ERF_BLOCK_BYTES``.

    Each float64 value takes the steps of Cephes ``erf`` in the same order, so a
    float32 result is scipy.special.erf's bit for bit; a float64 result can
    differ from it by 1 ulp where ``np.exp`` and libm's ``exp`` round apart.
    Cephes switches ``erfc`` to another rational form (R/S) from |x| = 8 and to
    0 past its ``exp`` underflow, but 1 - erfc(|x|) already rounds to exactly 1
    from |x| = 5.922, so |x| is clamped to 8 for P/Q instead.  Odd symmetry by
    ``copysign`` keeps -0 and nan as they are.
    """
    out = np.empty(x.shape, x.dtype)
    src, dst = x.reshape(-1), out.reshape(-1)
    block = ERF_BLOCK_BYTES // 8
    for i in range(0, src.size, block):
        xi = src[i : i + block]
        a = np.abs(xi, dtype=np.float64)
        s = np.minimum(a, 1.0)
        z = s * s
        y = s * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)
        tail = np.flatnonzero(a > 1.0)
        if tail.size:
            t = np.minimum(a[tail], 8.0)
            y[tail] = 1.0 - np.exp(-(t * t)) * _polevl(t, _ERF_P) / _p1evl(t, _ERF_Q)
        dst[i : i + block] = np.copysign(y, xi, out=y)
    return out


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
    """``out[n, o, ...] = sum_i w[o, i] x[n, i, ...] + b[o]`` for ``linear`` and patch ``conv2d``.

    When ``x`` comes with a rebuild (``Tensor._with_rebuild``), the graph keeps
    that in place of ``x``'s array (``Tensor._keep``), and the backward rebuilds
    the array for ``dw``.  The output's own rebuild runs the same GEMM on it.
    """
    forward, output, grads = _dense_kernel(x.data, weight.data, None if bias is None else bias.data, x._keep())
    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor.from_op(forward(), parents, grads)._with_rebuild(output)


def _dense_kernel(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, source):
    """The halves of the channel GEMM: ``forward()`` -> the output array, ``output()`` ->
    the same array from what ``grads`` keeps, and ``grads(g)`` -> the grads of ``x``,
    ``weight`` (and ``bias``) for an output grad ``g``.

    ``weight`` is (O, I) or (O, C, s, s) with I = C * s * s.  Each sample is one
    (O, I) @ (I, rest) product, with rest = 1 for an (N, I) input, so a sample's
    output never depends on the rest of its batch.  ``forward`` reads ``x``;
    ``output`` and ``grads`` call ``source()`` -> ``x``, bitwise, instead
    (``Tensor._keep``), and all three keep only views of the weight and bias.
    """
    n, din = x.shape[:2]
    dout = weight.shape[0]
    w2 = weight.reshape(dout, din)
    xr = x.reshape(n, din, -1)
    xshape, wshape = x.shape, weight.shape
    rows = lambda: source().reshape(n, din, -1)

    def product(a):
        out = np.matmul(w2, a)
        if bias is not None:
            out += bias[:, None]
        return out.reshape((n, dout) + xshape[2:])

    def grads(g):
        g3 = g.reshape(n, dout, -1)
        dx = np.matmul(w2.T, g3)
        dw = np.tensordot(g3, rows(), axes=[(0, 2), (0, 2)])
        db = g3.sum(axis=(0, 2))
        if bias is None:
            return dx.reshape(xshape), dw.reshape(wshape)
        return dx.reshape(xshape), dw.reshape(wshape), db

    return (lambda: product(xr)), (lambda: product(rows())), grads


def linear_softplus(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``softplus(linear(x, weight, bias))`` as one op that keeps no array of its own.

    The forward is that composition (under ``no_grad``); the graph keeps only
    what ``linear`` keeps.  The output's rebuild and the backward share one
    rerun of the GEMM per sweep for the pre-activation, so every result is
    bitwise that of the composition, without its softplus input held in between.
    """
    with no_grad():
        out = softplus(linear(x, weight, bias)).data
    _, pre, grads = _dense_kernel(x.data, weight.data, bias.data, x._keep())
    held = []  # the rebuild's pre-activation, until the backward takes it

    def rebuild():
        held.append(pre())
        return _softplus(held[-1])

    backward = lambda g: grads(g * _logistic(held.pop() if held else pre()))
    return Tensor.from_op(out, (x, weight, bias), backward)._with_rebuild(rebuild)


def _space_to_depth(x: Tensor, s: int) -> Tensor:
    """(N, C, H, W) -> (N, C * s * s, H / s, W / s): channel ``c*s*s + i*s + j`` holds
    pixel (i, j) of each s x s patch, the order in which an OIHW weight flattens to
    (O, C * s * s)."""
    n, c, h, w = x.shape
    out = x.data.reshape(n, c, h // s, s, w // s, s).transpose(0, 1, 3, 5, 2, 4)
    out = np.ascontiguousarray(out).reshape(n, c * s * s, h // s, w // s)

    def backward(g):
        dx = g.reshape(n, c, s, s, h // s, w // s).transpose(0, 1, 4, 2, 5, 3)
        return (np.ascontiguousarray(dx).reshape(n, c, h, w),)

    return Tensor.from_op(out, (x,), backward)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Dense 2D cross-correlation, NCHW input, OIHW weight.

    Non-overlapping patches (a kernel equal to the stride, no padding; 1x1 is
    stride 1) are a space-to-depth reshape and one channel GEMM; any other
    kernel runs at stride 1 on the flat-tap kernel (``_tap_conv``), and any
    other stride raises ``ValueError``.
    """
    n, cin, h, w = x.shape
    cout, cw, kh, kw = weight.shape
    _require(cw == cin, f"conv2d: input channels {cin} != weight in-channels {cw}")
    if kh == kw == stride and padding == 0:
        _require(h % stride == 0 and w % stride == 0,
                 f"conv2d: input {h}x{w} is not a whole number of {stride}x{stride} patches")
        return _channel_dense(_space_to_depth(x, stride) if stride > 1 else x, weight, bias)
    _require(stride == 1, f"conv2d: stride {stride} needs a {stride}x{stride} kernel and no padding, "
                          f"got {kh}x{kw} with padding {padding}")
    return _tap_conv(x, weight, bias, (padding, padding))


# Bytes of tap columns one group block of ``_correlate_rows`` may copy:
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
    """``out[n, o, q] = sum_cij k[o, c, i, j] * rows[n, g * cg + c, start + q + i * wp + j]``,
    with g the group of output channel o.

    ``rows`` is (N, C, R) flat channel rows of row stride ``wp``, ``k`` (O, cg, kh, kw)
    in G = C / cg groups of O / G outputs each, and ``out`` (N, O, Q).  Groups go in
    blocks of ``TAP_BLOCK_BYTES``: a block's cg * kh * kw tap slices per group are
    copied into one column buffer, which a batched (O / G, cg * kh * kw) @
    (cg * kh * kw, Q) matmul contracts while it is in cache.
    """
    n, c = rows.shape[:2]
    o, cg, kh, kw = k.shape
    groups, q = c // cg, out.shape[-1]
    taps = _taps(rows, start, wp, kh, kw, q).reshape(n, groups, cg, kh, kw, q)
    kt = k.reshape(groups, o // groups, cg * kh * kw)
    outg = out.reshape(n, groups, o // groups, q, copy=False)
    block = max(1, min(groups, TAP_BLOCK_BYTES // (cg * kh * kw * q * out.itemsize)))
    cols = np.empty((block, cg, kh, kw, q), out.dtype)
    for b in range(n):
        for g0 in range(0, groups, block):
            g1 = min(g0 + block, groups)
            np.copyto(cols[: g1 - g0], taps[b, g0:g1])
            np.matmul(kt[g0:g1], cols[: g1 - g0].reshape(g1 - g0, cg * kh * kw, q), out=outg[b, g0:g1])


def _tap_conv(x: Tensor, weight: Tensor, bias: Tensor | None, padding: tuple[int, int]) -> Tensor:
    """Stride-1 cross-correlation of (N, C, H, W) by an (O, cg, kh, kw) weight, zero
    ``padding`` (rows, columns); cg = C is a dense conv, cg = 1 a depthwise one.
    A 3-D input and weight (``conv1d``) are one-row images.

    Each channel of the zero-padded input is one flat row of row stride
    ``wp = w + 2 * pw``, so tap (i, j) is the contiguous slice of that row at
    offset ``i * wp + j`` (``_correlate_rows``).  The output comes out in rows of
    stride ``wp`` whose last ``kw - 1`` columns straddle a row edge and are
    cropped.  The backward runs the same kernel with the taps mirrored and each
    group's in/out channels swapped on ``g`` laid out in rows of stride ``wp``,
    which gathers into ``dx`` what each tap scattered, and takes ``dw`` as one
    dot product per weight.  The graph keeps the unpadded input, or its rebuild
    (``Tensor._keep``); the backward pads it again for ``dw``, and the output's
    rebuild runs the forward's kernel on it again.
    """
    n, c = x.shape[:2]
    o, cg = weight.shape[:2]
    h, w = x.shape[2:] if x.ndim == 4 else (1, x.shape[2])
    kh, kw = weight.shape[2:] if weight.ndim == 4 else (1, weight.shape[2])
    ph, pw = padding
    hp, wp = h + 2 * ph, w + 2 * pw
    _require(hp >= kh and wp >= kw, f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    ho, wo = hp - kh + 1, wp - kw + 1
    m = ho * wp - kw + 1  # flat outputs whose taps all stay inside the padded row
    xshape, wshape, xdtype = x.shape, weight.shape, x.dtype
    oshape = (n, o, ho, wo) if x.ndim == 4 else (n, o, wo)
    k = weight.data.reshape(o, cg, kh, kw)
    b = None if bias is None else bias.data
    dtype = np.result_type(xdtype, k)
    source = x._keep()

    def padded_rows(a):
        xp = np.zeros((n, c, hp * wp), a.dtype)
        xp.reshape(n, c, hp, wp)[:, :, ph : ph + h, pw : pw + w] = a.reshape(n, c, h, w)
        return xp

    def correlate(a):
        flat = np.empty((n, o, ho * wp), dtype)
        _correlate_rows(padded_rows(a), k, wp, 0, flat[..., :m])
        out = np.ascontiguousarray(flat.reshape(n, o, ho, wp)[..., :wo])
        if b is not None:
            out += b[:, None, None]
        return out.reshape(oshape)

    parents = (x, weight) if bias is None else (x, weight, bias)
    groups = c // cg

    def backward(g):
        # g in rows of stride wp, zero in the cropped columns, after `lead` zeros:
        # dx at padded flat position P is sum_oij k[o, c, kh-1-i, kw-1-j] * gbuf[o, P + i*wp + j]
        g = g.reshape(n, o, ho, wo)
        lead = (kh - 1) * wp + kw - 1
        gbuf = np.zeros((n, o, lead + hp * wp), dtype)
        gflat = gbuf[..., lead : lead + ho * wp]
        gflat.reshape(n, o, ho, wp)[..., :wo] = g
        kt = k.reshape(groups, o // groups, cg, kh, kw).swapaxes(1, 2).reshape(c, o // groups, kh, kw)
        dflat = np.empty((n, c, h * wp), dtype)
        span = (h - 1) * wp + w  # padded flat positions of the unpadded input, from its first
        _correlate_rows(gbuf, kt[..., ::-1, ::-1], wp, ph * wp + pw, dflat[..., :span])
        dx = dflat.reshape(n, c, h, wp)[..., :w].astype(xdtype).reshape(xshape)
        taps = _taps(padded_rows(source()), 0, wp, kh, kw, m).reshape(n, groups, 1, cg, kh, kw, m)
        gm = gflat[..., :m].reshape(n, groups, o // groups, 1, 1, 1, m)
        dw = np.vecdot(taps, gm).sum(axis=0).reshape(wshape)
        if bias is None:
            return dx, dw
        return dx, dw, g.sum(axis=(0, 2, 3))

    return Tensor.from_op(correlate(x.data), parents, backward)._with_rebuild(lambda: correlate(source()))


def depthwise_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    padding: int = 0,
) -> Tensor:
    """Per-channel 2D cross-correlation, stride 1; weight is (C, 1, kh, kw)."""
    _, c, _, _ = x.shape
    _require(weight.ndim == 4 and weight.shape[:2] == (c, 1),
             f"depthwise_conv2d: weight {weight.shape} incompatible with {c} channels")
    return _tap_conv(x, weight, bias, (padding, padding))


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Single-channel same-padded 1D cross-correlation with odd kernel size."""
    n, ch, length = x.shape
    _require(ch == 1 and weight.shape[:2] == (1, 1),
             f"conv1d: expected single-channel input/weight, got {x.shape} / {weight.shape}")
    k = weight.shape[2]
    _require(k % 2 == 1, f"conv1d: kernel size must be odd, got {k}")
    return _tap_conv(x, weight, bias, (0, (k - 1) // 2))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def _normalize(
    x: Tensor, gamma: Tensor, beta: Tensor, stats_axes: tuple[int, ...], feature_axis: int, eps: float
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """``(x - mean) / sqrt(var + eps) * gamma + beta``, the statistics over ``stats_axes``
    and the affine along ``feature_axis``.  Returns the result, rebuilt from ``xhat`` when
    a consumer needs it, and the mean and variance (shaped for broadcasting against ``x``)."""
    mu, var, affine, grads = _norm_kernel(x, gamma, beta, stats_axes, feature_axis, eps)
    return Tensor.from_op(affine(), (x, gamma, beta), grads)._with_rebuild(affine), mu, var


def _norm_kernel(x: Tensor, gamma: Tensor, beta: Tensor, stats_axes: tuple[int, ...], feature_axis: int, eps: float):
    """Statistics of ``_normalize`` and the two halves of its op: returns the mean, the
    variance, ``affine()`` -> ``xhat * gamma + beta`` and ``grads(g)`` -> the grads of
    ``x``, ``gamma`` and ``beta``.  Both halves read only ``xhat`` and ``1 / std``."""
    bshape = [1] * x.ndim
    bshape[feature_axis] = x.shape[feature_axis]
    gam = gamma.data.reshape(bshape)
    bet = beta.data.reshape(bshape)
    mu = x.data.mean(axis=stats_axes, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=stats_axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    affine_axes = tuple(i for i in range(x.ndim) if i != feature_axis)

    def affine():
        return xhat * gam + bet

    def grads(g):
        dgamma = (g * xhat).sum(axis=affine_axes)
        dbeta = g.sum(axis=affine_axes)
        dxhat = g * gam
        m1 = dxhat.mean(axis=stats_axes, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=stats_axes, keepdims=True)
        return inv * (dxhat - m1 - xhat * m2), dgamma, dbeta

    return mu, var, affine, grads


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Normalize over a single axis, then scale/shift by per-feature affine."""
    ax = axis % x.ndim
    c = x.shape[ax]
    _require(gamma.shape == (c,) and beta.shape == (c,),
             f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match {c} features")
    return _normalize(x, gamma, beta, (ax,), ax, eps)[0]


def gated_layer_norm(
    x: Tensor, gamma: Tensor, beta: Tensor, gate: Tensor, axis: int = -1, eps: float = 1e-5
) -> Tensor:
    """``layer_norm(x, gamma, beta, axis, eps) * silu(gate)`` as one op.

    The graph keeps what ``layer_norm`` keeps (``xhat`` and ``1 / std``) and
    ``gate``, or its rebuild (``Tensor._keep``); the backward rebuilds the
    normalized output and ``silu(gate)`` from them, so neither operand of the
    product is held in between, and a consumer can rebuild the product itself.
    Every result is bitwise that of the composition.
    """
    ax = axis % x.ndim
    c = x.shape[ax]
    _require(gamma.shape == (c,) and beta.shape == (c,),
             f"gated_layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match {c} features")
    _require(gate.shape == x.shape, f"gated_layer_norm: gate shape {gate.shape} != input shape {x.shape}")
    _, _, affine, grads = _norm_kernel(x, gamma, beta, (ax,), ax, eps)
    source = gate._keep()

    def product(z):
        return affine() * (z * _logistic(z))

    def backward(g):
        z = source()
        s = _logistic(z)
        act = z * s
        dz = (g * affine()) * (s + act * (1.0 - s))
        return (*grads(g * act), dz)

    out = Tensor.from_op(product(gate.data), (x, gamma, beta, gate), backward)
    return out._with_rebuild(lambda: product(source()))


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
    c = x.shape[1]
    _require(gamma.shape == (c,), f"batch_norm: affine shape {gamma.shape} does not match {c} channels")
    axes = (0,) + tuple(range(2, x.ndim))
    if training:
        out, mu, var = _normalize(x, gamma, beta, axes, 1, eps)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu.reshape(c).astype(running_mean.dtype)
        running_var *= 1.0 - momentum
        running_var += momentum * var.reshape(c).astype(running_var.dtype)
        return out

    bshape = (1, c) + (1,) * (x.ndim - 2)
    gam = gamma.data.reshape(bshape)
    bet = beta.data.reshape(bshape)
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
    data = _logistic(x.data)
    return Tensor.from_op(data, (x,), lambda g: (g * data * (1.0 - data),))


def _softplus(a: np.ndarray) -> np.ndarray:
    """The array of ``softplus``."""
    out = np.log1p(np.exp(-np.abs(a)))
    out += np.maximum(a, 0)
    return out


def softplus(x: Tensor) -> Tensor:
    """``log(1 + e^x) = log1p(e^-|x|) + max(x, 0)``, never overflowing."""
    a = x.data
    return Tensor.from_op(_softplus(a), (x,), lambda g: (g * _logistic(a),))


def silu(x: Tensor) -> Tensor:
    """``x * sigmoid(x)`` as a single fused op; the backward recomputes ``sigmoid(x)``
    and the output from the input, or from the input's rebuild (``Tensor._keep``),
    so the graph holds no array of its own for it.  The output's rebuild reruns
    the forward on the same."""
    source = x._keep()

    def output(a):
        return a * _logistic(a)

    def backward(g):
        a = source()
        s = _logistic(a)
        out = a * s
        return (g * (s + out * (1.0 - s)),)

    return Tensor.from_op(output(x.data), (x,), backward)._with_rebuild(lambda: output(source()))


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit, ``0.5 x (1 + erf(x / sqrt(2)))``, in the input's dtype.
    The backward keeps ``phi`` and ``x``, or ``x``'s rebuild (``Tensor._keep``); the output
    is rebuilt from the two when a consumer needs it."""
    inv_sqrt2, inv_sqrt2pi = (x.dtype.type(v) for v in (_INV_SQRT2, _INV_SQRT2PI))
    phi = 0.5 * (1.0 + _erf(x.data * inv_sqrt2))
    source = x._keep()

    def backward(g):
        a = source()
        pdf = inv_sqrt2pi * np.exp(-0.5 * a * a)
        return (g * (phi + a * pdf),)

    return Tensor.from_op(x.data * phi, (x,), backward)._with_rebuild(lambda: source() * phi)


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


def permute_last(x: Tensor, perm: np.ndarray, inv: np.ndarray) -> Tensor:
    """Reorder the last axis by a permutation; backward applies its inverse ``inv``.
    It passes its input's rebuild through (``Tensor._passed``)."""
    length = x.shape[-1]
    _require(perm.shape == (length,), f"permute_last: permutation length {perm.shape} != axis length {length}")
    def gather(a):
        return np.ascontiguousarray(a[..., perm])

    return x._passed(Tensor.from_op(gather(x.data), (x,), lambda g: (np.ascontiguousarray(g[..., inv]),)), gather)
