"""Bitwise references for the shared normalization kernel and the max/min reduction.

Each reference is the written-out formula of a separate implementation:
layer norm with mean-form backward, training-mode batch norm with sum-form
backward, and max/min over a moved, flattened axis.  In float32 the engine
must reproduce them bit for bit.
"""

import numpy as np
import pytest

import cvmhunet.functional as F
from cvmhunet.tensor import Tensor


def reference_layer_norm(x, gamma, beta, g, axis, eps=1e-5):
    ax = axis % x.ndim
    bshape = [1] * x.ndim
    bshape[ax] = x.shape[ax]
    gam, bet = gamma.reshape(bshape), beta.reshape(bshape)
    mu = x.mean(axis=ax, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=ax, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gam + bet
    reduce_axes = tuple(i for i in range(x.ndim) if i != ax)
    dgamma = (g * xhat).sum(axis=reduce_axes)
    dbeta = g.sum(axis=reduce_axes)
    dxhat = g * gam
    m1 = dxhat.mean(axis=ax, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=ax, keepdims=True)
    return out, inv * (dxhat - m1 - xhat * m2), dgamma, dbeta


def reference_batch_norm(x, gamma, beta, g, running_mean, running_var, momentum=0.1, eps=1e-5):
    c = x.shape[1]
    axes = (0,) + tuple(range(2, x.ndim))
    bshape = (1, c) + (1,) * (x.ndim - 2)
    gam, bet = gamma.reshape(bshape), beta.reshape(bshape)
    mu = x.mean(axis=axes)
    xc = x - mu.reshape(bshape)
    var = np.mean(xc * xc, axis=axes)
    running_mean *= 1.0 - momentum
    running_mean += momentum * mu.astype(running_mean.dtype)
    running_var *= 1.0 - momentum
    running_var += momentum * var.astype(running_var.dtype)
    inv = (1.0 / np.sqrt(var + eps)).reshape(bshape)
    xhat = xc * inv
    out = xhat * gam + bet
    m = x.size // c
    dgamma = (g * xhat).sum(axis=axes)
    dbeta = g.sum(axis=axes)
    dxhat = g * gam
    s1 = dxhat.sum(axis=axes).reshape(bshape)
    s2 = (dxhat * xhat).sum(axis=axes).reshape(bshape)
    return out, inv * (dxhat - s1 / m - xhat * (s2 / m)), dgamma, dbeta


def reference_extremum(x, g, axis, keepdims, mode):
    ax = axis % x.ndim
    moved = np.moveaxis(x, ax, -1)
    lead = moved.shape[:-1]
    flat = moved.reshape(-1, moved.shape[-1])
    idx = flat.argmax(axis=1) if mode == "max" else flat.argmin(axis=1)
    vals = np.moveaxis(flat[np.arange(flat.shape[0]), idx].reshape(lead + (1,)), -1, ax)
    gg = g if keepdims else np.expand_dims(g, ax)
    grad = np.zeros(flat.shape, x.dtype)
    grad[np.arange(flat.shape[0]), idx] = np.moveaxis(gg, ax, -1).reshape(-1)
    return (vals if keepdims else vals.squeeze(ax)), np.moveaxis(grad.reshape(moved.shape), -1, ax)


def _f32(rng, *shape, scale=1.0, shift=0.0):
    return (rng.normal(size=shape) * scale + shift).astype(np.float32)


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape,axis", [((2, 12, 5, 7), 1), ((2, 6, 8, 12), -1)], ids=["axis1", "last"])
def test_layer_norm_matches_reference_bitwise(shape, axis):
    rng = np.random.default_rng(0)
    c = shape[axis]
    x, g = _f32(rng, *shape, scale=3.0, shift=0.5), _f32(rng, *shape)
    gamma, beta = _f32(rng, c, shift=1.0), _f32(rng, c)
    tx, tg, tb = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
    out = F.layer_norm(tx, tg, tb, axis=axis)
    got = (out.data, *out._backward(g))
    for a, b in zip(got, reference_layer_norm(x, gamma, beta, g, axis)):
        _assert_bitwise(a, b)


def test_batch_norm_training_matches_reference_bitwise():
    rng = np.random.default_rng(1)
    x, g = _f32(rng, 3, 8, 6, 5, scale=2.0, shift=-0.3), _f32(rng, 3, 8, 6, 5)
    gamma, beta = _f32(rng, 8, shift=1.0), _f32(rng, 8)
    stats = [_f32(rng, 8), np.abs(_f32(rng, 8)) + 0.5]
    ref_stats = [s.copy() for s in stats]
    tx, tg, tb = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
    out = F.batch_norm(tx, tg, tb, stats[0], stats[1], training=True)
    got = (out.data, *out._backward(g), *stats)
    want = (*reference_batch_norm(x, gamma, beta, g, *ref_stats), *ref_stats)
    for a, b in zip(got, want):
        _assert_bitwise(a, b)


@pytest.mark.parametrize("keepdims", [False, True])
@pytest.mark.parametrize("mode", ["max", "min"])
def test_extremum_with_ties_matches_reference_bitwise(mode, keepdims):
    rng = np.random.default_rng(2)
    x = rng.integers(-2, 3, size=(2, 6, 4, 5)).astype(np.float32)  # many ties along the channel axis
    out = getattr(Tensor(x, requires_grad=True), mode)(axis=1, keepdims=keepdims)
    g = _f32(rng, *out.shape)
    want_vals, want_grad = reference_extremum(x, g, 1, keepdims, mode)
    _assert_bitwise(out.data, want_vals)
    (grad,) = out._backward(g)
    _assert_bitwise(grad, want_grad)
    # the whole grad of each position goes to the first channel holding the extremum
    first = (np.argmax if mode == "max" else np.argmin)(x, axis=1, keepdims=True)
    assert np.array_equal(np.take_along_axis(grad, first, axis=1), g if keepdims else g[:, None])
    assert np.count_nonzero(grad) == np.count_nonzero(g)
