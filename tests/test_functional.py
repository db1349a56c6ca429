"""Neural-net ops against naive loop oracles and hand-computed values."""

import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import cvmhunet.functional as F
from cvmhunet.optim import AdamW
from cvmhunet.ssm import _negative_exp
from cvmhunet.tensor import Parameter, Tensor, no_grad

from graph_walk import closure_arrays, graph_arrays


def t(data, rg=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------------------
# oracles: naive loops, no stride tricks
# ---------------------------------------------------------------------------


def conv2d_naive(x, w, b, stride, padding):
    n, cin, h, ww = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (ww + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for oi in range(cout):
            for yi in range(ho):
                for xi in range(wo):
                    patch = xp[ni, :, yi * stride : yi * stride + kh, xi * stride : xi * stride + kw]
                    out[ni, oi, yi, xi] = np.sum(patch * w[oi])
            if b is not None:
                out[ni, oi] += b[oi]
    return out


def depthwise_naive(x, w, b, padding):
    n, c, h, ww = x.shape
    _, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = h + 2 * padding - kh + 1
    wo = ww + 2 * padding - kw + 1
    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for yi in range(ho):
                for xi in range(wo):
                    out[ni, ci, yi, xi] = np.sum(xp[ni, ci, yi : yi + kh, xi : xi + kw] * w[ci, 0])
            if b is not None:
                out[ni, ci] += b[ci]
    return out


def depthwise_backward_naive(x, w, g, padding):
    """dx, dw, db of ``depthwise_naive`` for the output grad ``g``, one tap at a time."""
    n, c, h, ww = x.shape
    _, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for ni in range(n):
        for ci in range(c):
            for yi in range(g.shape[2]):
                for xi in range(g.shape[3]):
                    dxp[ni, ci, yi : yi + kh, xi : xi + kw] += g[ni, ci, yi, xi] * w[ci, 0]
                    dw[ci, 0] += g[ni, ci, yi, xi] * xp[ni, ci, yi : yi + kh, xi : xi + kw]
    return dxp[:, :, padding : padding + h, padding : padding + ww], dw, g.sum(axis=(0, 2, 3))


def conv2d_backward_naive(x, w, g, stride, padding):
    """dx, dw, db of ``conv2d_naive`` for the output grad ``g``, one output at a time."""
    n, cin, h, ww = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for ni in range(n):
        for oi in range(cout):
            for yi in range(g.shape[2]):
                for xi in range(g.shape[3]):
                    rows, cols = slice(yi * stride, yi * stride + kh), slice(xi * stride, xi * stride + kw)
                    dxp[ni, :, rows, cols] += g[ni, oi, yi, xi] * w[oi]
                    dw[oi] += g[ni, oi, yi, xi] * xp[ni, :, rows, cols]
    return dxp[:, :, padding : padding + h, padding : padding + ww], dw, g.sum(axis=(0, 2, 3))


def conv1d_naive(x, w, b):
    n, _, length = x.shape
    k = w.shape[2]
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    out = np.zeros_like(x)
    for ni in range(n):
        for i in range(length):
            out[ni, 0, i] = np.sum(xp[ni, 0, i : i + k] * w[0, 0])
    if b is not None:
        out += b[0]
    return out


class TestConvOracles:
    @pytest.mark.parametrize("stride,padding,kh", [(1, 0, 3), (1, 1, 3), (4, 0, 4), (1, 3, 7)])
    def test_conv2d_matches_naive(self, stride, padding, kh):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 3, 9, 8))[:, :, : 9 - 9 % stride]  # whole patches at stride 4
        w = rng.normal(size=(5, 3, kh, kh))
        b = rng.normal(size=(5,))
        got = F.conv2d(t(x), t(w), t(b), stride=stride, padding=padding)
        np.testing.assert_allclose(got.data, conv2d_naive(x, w, b, stride, padding), atol=1e-10)

    @pytest.mark.parametrize("stride,padding,kh", [(1, 0, 3), (1, 3, 7), (4, 0, 4), (1, 0, 1)])
    def test_conv2d_backward_matches_naive(self, stride, padding, kh):
        rng = np.random.default_rng(6)
        x = t(rng.normal(size=(2, 3, 8, 8)), rg=True)
        w = t(rng.normal(size=(5, 3, kh, kh)), rg=True)
        b = t(rng.normal(size=(5,)), rg=True)
        out = F.conv2d(x, w, b, stride=stride, padding=padding)
        g = rng.normal(size=out.shape)
        (out * t(g)).sum().backward()
        for got, want in zip((x.grad, w.grad, b.grad), conv2d_backward_naive(x.data, w.data, g, stride, padding)):
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_conv1x1_fast_path_matches_naive(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 5, 6))
        w = rng.normal(size=(7, 4, 1, 1))
        got = F.conv2d(t(x), t(w), None)
        np.testing.assert_allclose(got.data, conv2d_naive(x, w, None, 1, 0), atol=1e-10)

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_depthwise_matches_naive(self, kernel, padding):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 6, 7, 9))
        w = rng.normal(size=(6, 1, kernel, kernel))
        b = rng.normal(size=(6,))
        got = F.depthwise_conv2d(t(x), t(w), t(b), padding=padding)
        np.testing.assert_allclose(got.data, depthwise_naive(x, w, b, padding), atol=1e-10)

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_depthwise_backward_matches_naive(self, kernel, padding):
        rng = np.random.default_rng(8)
        x = t(rng.normal(size=(2, 5, 6, 8)), rg=True)
        w = t(rng.normal(size=(5, 1, kernel, kernel)), rg=True)
        b = t(rng.normal(size=(5,)), rg=True)
        out = F.depthwise_conv2d(x, w, b, padding=padding)
        g = rng.normal(size=out.shape)
        (out * t(g)).sum().backward()
        for got, want in zip((x.grad, w.grad, b.grad), depthwise_backward_naive(x.data, w.data, g, padding)):
            np.testing.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize(
        "op,xshape,wshape",
        [
            (lambda x, w: F.depthwise_conv2d(x, w, padding=1), (1, 4, 5, 6), (4, 1, 3, 3)),
            (lambda x, w: F.conv2d(x, w, padding=3), (1, 2, 8, 9), (1, 2, 7, 7)),
            (F.conv1d, (2, 1, 9), (1, 1, 5)),
        ],
        ids=["depthwise", "conv2d", "conv1d"],
    )
    def test_backward_keeps_the_input_dtype(self, op, xshape, wshape):
        # a float64 output grad must not turn dx (and everything upstream of it) into float64
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=xshape).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=wshape).astype(np.float32), requires_grad=True)
        out = op(x, w)
        assert out.dtype == np.float32
        g = rng.normal(size=out.shape)
        dx = out._backward(g)[0]
        assert dx.dtype == np.float32
        # the float64 run of the same kernel, which the naive oracles above pin
        want = op(t(x.data, rg=True), t(w.data, rg=True))._backward(g)[0]
        np.testing.assert_allclose(dx, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_conv1d_matches_naive(self, k):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 1, 10))
        w = rng.normal(size=(1, 1, k))
        b = rng.normal(size=(1,))
        got = F.conv1d(t(x), t(w), t(b))
        np.testing.assert_allclose(got.data, conv1d_naive(x, w, b), atol=1e-12)

    def test_conv2d_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="channels"):
            F.conv2d(t(np.zeros((1, 3, 8, 8))), t(np.zeros((4, 2, 3, 3))))
        with pytest.raises(ValueError, match="odd"):
            F.conv1d(t(np.zeros((1, 1, 8))), t(np.zeros((1, 1, 4))))
        # only non-overlapping patches may be strided, and only over whole patches
        with pytest.raises(ValueError, match="stride 2"):
            F.conv2d(t(np.zeros((1, 3, 8, 8))), t(np.zeros((4, 3, 3, 3))), stride=2, padding=1)
        with pytest.raises(ValueError, match="patches"):
            F.conv2d(t(np.zeros((1, 3, 9, 8))), t(np.zeros((4, 3, 4, 4))), stride=4)
        with pytest.raises(ValueError, match="larger"):
            F.conv2d(t(np.zeros((1, 3, 4, 4))), t(np.zeros((4, 3, 7, 7))), padding=1)
        with pytest.raises(ValueError, match="larger"):
            F.depthwise_conv2d(t(np.zeros((1, 3, 4, 4))), t(np.zeros((3, 1, 7, 7))), padding=1)


class TestLinear:
    def test_matches_numpy(self):
        # 2-D (N, Din), 3-D (N, Din, L) and 4-D (N, Din, H, W): axis 1 is contracted
        rng = np.random.default_rng(5)
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=(4,))
        for shape in ((5, 6), (2, 6, 3), (2, 6, 3, 4)):
            x = rng.normal(size=shape)
            got = F.linear(t(x), t(w), t(b))
            want = np.einsum("oi,ni...->no...", w, x) + b.reshape((4,) + (1,) * (len(shape) - 2))
            assert got.shape == (shape[0], 4) + shape[2:]
            np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_conv2d_1x1_is_linear_bitwise(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 6, 3, 4))
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=(4,))
        g = rng.normal(size=(2, 4, 3, 4))
        results = []
        for op, weight in ((F.linear, w), (F.conv2d, w.reshape(4, 6, 1, 1))):
            tx, tw, tb = t(x, rg=True), t(weight, rg=True), t(b, rg=True)
            y = op(tx, tw, tb)
            (y * t(g)).sum().backward()
            results.append((y.data, tx.grad, tw.grad.reshape(4, 6), tb.grad))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape", [(7, 6), (3, 6, 1, 1)])
    def test_rows_forward_and_backward_match_naive(self, shape):
        # nothing after the channel axis: one (O, I) @ (I, 1) product per row, checked row by row
        rng = np.random.default_rng(12)
        x, w, b = rng.normal(size=shape), rng.normal(size=(4, 6)), rng.normal(size=(4,))
        g = rng.normal(size=(shape[0], 4) + shape[2:])
        tx, tw, tb = t(x, rg=True), t(w, rg=True), t(b, rg=True)
        y = F.linear(tx, tw, tb)
        (y * t(g)).sum().backward()
        x2, g2 = x.reshape(shape[0], 6), g.reshape(shape[0], 4)
        want_y = np.stack([[np.dot(w[o], x2[r]) + b[o] for o in range(4)] for r in range(shape[0])])
        want_dx = np.stack([[np.dot(g2[r], w[:, i]) for i in range(6)] for r in range(shape[0])])
        want_dw = np.array([[np.dot(g2[:, o], x2[:, i]) for i in range(6)] for o in range(4)])
        assert y.shape == g.shape and tx.grad.shape == shape
        np.testing.assert_allclose(y.data.reshape(shape[0], 4), want_y, atol=1e-12)
        np.testing.assert_allclose(tx.grad.reshape(shape[0], 6), want_dx, atol=1e-12)
        np.testing.assert_allclose(tw.grad, want_dw, atol=1e-12)
        np.testing.assert_allclose(tb.grad, g2.sum(axis=0), atol=1e-12)

    def test_feature_mismatch_raises(self):
        with pytest.raises(ValueError, match="features"):
            F.linear(t(np.zeros((2, 5))), t(np.zeros((3, 6))))


class TestNorms:
    def test_layer_norm_hand_values(self):
        # two features [1, 3]: mean 2, var 1 -> normalized [-1, 1]
        x = t(np.array([[1.0, 3.0]]))
        out = F.layer_norm(x, t(np.ones(2)), t(np.zeros(2)), axis=-1)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_layer_norm_channel_axis(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 5, 3, 3))
        g = rng.normal(size=(5,))
        b = rng.normal(size=(5,))
        out = F.layer_norm(t(x), t(g), t(b), axis=1)
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + 1e-5) * g[None, :, None, None] + b[None, :, None, None]
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_layer_norm_rows_independent(self):
        x = np.array([[1.0, 2.0, 3.0], [100.0, 200.0, 300.0]])
        out = F.layer_norm(t(x), t(np.ones(3)), t(np.zeros(3)))
        np.testing.assert_allclose(out.data[0], out.data[1], atol=1e-3)

    def test_batch_norm_train_hand_values(self):
        x = t(np.array([0.0, 2.0]).reshape(2, 1, 1, 1))
        rm = np.zeros(1)
        rv = np.ones(1)
        out = F.batch_norm(x, t(np.ones(1)), t(np.zeros(1)), rm, rv, training=True, momentum=0.1)
        np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-4)
        np.testing.assert_allclose(rm, [0.1])  # 0.9*0 + 0.1*1
        np.testing.assert_allclose(rv, [0.9 * 1.0 + 0.1 * 1.0])

    def test_batch_norm_eval_uses_running_stats(self):
        x = t(np.array([5.0, 7.0]).reshape(2, 1, 1, 1))
        rm = np.array([6.0])
        rv = np.array([4.0])
        out = F.batch_norm(x, t(np.ones(1)), t(np.zeros(1)), rm, rv, training=False)
        np.testing.assert_allclose(out.data.reshape(-1), [-0.5, 0.5], atol=1e-5)
        np.testing.assert_allclose(rm, [6.0])  # untouched in eval


class TestActivations:
    def test_relu(self):
        x = t(np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(F.relu(x).data, [0.0, 0.0, 3.0])

    def test_silu_values(self):
        x = t(np.array([0.0, 1.0, -1.0]))
        s = 1 / (1 + np.exp(-x.data))
        np.testing.assert_allclose(F.silu(x).data, x.data * s, atol=1e-12)

    @pytest.mark.parametrize("name", ["silu", "softplus", "sigmoid"])
    def test_float32_extremes_finite_and_correct(self, name):
        expit = pytest.importorskip("scipy.special").expit
        values = np.array([-1000.0, -500.0, 0.0, 500.0, 1000.0])
        s = expit(values)  # float64 reference
        want = {
            "silu": (values * s, s * (1.0 + values * (1.0 - s))),
            "softplus": (np.logaddexp(0.0, values), s),
            "sigmoid": (s, s * (1.0 - s)),
        }[name]
        x = Tensor(values.astype(np.float32), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow in exp fails the test
            with np.errstate(all="warn", under="ignore"):  # flushing exp(-1000) to 0 is intended
                y = getattr(F, name)(x)
                y.sum().backward()
        assert y.dtype == np.float32 and x.grad.dtype == np.float32
        assert np.all(np.isfinite(y.data)) and np.all(np.isfinite(x.grad))
        np.testing.assert_allclose(y.data, want[0], rtol=1e-6, atol=1e-30)
        np.testing.assert_allclose(x.grad, want[1], rtol=1e-6, atol=1e-30)

    def test_gelu_reference_values(self):
        # x * Phi(x) with the standard normal CDF (values from CDF tables)
        x = t(np.array([0.0, 1.0, -1.0, 2.0]))
        expected = [0.0, 0.8413447460685429, -0.15865525393145707, 1.9544997361036416]
        np.testing.assert_allclose(F.gelu(x).data, expected, atol=1e-12)

    def test_gelu_keeps_float32(self):
        # float64 constants must not promote a float32 activation or its grad
        rng = np.random.default_rng(13)
        values = rng.normal(size=(3, 4)) * 3
        x = Tensor(values.astype(np.float32), requires_grad=True)
        y = F.gelu(x)
        y.sum().backward()
        assert y.dtype == np.float32 and x.grad.dtype == np.float32
        ref = t(values.astype(np.float32), rg=True)  # the same inputs in float64
        y_ref = F.gelu(ref)
        y_ref.sum().backward()
        np.testing.assert_allclose(y.data, y_ref.data, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(x.grad, ref.grad, rtol=1e-6, atol=1e-6)

    def test_log_softmax_matches_naive(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 5)) * 10
        out = F.log_softmax(t(x), axis=1)
        naive = np.log(np.exp(x) / np.exp(x).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(out.data, naive, atol=1e-10)
        # stability: huge logits must not overflow
        big = F.log_softmax(t(np.array([[1000.0, 0.0]])), axis=1)
        assert np.all(np.isfinite(big.data))


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


class TestErf:
    """``F._erf`` against scipy.special.erf, whose Cephes evaluation it repeats."""

    @pytest.fixture(scope="class")
    def erf(self):
        return pytest.importorskip("scipy.special").erf

    def test_float32_bitwise_on_a_sweep_of_bit_patterns(self, erf):
        # every 509th float32 pattern from +0 to 10, and the same with the sign bit set
        bits = np.arange(0, int(_bits(np.float32(10.0))) + 1, 509, dtype=np.uint32)
        x = np.concatenate([bits, bits | np.uint32(1 << 31)]).view(np.float32)
        got, want = F._erf(x), erf(x)
        assert got.dtype == np.float32
        bad = np.flatnonzero(_bits(got) != _bits(want))
        assert bad.size == 0, f"{bad.size} of {x.size} differ, first at x = {x[bad[:5]]}"

    def test_float32_bitwise_on_special_values(self, erf):
        tiny = np.finfo(np.float32).smallest_subnormal
        values = [0.0, np.inf, tiny, 3 * tiny, np.finfo(np.float32).smallest_normal * 0.5,
                  1.0, 8.0, 1e30, np.finfo(np.float32).max]
        x = np.array(values + [-v for v in values] + [np.nan], dtype=np.float32)
        np.testing.assert_array_equal(_bits(F._erf(x)), _bits(erf(x)))

    def test_float64_within_one_ulp(self, erf):
        # np.exp and libm's exp may round apart for 1 < |x| < 8
        rng = np.random.default_rng(29)
        x = np.concatenate([
            rng.uniform(-10.0, 10.0, 200_000),
            rng.uniform(0.99, 1.01, 10_000),
            np.exp(rng.uniform(-700.0, 700.0, 10_000)) * rng.choice([-1.0, 1.0], 10_000),
            [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0, 8.0, -8.0],
        ])
        got, want = F._erf(x), erf(x)
        assert got.dtype == np.float64
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 1
        assert np.isnan(F._erf(np.array([np.nan])))[0]

    def test_gelu_bitwise_against_the_scipy_formula(self, erf):
        rng = np.random.default_rng(31)
        x = (rng.normal(size=(2, 8, 16, 16)) * 3).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        inv_sqrt2, inv_sqrt2pi = np.float32(1.0 / np.sqrt(2.0)), np.float32(1.0 / np.sqrt(2.0 * np.pi))
        phi = 0.5 * (1.0 + erf(x * inv_sqrt2))
        want_dx = g * (phi + x * (inv_sqrt2pi * np.exp(-0.5 * x * x)))
        xt = Tensor(x, requires_grad=True)
        y = F.gelu(xt)
        (y * Tensor(g)).sum().backward()
        np.testing.assert_array_equal(_bits(y.data), _bits(x * phi))
        np.testing.assert_array_equal(_bits(xt.grad), _bits(want_dx))


class TestSavedArrays:
    """What an op's backward keeps between forward and backward: nothing new but the
    output, where the backward can rebuild the rest from the input."""

    @pytest.mark.parametrize("op", ["silu", "depthwise_conv2d", "conv2d_3x3"])
    def test_forward_keeps_only_its_output(self, op):
        rng = np.random.default_rng(37)
        x = Tensor(rng.normal(size=(2, 16, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(16, 1 if op == "depthwise_conv2d" else 16, 3, 3)).astype(np.float32))
        run = {
            "silu": lambda: F.silu(x),
            "depthwise_conv2d": lambda: F.depthwise_conv2d(x, w, padding=1),
            "conv2d_3x3": lambda: F.conv2d(x, w, padding=1),
        }[op]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = run()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the output is as large as the input; a second such array (sigmoid(x), the
        # padded input) would double what is held
        assert held < y.data.nbytes + (8 << 10), f"{held} bytes held for a {y.data.nbytes}-byte output"
        y.sum().backward()
        assert x.grad is not None and np.all(np.isfinite(x.grad))


def _dt_composition(code, w, b):
    return F.softplus(F.linear(code, w, b))


def _gate_composition(x, gamma, beta, z):
    return F.layer_norm(x, gamma, beta, axis=1) * F.silu(z)


def _fused_operands(rng, dtype, n=2, d=12, r=3, length=40, hw=(5, 8)):
    """Operands of each op: (code, W, b) of a dt projection, (x, gamma, beta, z) of a gated output norm."""
    dt_ops = (rng.normal(size=(n, r, length)), 0.5 * rng.normal(size=(d, r)), rng.normal(size=d))
    gate_ops = (rng.normal(size=(n, d) + hw), 1.0 + 0.3 * rng.normal(size=d), 0.3 * rng.normal(size=d),
                2.0 * rng.normal(size=(n, d) + hw))
    return {"dt": [v.astype(dtype) for v in dt_ops], "gate": [v.astype(dtype) for v in gate_ops]}


class TestFusedOps:
    """The two compositions that were hand-fused ops: the scan's dt projection,
    ``softplus(linear(code))``, and the cross-scan's gated output norm,
    ``layer_norm(x) * silu(z)``.  Their rebuilds keep the graph as small as the fused
    ops did, and every result is bitwise that of the same compositions keeping their
    intermediate outputs."""

    OPS = {"dt": _dt_composition, "gate": _gate_composition}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", ["dt", "gate"])
    def test_bitwise_equal_to_the_composition(self, op, dtype, monkeypatch):
        fn = self.OPS[op]
        operands = _fused_operands(np.random.default_rng(41), dtype)[op]
        w = np.random.default_rng(42).normal(size=fn(*(Tensor(v) for v in operands)).shape).astype(dtype)
        results = []
        for keep in (False, True):
            if keep:  # no rebuilds: every intermediate output stays in the graph
                monkeypatch.setattr(Tensor, "_with_rebuild", lambda self, rebuild: self)
            ts = [Tensor(v.copy(), requires_grad=True) for v in operands]
            y = fn(*ts)
            (y * Tensor(w)).sum().backward()
            with no_grad():
                y_eval = fn(*(Tensor(v) for v in operands))
            results.append([y.data, y_eval.data] + [t.grad for t in ts])
        for got, want in zip(*results):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("op", ["dt", "gate"])
    def test_in_sweep_update_equals_update_after_the_sweep(self, op):
        # AdamW.step(loss) updates each parameter as soon as its grad is final; the backwards
        # and rebuilds read the weight, bias and affine arrays, so they must still be parents
        # then, or the sweep would update them before they are read
        fn = self.OPS[op]
        operands = _fused_operands(np.random.default_rng(43), np.float32)[op]
        states = []
        for in_sweep in (True, False):
            params = [Parameter(v.copy()) for v in operands]
            opt = AdamW(params, lr=0.1, weight_decay=0.1)
            for _ in range(3):
                loss = (fn(*params) ** 2).mean()
                if in_sweep:
                    opt.step(loss)
                else:
                    loss.backward()
                    opt.step()
                    for p in params:
                        p.grad = None
            states.append([p.data for p in params])
        for got, want in zip(*states):
            np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("op", ["dt", "gate"])
    def test_graph_keeps_no_product_operand(self, op):
        # at scan-sized shapes: the dt projection holds only its output (the softplus keeps
        # the GEMM's rebuild); the gated norm holds xhat besides its output (the product keeps
        # both factors' rebuilds), where keeping them would hold four such maps (xhat, the two
        # factors, the product)
        fn = self.OPS[op]
        rng = np.random.default_rng(44)
        operands = _fused_operands(rng, np.float32, n=1, d=64, r=6, length=1024, hw=(32, 32))[op]
        ts = [Tensor(v, requires_grad=True) for v in operands]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = fn(*ts)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        arrays = 1 if op == "dt" else 2
        assert held < arrays * y.data.nbytes + (8 << 10), f"{held} bytes held for a {y.data.nbytes}-byte output"
        y.sum().backward()
        assert all(t.grad is not None and np.all(np.isfinite(t.grad)) for t in ts)


def _producer_operands(rng, dtype, n=2, c=12, hw=(5, 8)):
    """(x, gamma, beta, gate) of a producer of (N, C, H, W) maps."""
    ops = (rng.normal(size=(n, c) + hw), 1.0 + 0.3 * rng.normal(size=c), 0.3 * rng.normal(size=c),
           2.0 * rng.normal(size=(n, c) + hw))
    return [v.astype(dtype) for v in ops]


def _train_batch_norm(x, gamma, beta, z):
    c = x.shape[1]
    return F.batch_norm(x, gamma, beta, np.zeros(c, np.float32), np.ones(c, np.float32), training=True)


def _weight(x, *shape, seed=44):
    """A fixed weight of ``shape`` in ``x``'s dtype."""
    return Tensor(np.random.default_rng(seed).normal(size=shape).astype(x.dtype))


def _norm(x, gamma, beta):
    return F.layer_norm(x, gamma, beta, axis=1)


_PERM = np.random.default_rng(45).permutation(40)
_INV = np.argsort(_PERM)

# every op whose result comes with a rebuild, on the operands of ``_producer_operands``
_PRODUCERS = {
    "layer_norm": lambda x, gamma, beta, z: F.layer_norm(x, gamma, beta, axis=1),
    "batch_norm": _train_batch_norm,
    "__mul__": lambda x, gamma, beta, z: F.layer_norm(x, gamma, beta, axis=1) * F.silu(z),
    # ops on 0-d arrays return numpy scalars, which the memo must turn into arrays
    "__mul__-0d": lambda x, gamma, beta, z: F.silu(x[0, 0, 0, :1].reshape(())) * F.gelu(z[0, 0, 0, :1].reshape(())),
    "gelu": lambda x, gamma, beta, z: F.gelu(x),
    # PatchExpand's norm over the last axis, moved back to channels first
    "moveaxis": lambda x, gamma, beta, z: F.layer_norm(x.moveaxis(1, 3), gamma, beta, axis=-1).moveaxis(3, 1),
    "linear": lambda x, gamma, beta, z: F.linear(x, _weight(x, 7, 12), _weight(x, 7, seed=43)),
    "conv2d-1x1": lambda x, gamma, beta, z: F.conv2d(x, _weight(x, 7, 12, 1, 1), gamma[:7]),
    "conv2d-patch": lambda x, gamma, beta, z: F.conv2d(x.reshape(2, 12, 4, 10), _weight(x, 7, 12, 2, 2), stride=2),
    "depthwise_conv2d": lambda x, gamma, beta, z: F.depthwise_conv2d(x, _weight(x, 12, 1, 3, 3), beta, padding=1),
    "conv1d": lambda x, gamma, beta, z: F.conv1d(x.reshape(24, 1, 40), _weight(x, 1, 1, 5), gamma[:1]),
    "silu": lambda x, gamma, beta, z: F.silu(x),
    "softplus": lambda x, gamma, beta, z: F.softplus(F.linear(x, _weight(x, 7, 12), _weight(x, 7, seed=43))),
    "_negative_exp": lambda x, gamma, beta, z: _negative_exp(gamma),
    # pass-throughs of a norm's rebuild: the scan's gathers and slices
    "reshape": lambda x, gamma, beta, z: _norm(x, gamma, beta).reshape(2, 12, 40),
    "permute_last": lambda x, gamma, beta, z: F.permute_last(_norm(x, gamma, beta).reshape(2, 12, 40), _PERM, _INV),
    "__getitem__": lambda x, gamma, beta, z: _norm(x, gamma, beta)[:, 3:9],
}

# producer -> the channel GEMM that consumes its output in the model: a linear or a 1x1 conv
_CHAINS = {
    "layer_norm-linear": ("layer_norm", (7, 12), F.linear),
    "batch_norm-conv2d": ("batch_norm", (7, 12, 1, 1), F.conv2d),
    "__mul__-linear": ("__mul__", (7, 12), F.linear),
    "gelu-conv2d": ("gelu", (7, 12, 1, 1), F.conv2d),
    "moveaxis-conv2d": ("moveaxis", (7, 12, 1, 1), F.conv2d),
}


class TestRebuilds:
    """An op whose output is a cheap function of what its backward keeps gives a rebuild of
    it (``Tensor._with_rebuild``); a linear or 1x1 conv that consumes the output keeps the
    rebuild instead, and calls it in its backward for the weight grad."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", sorted(_PRODUCERS))
    def test_rebuild_is_the_output_bitwise(self, op, dtype):
        operands = _producer_operands(np.random.default_rng(45), dtype)
        y = _PRODUCERS[op](*(Tensor(v, requires_grad=True) for v in operands))
        rebuilt = y._rebuild()
        assert rebuilt.dtype == y.data.dtype == dtype and not np.shares_memory(rebuilt, y.data)
        np.testing.assert_array_equal(_bits(rebuilt), _bits(y.data))
        with no_grad():  # no graph node, so nothing to attach a rebuild to
            assert _PRODUCERS[op](*(Tensor(v) for v in operands))._rebuild is None

    def test_product_has_no_rebuild_unless_both_factors_have_one(self):
        rng = np.random.default_rng(51)
        x, z = (Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(2))
        w = Parameter(rng.normal(size=(2, 3)))
        rebuilt = F.silu(x)
        for y in (rebuilt * w, w * rebuilt, rebuilt * 2.0, rebuilt * F.sigmoid(z), x * z):
            assert y.requires_grad and y._rebuild is None
        assert (rebuilt * F.silu(z))._rebuild is not None

    @pytest.mark.parametrize("chain", sorted(_CHAINS))
    def test_consumer_keeps_the_rebuild_not_the_output(self, chain):
        # the same chain with the producer's rebuild taken away keeps the output itself:
        # every result is bitwise the same, and only that graph holds the output
        producer, wshape, consumer = _CHAINS[chain]
        operands = _producer_operands(np.random.default_rng(46), np.float32)
        weight = np.random.default_rng(47).normal(size=wshape).astype(np.float32)
        runs = []
        for keep in (False, True):
            ts = [Tensor(v, requires_grad=True) for v in operands + [weight]]
            h = _PRODUCERS[producer](*ts[:4])
            if keep:
                h._node.rebuild = None
            y = consumer(h, ts[4])
            held = any(np.shares_memory(a, h.data) for a in graph_arrays(y))
            (y * Tensor(np.linspace(-1.0, 1.0, y.size, dtype=np.float32).reshape(y.shape))).sum().backward()
            runs.append((held, y.data, [t.grad for t in ts]))
        (held_rebuilt, y_rebuilt, grads_rebuilt), (held_kept, y_kept, grads_kept) = runs
        assert not held_rebuilt and held_kept
        np.testing.assert_array_equal(_bits(y_rebuilt), _bits(y_kept))
        for name, got, want in zip(("x", "gamma", "beta", "gate", "weight"), grads_rebuilt, grads_kept):
            if want is None:  # the gate of a producer that does not read it
                assert got is None, name
            else:
                np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=name)

    @pytest.mark.filterwarnings("ignore:adamw. parameter . has no gradient")  # the operands a producer does not read
    @pytest.mark.parametrize("chain", sorted(_CHAINS))
    def test_in_sweep_update_equals_update_after_the_sweep(self, chain):
        # AdamW.step(loss) updates each parameter as soon as its grad is final; the consumer's
        # backward rebuilds the producer's output from gamma, beta and x, so the sweep must
        # reach it before it hands those over
        producer, wshape, consumer = _CHAINS[chain]
        operands = _producer_operands(np.random.default_rng(48), np.float32)
        weight = np.random.default_rng(49).normal(size=wshape).astype(np.float32)
        states = []
        for in_sweep in (True, False):
            params = [Parameter(v.copy()) for v in operands + [weight]]
            opt = AdamW(params, lr=0.1, weight_decay=0.1)
            for _ in range(3):
                loss = (consumer(_PRODUCERS[producer](*params[:4]), params[4]) ** 2).mean()
                if in_sweep:
                    opt.step(loss)
                else:
                    loss.backward()
                    opt.step()
                    for p in params:
                        p.grad = None
            states.append([p.data for p in params])
        for got, want in zip(*states):
            np.testing.assert_array_equal(_bits(got), _bits(want))


def _chain_params(rng, *shapes):
    return [Parameter(rng.normal(size=s).astype(np.float32)) for s in shapes]


# producer chains of the model whose intermediate outputs all leave the graph: the cross-scan
# front and gate (``CrossScanModule``), and the FFN (``EFFN``); each maps its parameters to
# the chain's output and the intermediate outputs
def _front(x, w1, wd, bd, w2):
    h = [F.linear(x, w1)]
    h.append(F.depthwise_conv2d(h[-1], wd, bd, padding=1))
    h.append(F.silu(h[-1]))
    return F.linear(h[-1], w2), h


def _gate(x, w1, wg, gamma, beta, w2):
    h = [F.linear(x, wg)]  # the norm's input is not kept either way: its backward reads xhat
    h.append(F.silu(h[0]))
    h.append(F.layer_norm(F.linear(x, w1), gamma, beta, axis=1))
    h.append(h[-1] * h[1])
    return F.linear(h[-1], w2), h


def _ffn(x, w1, b1, wd, w2, b2):
    h = [F.conv2d(x, w1, b1)]
    h.append(F.depthwise_conv2d(h[-1], wd, padding=1))
    h.append(F.gelu(h[-1]))
    return F.conv2d(h[-1], w2, b2), h


_REBUILT_CHAINS = {
    "linear-depthwise-silu-linear": (_front, [(2, 12, 5, 8), (10, 12), (10, 1, 3, 3), (10,), (7, 10)]),
    "linear-layer_norm-silu-mul-linear": (_gate, [(2, 12, 5, 8), (10, 12), (10, 12), (10,), (10,), (7, 10)]),
    "conv2d-depthwise-gelu-conv2d": (_ffn, [(2, 12, 5, 8), (10, 12, 1, 1), (10,), (10, 1, 3, 3), (7, 10, 1, 1), (7,)]),
}


def _counted(node, calls: list):
    """Replace ``node``'s rebuild by one that appends a weakref to each array it computes to ``calls``."""
    rebuild = node.rebuild

    def counting():
        out = rebuild()
        calls.append(weakref.ref(out))
        return out

    node.rebuild = counting


class TestRebuildMemo:
    """A rebuild runs once per sweep: its array is kept, read-only, on the producer's node
    from the first consumer's call until the producer pops (``Tensor._with_rebuild``)."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_k_consumers_compute_the_rebuild_once(self, k):
        # a linear, a depthwise conv, a silu and a gelu each keep the linear output's rebuild
        x, w, w2, wd = _chain_params(np.random.default_rng(60), (2, 12, 5, 8), (10, 12), (7, 10), (10, 1, 3, 3))
        h = F.linear(x, w)
        calls = []
        _counted(h._node, calls)
        consumers = [lambda: F.linear(h, w2), lambda: F.depthwise_conv2d(h, wd, padding=1), lambda: F.silu(h),
                     lambda: F.gelu(h)][:k]
        ys = [c() for c in consumers]
        assert not any(np.shares_memory(a, h.data) for y in ys for a in graph_arrays(y))
        sum(((y * y).sum() for y in ys), Tensor(np.float32(0.0))).backward()
        assert len(calls) == 1

    def test_norm_with_two_dense_consumers_is_computed_once(self, monkeypatch):
        # CrossScanModule's input norm feeds main_proj and gate_proj: one computation per sweep
        from cvmhunet.blocks import CrossScanModule
        from cvmhunet.network import NetworkConfig

        calls, norms = [], []
        with_rebuild = Tensor._with_rebuild

        def recorded(self, rebuild):
            # the forward's first norm is the input norm; the output norm comes after the scan
            if sys._getframe(1).f_code.co_name == "_normalize" and not norms:
                norms.append(self)
                def counting():
                    calls.append(1)
                    return rebuild()
                return with_rebuild(self, counting)
            return with_rebuild(self, rebuild)

        monkeypatch.setattr(Tensor, "_with_rebuild", recorded)
        m = CrossScanModule(8, NetworkConfig(embed_dim=8, state_dim=4), np.random.default_rng(61))
        m.out_proj.weight.data[...] = 0.1  # a live output projection, so grads reach the norm
        x = Tensor(np.random.default_rng(62).normal(size=(1, 8, 4, 4)).astype(np.float32), requires_grad=True)
        (m(x) ** 2).sum().backward()
        assert calls == [1]

    def test_memo_is_released_when_the_producer_pops(self):
        x, w, w2, w3 = _chain_params(np.random.default_rng(63), (2, 12, 5, 8), (10, 12), (7, 10), (6, 10))
        h = F.linear(x, w)
        calls, alive = [], []
        _counted(h._node, calls)
        backward = h._node.backward
        h._node.backward = lambda g: (alive.append(calls[0]() is not None), backward(g))[1]
        y = F.linear(h, w2).sum() + F.linear(h, w3).sum()
        del h
        y.backward()
        assert len(calls) == 1 and alive == [False] and calls[0]() is None

    def test_memoized_array_is_read_only(self):
        x, w = _chain_params(np.random.default_rng(64), (2, 12, 5, 8), (10, 12))
        h = F.linear(x, w)
        rebuilt = h._rebuild()
        assert h._rebuild() is rebuilt and not rebuilt.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rebuilt += 1.0
        np.testing.assert_array_equal(rebuilt, h.data)

    def test_0d_rebuild_is_memoized_as_an_array(self):
        # an op on 0-d arrays returns a numpy scalar, whose flags cannot be made read-only
        x = Tensor(np.array(0.3), requires_grad=True)
        F.silu(F.gelu(x)).backward()
        assert x.grad is not None and np.isfinite(x.grad)

    @pytest.mark.parametrize("chain", sorted(_REBUILT_CHAINS))
    def test_chain_keeps_no_intermediate_and_equals_keeping_them(self, chain, monkeypatch):
        # the same chain with every rebuild switched off keeps its intermediate outputs:
        # every result is bitwise the same, and only that graph holds them
        fn, shapes = _REBUILT_CHAINS[chain]
        runs = []
        for keep in (False, True):
            if keep:
                monkeypatch.setattr(Tensor, "_with_rebuild", lambda self, rebuild: self)
            params = _chain_params(np.random.default_rng(65), *shapes)
            y, hs = fn(*params)
            held = graph_arrays(y)
            kept = [any(np.shares_memory(a, h.data) for a in held) for h in hs]
            (y * Tensor(np.linspace(-1.0, 1.0, y.size, dtype=np.float32).reshape(y.shape))).sum().backward()
            runs.append((kept, y.data, [p.grad for p in params]))
        (kept_rebuilt, y_rebuilt, grads_rebuilt), (kept_kept, y_kept, grads_kept) = runs
        assert not any(kept_rebuilt) and all(kept_kept)
        np.testing.assert_array_equal(_bits(y_rebuilt), _bits(y_kept))
        for i, (got, want) in enumerate(zip(grads_rebuilt, grads_kept)):
            np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=f"parameter {i}")

    @pytest.mark.parametrize("chain", sorted(_REBUILT_CHAINS))
    def test_in_sweep_update_equals_update_after_the_sweep(self, chain):
        # each rebuild in the chain reads parameters the sweep hands over to AdamW: it must run
        # before their update, and its memo must not outlive it
        fn, shapes = _REBUILT_CHAINS[chain]
        states = []
        for in_sweep in (True, False):
            params = _chain_params(np.random.default_rng(66), *shapes)
            opt = AdamW(params, lr=0.1, weight_decay=0.1)
            for _ in range(3):
                loss = (fn(*params)[0] ** 2).mean()
                if in_sweep:
                    opt.step(loss)
                else:
                    loss.backward()
                    opt.step()
                    for p in params:
                        p.grad = None
            states.append([p.data for p in params])
        for got, want in zip(*states):
            np.testing.assert_array_equal(_bits(got), _bits(want))


class TestPools:
    """Global pooling of (N,C,H,W) maps the way ChannelAttention does it: ``Tensor.mean/max/min``."""

    def test_avg_pool(self):
        x = t(np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2))
        np.testing.assert_allclose(x.mean(axis=(2, 3)).data, [[1.5, 5.5]])

    def test_max_min_pool_values_and_ties(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0] = [[3.0, 3.0], [1.0, 0.0]]
        tx = t(x, rg=True)
        out = tx.reshape(1, 1, 4).max(axis=2)
        np.testing.assert_allclose(out.data, [[3.0]])
        out.sum().backward()
        np.testing.assert_array_equal(tx.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])
        tx2 = t(x, rg=True)
        tx2.reshape(1, 1, 4).min(axis=2).sum().backward()
        np.testing.assert_array_equal(tx2.grad[0, 0], [[0.0, 0.0], [0.0, 1.0]])


def _batch_cases() -> dict:
    """Each op of the eval forward, with fixed float32 parameters: name -> (input shape, op).
    Axis 0 of the input is the batch; for the frequency rows it is N * C rows of maps."""
    rng = np.random.default_rng(40)

    def p(*shape):
        return Tensor(rng.normal(size=shape).astype(np.float32))

    w, b = p(24, 32), p(24)
    rows = Tensor(rng.normal(size=(16, 64)).astype(np.float32))  # mfms frequency bases, (k, H * W)
    gamma, beta = 1.0 + 0.2 * p(32), 0.2 * p(32)
    stats = rng.uniform(0.5, 2.0, size=(2, 32)).astype(np.float32)
    patch, pw, spatial, dw, tap = p(32, 3, 4, 4), p(24, 32, 1, 1), p(1, 2, 7, 7), p(32, 1, 3, 3), p(1, 1, 5)
    return {
        "linear-map": ((4, 32, 6, 5), lambda x: F.linear(x, w, b)),
        "linear-sequence": ((4, 32, 40), lambda x: F.linear(x, w)),
        "linear-vectors": ((8, 32), lambda x: F.linear(x, w)),  # ChannelAttention's pooled (N, C)
        "linear-frequency-rows": ((4 * 32, 64), lambda x: F.linear(x, rows)),  # compress_frequencies
        "linear-softplus": ((4, 32, 40), lambda x: F.softplus(F.linear(x, w, b))),
        "conv2d-patch": ((2, 3, 16, 12), lambda x: F.conv2d(x, patch, beta, stride=4)),
        "conv2d-1x1": ((4, 32, 6, 5), lambda x: F.conv2d(x, pw, b)),
        "conv2d-7x7": ((4, 2, 9, 8), lambda x: F.conv2d(x, spatial, padding=3)),
        "depthwise_conv2d": ((4, 32, 6, 5), lambda x: F.depthwise_conv2d(x, dw, gamma, padding=1)),
        "conv1d": ((8, 1, 32), lambda x: F.conv1d(x, tap)),
        "layer_norm-channels": ((4, 32, 6, 5), lambda x: F.layer_norm(x, gamma, beta, axis=1)),
        "layer_norm-last": ((4, 6, 5, 32), lambda x: F.layer_norm(x, gamma, beta, axis=-1)),
        "layer_norm-silu-gated": ((4, 32, 6, 5), lambda x: F.layer_norm(x, gamma, beta, axis=1) * F.silu(x * 0.5)),
        "batch_norm-eval": ((4, 32, 6, 5), lambda x: F.batch_norm(x, gamma, beta, stats[0], stats[1], training=False)),
        "relu": ((4, 32, 6), F.relu),
        "sigmoid": ((4, 32, 6), F.sigmoid),
        "silu": ((4, 32, 6), F.silu),
        "gelu": ((4, 32, 6), F.gelu),
        "softplus": ((4, 32, 6), F.softplus),
    }


class TestBatchInvariance:
    """A sample's output never depends on the rest of its batch, bitwise, so eval and
    predict give the same logits at any ``--batch-size``."""

    CASES = _batch_cases()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_each_sample_equals_its_own_forward(self, name):
        shape, op = self.CASES[name]
        x = np.random.default_rng(41).normal(size=shape).astype(np.float32)
        with no_grad():
            whole = op(Tensor(x)).data
            for i in range(shape[0]):
                np.testing.assert_array_equal(op(Tensor(x[i : i + 1])).data, whole[i : i + 1], err_msg=f"sample {i}")
