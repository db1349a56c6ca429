"""Finite-difference verification of every primitive op's backward pass."""

import numpy as np
import pytest

import cvmhunet.functional as F
from cvmhunet.tensor import Tensor, cat

from gradcheck import DEFAULT_TOL, check_gradients

SEEDS = [0, 1, 2, 3, 4]


def leaf(rng, shape, scale=1.0, shift=0.0):
    return Tensor(rng.normal(size=shape) * scale + shift, requires_grad=True)


def weighted_sum(y: Tensor, rng) -> Tensor:
    w = Tensor(rng.normal(size=y.shape))
    return (y * w).sum()


@pytest.mark.parametrize("seed", SEEDS)
def test_elementwise_ops(seed):
    rng = np.random.default_rng(seed)
    a = leaf(rng, (3, 4))
    b = leaf(rng, (3, 4), shift=4.0)
    c = leaf(rng, (4,))  # broadcast operand
    w = Tensor(rng.normal(size=(3, 4)))

    def f():
        y = (a * b + c) / b - (a - c) * 2.0 + a**3
        y = F.sigmoid(y.exp()) + F.softplus(a)
        return (y * w).sum()

    res = check_gradients(f, [a, b, c])
    assert res.rel_error < DEFAULT_TOL, res


@pytest.mark.parametrize("seed", SEEDS)
def test_reductions_and_shapes(seed):
    rng = np.random.default_rng(seed)
    a = leaf(rng, (2, 3, 4))

    def f():
        y = a.sum(axis=2) + a.mean(axis=(0, 2))
        z = a.reshape(6, 4).transpose(1, 0).moveaxis(0, 1)
        return weighted_sum(y, np.random.default_rng(seed + 100)) + (z * z).sum() + a[:, 1:, ::2].sum()

    res = check_gradients(f, [a])
    assert res.rel_error < DEFAULT_TOL, res


@pytest.mark.parametrize("seed", SEEDS)
def test_extrema_and_cat(seed):
    rng = np.random.default_rng(seed)
    a = leaf(rng, (3, 5))
    b = leaf(rng, (3, 2))

    def f():
        y = cat([a.max(axis=1, keepdims=True), a.min(axis=1, keepdims=True), b], axis=1)
        return weighted_sum(y, np.random.default_rng(seed + 7))

    res = check_gradients(f, [a, b])
    assert res.rel_error < DEFAULT_TOL, res


@pytest.mark.parametrize("seed", SEEDS)
def test_linear(seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, (2, 6, 3))
    w = leaf(rng, (4, 6))
    b = leaf(rng, (4,))
    x_map = leaf(rng, (2, 6, 3, 2))  # (N, C, H, W): the channel axis is contracted

    for inp in (x, x_map):

        def f():
            return weighted_sum(F.linear(inp, w, b), np.random.default_rng(seed))

        res = check_gradients(f, [inp, w, b])
        assert res.rel_error < DEFAULT_TOL, res


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stride,padding", [(1, 1), (1, 3), (4, 0)])
def test_conv2d(seed, stride, padding):
    rng = np.random.default_rng(seed)
    kh = stride if stride > 1 else 2 * padding + 1  # patches, or a same-padded 3x3 / 7x7
    x = leaf(rng, (2, 3, 8, 8))
    w = leaf(rng, (4, 3, kh, kh), scale=0.5)
    b = leaf(rng, (4,))

    def f():
        return weighted_sum(F.conv2d(x, w, b, stride=stride, padding=padding), np.random.default_rng(seed))

    res = check_gradients(f, [x, w, b])
    assert res.rel_error < DEFAULT_TOL, res


@pytest.mark.parametrize("seed", SEEDS)
def test_conv1x1_fast_path(seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, (2, 5, 4, 4))
    w = leaf(rng, (3, 5, 1, 1))

    def f():
        return weighted_sum(F.conv2d(x, w), np.random.default_rng(seed))

    res = check_gradients(f, [x, w])
    assert res.rel_error < DEFAULT_TOL, res


@pytest.mark.parametrize("seed", SEEDS)
def test_depthwise_conv2d(seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, (2, 4, 6, 6))
    w = leaf(rng, (4, 1, 3, 3), scale=0.5)
    b = leaf(rng, (4,))

    def f():
        return weighted_sum(F.depthwise_conv2d(x, w, b, padding=1), np.random.default_rng(seed))

    res = check_gradients(f, [x, w, b])
    assert res.rel_error < DEFAULT_TOL, res


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv1d(seed, k):
    rng = np.random.default_rng(seed)
    x = leaf(rng, (2, 1, 9))
    w = leaf(rng, (1, 1, k))
    b = leaf(rng, (1,))

    def f():
        return weighted_sum(F.conv1d(x, w, b), np.random.default_rng(seed))

    res = check_gradients(f, [x, w, b])
    assert res.rel_error < DEFAULT_TOL, res


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("axis", [-1, 1])
def test_layer_norm(seed, axis):
    rng = np.random.default_rng(seed)
    x = leaf(rng, (2, 4, 3, 3))
    g = leaf(rng, (4 if axis == 1 else 3,), shift=1.0)
    b = leaf(rng, (4 if axis == 1 else 3,))

    def f():
        return weighted_sum(F.layer_norm(x, g, b, axis=axis), np.random.default_rng(seed))

    res = check_gradients(f, [x, g, b])
    assert res.rel_error < DEFAULT_TOL, res


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("training", [True, False])
def test_batch_norm(seed, training):
    rng = np.random.default_rng(seed)
    x = leaf(rng, (3, 4, 5, 5))
    g = leaf(rng, (4,), shift=1.0)
    b = leaf(rng, (4,))

    def f():
        rm = np.zeros(4)  # fresh buffers so repeated f() calls stay pure
        rv = np.ones(4)
        return weighted_sum(
            F.batch_norm(x, g, b, rm, rv, training=training), np.random.default_rng(seed)
        )

    res = check_gradients(f, [x, g, b])
    assert res.rel_error < DEFAULT_TOL, res


@pytest.mark.parametrize("seed", SEEDS)
def test_activations(seed):
    rng = np.random.default_rng(seed)
    # keep points away from relu's kink, where FD is legitimately wrong
    x = leaf(rng, (4, 7))
    x.data[np.abs(x.data) < 0.05] += 0.1

    def f():
        y = F.relu(x) + F.silu(x) + F.gelu(x) + F.sigmoid(x) + F.softplus(x)
        return weighted_sum(y, np.random.default_rng(seed))

    res = check_gradients(f, [x])
    assert res.rel_error < DEFAULT_TOL, res


@pytest.mark.parametrize("seed", SEEDS)
def test_log_softmax(seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, (3, 6), scale=3.0)

    def f():
        return weighted_sum(F.log_softmax(x, axis=1), np.random.default_rng(seed))

    res = check_gradients(f, [x])
    assert res.rel_error < DEFAULT_TOL, res


@pytest.mark.parametrize("seed", SEEDS)
def test_pools(seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, (2, 3, 4, 4))

    def f():
        flat = x.reshape(2, 3, 16)
        y = cat([x.mean(axis=(2, 3)), flat.max(axis=2), flat.min(axis=2)], axis=1)
        return weighted_sum(y, np.random.default_rng(seed))

    res = check_gradients(f, [x])
    assert res.rel_error < DEFAULT_TOL, res


@pytest.mark.parametrize("seed", SEEDS)
def test_permute_last(seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, (2, 3, 10))
    perm = np.random.default_rng(99).permutation(10)

    def f():
        return weighted_sum(F.permute_last(x, perm, np.argsort(perm)), np.random.default_rng(seed))

    res = check_gradients(f, [x])
    assert res.rel_error < DEFAULT_TOL, res


@pytest.mark.parametrize("seed", SEEDS)
def test_small_mlp_composite(seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, (4, 6))
    w1 = leaf(rng, (8, 6), scale=0.5)
    b1 = leaf(rng, (8,))
    w2 = leaf(rng, (3, 8), scale=0.5)
    b2 = leaf(rng, (3,))

    def f():
        h = F.gelu(F.linear(x, w1, b1))
        return weighted_sum(F.log_softmax(F.linear(h, w2, b2), axis=1), np.random.default_rng(seed))

    res = check_gradients(f, [x, w1, b1, w2, b2])
    assert res.rel_error < DEFAULT_TOL, res


@pytest.mark.parametrize("seed", SEEDS)
def test_fused_ops(seed):
    # the compositions that were hand-fused ops: softplus(linear(code)) on a (N, r, L) code
    # as the scan's dt projection uses it, and layer_norm(x) * silu(z) over the channel axis
    # of a map as the cross-scan output does; the softplus and the product keep their
    # inputs' rebuilds
    rng = np.random.default_rng(seed)
    code = leaf(rng, (2, 3, 7))
    w = leaf(rng, (5, 3), scale=0.5)
    b = leaf(rng, (5,))
    x = leaf(rng, (2, 4, 3, 3))
    g = leaf(rng, (4,), shift=1.0)
    beta = leaf(rng, (4,))
    z = leaf(rng, (2, 4, 3, 3), scale=2.0)

    def f():
        wsum = np.random.default_rng(seed)
        return (weighted_sum(F.softplus(F.linear(code, w, b)), wsum)
                + weighted_sum(F.layer_norm(x, g, beta, axis=1) * F.silu(z), wsum))

    res = check_gradients(f, [code, w, b, x, g, beta, z])
    assert res.rel_error < DEFAULT_TOL, res


def test_negative_control_detects_corrupted_backward():
    """A deliberately wrong backward must fail the check (guards the harness)."""
    rng = np.random.default_rng(0)
    x = leaf(rng, (3, 3))

    def broken_double(t: Tensor) -> Tensor:
        return Tensor.from_op(t.data * 2.0, (t,), lambda g: (g * 3.0,))  # wrong factor

    def f():
        return weighted_sum(broken_double(x), np.random.default_rng(0))

    res = check_gradients(f, [x])
    assert res.rel_error > DEFAULT_TOL


def test_sampled_coordinates_subset():
    rng = np.random.default_rng(0)
    x = leaf(rng, (20, 20))

    def f():
        return (x * x).sum()

    res = check_gradients(f, [x], max_coords_per_tensor=10)
    assert res.n_coords == 10
    assert res.rel_error < DEFAULT_TOL


def test_rejects_float32():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(TypeError):
        check_gradients(lambda: (x * x).sum(), [x])
