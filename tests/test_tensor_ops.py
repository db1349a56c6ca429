"""Core tensor engine: forward values vs numpy, gradient plumbing semantics."""

import numpy as np
import pytest

from cvmhunet.tensor import Parameter, Tensor, cat, is_grad_enabled, no_grad


def t(data, rg=True, dtype=np.float64):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=rg)


class TestForwardValues:
    def test_arithmetic_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4)) + 3.0
        ta, tb = t(a), t(b)
        np.testing.assert_allclose((ta + tb).data, a + b)
        np.testing.assert_allclose((ta - tb).data, a - b)
        np.testing.assert_allclose((ta * tb).data, a * b)
        np.testing.assert_allclose((ta / tb).data, a / b)
        np.testing.assert_allclose((-ta).data, -a)
        np.testing.assert_allclose((ta**2).data, a**2)
        np.testing.assert_allclose((2.0 * ta + 1.0).data, 2 * a + 1)

    def test_transcendental_matches_numpy(self):
        x = np.linspace(-3, 3, 13)
        tx = t(x)
        np.testing.assert_allclose(tx.exp().data, np.exp(x))
        np.testing.assert_allclose(tx.tanh().data, np.tanh(x))
        np.testing.assert_allclose(tx.sigmoid().data, 1 / (1 + np.exp(-x)), atol=1e-12)
        np.testing.assert_allclose(tx.softplus().data, np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0), atol=1e-12)
        np.testing.assert_allclose(t(np.abs(x) + 1).log().data, np.log(np.abs(x) + 1))
        np.testing.assert_allclose(t(np.abs(x) + 1).sqrt().data, np.sqrt(np.abs(x) + 1))

    def test_sigmoid_is_stable_at_extremes(self):
        x = t([-500.0, 500.0])
        s = x.sigmoid()
        assert np.all(np.isfinite(s.data))
        np.testing.assert_allclose(s.data, [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bitwise_equals_branchwise_form(self, dtype):
        # reference: the stable logistic written per branch, each with its own exp(-|x|)
        x = (np.random.default_rng(3).normal(size=4096) * 30).astype(dtype)
        x[:6] = [-1000.0, -500.0, -0.0, 0.0, 500.0, 1000.0]
        want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        got = Tensor(x).sigmoid().data
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    def test_softplus_is_stable_at_extremes(self):
        x = t([-500.0, 500.0])
        s = x.softplus()
        assert np.all(np.isfinite(s.data))
        np.testing.assert_allclose(s.data, [0.0, 500.0], atol=1e-12)

    def test_softplus_float64_matches_logaddexp(self):
        x = np.concatenate([np.linspace(-60.0, 60.0, 100_001), [-0.0, 0.0, 1e-300, -1e-300]])
        got = t(x).softplus().data
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, np.logaddexp(0.0, x), rtol=5e-16, atol=0)

    def test_reductions(self):
        x = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        tx = t(x)
        np.testing.assert_allclose(tx.sum().data, x.sum())
        np.testing.assert_allclose(tx.sum(axis=1).data, x.sum(1))
        np.testing.assert_allclose(tx.mean(axis=(0, 2), keepdims=True).data, x.mean((0, 2), keepdims=True))
        np.testing.assert_allclose(tx.max(axis=2).data, x.max(2))
        np.testing.assert_allclose(tx.min(axis=1, keepdims=True).data, x.min(1, keepdims=True))

    def test_shape_ops(self):
        x = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        tx = t(x)
        np.testing.assert_array_equal(tx.reshape(6, 4).data, x.reshape(6, 4))
        np.testing.assert_array_equal(tx.transpose(2, 0, 1).data, x.transpose(2, 0, 1))
        np.testing.assert_array_equal(tx.moveaxis(0, 2).data, np.moveaxis(x, 0, 2))
        np.testing.assert_array_equal(tx[:, 1:3, ::2].data, x[:, 1:3, ::2])
        y = cat([tx, tx], axis=1)
        np.testing.assert_array_equal(y.data, np.concatenate([x, x], axis=1))


class TestGradientSemantics:
    def test_chain_and_broadcast(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        b = t([10.0, 20.0])  # broadcast over rows
        loss = ((a * b) + b).sum()
        loss.backward()
        np.testing.assert_allclose(a.grad, [[10.0, 20.0], [10.0, 20.0]])
        # d/db sum(a*b + b) = sum_rows(a) + rows
        np.testing.assert_allclose(b.grad, [1 + 3 + 2, 2 + 4 + 2])

    def test_value_reused_twice_accumulates(self):
        x = t(3.0)
        y = x * x + x
        y.backward()
        np.testing.assert_allclose(x.grad, 2 * 3.0 + 1.0)

    def test_grad_none_until_backward(self):
        x = t([1.0, 2.0])
        y = (x * 2).sum()
        assert x.grad is None
        y.backward()
        assert x.grad is not None

    def test_repeated_backward_accumulates(self):
        x = t(2.0)
        (x * x).sum().backward()
        g1 = x.grad.copy()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * g1)

    def test_no_grad_blocks_graph(self):
        x = t([1.0, 2.0])
        with no_grad():
            assert not is_grad_enabled()
            y = (x * 3).sum()
        assert not y.requires_grad
        with pytest.raises(RuntimeError):
            y.backward()
        assert x.grad is None

    def test_detach_cuts_graph(self):
        x = t([1.0, 2.0])
        y = (x * 2).detach()
        loss = (y * x).sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, y.data)

    def test_deep_graph_no_recursion_limit(self):
        x = t(1.0)
        y = x
        for _ in range(5000):
            y = y * 1.0001
        y.backward()
        assert x.grad is not None and np.isfinite(x.grad)

    def test_extremum_tie_routes_to_first(self):
        x = t([[1.0, 5.0, 5.0, 0.0]])
        x.max(axis=1).sum().backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0, 0.0]])
        x2 = t([[2.0, 1.0, 1.0, 3.0]])
        x2.min(axis=1).sum().backward()
        np.testing.assert_array_equal(x2.grad, [[0.0, 1.0, 0.0, 0.0]])

    def test_getitem_scatter(self):
        x = t(np.arange(6, dtype=np.float64).reshape(2, 3))
        y = x[:, 1]
        (y * 2).sum().backward()
        np.testing.assert_array_equal(x.grad, [[0, 2, 0], [0, 2, 0]])

    def test_cat_splits_gradient(self):
        a = t(np.ones((2, 2)))
        b = t(np.ones((2, 3)))
        y = cat([a, b], axis=1)
        (y * np.arange(10, dtype=np.float64).reshape(2, 5)).sum().backward()
        np.testing.assert_array_equal(a.grad, [[0, 1], [5, 6]])
        np.testing.assert_array_equal(b.grad, [[2, 3, 4], [7, 8, 9]])


class TestDtypePolicy:
    def test_default_is_float32(self):
        x = Tensor([1.0, 2.0])
        assert x.data.dtype == np.float32

    def test_ndarray_dtype_preserved(self):
        x = Tensor(np.zeros(3, dtype=np.float64))
        assert x.data.dtype == np.float64

    def test_float32_pipeline_stays_float32(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        y = ((x * 2).exp().sigmoid()).sum()
        assert y.data.dtype == np.float32
        y.backward()
        assert x.grad.dtype == np.float32

    def test_requires_grad_rejects_int(self):
        with pytest.raises(TypeError):
            Tensor(np.array([1, 2, 3]), requires_grad=True)

    def test_zero_dim_arrays_stay_zero_dim(self):
        assert Tensor(np.float32(2.5)).shape == ()
        assert Tensor(np.asarray(2.5)).shape == ()

    def test_full_reductions_are_scalars(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        assert x.sum().shape == ()
        assert x.mean().shape == ()


class TestParameter:
    def test_parameter_flags(self):
        p = Parameter(np.zeros(3), weight_decay_exempt=True)
        assert p.requires_grad and p.weight_decay_exempt
        p.grad = np.ones(3)
        p.zero_grad()
        assert p.grad is None
