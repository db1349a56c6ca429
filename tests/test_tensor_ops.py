"""Core tensor engine: forward values vs numpy, gradient plumbing semantics."""

import tracemalloc

import numpy as np
import pytest

import cvmhunet.functional as F
from cvmhunet import optim
from cvmhunet.optim import AdamW
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
        np.testing.assert_allclose(F.sigmoid(tx).data, 1 / (1 + np.exp(-x)), atol=1e-12)
        np.testing.assert_allclose(F.softplus(tx).data, np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0), atol=1e-12)

    def test_sigmoid_is_stable_at_extremes(self):
        x = t([-500.0, 500.0])
        s = F.sigmoid(x)
        assert np.all(np.isfinite(s.data))
        np.testing.assert_allclose(s.data, [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bitwise_equals_branchwise_form(self, dtype):
        # reference: the stable logistic written per branch, each with its own exp(-|x|)
        x = (np.random.default_rng(3).normal(size=4096) * 30).astype(dtype)
        x[:6] = [-1000.0, -500.0, -0.0, 0.0, 500.0, 1000.0]
        want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        got = F.sigmoid(Tensor(x)).data
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    def test_softplus_is_stable_at_extremes(self):
        x = t([-500.0, 500.0])
        s = F.softplus(x)
        assert np.all(np.isfinite(s.data))
        np.testing.assert_allclose(s.data, [0.0, 500.0], atol=1e-12)

    def test_softplus_float64_matches_logaddexp(self):
        x = np.concatenate([np.linspace(-60.0, 60.0, 100_001), [-0.0, 0.0, 1e-300, -1e-300]])
        got = F.softplus(t(x)).data
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

    DEEP_CHAINS = {
        "mul": lambda y: y * 1.0001,
        # each rebuild calls its input's rebuild: the chain is cut every MAX_REBUILD_CHAIN links
        "silu": F.silu,
        "linear": lambda y: F.linear(y, Tensor(np.eye(2))),
        "rebuilt-product": lambda y: y * F.silu(y),
    }

    @pytest.mark.parametrize("op", sorted(DEEP_CHAINS))
    def test_deep_graph_no_recursion_limit(self, op):
        x = t([[0.5, 1.0]])
        y = F.silu(x)  # a first factor with a rebuild
        for _ in range(5000):
            y = self.DEEP_CHAINS[op](y)
        y.sum().backward()
        assert x.grad is not None and np.all(np.isfinite(x.grad))

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


class TestOnLeaf:
    """``backward(on_leaf=...)`` hands over each leaf once, when its grad is final."""

    @staticmethod
    def record(calls):
        def on_leaf(leaf):
            calls.append((leaf, None if leaf.grad is None else leaf.grad.copy()))

        return on_leaf

    def test_leaf_used_three_ways_is_called_once_with_its_whole_grad(self):
        x = t([1.0, 2.0, 3.0])
        w = t([[0.5], [2.0]])
        # directly, through a view and through a broadcast add
        loss = (x * 3.0).sum() + (x[1:] * 5.0).sum() + ((x + w) * 7.0).sum()
        calls = []
        loss.backward(on_leaf=self.record(calls))
        assert sorted(id(leaf) for leaf, _ in calls) == sorted([id(x), id(w)])
        grads = {id(leaf): g for leaf, g in calls}
        np.testing.assert_array_equal(grads[id(x)], [3.0 + 14.0, 3.0 + 5.0 + 14.0, 3.0 + 5.0 + 14.0])
        np.testing.assert_array_equal(grads[id(w)], [[21.0], [21.0]])
        np.testing.assert_array_equal(grads[id(x)], x.grad)

    def test_leaf_whose_consumer_returns_none_is_called_without_grad(self):
        x, y = t([1.0, 2.0]), t([3.0, 4.0])
        z = Tensor.from_op(x.data + y.data, (x, y), lambda g: (g, None))
        calls = []
        z.sum().backward(on_leaf=self.record(calls))
        assert sorted(id(leaf) for leaf, _ in calls) == sorted([id(x), id(y)])
        assert {id(leaf): g for leaf, g in calls}[id(y)] is None and y.grad is None

    def test_loss_that_is_a_leaf_is_called_with_the_seed(self):
        x = t(2.0)
        calls = []
        x.backward(on_leaf=self.record(calls))
        assert len(calls) == 1 and calls[0][0] is x
        np.testing.assert_array_equal(calls[0][1], 1.0)

    def test_unreachable_leaf_is_never_called(self):
        x, unused = t([1.0, 2.0]), t([5.0])
        _ = unused * 2.0  # in a graph of its own, which the loss does not reach
        calls = []
        (x * x).sum().backward(on_leaf=self.record(calls))
        assert len(calls) == 1 and calls[0][0] is x
        np.testing.assert_array_equal(calls[0][1], [2.0, 4.0])


class TestSavedMemory:
    """The graph keeps only what backward reads, and the sweep frees it as it goes."""

    N = 1 << 20  # float32 elements: 4 MB per array

    def test_add_chain_keeps_no_intermediates(self):
        x = Tensor(np.ones(self.N, dtype=np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            h = x
            for _ in range(8):
                h = h + x  # add's backward reads only shapes
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2 * x.data.nbytes, f"{held / x.data.nbytes:.1f} arrays held after the forward"
        h.sum().backward()
        np.testing.assert_array_equal(x.grad, np.full(self.N, 9.0, dtype=np.float32))

    def test_backward_frees_activations_as_it_goes(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=self.N).astype(np.float32))
        ws = [Parameter(rng.normal(size=self.N).astype(np.float32)) for _ in range(8)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            h = x
            for w in ws:
                h = h * w
            loss = h.sum()
            activations = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # eight parameter grads arrive while the activations they were computed from go
        assert activations >= 8 * x.data.nbytes
        assert peak < 1.5 * activations, f"backward peak {peak / activations:.2f}x the activations"
        prod = np.prod([w.data for w in ws], axis=0)
        np.testing.assert_allclose(ws[0].grad, x.data * prod / ws[0].data, rtol=1e-5)


    def test_step_with_loss_frees_each_grad_at_its_update(self):
        # h - w reads nothing in backward, so the graph holds no activations: above it
        # the step holds AdamW's two scratch buffers (each one float32 slice of a weight),
        # the grad passed down the chain and the weights' grads
        def run(fused):
            rng = np.random.default_rng(0)
            x = Tensor(rng.normal(size=self.N).astype(np.float32))
            ws = [Parameter(rng.normal(size=self.N).astype(np.float32)) for _ in range(8)]
            opt = AdamW(ws, lr=1e-3)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                h = x
                for w in ws:
                    h = h - w
                loss = h.sum()
                del h
                graph = tracemalloc.get_traced_memory()[0] - before
                tracemalloc.reset_peak()
                if fused:
                    opt.step(loss)
                else:
                    loss.backward()
                    opt.step()
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            return (peak - graph - 2 * optim.SLICE * 4) / x.data.nbytes, [w.data for w in ws]

        held, fused = run(True)
        held_separately, separate = run(False)
        # the chain's grad and at most about 1.5 weights' grads, against all eight
        assert held <= 2.5, f"{held:.2f} weights' worth of grads held at once"
        assert held_separately >= 7.5, f"{held_separately:.2f} weights' worth of grads held at once"
        for a, b in zip(fused, separate):
            np.testing.assert_array_equal(a, b)


class TestGraphHooks:
    """What a profiler outside the package relies on: a settable closure and a wrappable ``from_op``."""

    def test_replaced_backward_is_called(self):
        x = t([1.0, 2.0])
        y = x * 3.0
        original, calls = y._backward, []

        def wrapped(g):
            calls.append(g.shape)
            return original(g)

        y._backward = wrapped
        assert y._backward is wrapped
        y.sum().backward()
        assert calls == [(2,)]
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_from_op_can_be_wrapped_by_name(self):
        original, made = Tensor.__dict__["from_op"], []

        def counting(data, parents, backward):
            made.append(data.shape)
            return original.__func__(data, parents, backward)

        Tensor.from_op = staticmethod(counting)
        try:
            x = t([1.0, 2.0])
            loss = (x * x + x).sum()
        finally:
            Tensor.from_op = original
        assert made == [(2,), (2,), ()]
        loss.backward()
        np.testing.assert_array_equal(x.grad, [3.0, 5.0])

    def test_leaves_and_grad_free_results_have_no_closure(self):
        x = t([1.0])
        assert x._backward is None
        with no_grad():
            assert (x * 2)._backward is None
        assert (t([1.0], rg=False) * 2)._backward is None


class TestDtypePolicy:
    def test_default_is_float32(self):
        x = Tensor([1.0, 2.0])
        assert x.data.dtype == np.float32

    def test_ndarray_dtype_preserved(self):
        x = Tensor(np.zeros(3, dtype=np.float64))
        assert x.data.dtype == np.float64

    def test_float32_pipeline_stays_float32(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        y = F.sigmoid((x * 2).exp()).sum()
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
