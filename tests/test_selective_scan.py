"""Selective-scan recurrence: hand traces, kernel-vs-sequential, gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvmhunet.gradcheck import DEFAULT_TOL, check_gradients
from cvmhunet.ssm import (
    DirectionalSSM,
    S6Direction,
    default_dt_rank,
    first_order_scan,
    selective_scan,
    sequential_scan,
)
from cvmhunet.tensor import Tensor, no_grad


class TestHandTraces:
    def test_scalar_scan_decay_half(self):
        a = np.array([0.5, 0.5, 0.5], dtype=np.float64)
        b = np.array([1.0, 2.0, 3.0], dtype=np.float64)
        expected = [1.0, 2.5, 4.25]  # h = a*h + b from h=0
        np.testing.assert_allclose(sequential_scan(a, b), expected, atol=1e-12)
        for block in (1, 2, 3):
            np.testing.assert_allclose(first_order_scan(a, b, block), expected, atol=1e-12)

    def test_scalar_scan_growth(self):
        a = np.array([2.0, 3.0, 4.0], dtype=np.float64)
        b = np.array([1.0, 1.0, 1.0], dtype=np.float64)
        expected = [1.0, 4.0, 17.0]
        np.testing.assert_allclose(first_order_scan(a, b, 2), expected, atol=1e-12)

    def test_selective_scan_scalar_trace(self):
        # dt = ln 2, A = -1  => propagator exp(-ln 2) = 1/2
        # B = 1/ln 2         => injection dt*B*u = u
        # so h = [1, 2.5, 4.25] for u = [1, 2, 3]; y = C*h + D*u with C=1, D=2
        ln2 = np.log(2.0)
        u = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
        dt = Tensor(np.full((1, 1, 3), ln2))
        a = Tensor(np.array([[-1.0]]))
        b = Tensor(np.full((1, 1, 3), 1.0 / ln2))
        c = Tensor(np.ones((1, 1, 3)))
        d = Tensor(np.array([2.0]))
        y = selective_scan(u, dt, a, b, c, d)
        np.testing.assert_allclose(y.data, [[[3.0, 6.5, 10.25]]], atol=1e-12)

    def test_selective_scan_multistate_sums_states(self):
        # two identical states must double the readout relative to one
        u = Tensor(np.random.default_rng(0).normal(size=(1, 2, 5)))
        dt = Tensor(np.full((1, 2, 5), 0.3))
        a1 = Tensor(np.full((2, 1), -1.0))
        a2 = Tensor(np.full((2, 2), -1.0))
        b1, c1 = Tensor(np.ones((1, 1, 5))), Tensor(np.ones((1, 1, 5)))
        b2, c2 = Tensor(np.ones((1, 2, 5))), Tensor(np.ones((1, 2, 5)))
        d = Tensor(np.zeros(2))
        y1 = selective_scan(u, dt, a1, b1, c1, d)
        y2 = selective_scan(u, dt, a2, b2, c2, d)
        np.testing.assert_allclose(y2.data, 2 * y1.data, atol=1e-12)


class TestBlockedEqualsSequential:
    def test_hundred_random_instances_float32(self):
        rng = np.random.default_rng(2024)
        for i in range(100):
            lead = tuple(rng.integers(1, 4, size=rng.integers(0, 3)))
            length = int(rng.integers(1, 97))
            a = np.exp(-np.abs(rng.normal(size=lead + (length,)))).astype(np.float32)
            b = rng.normal(size=lead + (length,)).astype(np.float32)
            ref = sequential_scan(a, b)
            for block in (1, 2, 3, 5, 8, 64, length):
                got = first_order_scan(a, b, block)
                np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5, err_msg=f"i={i} block={block}")

    def test_bitwise_identity_at_extreme_blocks(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            length = int(rng.integers(1, 80))
            a = np.exp(-np.abs(rng.normal(size=(3, length)))).astype(np.float32)
            b = rng.normal(size=(3, length)).astype(np.float32)
            ref = sequential_scan(a, b)
            np.testing.assert_array_equal(first_order_scan(a, b, 1), ref)
            np.testing.assert_array_equal(first_order_scan(a, b, length), ref)

    def test_block_larger_than_length_clamps(self):
        a = np.full((4,), 0.5)
        b = np.ones(4)
        np.testing.assert_array_equal(first_order_scan(a, b, 1000), sequential_scan(a, b))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="share a shape"):
            first_order_scan(np.ones(3), np.ones(4))
        with pytest.raises(ValueError, match="block size"):
            first_order_scan(np.ones(3), np.ones(3), block=0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**16), length=st.integers(1, 60), block=st.integers(1, 70))
    def test_agreement_property(self, seed, length, block):
        rng = np.random.default_rng(seed)
        a = np.exp(-np.abs(rng.normal(size=(2, length))))
        b = rng.normal(size=(2, length))
        np.testing.assert_allclose(first_order_scan(a, b, block), sequential_scan(a, b), atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**16), length=st.integers(1, 200))
    def test_contractive_scan_stays_bounded(self, seed, length):
        # with |a| <= 0.99 and |b| <= 1 the state can never exceed 1/(1-0.99)
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 0.99, size=(length,))
        b = rng.uniform(-1.0, 1.0, size=(length,))
        h = first_order_scan(a, b, 16)
        assert np.all(np.abs(h) <= 100.0 + 1e-9)


def _scan_operands(rng, n, d, s, length):
    """float32 ``selective_scan`` inputs with propagators in a realistic range."""
    return [
        rng.normal(size=(n, d, length)).astype(np.float32),
        np.exp(rng.normal(size=(n, d, length)) * 0.5 - 2.0).astype(np.float32),
        -np.exp(rng.normal(size=(d, s)) * 0.3).astype(np.float32),
        rng.normal(size=(n, s, length)).astype(np.float32),
        rng.normal(size=(n, s, length)).astype(np.float32),
        rng.normal(size=(d,)).astype(np.float32),
    ]


def _sequential_reference(u, delta, a, b, c, dskip):
    """float64 ``selective_scan`` output through ``sequential_scan``, last axis is time."""
    u, delta, a, b, c, dskip = (v.astype(np.float64) for v in (u, delta, a, b, c, dskip))
    abar = np.exp(delta[:, :, None, :] * a[None, :, :, None])
    bbar = (delta * u)[:, :, None, :] * b[:, None, :, :]
    h = sequential_scan(abar, bbar)
    return np.einsum("nsl,ndsl->ndl", c, h) + dskip[None, :, None] * u


class TestTimeMajorScan:
    @pytest.mark.parametrize("length", [1, 2, 63, 64, 65, 200])
    def test_float32_matches_float64_sequential(self, length):
        rng = np.random.default_rng(length)
        ops = _scan_operands(rng, 2, 5, 4, length)
        ref = _sequential_reference(*ops)
        scale = max(1.0, float(np.abs(ref).max()))
        for block in (1, 3, 5, 7, 10, 64, length + 5):  # most leave a short last chunk
            y = selective_scan(*(Tensor(v) for v in ops), block=block).data
            assert y.dtype == np.float32
            err = float(np.abs(y - ref).max()) / scale
            assert err <= 1e-5, f"L={length} block={block} rel err {err:.2e}"

    @pytest.mark.parametrize("length", [1, 13, 64])
    def test_no_grad_forward_bitwise_equals_grad_forward(self, length):
        ops = _scan_operands(np.random.default_rng(40 + length), 2, 3, 4, length)
        for block in (1, 7, length, length + 5):
            tracked = [Tensor(v, requires_grad=True) for v in ops]
            y_grad = selective_scan(*tracked, block=block)
            assert y_grad.requires_grad
            with no_grad():
                y_plain = selective_scan(*(Tensor(v, requires_grad=True) for v in ops), block=block)
            assert not y_plain.requires_grad
            np.testing.assert_array_equal(y_plain.data, y_grad.data, err_msg=f"block={block}")

    def test_repeated_calls_bitwise_equal(self):
        ops = _scan_operands(np.random.default_rng(8), 2, 6, 4, 90)
        w = np.random.default_rng(9).normal(size=(2, 6, 90)).astype(np.float32)
        runs = []
        for _ in range(2):
            tracked = [Tensor(v.copy(), requires_grad=True) for v in ops]
            y = selective_scan(*tracked, block=16)
            (y * Tensor(w)).sum().backward()
            runs.append([y.data] + [t.grad for t in tracked])
        for first, second in zip(*runs):
            np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("lead", [(2, 3), (2, 3, 4), (1, 2, 3, 2)])
    def test_first_order_scan_leading_shapes(self, lead):
        rng = np.random.default_rng(len(lead))
        length = 19
        a = rng.uniform(-1.0, 1.0, size=lead + (length,)).astype(np.float32)
        b = rng.normal(size=lead + (length,)).astype(np.float32)
        ref = sequential_scan(a, b)
        for block in (1, 4, length):
            got = first_order_scan(a, b, block)
            assert got.shape == a.shape and got.flags["C_CONTIGUOUS"]
            np.testing.assert_array_equal(got, ref)

    def test_first_order_scan_leaves_inputs_untouched(self):
        a = np.full(5, 0.5)
        b = np.arange(5.0)
        first_order_scan(a, b, 2)
        np.testing.assert_array_equal(b, np.arange(5.0))
        np.testing.assert_array_equal(a, np.full(5, 0.5))


class TestSelectiveScanGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_gradcheck_all_operands(self, seed):
        rng = np.random.default_rng(seed)
        n, d, s, length = 2, 3, 4, 7
        u = Tensor(rng.normal(size=(n, d, length)), requires_grad=True)
        dt = Tensor(np.exp(rng.normal(size=(n, d, length)) * 0.3 - 1.5), requires_grad=True)
        a = Tensor(-np.exp(rng.normal(size=(d, s)) * 0.3), requires_grad=True)
        b = Tensor(rng.normal(size=(n, s, length)), requires_grad=True)
        c = Tensor(rng.normal(size=(n, s, length)), requires_grad=True)
        dd = Tensor(rng.normal(size=(d,)), requires_grad=True)
        w = rng.normal(size=(n, d, length))

        def f():
            return (selective_scan(u, dt, a, b, c, dd, block=4) * Tensor(w)).sum()

        res = check_gradients(f, [u, dt, a, b, c, dd])
        assert res.rel_error < DEFAULT_TOL, res

    def test_gradient_independent_of_block_size(self):
        # blocks 1 and L bracket the chunking; 7 leaves a short last chunk and L + 5 clamps.
        # The states are rebuilt from each chunk's carry and the adjoint is chained across
        # chunk edges, so every per-step gradient is bitwise the same; dA and dD sum over
        # time in chunk order and only agree to rounding.
        rng = np.random.default_rng(9)
        n, d, s, length = 2, 3, 4, 12
        ops = [
            rng.normal(size=(n, d, length)),
            np.exp(rng.normal(size=(n, d, length)) * 0.3 - 1.5),
            -np.exp(rng.normal(size=(d, s)) * 0.3),
            rng.normal(size=(n, s, length)),
            rng.normal(size=(n, s, length)),
            rng.normal(size=(d,)),
        ]
        w = rng.normal(size=(n, d, length))
        grads = []
        for block in (1, 4, 7, length, length + 5):
            tracked = [Tensor(v.copy(), requires_grad=True) for v in ops]
            (selective_scan(*tracked, block=block) * Tensor(w)).sum().backward()
            grads.append([t.grad for t in tracked])
        for got in grads[1:]:
            for name, want_g, got_g in zip(("u", "delta", "A", "B", "C", "D"), grads[0], got):
                if name in ("A", "D"):
                    np.testing.assert_allclose(got_g, want_g, rtol=1e-12, atol=1e-12, err_msg=name)
                else:
                    np.testing.assert_array_equal(got_g, want_g, err_msg=name)

    def test_grad_forward_keeps_only_chunk_carries(self):
        # 1024 steps in chunks of 64: the (L, N, S, D) state trajectory would be 4 MiB,
        # the 16 chunk carries are 64 KiB and the output 256 KiB
        ops = _scan_operands(np.random.default_rng(12), 1, 64, 16, 1024)
        tracked = [Tensor(v, requires_grad=True) for v in ops]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = selective_scan(*tracked, block=64)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1 << 20, f"{held} bytes held between forward and backward"
        y.sum().backward()
        assert all(t.grad is not None and np.all(np.isfinite(t.grad)) for t in tracked)

    def test_shape_validation(self):
        u = Tensor(np.zeros((1, 2, 5)))
        dt = Tensor(np.zeros((1, 2, 4)))
        a = Tensor(np.zeros((2, 3)))
        bc = Tensor(np.zeros((1, 3, 5)))
        d = Tensor(np.zeros(2))
        with pytest.raises(ValueError, match="delta"):
            selective_scan(u, dt, a, bc, bc, d)


class TestS6Modules:
    def test_dt_rank_default(self):
        assert default_dt_rank(16) == 1
        assert default_dt_rank(17) == 2
        assert default_dt_rank(96) == 6
        assert default_dt_rank(1) == 1

    def test_initialization_contracts(self):
        s6 = S6Direction(dim=8, state_dim=5, rng=np.random.default_rng(0))
        np.testing.assert_allclose(s6.A_log.data, np.tile(np.log(np.arange(1, 6)), (8, 1)), rtol=1e-6)
        np.testing.assert_array_equal(s6.D_skip.data, np.ones(8))
        dt0 = np.log1p(np.exp(s6.dt_bias.data.astype(np.float64)))
        assert np.all(dt0 >= 1e-3 - 1e-6) and np.all(dt0 <= 1e-1 + 1e-6)
        assert s6.A_log.weight_decay_exempt and s6.D_skip.weight_decay_exempt and s6.dt_bias.weight_decay_exempt
        assert not s6.x_proj_weight.weight_decay_exempt

    def test_forward_shape_and_block_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 8, 15)).astype(np.float64)
        out = []
        for block in (1, 15, 64):
            s6 = S6Direction(dim=8, state_dim=4, scan_block=block, rng=np.random.default_rng(11))
            s6.to_dtype(np.float64)
            y = s6(Tensor(x))
            assert y.shape == (2, 8, 15)
            out.append(y.data)
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)
        np.testing.assert_allclose(out[0], out[2], atol=1e-12)

    def test_channel_mismatch_raises(self):
        s6 = S6Direction(dim=8, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="channels"):
            s6(Tensor(np.zeros((1, 4, 10))))

    def test_directional_ssm_shape_and_param_count(self):
        dim, s = 6, 4
        m = DirectionalSSM(dim, state_dim=s, scan_mode="cs2d", rng=np.random.default_rng(0))
        r = default_dt_rank(dim)
        per_dir = (r + 2 * s) * dim + dim * r + dim + dim * s + dim
        assert m.num_parameters() == 4 * per_dir
        y = m(Tensor(np.random.default_rng(1).normal(size=(2, dim, 5, 4)).astype(np.float32)))
        assert y.shape == (2, dim, 5, 4)
        assert y.data.dtype == np.float32

    def test_directional_merge_is_sum(self):
        # output must equal the plain sum of per-direction contributions,
        # each mapped back through its own traversal order
        from cvmhunet.scan import flatten_spatial, scan_orders, unflatten_spatial

        rng = np.random.default_rng(5)
        m = DirectionalSSM(3, state_dim=2, scan_mode="ss2d", rng=rng)
        x = Tensor(rng.normal(size=(1, 3, 4, 4)).astype(np.float32))
        y = m(x)
        total = np.zeros_like(x.data)
        for order, s6 in zip(scan_orders(4, 4, "ss2d"), m.directions):
            total = total + unflatten_spatial(s6(flatten_spatial(x, order)), order).data
        np.testing.assert_allclose(y.data, total, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_directional_ssm_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        m = DirectionalSSM(4, state_dim=3, scan_mode="cs2d", scan_block=3, rng=rng)
        m.to_dtype(np.float64)
        x = Tensor(rng.normal(size=(1, 4, 3, 3)), requires_grad=True)
        w = rng.normal(size=(1, 4, 3, 3))
        params = m.parameters()

        def f():
            return (m(x) * Tensor(w)).sum()

        res = check_gradients(f, [x] + params, max_coords_per_tensor=4, rng=rng)
        assert res.rel_error < DEFAULT_TOL, res
