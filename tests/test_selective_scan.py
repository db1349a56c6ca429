"""Selective-scan recurrence: hand traces, kernel-vs-sequential, gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvmhunet import functional as F
from cvmhunet import ssm
from cvmhunet.checkpoint import CheckpointError, load_tensors, model_state, save_tensors
from cvmhunet.module import init_linear
from cvmhunet.scan import flatten_spatial, scan_orders, unflatten_spatial
from cvmhunet.ssm import DirectionalSSM, default_dt_rank, selective_scan, sequential_scan
from cvmhunet.tensor import Tensor, no_grad

from gradcheck import DEFAULT_TOL, check_gradients
from graph_walk import closure_arrays, graph_arrays


def kernel_scan(a, b):
    """``h_t = a_t * h_{t-1} + b_t`` from ``h_{-1} = 0`` through the kernel ``ssm._scan``; last axis is time.

    Time moves to the front with a trailing unit axis, so every step is an
    array view, also for 1-D input.
    """
    h = np.moveaxis(b, -1, 0)[..., None].copy()
    ssm._scan(np.moveaxis(a, -1, 0)[..., None], h, np.zeros(h.shape[1:], dtype=h.dtype))
    return np.ascontiguousarray(np.moveaxis(h[..., 0], 0, -1))


class TestHandTraces:
    def test_scalar_scan_decay_half(self):
        a = np.array([0.5, 0.5, 0.5], dtype=np.float64)
        b = np.array([1.0, 2.0, 3.0], dtype=np.float64)
        expected = [1.0, 2.5, 4.25]  # h = a*h + b from h=0
        np.testing.assert_allclose(sequential_scan(a, b), expected, atol=1e-12)
        np.testing.assert_allclose(kernel_scan(a, b), expected, atol=1e-12)

    def test_scalar_scan_growth(self):
        a = np.array([2.0, 3.0, 4.0], dtype=np.float64)
        b = np.array([1.0, 1.0, 1.0], dtype=np.float64)
        expected = [1.0, 4.0, 17.0]
        np.testing.assert_allclose(kernel_scan(a, b), expected, atol=1e-12)

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
            np.testing.assert_allclose(kernel_scan(a, b), ref, rtol=1e-5, atol=1e-5, err_msg=f"i={i}")

    def test_bitwise_identity_at_extreme_blocks(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            length = int(rng.integers(1, 80))
            a = np.exp(-np.abs(rng.normal(size=(3, length)))).astype(np.float32)
            b = rng.normal(size=(3, length)).astype(np.float32)
            np.testing.assert_array_equal(kernel_scan(a, b), sequential_scan(a, b))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**16), length=st.integers(1, 60))
    def test_agreement_property(self, seed, length):
        rng = np.random.default_rng(seed)
        a = np.exp(-np.abs(rng.normal(size=(2, length))))
        b = rng.normal(size=(2, length))
        np.testing.assert_allclose(kernel_scan(a, b), sequential_scan(a, b), atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**16), length=st.integers(1, 200))
    def test_contractive_scan_stays_bounded(self, seed, length):
        # with |a| <= 0.99 and |b| <= 1 the state can never exceed 1/(1-0.99)
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 0.99, size=(length,))
        b = rng.uniform(-1.0, 1.0, size=(length,))
        h = kernel_scan(a, b)
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
        got = kernel_scan(a, b)
        assert got.shape == a.shape and got.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(got, sequential_scan(a, b))

    def test_first_order_scan_leaves_inputs_untouched(self):
        a = np.full(5, 0.5)
        b = np.arange(5.0)
        kernel_scan(a, b)
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


def _carries(y):
    """The chunk carries a grad-mode ``selective_scan`` result keeps for its backward."""
    fn = y._backward
    return fn.__closure__[fn.__code__.co_freevars.index("carries")].cell_contents


class TestRebuiltOperands:
    """``selective_scan(..., rebuild=...)`` gets ``u`` and ``delta`` again in its backward."""

    def test_rebuild_keeps_output_and_grads_and_neither_operand(self):
        n, d, s, length = 2, 5, 4, 45
        ops = _scan_operands(np.random.default_rng(26), n, d, s, length)
        w = Tensor(np.random.default_rng(27).normal(size=(n, d, length)).astype(np.float32))
        runs = []
        for rebuild in (None, lambda: (ops[0].copy(), ops[1].copy())):
            tracked = [Tensor(v.copy(), requires_grad=True) for v in ops]
            y = selective_scan(*tracked, block=16, rebuild=rebuild)
            held = closure_arrays(y._backward)
            kept = [any(np.shares_memory(a, t.data) for a in held) for t in tracked[:2]]
            assert not any(a.shape == (s, d) for a in held), "the (S, D) transpose of A is rebuilt, not kept"
            (y * w).sum().backward()
            runs.append((y.data, [t.grad for t in tracked], kept))
        (y_kept, grads_kept, kept), (y_rebuilt, grads_rebuilt, rebuilt) = runs
        assert kept == [True, True] and rebuilt == [False, False]
        np.testing.assert_array_equal(y_rebuilt, y_kept)
        for name, want, got in zip(("u", "delta", "A", "B", "C", "D"), grads_kept, grads_rebuilt):
            np.testing.assert_array_equal(got, want, err_msg=name)


class TestScanTiling:
    """Tiles block the loops over (steps, N, S, D) buffers; ``scan_block`` sets only the carries."""

    N, D, S, L = 2, 5, 4, 45
    STEP = N * S * D * 4  # bytes of one float32 step slice

    def _tile_bytes(self):
        # 1 step per tile (the floor), tiles that leave a short last one, and one tile longer than L
        return (1, 3 * self.STEP, 7 * self.STEP, 16 * self.STEP, 2 * self.L * self.STEP)

    def test_forward_bitwise_equal_across_tile_sizes(self, monkeypatch):
        ops = _scan_operands(np.random.default_rng(21), self.N, self.D, self.S, self.L)
        outs = []
        for nbytes in self._tile_bytes():
            monkeypatch.setattr(ssm, "TILE_BYTES", nbytes)
            for block in (4, 16, 64):
                with no_grad():
                    outs.append(selective_scan(*(Tensor(v) for v in ops), block=block).data)
                outs.append(selective_scan(*(Tensor(v, requires_grad=True) for v in ops), block=block).data)
        for got in outs[1:]:
            np.testing.assert_array_equal(got, outs[0])

    def test_grads_agree_across_tile_sizes(self, monkeypatch):
        ops = _scan_operands(np.random.default_rng(22), self.N, self.D, self.S, self.L)
        w = np.random.default_rng(23).normal(size=(self.N, self.D, self.L)).astype(np.float32)
        grads = []
        for nbytes in self._tile_bytes():
            monkeypatch.setattr(ssm, "TILE_BYTES", nbytes)
            for block in (5, 16, 64):
                tracked = [Tensor(v, requires_grad=True) for v in ops]
                (selective_scan(*tracked, block=block) * Tensor(w)).sum().backward()
                grads.append([t.grad for t in tracked])
        for got in grads[1:]:
            for name, want_g, got_g in zip(("u", "delta", "A", "B", "C", "D"), grads[0], got):
                assert got_g.dtype == np.float32
                np.testing.assert_allclose(got_g, want_g, rtol=1e-5, atol=1e-5, err_msg=name)

    def test_grad_forward_keeps_one_carry_per_block(self, monkeypatch):
        ops = _scan_operands(np.random.default_rng(24), self.N, self.D, self.S, self.L)
        for nbytes in self._tile_bytes():
            monkeypatch.setattr(ssm, "TILE_BYTES", nbytes)
            for block in (1, 4, 16, self.L, self.L + 5):
                y = selective_scan(*(Tensor(v, requires_grad=True) for v in ops), block=block)
                # one carry per block but the first, which always enters from zero
                assert _carries(y).shape == (-(-self.L // block) - 1, self.N, self.S, self.D)

    def test_no_grad_forward_peak_stays_near_the_tile(self):
        # (1, 768, 64) with S = 16: a step slice is 48 KiB, so a 64-step buffer is 3 MiB and a
        # tile about 0.5 MiB; the (L, N, D) operands, their time-major copies and the output
        # are 192 KiB each
        ops = _scan_operands(np.random.default_rng(25), 1, 768, 16, 64)
        tensors = [Tensor(v) for v in ops]
        with no_grad():
            tracemalloc.start()
            try:
                selective_scan(*tensors, block=64)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 3 << 20, f"no_grad forward peaked at {peak} bytes"


def _direction_reference(m, k, x, rows, project_map=False):
    """Direction ``k`` of ``m`` as a module of its own computed it, from the raw rows ``rows``.

    With ``project_map``, ``x_proj`` runs on the map and its output is gathered into
    scan order, as ``DirectionalSSM`` does; else it runs on the gathered sequence.
    """
    x_proj, dt_weight, dt_bias, a_log, d_skip = (p[k] for p in rows)
    r, s = m.dt_rank, m.state_dim
    order = scan_orders(*x.shape[2:], m.scan_mode)[k]
    seq = flatten_spatial(x, order)
    projected = flatten_spatial(F.linear(x, x_proj), order) if project_map else F.linear(seq, x_proj)
    dt = F.softplus(F.linear(projected[:, :r], dt_weight, dt_bias))
    b_seq = projected[:, r : r + s]
    c_seq = projected[:, r + s :]
    y = selective_scan(seq, dt, -(a_log.exp()), b_seq, c_seq, d_skip, block=m.scan_block)
    return unflatten_spatial(y, order)


class TestS6Modules:
    def test_dt_rank_default(self):
        assert default_dt_rank(16) == 1
        assert default_dt_rank(17) == 2
        assert default_dt_rank(96) == 6
        assert default_dt_rank(1) == 1

    def test_initialization_contracts(self):
        m = DirectionalSSM(8, default_dt_rank(8), 5, "cs2d", 64, rng=np.random.default_rng(0))
        r = default_dt_rank(8)
        assert [p.shape for p in m.parameters()] == [(4, r + 10, 8), (4, 8, r), (4, 8), (4, 8, 5), (4, 8)]
        for k in range(4):
            np.testing.assert_allclose(m.A_log.data[k], np.tile(np.log(np.arange(1, 6)), (8, 1)), rtol=1e-6)
        np.testing.assert_array_equal(m.D_skip.data, np.ones((4, 8)))
        dt0 = np.log1p(np.exp(m.dt_bias.data.astype(np.float64)))
        assert np.all(dt0 >= 1e-3 - 1e-6) and np.all(dt0 <= 1e-1 + 1e-6)
        assert m.A_log.weight_decay_exempt and m.D_skip.weight_decay_exempt and m.dt_bias.weight_decay_exempt
        assert not m.x_proj_weight.weight_decay_exempt and not m.dt_weight.weight_decay_exempt

    def test_rows_drawn_one_direction_after_another(self):
        # row k holds the draws a separate module for direction k made, in the same RNG order
        m = DirectionalSSM(6, default_dt_rank(6), 3, "cs2d", 64, rng=np.random.default_rng(4))
        rng = np.random.default_rng(4)
        r = default_dt_rank(6)
        for k in range(4):
            np.testing.assert_array_equal(m.x_proj_weight.data[k], init_linear(rng, r + 6, 6))
            dt_weight = rng.uniform(-(r**-0.5), r**-0.5, size=(6, r)).astype(np.float32)
            np.testing.assert_array_equal(m.dt_weight.data[k], dt_weight)
            dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=6))
            np.testing.assert_array_equal(m.dt_bias.data[k], np.log(np.expm1(dt)).astype(np.float32))

    def test_forward_shape_and_block_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 8, 3, 5)).astype(np.float64)
        out = []
        for block in (1, 15, 64):
            m = DirectionalSSM(8, default_dt_rank(8), 4, "cs2d", block, rng=np.random.default_rng(11))
            m.to_dtype(np.float64)
            y = m(Tensor(x))
            assert y.shape == (2, 8, 3, 5)
            out.append(y.data)
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)
        np.testing.assert_allclose(out[0], out[2], atol=1e-12)

    def test_channel_mismatch_raises(self):
        m = DirectionalSSM(8, default_dt_rank(8), 16, "cs2d", 64, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="channels"):
            m(Tensor(np.zeros((1, 4, 2, 5))))

    def test_directional_ssm_shape_and_param_count(self):
        dim, s = 6, 4
        m = DirectionalSSM(dim, default_dt_rank(dim), s, "cs2d", 64, rng=np.random.default_rng(0))
        r = default_dt_rank(dim)
        per_dir = (r + 2 * s) * dim + dim * r + dim + dim * s + dim
        assert sum(p.size for p in m.parameters()) == 4 * per_dir
        assert len(m.parameters()) == 5
        y = m(Tensor(np.random.default_rng(1).normal(size=(2, dim, 5, 4)).astype(np.float32)))
        assert y.shape == (2, dim, 5, 4)
        assert y.data.dtype == np.float32

    def test_directional_merge_is_sum(self):
        # the output equals, bitwise, the sum of four separately parameterized directions,
        # each mapped back through its own traversal order, with x_proj on the gathered
        # sequence or on the map; the gradients equal those of the sum in the module's op
        # order (x_proj on the map), which sums x.grad and x_proj's grad in another order
        for mode in ("ss2d", "cs2d"):
            rng = np.random.default_rng(5)
            m = DirectionalSSM(3, default_dt_rank(3), 2, mode, 5, rng=rng)
            for p in m.parameters():  # make every row differ
                p.data = p.data + rng.normal(size=p.shape).astype(np.float32) * 0.1
            x_data = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
            w = Tensor(rng.normal(size=(1, 3, 4, 4)).astype(np.float32))
            x = Tensor(x_data, requires_grad=True)
            y = m(x)
            (y * w).sum().backward()

            for project_map in (False, True):
                rows = [[Tensor(p.data[k], requires_grad=True) for k in range(4)] for p in m.parameters()]
                x_ref = Tensor(x_data, requires_grad=True)
                total = _direction_reference(m, 0, x_ref, rows, project_map)
                for k in range(1, 4):
                    total = total + _direction_reference(m, k, x_ref, rows, project_map)
                np.testing.assert_array_equal(y.data, total.data, err_msg=mode)
            (total * w).sum().backward()
            np.testing.assert_array_equal(x.grad, x_ref.grad, err_msg=mode)
            for p, p_rows in zip(m.parameters(), rows):
                np.testing.assert_array_equal(p.grad, np.stack([t.grad for t in p_rows]), err_msg=p.name)

    def test_grad_forward_keeps_the_input_once(self):
        # (1, 128, 16, 16): each direction's gathered sequence and timesteps would be
        # (1, 128, 256) arrays, 128 KiB each, eight in all; the graph keeps x itself, and per
        # direction only the (r + 2S)-channel projection (16 KiB) and the chunk carries (6 KiB)
        rng = np.random.default_rng(8)
        m = DirectionalSSM(128, default_dt_rank(128), 4, "cs2d", 64, rng=rng)
        x = Tensor(rng.normal(size=(1, 128, 16, 16)).astype(np.float32), requires_grad=True)
        y = m(x)
        params = [p.data for p in m.parameters()]
        held = [a for a in graph_arrays(y) if a.dtype == np.float32 and not any(np.shares_memory(a, p) for p in params)]
        assert any(np.shares_memory(a, x.data) for a in held)
        others = [a for a in held if not np.shares_memory(a, x.data)]
        assert not [a.shape for a in others if a.size >= x.data.size]
        assert sum(a.nbytes for a in others) < x.data.nbytes, [a.shape for a in others]

    def test_old_direction_keys_are_rejected(self, tmp_path):
        # a state saved when each direction was its own module held directions.{k}.<name>; a load
        # into the stacked parameters finds none of them in the file
        m = DirectionalSSM(6, default_dt_rank(6), 3, "cs2d", 64, rng=np.random.default_rng(7))
        state = model_state(m)
        old = {f"directions.{k}.{name}": arr[k].copy() for name, arr in state.items() for k in range(4)}
        save_tensors(str(tmp_path / "old.cvck"), old)
        with pytest.raises(CheckpointError, match=rf"missing entries \[.*'A_log'.*\] \({len(state)} in all\)"):
            load_tensors(str(tmp_path / "old.cvck"), lambda meta: state)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_directional_ssm_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        m = DirectionalSSM(4, default_dt_rank(4), 3, "cs2d", 3, rng=rng)
        m.to_dtype(np.float64)
        x = Tensor(rng.normal(size=(1, 4, 3, 3)), requires_grad=True)
        w = rng.normal(size=(1, 4, 3, 3))
        params = m.parameters()

        def f():
            return (m(x) * Tensor(w)).sum()

        res = check_gradients(f, [x] + params, max_coords_per_tensor=4, rng=rng)
        assert res.rel_error < DEFAULT_TOL, res
