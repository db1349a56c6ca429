"""Frequency-fusion block: basis math, kernel rule, attention, fusion laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvmhunet.mfms import (
    TOP16_FREQUENCIES,
    GlobalFrequencyAttention,
    LocalPointwiseAttention,
    MFMSBlock,
    adaptive_kernel_size,
    compress_frequencies,
    dct_basis,
    frequency_bases,
)
from cvmhunet.network import NetworkConfig
from cvmhunet.tensor import Tensor

from gradcheck import DEFAULT_TOL, check_gradients


def randomize(module, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    for p in module.parameters():
        p.data = p.data + rng.normal(size=p.data.shape).astype(p.data.dtype) * scale
    return module


class TestDctBasis:
    def test_corner_value_is_one(self):
        for h, w in [(1, 1), (4, 4), (7, 5)]:
            basis = dct_basis(h, w, 0, 0)
            assert basis[0, 0] == pytest.approx(1.0)

    def test_zero_frequency_is_not_constant(self):
        # the half-offset rides on the frequency index, so (0,0) still varies
        basis = dct_basis(8, 8, 0, 0)
        assert basis.max() - basis.min() > 0.5

    def test_last_row_approaches_zero_for_large_h(self):
        basis = dct_basis(1000, 1, 0, 0)
        assert abs(basis[-1, 0]) < 0.002

    def test_values_bounded(self):
        for u, v in [(0, 1), (6, 0), (3, 5)]:
            basis = dct_basis(9, 11, u, v)
            assert np.all(np.abs(basis) <= 1.0 + 1e-12)


class TestCompressFrequencies:
    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 4, 4))
        got = compress_frequencies(Tensor(x), 3).data
        expected = np.zeros((1, 2, 3))
        for k, (u, v) in enumerate(TOP16_FREQUENCIES[:3]):
            basis = dct_basis(4, 4, u, v)
            for h in range(4):
                for w in range(4):
                    expected[:, :, k] += x[:, :, h, w] * basis[h, w]
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_constant_input_gives_basis_sums(self):
        c = 0.7
        x = Tensor(np.full((1, 1, 5, 5), c))
        got = compress_frequencies(x, 4).data[0, 0]
        sums = np.array([dct_basis(5, 5, u, v).sum() for u, v in TOP16_FREQUENCIES[:4]])
        np.testing.assert_allclose(got, c * sums, atol=1e-10)

    def test_single_pixel_reads_basis_entry(self):
        x = np.zeros((1, 1, 6, 6))
        x[0, 0, 2, 3] = 1.0
        got = compress_frequencies(Tensor(x), 2).data[0, 0]
        expected = [dct_basis(6, 6, u, v)[2, 3] for u, v in TOP16_FREQUENCIES[:2]]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 3, 4, 6))
        y = rng.normal(size=(1, 3, 4, 6))
        lhs = compress_frequencies(Tensor(a * x + b * y), 5).data
        rhs = a * compress_frequencies(Tensor(x), 5).data + b * compress_frequencies(Tensor(y), 5).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_is_differentiable(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 3, 3)), requires_grad=True)
        compress_frequencies(x, 2).sum().backward()
        assert x.grad is not None and np.all(np.isfinite(x.grad))


class TestAdaptiveKernel:
    @pytest.mark.parametrize("channels,expected", [(96, 3), (512, 5), (2, 1), (128, 3)])
    def test_reference_values(self, channels, expected):
        assert adaptive_kernel_size(channels, 2.0, 1.0) == expected

    def test_tie_resolves_to_smaller_odd(self):
        # log2(128)/2 + 1/2 = 4.0, exactly between 3 and 5
        assert adaptive_kernel_size(128, 2.0, 1.0) == 3

    def test_monotone_nondecreasing_and_odd(self):
        prev = 0
        for c in range(1, 1025):
            phi = adaptive_kernel_size(c, 2.0, 1.0)
            assert phi % 2 == 1 and phi >= 1
            assert phi >= prev
            prev = phi

    def test_custom_alpha_beta(self):
        # log2(16)/1 + 0 = 4.0 -> tie between 3 and 5 -> 3
        assert adaptive_kernel_size(16, 1.0, 0.0) == 3
        # log2(8)/1 + 2 = 5.0 -> exactly 5
        assert adaptive_kernel_size(8, 1.0, 2.0) == 5
        assert adaptive_kernel_size(1, 2.0, 1.0) == 1


class TestFrequencyConfig:
    def test_default_is_top16(self):
        specs = TOP16_FREQUENCIES[: NetworkConfig().freq_k]
        assert NetworkConfig().freq_k == 16 and len(specs) == 16
        assert specs[0] == (0, 0)
        assert specs[1] == (0, 1)

    def test_smaller_k_takes_prefix(self):
        prefix = [dct_basis(4, 4, u, v).reshape(-1) for u, v in [(0, 0), (0, 1), (6, 0)]]
        np.testing.assert_array_equal(frequency_bases(4, 4, 3), np.stack(prefix))


class TestGlobalAttention:
    def test_zero_init_outputs_zero(self):
        m = GlobalFrequencyAttention(8, NetworkConfig(embed_dim=8))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 8, 4, 4)).astype(np.float32))
        np.testing.assert_array_equal(m(x).data, np.zeros((2, 8), dtype=np.float32))

    def test_single_frequency_collapses_pools(self):
        m = randomize(GlobalFrequencyAttention(6, NetworkConfig(embed_dim=8, freq_k=1)), seed=2)
        x = Tensor(np.random.default_rng(3).normal(size=(1, 6, 4, 4)))
        profile = compress_frequencies(x, m.freq_k)
        v = profile.reshape(1, 6)
        expected = (m.conv_avg(v) + m.conv_max(v) + m.conv_min(v)).data
        np.testing.assert_allclose(m(x).data, expected, atol=1e-10)

    def test_against_direct_composition_oracle(self):
        m = randomize(GlobalFrequencyAttention(10, NetworkConfig(embed_dim=8, freq_k=4)), seed=5)
        m.to_dtype(np.float64)
        x = np.random.default_rng(6).normal(size=(2, 10, 5, 5))
        got = m(Tensor(x)).data
        prof = compress_frequencies(Tensor(x), m.freq_k).data
        expected = np.zeros((2, 10))
        for conv, pooled in [
            (m.conv_avg, prof.mean(axis=2)),
            (m.conv_max, prof.max(axis=2)),
            (m.conv_min, prof.min(axis=2)),
        ]:
            k = conv.weight.data.reshape(-1)
            pad = (len(k) - 1) // 2
            padded = np.pad(pooled, ((0, 0), (pad, pad)))
            for i in range(10):
                expected[:, i] += padded[:, i : i + len(k)] @ k
            expected += conv.bias.data[0]
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_kernel_size_follows_rule(self):
        assert GlobalFrequencyAttention(96, NetworkConfig()).kernel_size == 3
        assert GlobalFrequencyAttention(512, NetworkConfig()).kernel_size == 5


class TestLocalAttention:
    def test_zero_init_outputs_zero_in_both_modes(self):
        m = LocalPointwiseAttention(8, 4, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 8, 3, 3)).astype(np.float32))
        np.testing.assert_allclose(m(x).data, 0.0, atol=1e-12)
        m.eval()
        np.testing.assert_allclose(m(x).data, 0.0, atol=1e-12)

    def test_shape_preserved(self):
        m = randomize(LocalPointwiseAttention(8, 4, np.random.default_rng(0)), seed=3)
        x = Tensor(np.ones((2, 8, 5, 7), dtype=np.float32))
        assert m(x).shape == x.shape

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradcheck(self, seed):
        m = randomize(LocalPointwiseAttention(4, 2, np.random.default_rng(0)), seed=seed).to_dtype(np.float64)
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
        w = rng.normal(size=x.shape)

        def f():
            return (m(x) * Tensor(w)).sum()

        res = check_gradients(f, [x] + m.parameters(), max_coords_per_tensor=4, rng=rng)
        assert res.rel_error < DEFAULT_TOL, res


class TestFusion:
    def make(self, dim=8, seed=0, random_state=True):
        m = MFMSBlock(dim, NetworkConfig(embed_dim=8, freq_k=4), np.random.default_rng(seed))
        if random_state:
            randomize(m, seed=seed + 1, scale=0.2)
        return m

    def test_equal_inputs_pass_through_exactly(self):
        m = self.make()
        f = Tensor(np.random.default_rng(2).normal(size=(2, 8, 4, 4)).astype(np.float32))
        z = m(f, Tensor(f.data.copy()))
        np.testing.assert_array_equal(z.data, f.data)

    def test_zero_init_weight_is_exactly_half(self):
        m = self.make(random_state=False)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 8, 5, 5)).astype(np.float32))
        w = m.fusion_weight(x)
        np.testing.assert_array_equal(w.data, np.full_like(x.data, 0.5))

    def test_zero_init_fusion_is_average(self):
        m = self.make(random_state=False)
        rng = np.random.default_rng(4)
        f = Tensor(rng.normal(size=(1, 8, 4, 4)).astype(np.float32))
        g = Tensor(rng.normal(size=(1, 8, 4, 4)).astype(np.float32))
        np.testing.assert_allclose(m(f, g).data, 0.5 * (f.data + g.data), atol=1e-6)

    def test_large_global_bias_selects_first_input(self):
        m = self.make(random_state=False)
        m.global_attention.conv_avg.bias.data = np.array([20.0], dtype=np.float32)
        rng = np.random.default_rng(5)
        f = Tensor(rng.normal(size=(1, 8, 4, 4)).astype(np.float32))
        g = Tensor(rng.normal(size=(1, 8, 4, 4)).astype(np.float32))
        assert np.max(np.abs(m(f, g).data - f.data)) < 1e-6

    def test_swap_identity(self):
        m = self.make(seed=6)
        rng = np.random.default_rng(7)
        f = Tensor(rng.normal(size=(2, 8, 4, 4)).astype(np.float32))
        g = Tensor(rng.normal(size=(2, 8, 4, 4)).astype(np.float32))
        lhs = m(f, g).data + m(g, f).data
        np.testing.assert_allclose(lhs, f.data + g.data, atol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_convexity(self, seed):
        m = self.make(seed=seed % 100)
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(1, 8, 4, 4)).astype(np.float32)
        g = rng.normal(size=(1, 8, 4, 4)).astype(np.float32)
        z = m(Tensor(f), Tensor(g)).data
        lo = np.minimum(f, g) - 1e-6
        hi = np.maximum(f, g) + 1e-6
        assert np.all(z >= lo) and np.all(z <= hi)

    def test_shape_mismatch_rejected(self):
        m = self.make()
        with pytest.raises(ValueError, match="match"):
            m(Tensor(np.zeros((1, 8, 4, 4))), Tensor(np.zeros((1, 8, 4, 5))))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_gradcheck_full_block(self, seed):
        m = self.make(dim=4, seed=seed)
        m.global_attention.freq_k = 3
        m.local_attention = LocalPointwiseAttention(4, 2, np.random.default_rng(seed))
        randomize(m.local_attention, seed=seed + 50, scale=0.2)
        m.to_dtype(np.float64)
        rng = np.random.default_rng(seed)
        f = Tensor(rng.normal(size=(1, 4, 3, 3)), requires_grad=True)
        g = Tensor(rng.normal(size=(1, 4, 3, 3)), requires_grad=True)
        w = rng.normal(size=f.shape)

        def fn():
            return (m(f, g) * Tensor(w)).sum()

        res = check_gradients(fn, [f, g] + m.parameters(), max_coords_per_tensor=4, rng=rng)
        assert res.rel_error < DEFAULT_TOL, res
