"""CVSS block family: identity-at-init, attention behavior, gradients."""

import numpy as np
import pytest

from cvmhunet.blocks import (
    EFFN,
    BlockPair,
    ChannelAttention,
    CrossScanModule,
    CVSSBlock,
    SpatialAttention,
)
from cvmhunet.network import NetworkConfig
from cvmhunet.tensor import Tensor

from gradcheck import DEFAULT_TOL, check_gradients


def small_cfg(dim=4, **kw):
    defaults = dict(ssm_expand=2, state_dim=3, scan_mode="cs2d", scan_block=4, ca_reduction=4, effn_ratio=0.5)
    defaults.update(kw)
    return NetworkConfig(embed_dim=dim, **defaults)


def randomize(module, seed=0, scale=0.3):
    """Move every parameter (including zero-initialized ones) off zero."""
    rng = np.random.default_rng(seed)
    for p in module.parameters():
        p.data = p.data + rng.normal(size=p.data.shape).astype(p.data.dtype) * scale
    return module


class TestConfig:
    def test_derived_dims(self):
        blk = CVSSBlock(8, NetworkConfig(embed_dim=8, ssm_expand=2, effn_ratio=0.5), np.random.default_rng(0))
        assert blk.cross_scan.main_proj.weight.shape[0] == 16
        assert blk.effn.pw1.weight.shape[0] == 4


class TestCrossScan:
    def test_identity_at_init(self):
        m = CrossScanModule(4, small_cfg(), np.random.default_rng(1))
        x = Tensor(np.random.default_rng(2).normal(size=(2, 4, 5, 5)).astype(np.float32))
        np.testing.assert_array_equal(m(x).data, x.data)

    @pytest.mark.parametrize("hw", [(1, 1), (4, 4), (7, 3)])
    def test_shape_preserved(self, hw):
        m = randomize(CrossScanModule(4, small_cfg(), np.random.default_rng(0)), seed=3)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 4, *hw)).astype(np.float32))
        assert m(x).shape == x.shape

    def test_nontrivial_after_randomize(self):
        m = randomize(CrossScanModule(4, small_cfg(), np.random.default_rng(0)), seed=4)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 4, 4, 4)).astype(np.float32))
        assert np.abs(m(x).data - x.data).max() > 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_gradcheck(self, seed):
        m = randomize(CrossScanModule(4, small_cfg(), np.random.default_rng(0)), seed=seed).to_dtype(np.float64)
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(1, 4, 4, 4)), requires_grad=True)
        w = rng.normal(size=x.shape)

        def f():
            return (m(x) * Tensor(w)).sum()

        res = check_gradients(f, [x] + m.parameters(), max_coords_per_tensor=3, rng=rng)
        assert res.rel_error < DEFAULT_TOL, res


class TestChannelAttention:
    def test_zero_init_halves(self):
        m = ChannelAttention(8, 4, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 8, 3, 3)).astype(np.float32))
        np.testing.assert_allclose(m(x).data, 0.5 * x.data, rtol=1e-6)

    def test_monotone_in_channel_energy(self):
        # identity MLP: the gate reduces to sigmoid(avg_c + max_c), so the
        # higher-energy channel must receive the larger weight
        m = ChannelAttention(2, 1, np.random.default_rng(0))
        m.fc1.weight.data = np.eye(2, dtype=np.float32)
        m.fc2.weight.data = np.eye(2, dtype=np.float32)
        x = np.zeros((1, 2, 2, 2), dtype=np.float32)
        x[0, 0] = 2.0
        x[0, 1] = 1.0
        out = m(Tensor(x))
        gain0 = out.data[0, 0, 0, 0] / x[0, 0, 0, 0]
        gain1 = out.data[0, 1, 0, 0] / x[0, 1, 0, 0]
        assert gain0 > gain1

    def test_shape_preserved(self):
        m = ChannelAttention(4, 4, np.random.default_rng(0))
        x = Tensor(np.ones((3, 4, 5, 6), dtype=np.float32))
        assert m(x).shape == x.shape


class TestSpatialAttention:
    def test_zero_init_halves(self):
        m = SpatialAttention(np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 8, 8)).astype(np.float32))
        np.testing.assert_allclose(m(x).data, 0.5 * x.data, rtol=1e-6)

    def test_constant_input_uniform_mask(self):
        m = randomize(SpatialAttention(np.random.default_rng(0)), seed=5)
        x = Tensor(np.full((1, 3, 12, 12), 0.7, dtype=np.float32))
        out = m(x)
        mask = out.data / x.data
        inner = mask[0, 0, 3:-3, 3:-3]  # interior unaffected by zero padding
        np.testing.assert_allclose(inner, inner[0, 0], rtol=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_gradcheck(self, seed):
        m = randomize(SpatialAttention(np.random.default_rng(0)), seed=seed).to_dtype(np.float64)
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(1, 3, 8, 8)), requires_grad=True)
        w = rng.normal(size=x.shape)

        def f():
            return (m(x) * Tensor(w)).sum()

        res = check_gradients(f, [x] + m.parameters(), max_coords_per_tensor=6, rng=rng)
        assert res.rel_error < DEFAULT_TOL, res


class TestEFFN:
    def test_zero_init_outputs_zero(self):
        m = EFFN(8, small_cfg(8), np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 8, 4, 4)).astype(np.float32))
        np.testing.assert_array_equal(m(x).data, np.zeros_like(x.data))

    def test_shape_preserved(self):
        m = randomize(EFFN(8, small_cfg(8), np.random.default_rng(0)), seed=1)
        x = Tensor(np.ones((1, 8, 5, 7), dtype=np.float32))
        assert m(x).shape == x.shape


class TestCVSSBlock:
    def test_identity_at_init_exact(self):
        blk = CVSSBlock(4, small_cfg(), np.random.default_rng(7))
        x = Tensor(np.random.default_rng(8).normal(size=(2, 4, 6, 6)).astype(np.float32))
        out = blk(x)
        assert np.max(np.abs(out.data - x.data)) == 0.0

    def test_pair_doubles_at_init_exact(self):
        cfg = small_cfg()
        pair = BlockPair(CVSSBlock(4, cfg, np.random.default_rng(1)), CVSSBlock(4, cfg, np.random.default_rng(2)))
        x = Tensor(np.random.default_rng(3).normal(size=(1, 4, 5, 5)).astype(np.float32))
        np.testing.assert_array_equal(pair(x).data, 2.0 * x.data)

    @pytest.mark.parametrize("hw", [(1, 1), (4, 4), (3, 7)])
    def test_shape_preserved(self, hw):
        blk = randomize(CVSSBlock(4, small_cfg(), np.random.default_rng(0)), seed=2)
        x = Tensor(np.zeros((1, 4, *hw), dtype=np.float32))
        assert blk(x).shape == x.shape

    def test_param_count_independent_of_scan_mode(self):
        a = CVSSBlock(4, small_cfg(scan_mode="ss2d"), np.random.default_rng(0))
        b = CVSSBlock(4, small_cfg(scan_mode="cs2d"), np.random.default_rng(0))
        assert sum(p.size for p in a.parameters()) == sum(p.size for p in b.parameters())

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_gradcheck_full_block(self, seed):
        blk = randomize(CVSSBlock(4, small_cfg(), np.random.default_rng(0)), seed=seed).to_dtype(np.float64)
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(1, 4, 4, 4)), requires_grad=True)
        w = rng.normal(size=x.shape)

        def f():
            return (blk(x) * Tensor(w)).sum()

        res = check_gradients(f, [x] + blk.parameters(), max_coords_per_tensor=2, rng=rng)
        assert res.rel_error < DEFAULT_TOL, res

    def test_gradient_reaches_both_paired_blocks(self):
        cfg = small_cfg()
        pair = randomize(
            BlockPair(CVSSBlock(4, cfg, np.random.default_rng(1)), CVSSBlock(4, cfg, np.random.default_rng(2))),
            seed=9,
        )
        x = Tensor(np.random.default_rng(0).normal(size=(1, 4, 4, 4)).astype(np.float32), requires_grad=True)
        pair(x).sum().backward()
        for sub in (pair.block_a, pair.block_b):
            total = sum(np.abs(p.grad).sum() for p in sub.parameters() if p.grad is not None)
            assert total > 0
