"""Network assembly: shape contracts, counters, and structural invariants."""

import hashlib
import json

import numpy as np
import pytest

from cvmhunet import functional, ssm
from cvmhunet.checkpoint import model_state
from cvmhunet.layers import Conv2d, Linear
from cvmhunet.network import (
    CVMHUNet,
    _Undrawn,
    NetworkConfig,
    PatchEmbed,
    PatchExpand,
    PatchMerge,
    flops_count,
    param_count,
    stage_plan,
)
from cvmhunet.tensor import Tensor, no_grad

from gradcheck import check_gradients
from graph_walk import graph_arrays

TINY = NetworkConfig(
    embed_dim=8,
    num_classes=3,
    input_size=(32, 32),
    state_dim=4,
    scan_block=16,
    freq_k=4,
)
SMALL = NetworkConfig(embed_dim=16, num_classes=4, input_size=(64, 64))


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


class TestNetworkConfig:
    def test_defaults(self):
        cfg = NetworkConfig()
        assert cfg.embed_dim == 96
        assert cfg.enc_depths == (2, 2, 2, 2)
        assert cfg.dec_depths == (2, 2, 2, 1)
        assert cfg.scan_mode == "cs2d"
        assert cfg.mfms_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"embed_dim": 6},
            {"embed_dim": 0},
            {"enc_depths": (2, 2, 2)},
            {"dec_depths": (2, 2, 2, 0)},
            {"num_classes": 1},
            {"scan_mode": "zigzag"},
            {"input_size": (100, 64)},
            {"kernel_beta": float("inf")},
            {"kernel_beta": 10**400},
            {"kernel_alpha": float("nan")},
            {"kernel_alpha": 1e-320},
            {"effn_ratio": float("inf")},
            {"input_size": (64, 64, 64)},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            NetworkConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"embed_dim": 8.0},
            {"embed_dim": True},
            {"num_classes": 4.0},
            {"state_dim": 4.5},
            {"freq_k": True},
            {"enc_depths": (2, 2, 2.0, 2)},
            {"dec_depths": (2, 2, 2, True)},
            {"input_size": (64.0, 64)},
        ],
    )
    def test_rejects_non_integer_in_integer_fields(self, kwargs):
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            NetworkConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"kernel_beta": None}, {"kernel_beta": "x"}, {"kernel_beta": [1]}, {"kernel_beta": True},
         {"kernel_alpha": {}}, {"effn_ratio": False}, {"mfms_enabled": 1}],
    )
    def test_rejects_wrong_types_in_float_and_bool_fields(self, kwargs):
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            NetworkConfig(**kwargs)

    def test_stage_dims_double(self):
        cfg = NetworkConfig(embed_dim=24)
        assert [cfg.stage_dim(i) for i in range(4)] == [24, 48, 96, 192]

    def test_json_round_trip(self):
        cfg = NetworkConfig(embed_dim=16, num_classes=7, scan_mode="ss2d", mfms_enabled=False)
        again = NetworkConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_json_lists_become_tuples(self):
        d = NetworkConfig().to_dict()
        assert isinstance(d["enc_depths"], list)
        cfg = NetworkConfig.from_dict(json.loads(json.dumps(d)))
        assert cfg == NetworkConfig()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            NetworkConfig.from_dict({"embed_dim": 16, "momentum": 0.9})


class TestStagePlan:
    def test_default_plan(self):
        plan = stage_plan(NetworkConfig())
        by_role = {s.role: s for s in plan}
        assert (by_role["patch_embed"].dim, by_role["patch_embed"].height) == (96, 64)
        assert (by_role["encoder_3"].dim, by_role["encoder_3"].height) == (768, 8)
        assert (by_role["decoder_0"].dim, by_role["decoder_0"].height) == (768, 8)
        assert (by_role["decoder_3"].dim, by_role["decoder_3"].height) == (96, 64)
        assert by_role["decoder_3"].depth == 1
        assert (by_role["head"].dim, by_role["head"].height, by_role["head"].width) == (4, 256, 256)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            stage_plan(NetworkConfig(), (100, 256))


# ---------------------------------------------------------------------------
# resolution-changing layers
# ---------------------------------------------------------------------------


class TestPatchOps:
    def test_embed_shape(self):
        emb = PatchEmbed(3, 16, rng())
        y = emb(Tensor(rng(1).normal(size=(2, 3, 32, 24)).astype(np.float32)))
        assert y.shape == (2, 16, 8, 6)

    def test_embed_rejects_indivisible(self):
        emb = PatchEmbed(3, 16, rng())
        with pytest.raises(ValueError):
            emb(Tensor(np.zeros((1, 3, 30, 32), dtype=np.float32)))

    def test_merge_shape(self):
        merge = PatchMerge(8, rng())
        y = merge(Tensor(rng(1).normal(size=(2, 8, 6, 10)).astype(np.float32)))
        assert y.shape == (2, 16, 3, 5)

    def test_merge_rejects_odd(self):
        merge = PatchMerge(8, rng())
        with pytest.raises(ValueError):
            merge(Tensor(np.zeros((1, 8, 5, 6), dtype=np.float32)))

    def test_merge_constant_input_spatially_uniform(self):
        # every 2x2 neighborhood of a constant image is identical
        merge = PatchMerge(4, rng(3))
        x = Tensor(np.full((1, 4, 8, 8), 0.7, dtype=np.float32))
        y = merge(x).data
        assert np.allclose(y, y[:, :, :1, :1], atol=1e-6)

    def test_expand_shape(self):
        exp = PatchExpand(16, rng())
        y = exp(Tensor(rng(1).normal(size=(2, 16, 3, 5)).astype(np.float32)))
        assert y.shape == (2, 8, 6, 10)

    def test_expand_zero_in_zero_out(self):
        # projection has no bias and the norm offset starts at zero
        exp = PatchExpand(16, rng())
        y = exp(Tensor(np.zeros((1, 16, 4, 4), dtype=np.float32)))
        assert np.all(y.data == 0.0)

    def test_expand_rejects_wrong_width(self):
        exp = PatchExpand(16, rng())
        with pytest.raises(ValueError):
            exp(Tensor(np.zeros((1, 8, 4, 4), dtype=np.float32)))

    def test_expand_pixel_layout(self):
        # each output 2x2 block is a fixed function of one input pixel:
        # changing a single input pixel must only touch its 2x2 block
        exp = PatchExpand(8, rng(5))
        x = rng(6).normal(size=(1, 8, 4, 4)).astype(np.float32)
        base = exp(Tensor(x)).data
        bumped = x.copy()
        bumped[0, :, 1, 2] += 1.0
        delta = exp(Tensor(bumped)).data - base
        mask = np.zeros_like(delta, dtype=bool)
        mask[0, :, 2:4, 4:6] = True
        assert np.any(delta[mask] != 0)
        assert np.all(delta[~mask] == 0)

    def test_merge_gradcheck(self):
        merge = PatchMerge(4, rng(7)).to_dtype(np.float64)
        x = Tensor(rng(8).normal(size=(1, 4, 4, 4)), requires_grad=True)
        res = check_gradients(lambda: merge(x).sum(), [x, merge.reduce.weight], rng=rng(9))
        assert res.rel_error < 1e-4

    def test_expand_gradcheck(self):
        # weight the output: a plain sum of the trailing norm is identically
        # zero (each normalized pair sums to 0), which starves the check
        exp = PatchExpand(4, rng(7)).to_dtype(np.float64)
        x = Tensor(rng(8).normal(size=(1, 4, 3, 3)), requires_grad=True)
        w = Tensor(rng(10).normal(size=(1, 2, 6, 6)))
        res = check_gradients(lambda: (exp(x) * w).sum(), [x, exp.project.weight], rng=rng(9))
        assert res.rel_error < 1e-4


# ---------------------------------------------------------------------------
# full model: shapes and determinism
# ---------------------------------------------------------------------------


class TestForward:
    def test_output_shape(self):
        model = CVMHUNet(SMALL, seed=0)
        x = Tensor(rng(1).normal(size=(1, 3, 64, 64)).astype(np.float32))
        assert model(x).shape == (1, 4, 64, 64)

    def test_rectangular_input(self):
        model = CVMHUNet(TINY, seed=0)
        x = Tensor(rng(1).normal(size=(2, 3, 32, 64)).astype(np.float32))
        assert model(x).shape == (2, 3, 32, 64)

    def test_rejects_bad_inputs(self):
        model = CVMHUNet(TINY, seed=0)
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((1, 1, 32, 32), dtype=np.float32)))
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((1, 3, 48, 48), dtype=np.float32)))

    def test_same_seed_is_bitwise_deterministic(self):
        x = Tensor(rng(1).normal(size=(1, 3, 32, 32)).astype(np.float32))
        a = CVMHUNet(TINY, seed=11)(x).data
        b = CVMHUNet(TINY, seed=11)(x).data
        assert np.array_equal(a, b)

    def test_repeated_forward_is_bitwise_deterministic(self):
        model = CVMHUNet(TINY, seed=0)
        x = Tensor(rng(1).normal(size=(1, 3, 32, 32)).astype(np.float32))
        assert np.array_equal(model(x).data, model(x).data)

    def test_different_seeds_differ(self):
        x = Tensor(rng(1).normal(size=(1, 3, 32, 32)).astype(np.float32))
        a = CVMHUNet(TINY, seed=0)(x).data
        b = CVMHUNet(TINY, seed=1)(x).data
        assert not np.array_equal(a, b)

    def test_fusion_mode_changes_output(self):
        x = Tensor(rng(1).normal(size=(1, 3, 32, 32)).astype(np.float32))
        on = CVMHUNet(TINY, seed=0)(x).data
        off_cfg = NetworkConfig(**{**TINY.to_dict(), "mfms_enabled": False})
        off = CVMHUNet(off_cfg, seed=0)(x).data
        # at init the fusion weight is exactly 0.5, so averaging != adding
        assert not np.allclose(on, off)

    def test_backward_reaches_all_parameters(self):
        model = CVMHUNet(TINY, seed=0)
        x = Tensor(rng(1).normal(size=(1, 3, 32, 32)).astype(np.float32))
        model(x).sum().backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        # zero-initialized gates stop gradient flow into branches that do not
        # yet influence the output; everything on a live path must have a grad
        live = [n for n, p in model.named_parameters() if p.grad is not None]
        assert len(live) > len(missing)
        assert any("patch_embed" in n for n in live)
        assert any("head" in n for n in live)

    def test_tiny_gradcheck(self):
        model = CVMHUNet(TINY, seed=3).to_dtype(np.float64)
        x = Tensor(rng(4).normal(size=(1, 3, 32, 32)), requires_grad=True)
        params = dict(model.named_parameters())
        probe = [
            x,
            params["head.weight"],
            params["patch_embed.conv.weight"],
            params["enc_stages.0.blocks.0.block_a.cross_scan.main_proj.weight"],
        ]
        res = check_gradients(
            lambda: (model(x) * model(x)).mean(),
            probe,
            max_coords_per_tensor=3,
            rng=rng(5),
        )
        assert res.rel_error < 1e-4


# README desk config, and the paper's layout (depths, state, frequencies) at width 32
DESK = NetworkConfig(embed_dim=16, num_classes=4, input_size=(64, 64), state_dim=8, scan_block=32)
PAPER_SHAPED = NetworkConfig(embed_dim=32, input_size=(64, 64))


class TestGraphMemory:
    """What one grad-mode forward of the paper-width model leaves in the graph (closure walk)."""

    # bytes of the distinct arrays the closures hold at 128x128, batch 1, parameters excluded;
    # 85.3 MB while a linear or 1x1 conv kept the norm and GELU outputs it consumes
    PAPER_128_GRAPH_BYTES = 68_196_100

    def test_dense_consumers_keep_no_norm_or_gelu_output(self, monkeypatch):
        produced, consumed = [], []

        def recorded(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                produced.append(out)
                return out
            return wrapper

        def moveaxis(t, src, dst, fn=Tensor.moveaxis):  # PatchExpand moves its norm's output
            out = fn(t, src, dst)
            if any(t is p for p in produced):
                produced.append(out)
            return out

        def channel_dense(x, weight, bias, fn=functional._channel_dense):
            if any(x is p for p in produced) and not any(x is c for c in consumed):
                consumed.append(x)
            return fn(x, weight, bias)

        for name in ("layer_norm", "gated_layer_norm", "gelu"):
            monkeypatch.setattr(functional, name, recorded(getattr(functional, name)))
        monkeypatch.setattr(Tensor, "moveaxis", moveaxis)
        monkeypatch.setattr(functional, "_channel_dense", channel_dense)
        cfg = NetworkConfig(input_size=(128, 128))
        model = CVMHUNet(cfg, seed=0)
        y = model(Tensor(rng(5).random((1, 3, 128, 128)).astype(np.float32)))
        params = [p.data for p in model.parameters()]
        held = [a for a in graph_arrays(y) if not any(np.shares_memory(a, p) for p in params)]
        # per block the scan's input norm, its gated output norm, the fusion norm, the FFN's norm and
        # GELU; then the three merges' norms and the two final expands' norms (through moveaxis)
        blocks = sum(cfg.enc_depths) + sum(cfg.dec_depths)
        assert len(consumed) == 5 * blocks + 3 + 2
        assert not [a.shape for a in held if any(np.shares_memory(a, t.data) for t in consumed)]
        assert sum(a.nbytes for a in held) <= self.PAPER_128_GRAPH_BYTES


class TestBatchInvariance:
    """In eval mode a sample's logits never depend on the rest of its batch, bitwise,
    so ``--batch-size`` changes the speed of eval and predict, never their results."""

    @pytest.mark.parametrize("cfg", [DESK, PAPER_SHAPED], ids=["desk", "paper-shaped"])
    def test_batch_forward_equals_each_samples_own_forward(self, cfg):
        model = CVMHUNet(cfg, seed=0).eval()
        gen = rng(7)
        # a trained model: every zero-initialized gate and projection live, BN statistics set
        for _, p in model.named_parameters():
            p.data += (0.1 * gen.standard_normal(p.shape)).astype(p.dtype)
        for name, buf in model.named_buffers():
            buf[...] = gen.uniform(0.5, 2.0, buf.shape) if name.endswith("var") else 0.1 * gen.standard_normal(buf.shape)
        x = gen.normal(size=(4, 3) + cfg.input_size).astype(np.float32)
        with no_grad():
            whole = model(Tensor(x)).data
            for i in range(len(x)):
                np.testing.assert_array_equal(model(Tensor(x[i : i + 1])).data, whole[i : i + 1], err_msg=f"sample {i}")


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


# every layer kind, odd depths, both fusion modes, and the paper widths at a small size
COUNTER_CONFIGS = pytest.mark.parametrize(
    "cfg",
    [
        TINY,
        SMALL,
        NetworkConfig(**{**SMALL.to_dict(), "mfms_enabled": False}),
        NetworkConfig(**{**SMALL.to_dict(), "scan_mode": "ss2d"}),
        NetworkConfig(
            embed_dim=8,
            enc_depths=(1, 2, 1, 3),
            dec_depths=(2, 1, 2, 1),
            num_classes=5,
            input_size=(32, 32),
            state_dim=4,
            effn_ratio=2.0,
        ),
        NetworkConfig(input_size=(64, 64)),
    ],
    ids=["tiny", "small", "no-fusion", "ss2d", "odd-depths", "paper-64"],
)


class TestCounters:
    @COUNTER_CONFIGS
    def test_param_count_matches_model_walk_exactly(self, cfg):
        model = CVMHUNet(cfg, seed=0)
        assert param_count(cfg) == sum(p.size for p in model.parameters())

    @COUNTER_CONFIGS
    def test_flops_count_matches_model_macs_exactly(self, cfg, monkeypatch):
        # count every MAC-bearing op where the model looks it up: weight taps per output
        # times outputs for the dense and conv ops, N*D*S*L for the selective scan
        macs = [0]

        def counted(fn, count):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                macs[0] += count(args, out)
                return out

            return wrapper

        def weight_taps(args, out):
            return out.data.size * int(np.prod(args[1].shape[1:]))

        for name in ("linear", "conv2d", "depthwise_conv2d", "conv1d"):
            monkeypatch.setattr(functional, name, counted(getattr(functional, name), weight_taps))
        monkeypatch.setattr(
            ssm, "selective_scan", counted(ssm.selective_scan, lambda args, out: args[0].data.size * args[2].shape[1])
        )
        model = CVMHUNet(cfg, seed=0)
        h, w = cfg.input_size
        for n, size in ((1, (h, w)), (2, (h, 2 * w))):
            macs[0] = 0
            with no_grad():
                model(Tensor(np.zeros((n, 3, *size), dtype=np.float32)))
            assert macs[0] == n * flops_count(cfg, size), (n, size)

    def test_scan_mode_does_not_change_size(self):
        base = SMALL.to_dict()
        cs = NetworkConfig(**{**base, "scan_mode": "cs2d"})
        ss = NetworkConfig(**{**base, "scan_mode": "ss2d"})
        assert param_count(cs) == param_count(ss)
        assert flops_count(cs) == flops_count(ss)

    def test_fusion_overhead_small_and_positive(self):
        on = param_count(SMALL)
        off = param_count(NetworkConfig(**{**SMALL.to_dict(), "mfms_enabled": False}))
        delta = on - off
        assert delta > 0
        assert delta / on < 0.03

    def test_fusion_delta_equals_fusion_module_sizes(self):
        model = CVMHUNet(SMALL, seed=0)
        fusion_params = sum(
            p.data.size for n, p in model.named_parameters() if n.startswith("fusions.")
        )
        off = param_count(NetworkConfig(**{**SMALL.to_dict(), "mfms_enabled": False}))
        assert param_count(SMALL) - off == fusion_params

    def test_default_budget(self):
        cfg = NetworkConfig()
        params = param_count(cfg)
        flops = flops_count(cfg)
        assert 24_672_000 <= params <= 37_008_000  # 30.84M +/- 20%
        assert 4_282_500_000 <= flops <= 7_137_500_000  # 5.71G +/- 25%

    def test_flops_scale_with_resolution(self):
        cfg = SMALL
        f64 = flops_count(cfg, (64, 64))
        f128 = flops_count(cfg, (128, 128))
        # everything except the per-sample attention MLPs scales by 4x
        assert 3.9 < f128 / f64 <= 4.0

    def test_flops_counter_is_pure(self):
        # counters must not touch global state: same answer twice, fast
        cfg = NetworkConfig()
        assert flops_count(cfg) == flops_count(cfg)
        assert param_count(cfg) == param_count(cfg)

    def test_depth_increment_adds_one_block(self):
        base = SMALL.to_dict()
        deeper = NetworkConfig(**{**base, "enc_depths": (3, 2, 2, 2)})
        delta = param_count(deeper) - param_count(SMALL)
        other = NetworkConfig(**{**base, "enc_depths": (2, 2, 3, 2)})
        delta2 = param_count(other) - param_count(SMALL)
        assert delta > 0 and delta2 > delta  # wider stage => bigger block


class TestSeededInit:
    @pytest.mark.parametrize(
        "cfg,digest",
        [
            (
                NetworkConfig(embed_dim=16, input_size=(64, 64), state_dim=8, scan_block=32),
                "34f545da5271be70cfee8934af88666f3b1797ee0463de9c8a59f6bb3e7c8e66",
            ),
            (
                NetworkConfig(
                    embed_dim=12,
                    enc_depths=(1, 2, 1, 1),
                    dec_depths=(1, 1, 2, 1),
                    num_classes=3,
                    scan_mode="ss2d",
                    input_size=(32, 64),
                    effn_ratio=0.75,
                    ssm_expand=3,
                    state_dim=5,
                    scan_block=7,
                    ca_reduction=2,
                    freq_k=5,
                    kernel_alpha=1.25,
                    kernel_beta=2.5,
                    mfms_reduction=3,
                ),
                "b4129116dd50f973fe0969b2b013714cdab39ee95d3568836bc4be50736936d8",
            ),
        ],
        ids=["readme-desk", "every-field-set"],
    )
    def test_seed_zero_init_is_pinned_bitwise(self, cfg, digest):
        # SHA-256 over every state entry's name, dtype, shape and bytes, in model_state order
        h = hashlib.sha256()
        for name, arr in model_state(CVMHUNet(cfg, seed=0)).items():
            h.update(f"{name}:{arr.dtype.str}:{arr.shape};".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == digest


class TestUnseededInit:
    def test_placeholder_draws_nothing_and_offers_only_uniform(self):
        rng = _Undrawn()
        draw = rng.uniform(-1.0, 1.0, size=(2, 3))
        assert draw.shape == (2, 3) and not draw.any()
        for name in ("normal", "standard_normal", "integers", "random", "choice", "permutation", "bit_generator"):
            with pytest.raises(AttributeError):
                getattr(rng, name)

    def test_unseeded_model_has_the_seeded_layout(self):
        seeded, unseeded = CVMHUNet(TINY, seed=0), CVMHUNet(TINY, seed=None)
        want = [(n, p.data.shape, p.data.dtype) for n, p in seeded.named_parameters()]
        assert [(n, p.data.shape, p.data.dtype) for n, p in unseeded.named_parameters()] == want


class TestModuleZero:
    def test_zeroes_only_the_modules_own_parameters_in_fresh_arrays(self):
        outer = Conv2d(3, 4, 1, rng=rng())
        outer.inner = Linear(3, 2, rng=rng(1))
        drawn, inner = outer.weight.data, outer.inner.weight.data.copy()
        assert outer.zero_() is outer
        assert not outer.weight.data.any() and not outer.bias.data.any()
        assert outer.weight.data is not drawn and drawn.any()
        np.testing.assert_array_equal(outer.inner.weight.data, inner)
        assert Linear(3, 2, bias=False, rng=rng()).zero_().bias is None
