"""Losses, optimizer, and confusion-matrix metrics against hand oracles."""

import numpy as np
import pytest

from cvmhunet.losses import LossConfig, ce_loss, dice_loss, segmentation_loss
from cvmhunet.metrics import ConfusionMatrix, compute_metrics
from cvmhunet.checkpoint import CheckpointError, load_tensors, model_state, save_tensors
from cvmhunet.data import load_pair, normalize_image, synth_generate
from cvmhunet.network import CVMHUNet, NetworkConfig
from cvmhunet.optim import SLICE, AdamW
from cvmhunet.tensor import Parameter, Tensor

from gradcheck import check_gradients
from graph_walk import Producers


def rng(seed=0):
    return np.random.default_rng(seed)


def softmax_np(z, axis):
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# cross-entropy
# ---------------------------------------------------------------------------


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((2, 4, 3, 3), dtype=np.float32))
        labels = rng(1).integers(0, 4, size=(2, 3, 3))
        assert abs(float(ce_loss(logits, labels).data) - np.log(4.0)) < 1e-6

    def test_saturated_correct_prediction_is_near_zero(self):
        labels = rng(2).integers(0, 3, size=(1, 4, 4))
        onehot = np.eye(3, dtype=np.float32)[labels].transpose(0, 3, 1, 2)
        logits = Tensor(20.0 * onehot)
        assert float(ce_loss(logits, labels).data) < 1e-6

    def test_matches_naive_pixel_loop(self):
        z = rng(3).normal(size=(2, 5, 3, 4)).astype(np.float64)
        labels = rng(4).integers(0, 5, size=(2, 3, 4))
        got = float(ce_loss(Tensor(z), labels).data)
        probs = softmax_np(z, axis=1)
        want = np.mean(
            [
                -np.log(probs[n, labels[n, i, j], i, j])
                for n in range(2)
                for i in range(3)
                for j in range(4)
            ]
        )
        assert abs(got - want) < 1e-10

    def test_ignore_index_masks_pixels(self):
        z = rng(5).normal(size=(1, 3, 2, 2)).astype(np.float64)
        labels = np.array([[[0, 255], [2, 255]]])
        got = float(ce_loss(Tensor(z), labels, ignore_index=255).data)
        probs = softmax_np(z, axis=1)
        want = -(np.log(probs[0, 0, 0, 0]) + np.log(probs[0, 2, 1, 0])) / 2
        assert abs(got - want) < 1e-10

    def test_all_ignored_returns_zero_with_warning(self):
        z = Tensor(np.zeros((1, 3, 2, 2), dtype=np.float32))
        labels = np.full((1, 2, 2), 9)
        with pytest.warns(UserWarning, match="ignored"):
            out = ce_loss(z, labels, ignore_index=9)
        assert float(out.data) == 0.0

    def test_out_of_range_label_raises(self):
        z = Tensor(np.zeros((1, 3, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="outside"):
            ce_loss(z, np.full((1, 2, 2), 3))
        with pytest.raises(ValueError, match="outside"):
            ce_loss(z, np.full((1, 2, 2), -1))

    def test_rejects_float_labels_and_bad_shape(self):
        z = Tensor(np.zeros((1, 3, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="integer"):
            ce_loss(z, np.zeros((1, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="shape"):
            ce_loss(z, np.zeros((1, 4, 4), dtype=np.int64))

    def test_gradcheck(self):
        z = Tensor(rng(6).normal(size=(1, 3, 3, 3)), requires_grad=True)
        labels = rng(7).integers(0, 3, size=(1, 3, 3))
        res = check_gradients(lambda: ce_loss(z, labels), [z], rng=rng(8))
        assert res.rel_error < 1e-4


# ---------------------------------------------------------------------------
# dice
# ---------------------------------------------------------------------------


class TestDice:
    def test_half_probability_toy(self):
        # zero logits => p = 1/2 for both classes on a 2x2 image of class 0:
        #   dice_0 = (2*0.5*4 + 1)/(0.5*4 + 4 + 1) = 5/7, dice_1 = 1/3
        logits = Tensor(np.zeros((1, 2, 2, 2), dtype=np.float64))
        labels = np.zeros((1, 2, 2), dtype=np.int64)
        d0 = (2 * 0.5 * 4 + 1.0) / (2.0 + 4.0 + 1.0)
        d1 = (0.0 + 1.0) / (2.0 + 0.0 + 1.0)
        want = 1.0 - (d0 + d1) / 2.0
        assert abs(float(dice_loss(logits, labels).data) - want) < 1e-12

    def test_saturated_correct_prediction_near_zero(self):
        labels = rng(1).integers(0, 3, size=(1, 8, 8))
        onehot = np.eye(3, dtype=np.float32)[labels].transpose(0, 3, 1, 2)
        logits = Tensor(50.0 * onehot)
        assert float(dice_loss(logits, labels).data) < 1e-3

    def test_empty_class_is_finite(self):
        # class 2 never appears; smoothing keeps its term finite
        logits = Tensor(rng(2).normal(size=(1, 3, 4, 4)).astype(np.float32))
        labels = rng(3).integers(0, 2, size=(1, 4, 4))
        val = float(dice_loss(logits, labels).data)
        assert np.isfinite(val) and 0.0 <= val <= 1.0

    def test_matches_naive_formula(self):
        z = rng(4).normal(size=(2, 4, 3, 3)).astype(np.float64)
        labels = rng(5).integers(0, 4, size=(2, 3, 3))
        got = float(dice_loss(Tensor(z), labels, smooth=1.0).data)
        p = softmax_np(z, axis=1)
        y = np.eye(4)[labels].transpose(0, 3, 1, 2)
        dices = []
        for k in range(4):
            inter = (p[:, k] * y[:, k]).sum()
            dices.append((2 * inter + 1.0) / (p[:, k].sum() + y[:, k].sum() + 1.0))
        assert abs(got - (1.0 - np.mean(dices))) < 1e-10

    def test_ignore_index_masks_pixels_and_class(self):
        z = rng(6).normal(size=(1, 3, 2, 2)).astype(np.float64)
        labels = np.array([[[0, 2], [1, 2]]])  # class 2 = ignored
        got = float(dice_loss(Tensor(z), labels, ignore_index=2).data)
        p = softmax_np(z, axis=1)
        keep = labels[0] != 2
        dices = []
        for k in range(2):  # ignored class channel excluded from the mean
            pk = p[0, k][keep]
            yk = (labels[0][keep] == k).astype(float)
            dices.append((2 * (pk * yk).sum() + 1.0) / (pk.sum() + yk.sum() + 1.0))
        assert abs(got - (1.0 - np.mean(dices))) < 1e-10

    def test_all_ignored_returns_zero_with_warning(self):
        z = Tensor(np.zeros((1, 3, 2, 2), dtype=np.float32))
        with pytest.warns(UserWarning, match="ignored"):
            out = dice_loss(z, np.full((1, 2, 2), 7), ignore_index=7)
        assert float(out.data) == 0.0

    def test_gradcheck(self):
        z = Tensor(rng(7).normal(size=(1, 3, 3, 3)), requires_grad=True)
        labels = rng(8).integers(0, 3, size=(1, 3, 3))
        res = check_gradients(lambda: dice_loss(z, labels), [z], rng=rng(9))
        assert res.rel_error < 1e-4


class TestCombinedLoss:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(ce_weight=-1.0)
        with pytest.raises(ValueError):
            LossConfig(ce_weight=0.0, dice_weight=0.0)
        with pytest.raises(ValueError):
            LossConfig(dice_smooth=0.0)

    @pytest.mark.parametrize("field", ["ce_weight", "dice_weight", "dice_smooth"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_config_rejects_non_finite_fields(self, field, value):
        # NaN passes a `< 0` or `<= 0` check, so it has to be rejected by name
        with pytest.raises(ValueError, match=field):
            LossConfig(**{field: value})

    def test_weights_combine_linearly(self):
        z = Tensor(rng(1).normal(size=(1, 3, 4, 4)).astype(np.float64))
        labels = rng(2).integers(0, 3, size=(1, 4, 4))
        total, ce, dice = segmentation_loss(z, labels, LossConfig(ce_weight=2.0, dice_weight=0.5))
        assert abs(float(total.data) - (2 * float(ce.data) + 0.5 * float(dice.data))) < 1e-12

    def test_nonnegative_and_zero_only_when_perfect(self):
        labels = rng(3).integers(0, 3, size=(1, 4, 4))
        noisy = Tensor(rng(4).normal(size=(1, 3, 4, 4)).astype(np.float32))
        total, _, _ = segmentation_loss(noisy, labels)
        assert float(total.data) > 0.05
        onehot = np.eye(3, dtype=np.float32)[labels].transpose(0, 3, 1, 2)
        perfect, _, _ = segmentation_loss(Tensor(60.0 * onehot), labels)
        assert 0.0 <= float(perfect.data) < 1e-3


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def make_param(value, name="p", exempt=False, dtype=np.float64):
    p = Parameter(np.array(value, dtype=dtype), weight_decay_exempt=exempt)
    p.name = name
    return p


class TestAdamW:
    def test_one_step_hand_trace(self):
        lr, wd, eps = 0.001, 0.05, 1e-8
        p = make_param([1.0])
        p.grad = np.array([1.0])
        opt = AdamW([p], lr=lr, weight_decay=wd, eps=eps)
        opt.step()
        # decay first, then the bias-corrected update with m_hat = v_hat = 1
        want = 1.0 * (1 - lr * wd) - lr * (1.0 / (np.sqrt(1.0) + eps))
        assert abs(float(p.data[0]) - want) < 1e-15

    def test_two_steps_match_scalar_reference(self):
        lr, wd, b1, b2, eps = 0.01, 0.1, 0.9, 0.999, 1e-8
        p = make_param([0.5])
        opt = AdamW([p], lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
        ref, m, v = 0.5, 0.0, 0.0
        for t in (1, 2):
            p.grad = np.array([2.0])
            opt.step()
            ref *= 1 - lr * wd
            m = b1 * m + (1 - b1) * 2.0
            v = b2 * v + (1 - b2) * 4.0
            ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert abs(float(p.data[0]) - ref) < 1e-14

    def test_in_place_step_equals_array_formula_bitwise(self):
        # the update written with fresh temporaries on whole arrays, as numpy evaluates it op by
        # op; the fourth and fifth parameters span several of the update's slices, none a whole
        # number, and the last two are updated whole, one of exactly one slice
        lr, wd, b1, b2, eps = 0.003, 0.05, 0.9, 0.999, 1e-8
        shapes = [(4, 5), (7,), (2, 3, 3), (2 * SLICE + 123,), (3, SLICE // 2 + 5), (SLICE // 4, 4), (SLICE - 1,)]
        params = [Parameter(rng(i).normal(size=s).astype(np.float32), weight_decay_exempt=i == 1)
                  for i, s in enumerate(shapes)]
        # a float64 grad reaches a float32 parameter
        grad_dtypes = [np.float32, np.float32, np.float64, np.float32, np.float64, np.float32, np.float64]
        ref_p = [p.data.copy() for p in params]
        ref_m = [np.zeros_like(p.data) for p in params]
        ref_v = [np.zeros_like(p.data) for p in params]
        opt = AdamW(params, lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
        for t in (1, 2, 3):
            grads = [rng(10 * t + i).normal(size=s).astype(dt) for i, (s, dt) in enumerate(zip(shapes, grad_dtypes))]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for i, g in enumerate(grads):
                if not params[i].weight_decay_exempt:
                    ref_p[i] *= 1.0 - lr * wd
                ref_m[i] *= b1
                ref_m[i] += (1.0 - b1) * g
                ref_v[i] *= b2
                ref_v[i] += (1.0 - b2) * (g * g)
                update = (ref_m[i] / bc1) / (np.sqrt(ref_v[i] / bc2) + eps)
                ref_p[i] -= (lr * update).astype(ref_p[i].dtype)
        for i, p in enumerate(params):
            assert p.data.dtype == np.float32
            np.testing.assert_array_equal(opt._m[i], ref_m[i])
            np.testing.assert_array_equal(opt._v[i], ref_v[i])
            np.testing.assert_array_equal(p.data, ref_p[i])

    def test_step_with_loss_equals_backward_then_step_bitwise(self):
        # the README desk config: stacked DirectionalSSM parameters, decay-exempt
        # parameters and BatchNorm running statistics, trained for three steps
        cfg = NetworkConfig(embed_dim=16, input_size=(64, 64), state_dim=8, scan_block=32, num_classes=4)
        runs = []
        for fused in (False, True):
            model = CVMHUNet(cfg, seed=3)
            model.train()
            opt = AdamW(model.parameters(), lr=0.005)
            data = rng(4)
            for _ in range(3):
                x = Tensor(data.normal(size=(2, 3, 64, 64)).astype(np.float32))
                y = data.integers(0, 4, size=(2, 64, 64))
                for p in model.parameters():
                    p.grad = None
                total = segmentation_loss(model(x), y)[0]
                if fused:
                    opt.step(total)
                    assert all(p.grad is None for p in model.parameters())
                else:
                    total.backward()
                    opt.step()
            runs.append((model_state(model), opt._m, opt._v))
        (state, m, v), (fused_state, fused_m, fused_v) = runs
        assert any(p.weight_decay_exempt for p in model.parameters())
        assert any(k.endswith("running_mean") for k in state)
        assert list(fused_state) == list(state)
        for name, arr in state.items():
            np.testing.assert_array_equal(fused_state[name], arr, err_msg=name)
        for i in range(len(m)):
            np.testing.assert_array_equal(fused_m[i], m[i])
            np.testing.assert_array_equal(fused_v[i], v[i])

    def test_step_with_loss_finishes_parameters_the_sweep_missed(self):
        a = make_param([1.0, 2.0], name="used")
        b = make_param([3.0], name="stale")
        c = make_param([4.0], name="unused")
        b.grad = np.array([0.5])  # from an earlier backward, outside this loss
        opt = AdamW([a, b, c], lr=0.01, weight_decay=0.0)
        with pytest.warns(UserWarning, match="unused"):
            opt.step((a * a).sum())
        assert a.grad is None and float(a.data[0]) != 1.0
        assert b.grad is not None and float(b.data[0]) != 3.0
        assert float(c.data[0]) == 4.0

    def test_step_with_a_rejected_loss_changes_nothing(self):
        p = make_param([1.0, 2.0])
        opt = AdamW([p], lr=0.01)
        with pytest.raises(ValueError, match="scalar"):
            opt.step(p * 2.0)
        assert opt.step_count == 0 and p.data.tolist() == [1.0, 2.0]

    def test_zero_lr_is_identity(self):
        p = make_param([3.0, -2.0])
        p.grad = np.array([1.0, 1.0])
        AdamW([p], lr=0.0).step()
        assert np.array_equal(p.data, np.array([3.0, -2.0]))

    def test_zero_grad_zero_wd_unchanged(self):
        p = make_param([1.5])
        p.grad = np.array([0.0])
        AdamW([p], weight_decay=0.0).step()
        assert float(p.data[0]) == 1.5

    def test_exempt_parameter_skips_decay(self):
        a = make_param([1.0], name="w")
        b = make_param([1.0], name="gamma", exempt=True)
        a.grad = np.array([0.0])
        b.grad = np.array([0.0])
        AdamW([a, b], lr=0.1, weight_decay=0.5).step()
        assert float(a.data[0]) == pytest.approx(0.95)
        assert float(b.data[0]) == 1.0

    def test_missing_grad_warns_and_skips(self):
        a = make_param([1.0], name="has")
        b = make_param([1.0], name="missing")
        a.grad = np.array([1.0])
        opt = AdamW([a, b], lr=0.01, weight_decay=0.0)
        with pytest.warns(UserWarning, match="missing"):
            opt.step()
        assert float(b.data[0]) == 1.0
        assert float(a.data[0]) != 1.0

    def test_decay_is_decoupled_from_moments(self):
        # with zero grads the moments stay zero, so only decay acts
        p = make_param([2.0])
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        for _ in range(3):
            p.grad = np.array([0.0])
            opt.step()
        assert float(p.data[0]) == pytest.approx(2.0 * 0.95**3)
        assert np.all(opt._m[0] == 0) and np.all(opt._v[0] == 0)

    def test_state_round_trip_resumes_identically(self, tmp_path):
        # the state goes through a CVCK file, as in a run checkpoint: float32 moments, read into o3's own
        def run(steps, opt, p, seed):
            g = rng(seed)
            for _ in range(steps):
                p.grad = g.normal(size=3)
                opt.step()

        p1 = make_param(np.ones(3), dtype=np.float32)
        o1 = AdamW([p1], lr=0.01)
        run(6, o1, p1, seed=42)

        p2 = make_param(np.ones(3), dtype=np.float32)
        o2 = AdamW([p2], lr=0.01)
        run(3, o2, p2, seed=42)  # consumes the first 3 grads
        save_tensors(str(tmp_path / "o.cvck"), o2.state_tensors())

        p3 = make_param(p2.data.copy(), dtype=np.float32)
        o3 = AdamW([p3], lr=0.01)
        state = o3.state_tensors()
        assert load_tensors(str(tmp_path / "o.cvck"), lambda meta: state) == state
        o3.step_count = int(state["step"][0])
        g = rng(42)
        for _ in range(3):
            g.normal(size=3)  # skip the consumed draws
        for _ in range(3):
            p3.grad = g.normal(size=3)
            o3.step()
        assert o3.step_count == 6
        np.testing.assert_allclose(p3.data, p1.data, rtol=0, atol=0)

    def test_state_validation(self, tmp_path):
        # a saved state restores only into the moments of parameters of the same shapes and dtype
        path = str(tmp_path / "o.cvck")
        state = AdamW([make_param([1.0], dtype=np.float32)]).state_tensors()
        save_tensors(path, {k: v for k, v in state.items() if k != "p0000.v"})
        with pytest.raises(CheckpointError, match=r"missing entries \['p0000.v'\]"):
            load_tensors(path, lambda meta: AdamW([make_param([1.0], dtype=np.float32)]).state_tensors())
        save_tensors(path, {**state, "p0000.m": np.zeros(5, dtype=np.float32)})
        with pytest.raises(CheckpointError, match=r"'p0000.m' is float32 of shape \(5,\), its target a float32 of"):
            load_tensors(path, lambda meta: AdamW([make_param([1.0], dtype=np.float32)]).state_tensors())
        save_tensors(path, state)
        with pytest.raises(CheckpointError, match=r"'p0000.m' is float32 of shape \(1,\), its target a float64"):
            load_tensors(path, lambda meta: AdamW([make_param([1.0])]).state_tensors())

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AdamW([])
        with pytest.raises(ValueError):
            AdamW([make_param([1.0])], lr=-0.1)
        with pytest.raises(ValueError):
            AdamW([make_param([1.0])], betas=(1.0, 0.9))
        for field in ("lr", "weight_decay", "eps"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match="finite"):
                    AdamW([make_param([1.0])], **{field: bad})


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestRebuildOracle:
    """Rebuilds change only what the graph keeps: the tiny network of the gradient-check
    suite, which has every layer kind, trains bitwise the same with no rebuild attached."""

    TINY = NetworkConfig(embed_dim=8, num_classes=3, input_size=(32, 32), state_dim=4, scan_block=16, freq_k=4)
    # the scan's gathered x_proj output (whose slices are its B, C and dt code) and A = -exp(A_log)
    SCAN_OPERANDS = {"CrossScanModule.ssm: permute_last", "CrossScanModule.ssm: _negative_exp"}

    def test_in_sweep_steps_equal_steps_without_rebuilds_bitwise(self, monkeypatch):
        runs = []
        for rebuilds in (True, False):
            if not rebuilds:
                monkeypatch.setattr(Tensor, "_with_rebuild", lambda self, rebuild: self)
            model = CVMHUNet(self.TINY, seed=7)
            model.train()
            noise = rng(8)
            for p in model.parameters():  # zero-initialized projections made live, so grads reach every layer
                p.data += (0.05 * noise.normal(size=p.shape)).astype(p.data.dtype)
            opt = AdamW(model.parameters(), lr=0.01)
            data = rng(9)
            losses, held = [], []
            for _ in range(3):
                x = Tensor(data.normal(size=(2, 3, 32, 32)).astype(np.float32))
                y = data.integers(0, 3, size=(2, 32, 32))
                with Producers(model) as producers:
                    logits = model(x)
                total = segmentation_loss(logits, y)[0]
                held.append(set(producers.breakdown(total, exclude=[p.data for p in model.parameters()])))
                losses.append(total.data.copy())
                opt.step(total)
            runs.append((held, losses, model_state(model), opt._m, opt._v))
        (held, losses, state, m, v), (held_kept, losses_kept, state_kept, m_kept, v_kept) = runs
        assert not any(h & self.SCAN_OPERANDS for h in held)
        assert all(self.SCAN_OPERANDS <= h for h in held_kept)
        np.testing.assert_array_equal(np.array(losses).view(np.uint32), np.array(losses_kept).view(np.uint32))
        assert list(state) == list(state_kept)
        for name, arr in state.items():
            np.testing.assert_array_equal(arr.view(np.uint32), state_kept[name].view(np.uint32), err_msg=name)
        for i in range(len(m)):
            np.testing.assert_array_equal(m[i].view(np.uint32), m_kept[i].view(np.uint32))
            np.testing.assert_array_equal(v[i].view(np.uint32), v_kept[i].view(np.uint32))


class TestConfusionMatrix:
    def test_update_counts_match_naive_loop(self):
        cm = ConfusionMatrix(3)
        pred = rng(1).integers(0, 3, size=(2, 5, 5))
        target = rng(2).integers(0, 3, size=(2, 5, 5))
        cm.update(pred, target)
        want = np.zeros((3, 3), dtype=np.int64)
        for t, p in zip(target.ravel(), pred.ravel()):
            want[t, p] += 1
        assert np.array_equal(cm.counts, want)

    def test_ignored_pixels_are_dropped(self):
        cm = ConfusionMatrix(2, ignore_index=255)
        cm.update(np.array([0, 1, 1]), np.array([0, 255, 1]))
        assert cm.total == 2
        assert cm.counts[0, 0] == 1 and cm.counts[1, 1] == 1

    def test_update_validation(self):
        cm = ConfusionMatrix(2)
        with pytest.raises(ValueError, match="mismatch"):
            cm.update(np.zeros(3, dtype=int), np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match="outside"):
            cm.update(np.array([2]), np.array([0]))
        with pytest.raises(ValueError, match="outside"):
            cm.update(np.array([0]), np.array([5]))


class TestMetrics:
    def test_two_class_hand_example(self):
        cm = ConfusionMatrix(2)
        cm.counts = np.array([[3, 1], [2, 4]], dtype=np.int64)
        m = compute_metrics(cm)
        assert m["oa"] == pytest.approx(0.7)
        assert m["iou"][0] == pytest.approx(0.5)
        assert m["iou"][1] == pytest.approx(4 / 7)
        assert m["miou"] == pytest.approx(0.5357, abs=1e-4)
        assert m["f1"][0] == pytest.approx(2 / 3)
        assert m["mf1"] == pytest.approx((2 / 3 + 8 / 11) / 2)

    def test_perfect_diagonal(self):
        cm = ConfusionMatrix(3)
        cm.counts = np.diag([5, 2, 9]).astype(np.int64)
        m = compute_metrics(cm)
        assert m["oa"] == m["miou"] == m["mf1"] == 1.0

    def test_zero_support_classes_excluded(self):
        cm = ConfusionMatrix(3)
        cm.update(np.array([1, 1, 1]), np.array([1, 1, 1]))
        m = compute_metrics(cm)
        assert m["evaluated_classes"] == [1]
        assert m["miou"] == 1.0 and m["mf1"] == 1.0

    def test_ignore_index_class_excluded_from_means(self):
        cm = ConfusionMatrix(3, ignore_index=0)
        cm.counts = np.array([[4, 0, 0], [0, 3, 1], [0, 0, 2]], dtype=np.int64)
        m = compute_metrics(cm)
        assert m["evaluated_classes"] == [1, 2]

    def test_iou_never_exceeds_f1(self):
        g = rng(3)
        for _ in range(25):
            cm = ConfusionMatrix(4)
            cm.counts = g.integers(0, 30, size=(4, 4)).astype(np.int64)
            m = compute_metrics(cm)
            for k in range(4):
                assert 0.0 <= m["iou"][k] <= m["f1"][k] <= 1.0

    def test_f1_is_dice_of_iou(self):
        cm = ConfusionMatrix(3)
        cm.counts = rng(4).integers(1, 20, size=(3, 3)).astype(np.int64)
        m = compute_metrics(cm)
        for k in range(3):
            i = m["iou"][k]
            assert m["f1"][k] == pytest.approx(2 * i / (1 + i))

    def test_label_permutation_invariance(self):
        g = rng(5)
        counts = g.integers(0, 25, size=(4, 4)).astype(np.int64)
        perm = np.array([2, 0, 3, 1])
        a = ConfusionMatrix(4)
        a.counts = counts
        b = ConfusionMatrix(4)
        b.counts = counts[np.ix_(perm, perm)]
        ma, mb = compute_metrics(a), compute_metrics(b)
        assert ma["oa"] == pytest.approx(mb["oa"])
        assert ma["miou"] == pytest.approx(mb["miou"])
        assert ma["mf1"] == pytest.approx(mb["mf1"])
        for new, old in enumerate(perm):
            assert mb["iou"][new] == pytest.approx(ma["iou"][old])

    def test_macro_pr_f1_is_harmonic_mean(self):
        cm = ConfusionMatrix(2)
        cm.counts = np.array([[3, 1], [2, 4]], dtype=np.int64)
        m = compute_metrics(cm)
        p, r = m["macro_precision"], m["macro_recall"]
        assert m["macro_pr_f1"] == pytest.approx(2 * p * r / (p + r))

    def test_empty_matrix_raises(self):
        with pytest.raises(ValueError, match="empty"):
            compute_metrics(ConfusionMatrix(2))


# ---------------------------------------------------------------------------
# float64 shadow of a training run: how far float32 training drifts from exact arithmetic
# ---------------------------------------------------------------------------

# measured on the README desk config below: at most 8.3e-8 relative loss difference over
# 10 steps (5.5e-9 at step 1; 1.9e-6 at step 40), and 7.0e-4 relative parameter error,
# the worst tensor a bias; the bounds leave 12x and 14x of margin. A kernel change that
# is not bitwise equal reports its drift here and does not loosen these bounds
SHADOW_STEPS = 10
SHADOW_LOSS_RTOL = 1e-6
SHADOW_PARAM_RTOL = 1e-2


class TestFloat64Shadow:
    def run(self, pairs, dtype):
        """README desk config (batch 2, lr 0.005, no augmentation), seed 0: losses and final parameters."""
        cfg = NetworkConfig(embed_dim=16, input_size=(64, 64), state_dim=8, scan_block=32, num_classes=4)
        model = CVMHUNet(cfg, seed=0).to_dtype(dtype)
        model.train()
        optimizer = AdamW(model.parameters(), lr=0.005, weight_decay=0.05)
        batches = np.random.default_rng(0)
        losses = []
        for _ in range(SHADOW_STEPS):
            idx = batches.integers(0, len(pairs), size=2)
            x = np.stack([normalize_image(pairs[i][0]) for i in idx]).astype(dtype)
            total, _, _ = segmentation_loss(model(Tensor(x)), np.stack([pairs[i][1] for i in idx]), LossConfig())
            assert total.data.dtype == dtype
            losses.append(float(total.data))
            optimizer.step(total)
        return np.array(losses), {name: p.data for name, p in model.named_parameters()}

    def test_float32_training_tracks_float64(self, tmp_path):
        manifest = synth_generate(tmp_path, seed=0, n_images=8, size=64, n_classes=4)
        pairs = [load_pair(img, lab, 4) for img, lab in manifest.pairs]
        losses32, params32 = self.run(pairs, np.float32)
        losses64, params64 = self.run(pairs, np.float64)
        rel = np.abs(losses32 - losses64) / np.abs(losses64)
        assert rel.max() < SHADOW_LOSS_RTOL, f"relative loss difference per step: {rel}"
        errors = {
            name: float(np.linalg.norm(params32[name] - ref) / max(np.linalg.norm(ref), 1e-30))
            for name, ref in params64.items()
        }
        worst = sorted(errors.items(), key=lambda kv: -kv[1])[:5]
        assert worst[0][1] < SHADOW_PARAM_RTOL, f"largest relative parameter errors: {worst}"
        assert all(p.dtype == np.float64 for p in params64.values())
