"""Release gate: one check per shipping criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict table.
Every expected value here was derived independently (hand arithmetic, naive
reference loops, or finite differences) before being frozen into the check.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cvmhunet
from cvmhunet import ssm
from cvmhunet.blocks import BlockPair, CVSSBlock
from cvmhunet.losses import LossConfig, ce_loss
from cvmhunet.metrics import ConfusionMatrix, compute_metrics
from cvmhunet.mfms import MFMSBlock, adaptive_kernel_size, compress_frequencies
from cvmhunet.network import NetworkConfig, flops_count, param_count
from cvmhunet.scan import SCAN_MODES, scan_orders
from cvmhunet.ssm import sequential_scan
from cvmhunet.tensor import Tensor

from gradcheck import gradcheck_suite


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[check {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    assert ok, line


def randomize(module, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    for p in module.parameters():
        p.data = p.data + rng.normal(size=p.data.shape).astype(p.data.dtype) * scale
    return module


def kernel_scan(a, b):
    """``h_t = a_t * h_{t-1} + b_t`` from ``h_{-1} = 0`` through the kernel ``ssm._scan``; last axis is time."""
    h = np.moveaxis(b, -1, 0)[..., None].copy()
    ssm._scan(np.moveaxis(a, -1, 0)[..., None], h, np.zeros(h.shape[1:], dtype=h.dtype))
    return np.ascontiguousarray(np.moveaxis(h[..., 0], 0, -1))


def test_01_default_model_budget():
    t0 = time.monotonic()
    cfg = NetworkConfig()  # C=96, depths (2,2,2,2)/(2,2,2,1), fusion on
    params = param_count(cfg)
    flops = flops_count(cfg, (256, 256))
    elapsed = time.monotonic() - t0
    params_ok = 24_672_000 <= params <= 37_008_000  # 30.84 M +/- 20%
    flops_ok = 4_282_500_000 <= flops <= 7_137_500_000  # 5.71 G +/- 25%
    verdict(
        1,
        params_ok and flops_ok and elapsed < 5.0,
        f"params {params:,} in [24,672,000, 37,008,000]; "
        f"flops {flops:,} in [4,282,500,000, 7,137,500,000]; {elapsed:.3f}s",
    )


def test_02_scan_mode_parity():
    t0 = time.monotonic()
    pairs = []
    for base in (NetworkConfig(), NetworkConfig(embed_dim=16, input_size=(64, 64))):
        ss = dataclasses.replace(base, scan_mode="ss2d")
        cs = dataclasses.replace(base, scan_mode="cs2d")
        pairs.append(
            (
                param_count(ss) == param_count(cs),
                flops_count(ss, ss.input_size) == flops_count(cs, cs.input_size),
            )
        )
    elapsed = time.monotonic() - t0
    ok = all(p and f for p, f in pairs)
    verdict(
        2,
        ok and elapsed < 5.0,
        f"ss2d/cs2d param and flop counters identical at 2 scales; {elapsed:.3f}s",
    )


def test_03_fusion_toggle_cost():
    t0 = time.monotonic()
    on = NetworkConfig(mfms_enabled=True)
    off = dataclasses.replace(on, mfms_enabled=False)
    delta = param_count(on) - param_count(off)
    rel = delta / param_count(off)
    elapsed = time.monotonic() - t0
    ok = 10_000 <= delta <= 1_000_000 and 0 < rel < 0.05 and elapsed < 5.0
    verdict(
        3,
        ok,
        f"fusion adds {delta:,} params ({rel:.2%}), positive and small; {elapsed:.3f}s",
    )


def test_04_gradient_suite():
    t0 = time.monotonic()
    results = gradcheck_suite(5, 1e-4)
    elapsed = time.monotonic() - t0
    worst = max(r["max_rel_error"] for r in results)
    ops = sorted(r["op"] for r in results)
    required = {
        "conv2d",
        "depthwise_conv2d",
        "selective_scan",
        "directional_ssm",
        "cross_scan_module",
        "cvss_block",
        "effn",
        "mfms_global_attention",
        "mfms_local_attention",
        "mfms_fusion",
        "tiny_network",
    }
    ok = (
        all(r["pass"] for r in results)
        and required <= set(ops)
        and all(r["seeds"] >= 5 for r in results)
        and worst < 1e-4
        and elapsed < 300.0
    )
    verdict(
        4,
        ok,
        f"{len(ops)} blocks x 5 seeds, worst rel error {worst:.2e} < 1e-4; {elapsed:.1f}s",
    )


def test_05_scan_path_properties():
    t0 = time.monotonic()
    for mode in SCAN_MODES:
        for h in range(1, 17):
            for w in range(1, 17):
                for order in scan_orders(h, w, mode):
                    assert np.array_equal(np.sort(order.perm), np.arange(h * w))
                    assert np.array_equal(order.inv[order.perm], np.arange(h * w))
                    assert np.array_equal(order.perm[order.inv], np.arange(h * w))
    # hand-derived 3x3 visit orders (flat row-major indices)
    expected = {
        "horizontal": [0, 1, 2, 3, 4, 5, 6, 7, 8],
        "horizontal_reversed": [8, 7, 6, 5, 4, 3, 2, 1, 0],
        "vertical": [0, 3, 6, 1, 4, 7, 2, 5, 8],
        "vertical_reversed": [8, 5, 2, 7, 4, 1, 6, 3, 0],
        "diagonal": [0, 1, 3, 2, 4, 6, 5, 7, 8],
        "anti_diagonal": [2, 1, 5, 0, 4, 8, 3, 7, 6],
    }
    for mode in SCAN_MODES:
        for order in scan_orders(3, 3, mode):
            assert list(order.perm) == expected[order.name], order.name
    elapsed = time.monotonic() - t0
    verdict(
        5,
        elapsed < 30.0,
        f"all H,W in [1,16]^2 bijective for both modes; 3x3 tables match; {elapsed:.1f}s",
    )


def test_06_scan_kernel_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 4))
        s = int(rng.integers(1, 5))
        length = int(rng.integers(1, 41))
        a = rng.uniform(-1.0, 1.0, size=(n, d, s, length))
        b = rng.normal(size=(n, d, s, length))
        ref = sequential_scan(a, b)
        rng.choice([1, 2, 3, 8, 32])  # once the block size; still drawn, so the 100 instances stay the same
        worst = max(worst, float(np.abs(kernel_scan(a, b) - ref).max()))
    assert worst < 1e-5

    # hand-traced scalar recurrences, 64-bit
    a = np.full((1, 1, 1, 3), 0.5)
    b = np.zeros((1, 1, 1, 3))
    b[..., 0] = 1.0
    scalar_dev = float(
        np.abs(sequential_scan(a, b).ravel() - np.array([1.0, 0.5, 0.25])).max()
    )
    a2 = np.array([2.0, 3.0]).reshape(1, 1, 1, 2)
    b2 = np.ones((1, 1, 1, 2))
    scalar_dev = max(
        scalar_dev,
        float(np.abs(kernel_scan(a2, b2).ravel() - np.array([1.0, 4.0])).max()),
    )
    elapsed = time.monotonic() - t0
    verdict(
        6,
        worst < 1e-5 and scalar_dev < 1e-12 and elapsed < 60.0,
        f"_scan==sequential on 100 instances (max dev {worst:.1e}); "
        f"scalar trace dev {scalar_dev:.1e}; {elapsed:.1f}s",
    )


def test_07_fusion_properties():
    t0 = time.monotonic()
    dim = 8
    rng = np.random.default_rng(11)
    f = Tensor(rng.normal(size=(2, dim, 4, 4)).astype(np.float32))
    g = Tensor(rng.normal(size=(2, dim, 4, 4)).astype(np.float32))

    # zero-init gates -> w = 0.5 midpoint blend; equal inputs pass bit-exactly
    fresh = MFMSBlock(dim, NetworkConfig(embed_dim=8, freq_k=4), np.random.default_rng(0))
    mid_dev = float(np.abs(fresh(f, g).data - 0.5 * (f.data + g.data)).max())
    passthrough_exact = bool(np.array_equal(fresh(f, f).data, f.data))

    fused = randomize(
        MFMSBlock(dim, NetworkConfig(embed_dim=8, freq_k=4), np.random.default_rng(1)), seed=2
    )
    out = fused(f, g).data
    lo = np.minimum(f.data, g.data) - 1e-6
    hi = np.maximum(f.data, g.data) + 1e-6
    convex = bool(np.all(out >= lo) and np.all(out <= hi))
    swap_dev = float(np.abs(fused(f, g).data + fused(g, f).data - (f.data + g.data)).max())

    x = Tensor(rng.normal(size=(2, dim, 5, 5)).astype(np.float64))
    y = Tensor(rng.normal(size=(2, dim, 5, 5)).astype(np.float64))
    lin_dev = float(
        np.abs(
            compress_frequencies(x * 0.7 + y * (-1.3), 4).data
            - (0.7 * compress_frequencies(x, 4).data - 1.3 * compress_frequencies(y, 4).data)
        ).max()
    )
    kernels = tuple(adaptive_kernel_size(c, 2.0, 1.0) for c in (96, 512, 2))
    elapsed = time.monotonic() - t0
    ok = (
        mid_dev < 1e-6
        and passthrough_exact
        and convex
        and swap_dev < 1e-6
        and lin_dev < 1e-6
        and kernels == (3, 5, 1)
    )
    verdict(
        7,
        ok,
        f"midpoint dev {mid_dev:.1e}, equal-input pass-through exact, convex, "
        f"swap dev {swap_dev:.1e}, DCT linearity dev {lin_dev:.1e}, "
        f"kernel sizes {kernels} == (3, 5, 1); {elapsed:.1f}s",
    )


def test_08_metrics_correctness():
    t0 = time.monotonic()
    cm = ConfusionMatrix(2)
    cm.counts = np.array([[3, 1], [2, 4]], dtype=np.int64)
    report = compute_metrics(cm)
    oa_dev = abs(report["oa"] - 0.7)
    miou_dev = abs(report["miou"] - 0.5357142857142857)

    rng = np.random.default_rng(3)
    iou_le_f1 = True
    for _ in range(50):
        k = int(rng.integers(2, 6))
        m = ConfusionMatrix(k)
        m.counts = rng.integers(0, 30, size=(k, k)).astype(np.int64)
        if m.counts.sum() == 0 or not m.counts.sum(axis=1).any():
            continue
        r = compute_metrics(m)
        iou_le_f1 &= all(i <= f + 1e-12 for i, f in zip(r["iou"], r["f1"]))

    ce_devs = []
    for k in (2, 4, 7):
        logits = Tensor(np.zeros((2, k, 3, 3), dtype=np.float64))
        labels = np.arange(18).reshape(2, 3, 3) % k
        ce = ce_loss(logits, labels, LossConfig())
        ce_devs.append(abs(float(ce.data) - math.log(k)))
    ce_dev = max(ce_devs)
    elapsed = time.monotonic() - t0
    ok = oa_dev < 1e-12 and miou_dev < 1e-4 and iou_le_f1 and ce_dev < 1e-6 and elapsed < 10.0
    verdict(
        8,
        ok,
        f"[[3,1],[2,4]] -> OA 0.7, mIoU 0.5357 (dev {miou_dev:.1e}); IoU<=F1 on 50 random "
        f"matrices; uniform CE == ln K (dev {ce_dev:.1e}); {elapsed:.1f}s",
    )


def test_09_desk_scale_training(tmp_path):
    t0 = time.monotonic()
    from cvmhunet.data import synth_generate

    synth_generate(tmp_path / "data", seed=0, n_images=8, size=64, n_classes=4)
    cfg = {
        "model": {"embed_dim": 16, "input_size": [64, 64], "state_dim": 8, "scan_block": 32},
        "train": {"steps": 240, "batch_size": 2, "lr": 0.005},
        "augment": {"hflip": 0.0, "vflip": 0.0, "rot90": 0.0},
        "manifest": str(tmp_path / "data" / "manifest.json"),
        "seed": 0,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))

    # the children import the same package as this process, from any working directory
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(cvmhunet.__file__).resolve().parent.parent),
        "CVMH_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
    }

    def start(*args):
        return subprocess.Popen(
            [sys.executable, "-m", "cvmhunet.cli", *args],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def wait(proc):
        _, err = proc.communicate(timeout=600.0)
        assert proc.returncode == 0, err

    # two independent single-threaded processes, at the same time
    runs = [
        start("train", "--config", str(cfg_path), "--out-dir", str(tmp_path / name))
        for name in ("run_a", "run_b")
    ]
    try:
        for proc in runs:
            wait(proc)
    finally:
        for proc in runs:
            proc.kill()  # a no-op once it has exited; ends the other run if one failed
    csv_a = (tmp_path / "run_a" / "loss.csv").read_bytes()
    csv_b = (tmp_path / "run_b" / "loss.csv").read_bytes()

    rows = csv_a.decode().splitlines()
    first_total = float(rows[1].split(",")[3])
    final_total = float(rows[-1].split(",")[3])

    wait(
        start(
            "eval",
            "--checkpoint", str(tmp_path / "run_a" / "last.cvck"),
            "--manifest", str(tmp_path / "data" / "manifest.json"),
            "--out", str(tmp_path / "metrics.json"),
        )
    )
    report = json.loads((tmp_path / "metrics.json").read_text())
    elapsed = time.monotonic() - t0
    ok = (
        csv_a == csv_b
        and len(rows) == 241
        and final_total < 0.8 * first_total
        and report["oa"] >= 0.98
        and report["miou"] >= 0.90
        and elapsed < 600.0
    )
    verdict(
        9,
        ok,
        f"240 steps single-threaded: OA {report['oa']:.4f} >= 0.98, "
        f"mIoU {report['miou']:.4f} >= 0.90, loss {first_total:.3f}->{final_total:.3f}, "
        f"CSV bitwise identical across two concurrent runs; {elapsed:.0f}s",
    )


def test_10_identity_at_init():
    cfg = NetworkConfig(embed_dim=8, state_dim=4, scan_block=16)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 8, 6, 6)).astype(np.float32))

    block = CVSSBlock(8, cfg, np.random.default_rng(1))
    block_dev = float(np.abs(block(x).data - x.data).max())

    pair = BlockPair(
        CVSSBlock(8, cfg, np.random.default_rng(2)),
        CVSSBlock(8, cfg, np.random.default_rng(3)),
    )
    pair_dev = float(np.abs(pair(x).data - 2.0 * x.data).max())
    verdict(
        10,
        block_dev == 0.0 and pair_dev == 0.0,
        f"fresh block == identity (max dev {block_dev}); paired stage == doubling "
        f"(max dev {pair_dev})",
    )
