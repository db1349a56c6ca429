"""The three workloads: their inputs, set-up, and one pass of the measured command.

Every workload is a closed loop driven through ``cvmhunet.cli.main``: the
next training step or image starts when the previous one returns.  Inputs
come from the workload seed only (dataset, image content, run config seed);
image sizes and op counts do not depend on it, so every seed does the same
amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cvmhunet import cli, functional, ssm
from cvmhunet.blocks import EFFN, CrossScanModule, CVSSBlock
from cvmhunet.data import DatasetManifest, read_pgm, read_ppm, write_pgm, write_ppm
from cvmhunet.metrics import ConfusionMatrix
from cvmhunet.mfms import MFMSBlock
from cvmhunet.network import CVMHUNet, NetworkConfig
from cvmhunet.optim import AdamW
from cvmhunet.tensor import Tensor, no_grad

from tracer import Tracer, scan_macs, scan_shape, tile_info, weight_macs

N_CLASSES = 4
MIN_OPS = 3  # at least two intervals between op boundaries
# README desk config; scan_mode cs2d and MFMS fusion are the defaults
DESK_MODEL = {"embed_dim": 16, "input_size": [64, 64], "state_dim": 8, "scan_block": 32}
# paper widths (NetworkConfig defaults: C=96, state 16, scan_block 64) at 128x128
WIDE_MODEL = {"input_size": [128, 128]}
# tile_eval images: each spans two 128-pixel tiles and has a side that is
# not a tile multiple, so the padded canvas wastes some work
EVAL_SHAPES = ((128, 200), (112, 240), (128, 176))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "eval"
    model: dict
    op_s: float  # nominal seconds per op on a 2-vCPU x86 host; sets the op count
    train: dict = field(default_factory=dict)
    n_images: int = 0  # training set size (eval: set by the op count)
    image_size: int = 0

    @property
    def config(self) -> NetworkConfig:
        return NetworkConfig.from_dict({**self.model, "num_classes": N_CLASSES})

    @property
    def tile(self) -> int:
        return min(self.config.input_size)

    @property
    def batch(self) -> int:
        return int(self.train["batch_size"]) if self.kind == "train" else EVAL_BATCH

    def ops(self, seconds: int) -> int:
        """Steps or images of one pass: fixed by ``seconds``, never by the clock."""
        return max(MIN_OPS, round(seconds / self.op_s))


EVAL_BATCH = 1
# paper-width checkpoint for tile_eval: one step on 32-pixel tiles moves every
# zero-initialized residual projection off zero, so blocks are not identities
CKPT_TRAIN = {"steps": 1, "batch_size": 1, "tile": 32}

WORKLOADS = {
    w.name: w
    for w in (
        # many small ops on short sequences: tape, small-op and optimizer overhead
        Workload(
            "desk_train",
            "train",
            DESK_MODEL,
            op_s=0.42,
            train={"batch_size": 2, "lr": 0.005},
            n_images=8,
            image_size=64,
        ),
        # scan forward and backward on long sequences dominate time and memory
        Workload(
            "wide_train",
            "train",
            WIDE_MODEL,
            op_s=12.4,
            train={"batch_size": 1},
            n_images=4,
            image_size=128,
        ),
        # forward-only scan under no_grad; tiling, stitching, scoring, checkpoint load
        Workload(
            "tile_eval",
            "eval",
            WIDE_MODEL,
            op_s=9.7,
        ),
    )
}


def cvmh(args: list[str]) -> tuple[int, str]:
    """Exit code and printed output of one ``cvmh`` command (stdout is kept for the result)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def _must(args: list[str]) -> None:
    code, _ = cvmh(args)
    if code != 0:
        raise RuntimeError(f"cvmh {args[0]} exited {code} during set-up")


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def paths(work: Path) -> dict[str, Path]:
    return {
        "manifest": work / "data" / "manifest.json",
        "config": work / "run.json",
        "checkpoint": work / "ckpt" / "best.cvck",
        "ckpt_loss": work / "ckpt" / "loss.csv",
    }


def setup(w: Workload, seed: int, seconds: int, work: Path) -> None:
    """Generate the inputs of one run under ``work``; the same seed gives the same files."""
    p = paths(work)
    data = p["manifest"].parent
    if w.kind == "train":
        _must(["synth", "--out", str(data), "--seed", str(seed), "--n-images", str(w.n_images),
               "--size", str(w.image_size), "--n-classes", str(N_CLASSES)])
        train = w.train
    else:
        n = w.ops(seconds)
        _must(["synth", "--out", str(data), "--seed", str(seed), "--n-images", str(n),
               "--size", "256", "--n-classes", str(N_CLASSES)])
        manifest = DatasetManifest.load(p["manifest"])
        for i, (img, lab) in enumerate(manifest.pairs):
            h, wd = EVAL_SHAPES[i % len(EVAL_SHAPES)]
            write_ppm(img, np.ascontiguousarray(read_ppm(img)[:h, :wd]))
            write_pgm(lab, np.ascontiguousarray(read_pgm(lab)[:h, :wd]))
        train = CKPT_TRAIN
    p["config"].write_text(json.dumps({
        "model": w.model,
        "train": train,
        "manifest": str(p["manifest"]),
        "seed": seed,
        "out_dir": str(work / "ckpt"),
    }, indent=2) + "\n")
    if w.kind == "eval":
        _must(["train", "--config", str(p["config"])])
    # construction is start-up work of every cvmh train/eval call that the
    # per-op intervals do not see; timing it here keeps it visible
    CVMHUNet(w.config, seed=seed)


# ---------------------------------------------------------------------------
# one pass of the measured command
# ---------------------------------------------------------------------------


def install(t: Tracer, w: Workload) -> None:
    """Wrap the op boundary and, when recording spans, every traced layer."""
    if w.kind == "train":
        t.op_boundary(AdamW, "step", "optim.AdamW.step")
    else:
        t.op_boundary(ConfusionMatrix, "update", "metrics.ConfusionMatrix.update")
    if not t.recording:
        return
    for op in ("linear", "conv2d", "depthwise_conv2d", "conv1d"):
        t.autograd_op(functional, op, f"functional.{op}", macs=weight_macs)
    for op in ("layer_norm", "softplus", "silu", "gelu"):
        t.autograd_op(functional, op, f"functional.{op}")
    # DirectionalSSM looks these up in ssm's namespace
    t.autograd_op(ssm, "selective_scan", "ssm.selective_scan", macs=scan_macs, info=scan_shape)
    t.span(ssm, "flatten_spatial", "scan.flatten_spatial")
    t.span(ssm, "unflatten_spatial", "scan.unflatten_spatial")
    t.span(Tensor, "backward", "tensor.backward")
    t.span(Tensor, "moveaxis", "tensor.moveaxis")
    t.count_nodes(Tensor)
    for cls, module in ((CVSSBlock, "blocks"), (CrossScanModule, "blocks"), (EFFN, "blocks"), (MFMSBlock, "mfms")):
        t.span(cls, "forward", f"{module}.{cls.__name__}")
    t.span(CVMHUNet, "forward", "network.CVMHUNet", info=lambda args, kwargs, out: tuple(args[1].shape))
    # cli imports these by name, so they are replaced in cli's namespace
    t.span(cli, "segmentation_loss", "losses.segmentation_loss")
    for fn in ("augment_pair", "load_pair", "stitch_tiles"):
        t.span(cli, fn, f"data.{fn}")
    t.span(cli, "tile_image", "data.tile_image", info=tile_info)
    t.span(cli, "save_tensors", "checkpoint.save_tensors", info=lambda args, kwargs, out: os.path.getsize(args[0]))
    t.span(cli, "load_tensors", "checkpoint.load_tensors", info=lambda args, kwargs, out: os.path.getsize(args[0]))


@dataclass
class Pass:
    code: int
    wall_s: float
    op_ends: list[float]
    output: str
    out_dir: Path
    tracer: Tracer


def run_pass(w: Workload, ops: int, work: Path, tag: str, record_spans: bool) -> Pass:
    p = paths(work)
    out_dir = work / tag
    if w.kind == "train":
        args = ["train", "--config", str(p["config"]), "--steps", str(ops), "--out-dir", str(out_dir)]
    else:
        args = ["eval", "--checkpoint", str(p["checkpoint"]), "--manifest", str(p["manifest"]),
                "--batch-size", str(EVAL_BATCH)]
    t = Tracer(spans=record_spans)
    install(t, w)
    try:
        t0 = time.perf_counter()
        code, output = cvmh(args)
        wall = time.perf_counter() - t0
    finally:
        t.restore()
    return Pass(code, wall, t.op_ends, output, out_dir, t)


def scan_peaks(shapes: set, seed: int, grad: bool) -> tuple[int, int]:
    """Peak bytes of one ``selective_scan`` forward and of its backward, over ``shapes``.

    Each distinct call shape of the traced pass is replayed under tracemalloc
    here, outside the timed passes, the way the workload calls it: with a
    backward when ``grad``, else forward-only under ``no_grad``.
    """
    t = Tracer(spans=True)
    t.autograd_op(ssm, "selective_scan", "scan", peak=True)
    try:
        for (n, d, length), s, block in sorted(shapes):
            inputs = [Tensor(v, requires_grad=grad) for v in scan_inputs((n, d, s, length), seed)]
            if grad:
                ssm.selective_scan(*inputs, block=block).sum().backward()
            else:
                with no_grad():
                    ssm.selective_scan(*inputs, block=block)
    finally:
        t.restore()
    summary = t.summary()
    return summary["scan.fwd"]["peak_bytes"], summary.get("scan.bwd", {"peak_bytes": 0})["peak_bytes"]


def scan_inputs(shape: tuple[int, int, int, int], seed: int) -> list[np.ndarray]:
    """u, delta, A, B, C, D of one ``selective_scan`` call with (N, D, S, L) = ``shape``."""
    n, d, s, length = shape
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, d, length)).astype(np.float32)
    delta = rng.uniform(1e-3, 1e-1, size=(n, d, length)).astype(np.float32)
    a = -np.tile(np.arange(1, s + 1, dtype=np.float32), (d, 1))  # -exp(A_log) at init
    b = rng.normal(size=(n, s, length)).astype(np.float32)
    c = rng.normal(size=(n, s, length)).astype(np.float32)
    return [u, delta, a, b, c, np.ones(d, dtype=np.float32)]


def image_pixels(manifest: Path) -> int:
    m = DatasetManifest.load(manifest)
    return sum(read_pgm(lab).size for _, lab in m.pairs)


def stage0_scan_shape(w: Workload) -> tuple[int, int, int, int]:
    """(N, D, S, L) of one selective_scan call in the first stage."""
    cfg = w.config
    return w.batch, cfg.ssm_expand * cfg.embed_dim, cfg.state_dim, (w.tile // 4) ** 2


def percentile_tail(samples: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    xs = sorted(samples)
    n = len(xs)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return {"percentile": pct, "value": xs[rank - 1], "beyond": n - rank, "samples": n}
    return None
