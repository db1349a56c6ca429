"""The benchmark in ``perfbench/`` patches package names by string; each one must still exist.

``workloads.install`` wraps functions and methods where the package looks
them up (``cli.save_tensors``, ``cli.tile_image``, ``ssm.flatten_spatial``,
``functional.silu``, ``Tensor.moveaxis``, ...).  A refactor that renames or
moves one of them fails here instead of only in a benchmark run.  The tests
only read ``perfbench/``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cvmhunet import cli
from cvmhunet.data import synth_generate
from cvmhunet.network import CVMHUNet, NetworkConfig
from cvmhunet.tensor import Tensor, no_grad

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from checks import mac_coverage  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_install_wraps_and_restore_puts_back(name):
    t = Tracer(spans=True)
    try:
        workloads.install(t, workloads.WORKLOADS[name])
        patched = list(t._undo)  # (owner, attribute, original) of every wrapped name
    finally:
        t.restore()
    assert patched
    for owner, attr, original in patched:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original, f"{owner}.{attr} not restored"


def test_traced_forward_covers_the_analytic_macs():
    # the gradcheck suite's whole-network config: every layer kind at a tiny size
    cfg = NetworkConfig(embed_dim=8, num_classes=3, input_size=(32, 32), state_dim=4, scan_block=16, freq_k=4)
    model = CVMHUNet(cfg, seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 32, 32)).astype(np.float32))
    t = Tracer(spans=True)
    try:
        workloads.install(t, workloads.WORKLOADS["wide_train"])
        (model(x) ** 2).mean().backward()
    finally:
        t.restore()
    ok, detail = mac_coverage(t.first_forward_macs("network.CVMHUNet"), cfg)
    assert ok, detail
    # dense layers contract the channel axis in place, so the one copy left per PatchExpand
    # (five per forward) is all; run.py's per-layer report reads this span unconditionally
    moves = t.summary().get("tensor.moveaxis", {"calls": 0})["calls"]
    assert 1 <= moves <= 5, f"{moves} moveaxis calls in one forward"


@pytest.mark.parametrize("grad", [True, False], ids=["train", "eval"])
def test_traced_forward_fires_every_benchmarked_op(grad):
    # run.py's per-layer report reads a span for each functional.* and ssm.selective_scan
    # op BENCHMARK.json names, so a composition that stops calling one of them by name, in
    # a training forward or a no_grad one, fails here and not only in a traced benchmark run
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    ops = {".".join(n.split(".")[:2]) for n in names if n.startswith(("functional.", "ssm.selective_scan."))}
    assert ops
    cfg = NetworkConfig(embed_dim=8, num_classes=3, input_size=(32, 32), state_dim=4, scan_block=16, freq_k=4)
    model = CVMHUNet(cfg, seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 32, 32)).astype(np.float32))
    t = Tracer(spans=True)
    try:
        workloads.install(t, workloads.WORKLOADS["wide_train" if grad else "tile_eval"])
        if grad:
            model(x)
        else:
            with no_grad():
                model(x)
    finally:
        t.restore()
    summary = t.summary()
    missing = sorted(op for op in ops if summary.get(f"{op}.fwd", {"calls": 0})["calls"] < 1)
    assert not missing, f"no forward span for {missing}"


def test_checkpoint_spans_record_the_file_size(tmp_path):
    # the spans read the size of their first argument after the call returns, so a
    # save that leaves its file elsewhere or a load handed another argument shows here
    cfg = NetworkConfig(embed_dim=8, num_classes=3, input_size=(32, 32), state_dim=4, scan_block=16, freq_k=4)
    path = tmp_path / "best.cvck"
    t = Tracer(spans=True)
    try:
        workloads.install(t, workloads.WORKLOADS["tile_eval"])
        cli._save_run_checkpoint(path, CVMHUNet(cfg, seed=0), None, {"seed": 0})
        cli._model_from_checkpoint(path)
    finally:
        t.restore()
    summary = t.summary()
    size = path.stat().st_size
    assert summary["checkpoint.save_tensors"]["info"] == [size]
    assert summary["checkpoint.load_tensors"]["info"] == [size]


def test_one_op_boundary_per_training_step(tmp_path, capsys):
    # perfbench times a training step from one return of AdamW.step to the next, so
    # cvmh train must call it exactly once per step, with the backward inside or before it
    synth_generate(tmp_path / "data", seed=1, n_images=2, size=32, n_classes=4)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": {"embed_dim": 8, "input_size": [32, 32], "state_dim": 4, "scan_block": 16, "freq_k": 4},
        "train": {"steps": 3, "batch_size": 1, "lr": 0.003},
        "manifest": str(tmp_path / "data" / "manifest.json"),
        "seed": 0,
        "out_dir": str(tmp_path / "run"),
    }))
    t = Tracer(spans=False)
    try:
        workloads.install(t, workloads.WORKLOADS["wide_train"])
        assert cli.main(["train", "--config", str(config), "--steps", "3"]) == 0
    finally:
        t.restore()
    capsys.readouterr()
    assert len(t.op_ends) == 3


def test_cli_spans_fire_in_train_and_eval(tmp_path, capsys):
    # run.py's per-layer report reads these spans unconditionally, so a cvmh train or
    # cvmh eval that stops calling one of them through cli's namespace fails every traced op
    synth_generate(tmp_path / "data", seed=1, n_images=2, size=32, n_classes=4)
    manifest = tmp_path / "data" / "manifest.json"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": {"embed_dim": 8, "input_size": [32, 32], "state_dim": 4, "scan_block": 16, "freq_k": 4},
        "train": {"steps": 2, "batch_size": 1, "lr": 0.003},
        "manifest": str(manifest),
        "seed": 0,
        "out_dir": str(tmp_path / "run"),
    }))
    commands = {
        "wide_train": ["train", "--config", str(config)],
        "tile_eval": ["eval", "--checkpoint", str(tmp_path / "run" / "best.cvck"), "--manifest", str(manifest)],
    }
    calls: dict[str, int] = {}
    for name, argv in commands.items():
        t = Tracer(spans=True)
        try:
            workloads.install(t, workloads.WORKLOADS[name])
            assert cli.main(argv) == 0, name
        finally:
            t.restore()
        for span, stats in t.summary().items():
            calls[span] = calls.get(span, 0) + stats["calls"]
    capsys.readouterr()
    for span in ("losses.segmentation_loss", "data.augment_pair", "data.load_pair", "data.tile_image",
                 "data.stitch_tiles", "checkpoint.save_tensors", "checkpoint.load_tensors"):
        assert calls.get(span, 0) >= 1, span
