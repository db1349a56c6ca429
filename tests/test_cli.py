"""Command-line interface: exit codes, artifacts, determinism, reports."""

import json
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cvmhunet
from cvmhunet import checkpoint
from cvmhunet.checkpoint import load_tensors, model_state, save_tensors
from cvmhunet.cli import _Run, _Train, _model_from_checkpoint, _predict_logits, _save_run_checkpoint, main
from cvmhunet.data import (
    AugmentConfig,
    DataError,
    DatasetManifest,
    load_pair,
    read_ppm,
    synth_generate,
    write_pgm,
    write_ppm,
)
from cvmhunet.losses import LossConfig
from cvmhunet.network import CVMHUNet, NetworkConfig, param_count
from cvmhunet.optim import AdamW
from cvmhunet.tensor import Tensor

TINY_MODEL = {
    "embed_dim": 8,
    "input_size": [32, 32],
    "state_dim": 4,
    "scan_block": 16,
    "freq_k": 4,
}
# model fields that NetworkConfig rejects at embed_dim 8 or 16
MODEL_BUILD_ERRORS = [("ca_reduction", 5), ("mfms_reduction", 3), ("freq_k", 17), ("freq_k", 0), ("ssm_expand", 0),
                      ("kernel_alpha", 0)]
# values that the checks on their ranges would pass, or fail on with a traceback: integer fields
# given a float or a bool, float fields given a bool, a non-number or a non-finite value, and
# lists of the wrong length
MODEL_TYPE_ERRORS = [("embed_dim", 8.0), ("embed_dim", True), ("state_dim", 4.0), ("scan_block", 16.5),
                     ("enc_depths", [2, 2, 2.0, 2]), ("dec_depths", [2, 2, 2, True]), ("input_size", [32.0, 32]),
                     ("kernel_beta", None), ("kernel_beta", "x"), ("kernel_beta", [1]), ("kernel_beta", {}),
                     ("kernel_beta", True), ("kernel_beta", float("inf")), ("kernel_beta", -float("inf")),
                     ("kernel_alpha", float("inf")), ("kernel_alpha", 1e-320), ("effn_ratio", float("inf")),
                     ("effn_ratio", False), ("mfms_enabled", 1), ("input_size", [32, 32, 32]), ("input_size", [32]),
                     ("input_size", [])]
# README desk config
DESK_MODEL = {"embed_dim": 16, "input_size": [64, 64], "state_dim": 8, "scan_block": 32, "num_classes": 4}
# layouts that no reader accepts: a version-1 CVCK file (u32 version 1, u32 count, entries without
# a dtype byte, its metadata in a sidecar) with one float32 entry, and a version-1 CVTN file
# (u32 version, u8 rank, u32 dims, u8 dtype, payload) holding a (3, 32, 32) uint8 image
CVCK_V1 = b"CVCK" + struct.pack("<IIH7sBI", 1, 1, 7, b"model.w", 1, 2) + np.ones(2, dtype="<f4").tobytes()
CVTN_V1 = b"CVTN" + struct.pack("<IB3IB", 1, 3, 3, 32, 32, 1) + bytes(3 * 32 * 32)


def write_config(tmp_path, **extra):
    doc = {
        "model": TINY_MODEL,
        "train": {"steps": 4, "batch_size": 2, "lr": 0.003},
        "manifest": str(tmp_path / "data" / "manifest.json"),
        "seed": 5,
        "out_dir": str(tmp_path / "run"),
        **extra,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


def save_cvtn(path, array) -> None:
    save_tensors(str(path), {"x": array})


def read_checkpoint(path) -> tuple[dict, dict]:
    """The metadata and the tensors of a checkpoint."""
    seen = []
    tensors = load_tensors(str(path), lambda meta: seen.append(meta) or {})
    return seen[0], tensors


def rewrite_meta(path, edit) -> None:
    """Save the checkpoint at ``path`` again with ``edit(metadata)`` in its header."""
    meta, tensors = read_checkpoint(path)
    save_tensors(str(path), tensors, edit(meta))


def rewrite_entry(path, name, fault) -> str:
    """Save the checkpoint at ``path`` again with its entry ``name`` changed by ``fault``; returns the
    message a restore into the model that wrote it raises."""
    meta, tensors = read_checkpoint(path)
    arr = tensors[name]
    want = {
        "uint8": f"entry '{name}' is uint8 of shape {arr.shape}, its target a float32 of shape {arr.shape}",
        "misshapen": f"entry '{name}' is float32 of shape {arr[:1].shape}, its target a float32 of shape {arr.shape}",
        "missing": f"missing entries ['{name}'] (1 in all)",
        "unknown": "unknown entries ['model.extra'] (1 in all)",
    }[fault]
    if fault == "uint8":
        tensors[name] = arr.astype(np.uint8)
    elif fault == "misshapen":
        tensors[name] = arr[:1]
    elif fault == "missing":
        del tensors[name]
    else:
        tensors["model.extra"] = np.zeros(2, dtype=np.float32)
    save_tensors(str(path), tensors, meta)
    return f"{path}: {want}"


def reader_args(trained, command) -> list[str]:
    """The arguments besides ``--checkpoint`` of an ``eval`` or ``predict`` on the trained dataset."""
    data = trained / "data"
    return {
        "eval": ["--manifest", str(data / "manifest.json")],
        "predict": ["--image", str(data / "img_0000.ppm"), "--out", str(trained / "pred.ppm")],
    }[command]


@pytest.fixture()
def dataset(tmp_path):
    synth_generate(tmp_path / "data", seed=1, n_images=3, size=32, n_classes=4)
    return tmp_path


class TestTrain:
    def test_writes_csv_and_checkpoints(self, dataset, capsys):
        cfg = write_config(dataset)
        assert main(["train", "--config", str(cfg)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["final_step"] == 4
        csv_lines = (dataset / "run" / "loss.csv").read_text().splitlines()
        assert csv_lines[0] == "step,ce,dice,total"
        assert len(csv_lines) == 5
        first = csv_lines[1].split(",")
        assert first[0] == "1" and len(first) == 4
        assert (dataset / "run" / "last.cvck").exists()
        assert (dataset / "run" / "best.cvck").exists()
        assert not (dataset / "run" / "last.json").exists()  # the metadata is in the header

    def test_saves_leave_no_temp_files(self, dataset, capsys):
        cfg = write_config(dataset)
        assert main(["train", "--config", str(cfg), "--steps", "1"]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in (dataset / "run").iterdir())
        assert names == ["best.cvck", "last.cvck", "loss.csv"]

    def test_flag_overrides_config(self, dataset, capsys):
        cfg = write_config(dataset)
        assert main(["train", "--config", str(cfg), "--steps", "2",
                     "--out-dir", str(dataset / "o2")]) == 0
        capsys.readouterr()
        assert len((dataset / "o2" / "loss.csv").read_text().splitlines()) == 3

    def test_same_seed_identical_csv(self, dataset, capsys):
        cfg = write_config(dataset)
        main(["train", "--config", str(cfg), "--out-dir", str(dataset / "a")])
        main(["train", "--config", str(cfg), "--out-dir", str(dataset / "b")])
        capsys.readouterr()
        assert (dataset / "a" / "loss.csv").read_bytes() == (dataset / "b" / "loss.csv").read_bytes()

    def test_resume_continues_step_counter(self, dataset, capsys):
        cfg = write_config(dataset)
        out = dataset / "r"
        main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "3"])
        main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "2",
              "--resume", str(out / "last.cvck")])
        capsys.readouterr()
        meta, _ = read_checkpoint(out / "last.cvck")
        assert meta["step"] == 5
        rows = (out / "loss.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "3", "4", "5"]

    def test_resume_equals_uninterrupted_run(self, dataset, capsys):
        # every split point k + (6 - k) of a 6-step run
        cfg = write_config(dataset)
        whole = dataset / "whole"
        assert main(["train", "--config", str(cfg), "--out-dir", str(whole), "--steps", "6"]) == 0
        for k in range(1, 6):
            split = dataset / f"split{k}"
            assert main(["train", "--config", str(cfg), "--out-dir", str(split), "--steps", str(k)]) == 0
            assert main(["train", "--config", str(cfg), "--out-dir", str(split), "--steps", str(6 - k),
                         "--resume", str(split / "last.cvck")]) == 0
            for name in ("loss.csv", "last.cvck", "best.cvck"):
                assert (whole / name).read_bytes() == (split / name).read_bytes(), (k, name)
        capsys.readouterr()

    def test_failed_last_save_leaves_a_resumable_run(self, dataset, capsys, monkeypatch, writes_fail_after):
        # a save of last.cvck that fails at a write keeps the previous file, and resuming from it
        # gives the uninterrupted run; the header, the first entry's header and payload, the
        # first optimizer entry and the last write stand for all of the save's writes
        cfg = write_config(dataset)
        whole, base = dataset / "whole", dataset / "base"
        assert main(["train", "--config", str(cfg), "--out-dir", str(whole), "--steps", "3"]) == 0
        assert main(["train", "--config", str(cfg), "--out-dir", str(base), "--steps", "1"]) == 0
        names = list(load_tensors(str(base / "last.cvck")))
        first_optim = names.index(next(n for n in names if n.startswith("optim.")))
        real_open = open
        for n in (0, 1, 2, 1 + 2 * first_optim, 2 * len(names)):
            run = dataset / f"failed{n}"
            shutil.copytree(base, run)
            resume = ["train", "--config", str(cfg), "--out-dir", str(run), "--steps", "2",
                      "--resume", str(run / "last.cvck")]
            monkeypatch.setattr(checkpoint, "open", lambda file, *a, **k: (
                writes_fail_after(real_open(file, *a, **k), n) if str(file).endswith("last.cvck.tmp")
                else real_open(file, *a, **k)), raising=False)
            assert main(resume) == 4, n
            monkeypatch.undo()
            assert "no space left" in capsys.readouterr().err
            assert (run / "last.cvck").read_bytes() == (base / "last.cvck").read_bytes(), n
            assert sorted(p.name for p in run.iterdir()) == ["best.cvck", "last.cvck", "loss.csv"]
            assert main(resume) == 0, n
            for name in ("loss.csv", "last.cvck", "best.cvck"):
                assert (run / name).read_bytes() == (whole / name).read_bytes(), (n, name)
        capsys.readouterr()

    def test_json_beside_a_checkpoint_changes_nothing(self, dataset, capsys):
        cfg = write_config(dataset)
        whole, split = dataset / "whole", dataset / "split"
        assert main(["train", "--config", str(cfg), "--out-dir", str(whole), "--steps", "2"]) == 0
        assert main(["train", "--config", str(cfg), "--out-dir", str(split), "--steps", "1"]) == 0
        (split / "last.json").write_text("[not json")
        (split / "best.json").write_text('{"model": 5}')
        assert main(["train", "--config", str(cfg), "--out-dir", str(split), "--steps", "1",
                     "--resume", str(split / "last.cvck")]) == 0
        for name in ("loss.csv", "last.cvck", "best.cvck"):
            assert (split / name).read_bytes() == (whole / name).read_bytes(), name
        assert main(["eval", "--checkpoint", str(split / "best.cvck"),
                     "--manifest", str(dataset / "data" / "manifest.json")]) == 0
        capsys.readouterr()

    def test_resume_from_version_1_checkpoint_exits_4(self, dataset, capsys):
        # with a sidecar holding the run's metadata, as version-1 checkpoints had
        cfg = write_config(dataset)
        out = dataset / "r"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "1"]) == 0
        meta, _ = read_checkpoint(out / "last.cvck")
        (out / "old.cvck").write_bytes(CVCK_V1)
        (out / "old.json").write_text(json.dumps(meta))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "1",
                     "--resume", str(out / "old.cvck")]) == 4
        assert f"{out / 'old.cvck'}: unsupported CVCK version 1" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("fault", ["misshapen", "missing"])
    def test_resume_with_a_moment_that_does_not_fit_exits_4_and_writes_nothing(self, dataset, capsys, fault):
        cfg = write_config(dataset)
        out = dataset / "r"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "1"]) == 0
        want = rewrite_entry(out / "last.cvck", "optim.p0003.v", fault)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "1",
                     "--resume", str(out / "last.cvck")]) == 4
        assert want in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("step", [float("inf"), float("nan"), 1.5])
    def test_resume_with_an_optim_step_that_is_not_whole_exits_4(self, dataset, capsys, step):
        cfg = write_config(dataset)
        out = dataset / "r"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "1"]) == 0
        meta, tensors = read_checkpoint(out / "last.cvck")
        save_tensors(str(out / "last.cvck"), {**tensors, "optim.step": np.array([step], dtype=np.float32)}, meta)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "1",
                     "--resume", str(out / "last.cvck")]) == 4
        assert f"optim.step {step} is not a whole number" in capsys.readouterr().err

    def test_resume_with_another_model_config_exits_2(self, dataset, capsys):
        out = dataset / "r"
        assert main(["train", "--config", str(write_config(dataset)), "--out-dir", str(out), "--steps", "1"]) == 0
        other = write_config(dataset, model={**TINY_MODEL, "freq_k": 2})
        capsys.readouterr()
        assert main(["train", "--config", str(other), "--out-dir", str(out), "--steps", "1",
                     "--resume", str(out / "last.cvck")]) == 2
        assert "checkpoint model config differs from the requested one" in capsys.readouterr().err

    def test_resume_keeps_best_when_not_beaten(self, dataset, capsys):
        cfg = write_config(dataset)
        out = dataset / "r"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "2"]) == 0
        rewrite_meta(out / "last.cvck", lambda meta: {**meta, "best_total": -1.0})  # no loss can beat this
        meta, _ = read_checkpoint(out / "last.cvck")
        before = {name: (out / name).read_bytes() for name in ("best.cvck",)}
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "2",
                     "--resume", str(out / "last.cvck")]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["best_total"] == -1.0 and summary["best_step"] == meta["best_step"]
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_summary_names_no_best_checkpoint_when_none_is_written(self, dataset, capsys):
        # a run resumed into a fresh directory whose steps never beat the restored best
        cfg = write_config(dataset)
        a, b = dataset / "a", dataset / "b"
        assert main(["train", "--config", str(cfg), "--out-dir", str(a), "--steps", "2"]) == 0
        rewrite_meta(a / "last.cvck", lambda meta: {**meta, "best_total": -1.0})  # no loss can beat this
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out-dir", str(b), "--steps", "1",
                     "--resume", str(a / "last.cvck")]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["best"] is None and summary["last"] == str(b / "last.cvck")
        assert sorted(p.name for p in b.iterdir()) == ["last.cvck", "loss.csv"]

    @pytest.mark.parametrize(
        "key,value",
        [
            ("rng_state", "x"),
            ("rng_state", {"bit_generator": "PCG64"}),
            ("rng_state", {"bit_generator": "MT19937", "state": {}}),
            ("step", "x"),
            ("best_total", [1.0]),
        ],
    )
    def test_resume_malformed_sidecar_exits_4(self, dataset, capsys, key, value):
        # a malformed value in the resume record of a checkpoint's metadata
        cfg = write_config(dataset)
        out = dataset / "r"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "1"]) == 0
        rewrite_meta(out / "last.cvck", lambda meta: {**meta, key: value})
        code = main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "1",
                     "--resume", str(out / "last.cvck")])
        assert code == 4
        assert "malformed resume state" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [("step", None), ("rng_state", None), ("best_total", None), ("best_step", None),
         ("step", 2), ("step", 1.0), ("best_step", 0), ("best_step", 2), ("best_total", True),
         ("best_total", float("nan")), ("best_total", float("inf")), ("best_total", -float("inf"))],
    )
    def test_resume_record_must_be_whole_and_consistent(self, dataset, capsys, key, value):
        # the saved run took one step, so its optimizer state is at step 1
        cfg = write_config(dataset)
        out = dataset / "r"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "1"]) == 0
        rewrite_meta(out / "last.cvck", lambda meta: {k: v for k, v in {**meta, key: value}.items() if v is not None})
        code = main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "1",
                     "--resume", str(out / "last.cvck")])
        assert code == 4
        assert "malformed resume state" in capsys.readouterr().err

    def test_resume_from_best_checkpoint_exits_4_and_writes_nothing(self, dataset, capsys):
        # best.cvck holds no resume record: continuing from it would restart the batch stream
        # and the best loss, repeat steps in loss.csv and overwrite best.cvck with a worse model
        cfg = write_config(dataset)
        out = dataset / "r"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "2"]) == 0
        names = ("loss.csv", "last.cvck", "best.cvck")
        before = {name: (out / name).read_bytes() for name in names}
        code = main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "2",
                     "--resume", str(out / "best.cvck")])
        assert code == 4
        assert "malformed resume state" in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in names} == before
        assert sorted(p.name for p in out.iterdir()) == sorted(names)

    def test_best_checkpoint_keeps_the_best_step(self, dataset, capsys):
        # at this lr the loss improves over the first steps and then rises, so the best
        # state is overwritten more than once and must not follow the later steps
        cfg = write_config(dataset)
        args = ["train", "--config", str(cfg), "--lr", "0.3"]
        assert main([*args, "--out-dir", str(dataset / "a"), "--steps", "5"]) == 0
        best_step = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["best_step"]
        assert 1 < best_step < 5
        assert main([*args, "--out-dir", str(dataset / "b"), "--steps", str(best_step)]) == 0
        capsys.readouterr()
        best = load_tensors(str(dataset / "a" / "best.cvck"))
        last = load_tensors(str(dataset / "b" / "last.cvck"))
        for name, arr in best.items():
            np.testing.assert_array_equal(arr, last[name], err_msg=name)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_input_aborts_with_exit_3(self, dataset, capsys):
        bad_dir = dataset / "bad"
        bad_dir.mkdir()
        img = np.full((3, 32, 32), np.nan, dtype=np.float32)
        lab = np.zeros((32, 32), dtype=np.uint8)
        save_cvtn(bad_dir / "img.cvtn", img)
        save_cvtn(bad_dir / "lab.cvtn", lab)
        (bad_dir / "manifest.json").write_text(
            json.dumps(
                {
                    "pairs": [{"image": "img.cvtn", "label": "lab.cvtn"}],
                    "num_classes": 2,
                    "palette": [[0, 0, 0], [255, 255, 255]],
                    "ignore_index": None,
                }
            )
        )
        cfg = write_config(dataset, manifest=str(bad_dir / "manifest.json"))
        code = main(["train", "--config", str(cfg), "--out-dir", str(dataset / "nan")])
        err = capsys.readouterr().err
        assert code == 3
        assert "step 1" in err

    def test_non_finite_loss_keeps_the_best_so_far(self, dataset, capsys, monkeypatch):
        # best.cvck is written by the step that sets the best, so exit 3 at step k + 1
        # leaves the files of an uninterrupted k-step run, except last.cvck
        k = 3
        cfg = write_config(dataset)
        whole, failed = dataset / "whole", dataset / "failed"
        assert main(["train", "--config", str(cfg), "--out-dir", str(whole), "--steps", str(k)]) == 0
        real, calls = cvmhunet.cli.segmentation_loss, []

        def nan_at_step_k_plus_1(*args, **kwargs):
            total, ce, dice = real(*args, **kwargs)
            calls.append(None)
            return (Tensor(np.array(np.nan, dtype=np.float32)) if len(calls) == k + 1 else total), ce, dice

        monkeypatch.setattr(cvmhunet.cli, "segmentation_loss", nan_at_step_k_plus_1)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out-dir", str(failed), "--steps", str(k + 2)]) == 3
        assert f"non-finite loss at step {k + 1}" in capsys.readouterr().err
        for name in ("best.cvck", "loss.csv"):
            assert (failed / name).read_bytes() == (whole / name).read_bytes(), name
        assert len((failed / "loss.csv").read_text().splitlines()) == 1 + k
        assert sorted(p.name for p in failed.iterdir()) == ["best.cvck", "loss.csv"]

    def test_missing_manifest_is_io_error(self, dataset, capsys):
        cfg = write_config(dataset, manifest=str(dataset / "nope.json"))
        assert main(["train", "--config", str(cfg)]) == 4
        capsys.readouterr()

    def test_invalid_model_config_is_usage_error(self, dataset, capsys):
        cfg = write_config(dataset)
        good = json.loads(cfg.read_text())
        for field, value in [("embed_dim", 6), ("state_dim", 0), ("ca_reduction", 0), ("mfms_reduction", 0),
                             ("effn_ratio", 0), ("effn_ratio", -1), *MODEL_BUILD_ERRORS, *MODEL_TYPE_ERRORS]:
            cfg.write_text(json.dumps({**good, "model": {**good["model"], field: value}}))
            assert main(["train", "--config", str(cfg)]) == 2, (field, value)
            assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,doc,key",
        [
            ("train", {"manfest": "data/manifest.json"}, "manfest"),
            ("train", {"train": {"bogus": 3}}, "bogus"),
            ("train", {"train": []}, "train"),
            ("train", {"augment": [1]}, "augment"),
            ("train", {"train": {"steps": None}}, "steps"),
            ("train", {"train": {"lr": None}}, "lr"),
            ("train", {"train": {"lr": float("nan")}}, "lr"),
            ("train", {"train": {"lr": float("inf")}}, "lr"),
            ("train", {"train": {"weight_decay": float("nan")}}, "weight_decay"),
            ("train", {"train": {"weight_decay": float("inf")}}, "weight_decay"),
            ("train", {"seed": None}, "seed"),
            ("train", {"manifest": 5}, "manifest"),
            ("inspect", [1], "config root"),
            ("train", {"train": {"tile": 0}}, "tile"),
            ("train", {"train": {"tile": -32}}, "tile"),
            ("train", {"augment": {"mean": [0.3, 0.3, 0.3]}}, "mean"),
            ("train", {"loss": {"ce_weight": float("nan")}}, "ce_weight"),
            ("train", {"loss": {"dice_weight": float("inf")}}, "dice_weight"),
            ("train", {"loss": {"dice_smooth": float("nan")}}, "dice_smooth"),
            ("train", {"loss": {"ignore_index": "x"}}, "ignore_index"),
            ("train", {"loss": {"ignore_index": 2.5}}, "ignore_index"),
            ("train", {"loss": {"ignore_index": True}}, "ignore_index"),
            ("train", {"loss": {"ce_weight": True}}, "ce_weight"),
            ("train", {"augment": {"hflip": True}}, "hflip"),
            ("train", {"model": {**TINY_MODEL, "num_classes": None}}, "num_classes"),
            ("train", {"model": {**TINY_MODEL, "num_classes": 3}}, "num_classes"),
        ],
        ids=["top-level-typo", "train-key", "train-list", "augment-list", "steps-null", "lr-null", "lr-nan", "lr-inf",
             "weight-decay-nan", "weight-decay-inf", "seed-null", "manifest-number", "inspect-list", "tile-zero",
             "tile-negative", "augment-mean", "ce-weight-nan", "dice-weight-inf", "dice-smooth-nan",
             "ignore-index-string", "ignore-index-fraction", "ignore-index-bool", "ce-weight-bool", "hflip-bool",
             "model-num-classes-null", "model-num-classes-not-the-manifests"],
    )
    def test_run_config_rejects_unknown_keys_and_wrong_types(self, dataset, capsys, command, doc, key):
        good = json.loads(write_config(dataset).read_text())
        cfg = dataset / "bad.json"
        cfg.write_text(json.dumps({**good, **doc} if isinstance(doc, dict) else doc))
        assert main([command, "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not Path(good["out_dir"]).exists()  # the config is checked before anything is written

    @pytest.mark.parametrize("field", ["dice_smooth", "ce_weight", "dice_weight"])
    def test_loss_field_beyond_float32_exits_2(self, dataset, capsys, field):
        # a training loss is float32: a larger value is inf there (dice_smooth makes the first
        # Dice term NaN), which a run would report as a numeric failure (exit 3) at step 1
        top = float(np.finfo(np.float32).max)
        assert getattr(LossConfig(**{field: top}), field) == top
        good = json.loads(write_config(dataset).read_text())
        cfg = dataset / "bad.json"
        cfg.write_text(json.dumps({**good, "loss": {field: 1e39}}))
        assert main(["train", "--config", str(cfg)]) == 2
        assert field in capsys.readouterr().err
        assert not Path(good["out_dir"]).exists()

    @pytest.mark.parametrize(
        "loss, named",
        [({"ce_weight": 3e38}, "loss ce_weight too large"),
         ({"ce_weight": 1.5e38, "dice_weight": 2e38}, "loss ce_weight and dice_weight too large")],
        ids=["ce", "sum"],
    )
    def test_loss_weight_overflow_exits_2(self, dataset, capsys, loss, named):
        # each weight is below float32's largest value and each loss term is finite (ce ~1.7 and
        # dice ~0.8 at step 1), but the weighted ce term, or only the weighted sum, overflows float32
        cfg = write_config(dataset, loss=loss)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{named}: the weighted loss at step 1 overflows float32" in err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


@pytest.fixture()
def trained(dataset, capsys):
    cfg = write_config(dataset)
    main(["train", "--config", str(cfg)])
    capsys.readouterr()
    return dataset


class TestEvalPredict:
    def test_eval_report_schema(self, trained, capsys):
        code = main(
            [
                "eval",
                "--checkpoint", str(trained / "run" / "last.cvck"),
                "--manifest", str(trained / "data" / "manifest.json"),
                "--out", str(trained / "metrics.json"),
            ]
        )
        assert code == 0
        report = json.loads((trained / "metrics.json").read_text())
        for key in ("oa", "miou", "mf1", "iou", "f1", "support", "total_pixels",
                    "macro_precision", "macro_recall", "macro_pr_f1"):
            assert key in report
        assert 0.0 <= report["oa"] <= 1.0
        assert 0.0 <= report["miou"] <= 1.0
        assert len(report["iou"]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_version_1_checkpoint_exits_4(self, trained, capsys, command):
        # with a sidecar holding the run's metadata, as version-1 checkpoints had
        run, data = trained / "run", trained / "data"
        meta, _ = read_checkpoint(run / "best.cvck")
        (run / "old.cvck").write_bytes(CVCK_V1)
        (run / "old.json").write_text(json.dumps(meta))
        args = {
            "eval": ["--manifest", str(data / "manifest.json")],
            "predict": ["--image", str(data / "img_0000.ppm"), "--out", str(trained / "pred.ppm")],
        }[command]
        assert main([command, "--checkpoint", str(run / "old.cvck"), *args]) == 4
        assert f"{run / 'old.cvck'}: unsupported CVCK version 1" in capsys.readouterr().err
        assert not (trained / "pred.ppm").exists()

    @pytest.mark.parametrize("fault", ["uint8", "misshapen", "missing", "unknown"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_entry_that_does_not_fit_the_model_exits_4(self, trained, capsys, command, fault):
        # an entry is read into the model's own array only if its dtype and shape are that array's
        ckpt = trained / "run" / "best.cvck"
        want = rewrite_entry(ckpt, "model.enc_stages.0.blocks.0.block_a.cross_scan.dwconv.weight", fault)
        assert main([command, "--checkpoint", str(ckpt), *reader_args(trained, command)]) == 4
        assert want in capsys.readouterr().err
        assert not (trained / "pred.ppm").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_invalid_model_config_in_checkpoint_exits_4(self, trained, capsys, command):
        # the file is at fault, not the run config
        ckpt = trained / "run" / "best.cvck"
        rewrite_meta(ckpt, lambda meta: {**meta, "model": {**meta["model"], "embed_dim": "x"}})
        assert main([command, "--checkpoint", str(ckpt), *reader_args(trained, command)]) == 4
        assert f"invalid {ckpt} model config: embed_dim must be an integer, got 'x'" in capsys.readouterr().err

    def test_last_checkpoint_restores_the_model_of_its_model_only_copy(self, trained, capsys):
        # eval and predict of a last.cvck pass over its optim.* entries unread
        run = trained / "run"
        meta, tensors = read_checkpoint(run / "last.cvck")
        save_tensors(str(run / "model.cvck"), {k: v for k, v in tensors.items() if k.startswith("model.")}, meta)
        outputs = []
        for name in ("last", "model"):
            report, logits = trained / f"{name}.json", trained / f"{name}.cvtn"
            assert main(["eval", "--checkpoint", str(run / f"{name}.cvck"), *reader_args(trained, "eval"),
                         "--out", str(report)]) == 0
            assert main(["predict", "--checkpoint", str(run / f"{name}.cvck"), *reader_args(trained, "predict"),
                         "--logits-out", str(logits)]) == 0
            outputs.append((report.read_bytes(), logits.read_bytes()))
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("size", ["0", "-1"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_batch_size_below_one_exits_2(self, trained, capsys, command, size):
        data = trained / "data"
        args = {
            "eval": ["--manifest", str(data / "manifest.json")],
            "predict": ["--image", str(data / "img_0000.ppm"), "--out", str(trained / "pred.ppm")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, "--checkpoint", str(trained / "run" / "best.cvck"), *args, "--batch-size", size])
        assert exc.value.code == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_oracle_eval_is_perfect(self, dataset, capsys):
        code = main(
            ["eval", "--oracle", "--manifest", str(dataset / "data" / "manifest.json")]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oa"] == 1.0 and report["miou"] == 1.0 and report["mf1"] == 1.0

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize(
        "key,value",
        [("num_classes", "1e999"), ("ignore_index", '"x"'), ("ignore_index", "2.5"), ("ignore_index", str(10**30)),
         ("palette", "[[0, 0, 0], [1e999, 0, 0]]"), ("palette", "[[0, 0, 0], [300, 0, 0]]"),
         ("palette", "[[0, 0, 0], [0, -1, 0]]"), ("palette", "[[0, 0, 0], [1, 1]]"), ("palette", "5"),
         ("palette", "null"), ("palette", "[5, 6]")],
        ids=["num_classes-overflow", "ignore_index-string", "ignore_index-fraction", "ignore_index-beyond-int64",
             "palette-overflow", "palette-above-255", "palette-negative", "palette-two-channels", "palette-number",
             "palette-null", "palette-flat-list"],
    )
    def test_manifest_value_of_the_wrong_type_exits_2(self, dataset, capsys, command, key, value):
        manifest = dataset / "data" / "manifest.json"
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, key: "?"}).replace('"?"', value))
        if command == "eval":
            code = main(["eval", "--oracle", "--manifest", str(manifest)])
        else:
            code = main(["train", "--config", str(write_config(dataset)), "--steps", "1"])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (dataset / "run").exists()

    @pytest.mark.parametrize(
        "pairs,code,text",
        [([{"image": 5, "label": "lab"}], 2, "image"), ([{"image": "img", "label": None}], 2, "label"),
         ([{"image": 5}], 2, "image"), ([{"image": "img"}], 4, "malformed"), (5, 4, "malformed"),
         (["img"], 4, "malformed")],
        ids=["image-number", "label-null", "image-number-label-missing", "label-missing", "pairs-number",
             "pair-string"],
    )
    def test_manifest_pair_paths_must_be_strings(self, dataset, capsys, pairs, code, text):
        # a wrong value in a pair is a config error; a missing key or a wrong structure an I/O error
        manifest = dataset / "data" / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "pairs": pairs}))
        assert main(["eval", "--oracle", "--manifest", str(manifest)]) == code
        assert text in capsys.readouterr().err

    def test_oracle_eval_of_unrepresentable_cvtn_exits_4(self, dataset, capsys):
        bad = dataset / "bad"
        bad.mkdir()
        dims = (0, 2**32 - 1, 2**32 - 1)  # no elements, but more bytes than numpy can address
        entry = struct.pack("<H1sBB3I", 1, b"x", 0, 3, *dims)
        (bad / "img.cvtn").write_bytes(b"CVCK" + struct.pack("<II2sI", 2, 2, b"{}", 1) + entry)
        save_cvtn(bad / "lab.cvtn", np.zeros((32, 32), dtype=np.uint8))
        (bad / "manifest.json").write_text(json.dumps({
            "pairs": [{"image": "img.cvtn", "label": "lab.cvtn"}],
            "num_classes": 2,
            "palette": [[0, 0, 0], [255, 255, 255]],
        }))
        code = main(["eval", "--oracle", "--manifest", str(bad / "manifest.json")])
        assert code == 4
        assert "img.cvtn" in capsys.readouterr().err

    def test_oracle_eval_of_version_1_cvtn_image_exits_4(self, dataset, capsys):
        manifest = dataset / "data" / "manifest.json"
        doc = json.loads(manifest.read_text())
        (dataset / "data" / "old.cvtn").write_bytes(CVTN_V1)
        doc["pairs"][0]["image"] = "old.cvtn"
        manifest.write_text(json.dumps(doc))
        assert main(["eval", "--oracle", "--manifest", str(manifest)]) == 4
        assert f"{dataset / 'data' / 'old.cvtn'}: bad magic b'CVTN'" in capsys.readouterr().err

    def test_oracle_eval_of_zero_size_cvtn_pair_exits_4(self, dataset, capsys):
        empty = dataset / "empty"
        empty.mkdir()
        save_cvtn(empty / "img.cvtn", np.zeros((3, 0, 32), dtype=np.uint8))
        save_cvtn(empty / "lab.cvtn", np.zeros((0, 32), dtype=np.uint8))
        (empty / "manifest.json").write_text(json.dumps({
            "pairs": [{"image": "img.cvtn", "label": "lab.cvtn"}],
            "num_classes": 2,
            "palette": [[0, 0, 0], [255, 255, 255]],
        }))
        assert main(["eval", "--oracle", "--manifest", str(empty / "manifest.json")]) == 4
        assert "img.cvtn" in capsys.readouterr().err

    def test_class_count_mismatch_exits_2(self, trained, capsys):
        other = trained / "other"
        synth_generate(other, seed=2, n_images=1, size=32, n_classes=3)
        code = main(
            [
                "eval",
                "--checkpoint", str(trained / "run" / "last.cvck"),
                "--manifest", str(other / "manifest.json"),
            ]
        )
        assert code == 2
        assert "classes" in capsys.readouterr().err

    def test_eval_without_checkpoint_exits_2(self, dataset, capsys):
        code = main(["eval", "--manifest", str(dataset / "data" / "manifest.json")])
        assert code == 2
        capsys.readouterr()

    def test_batch_size_changes_no_result(self, trained, capsys):
        # 96 x 96 scenes are nine 32 x 32 tiles each, so every batch size groups them differently
        scenes = trained / "scenes"
        synth_generate(scenes, seed=2, n_images=2, size=96, n_classes=4)
        ckpt = str(trained / "run" / "last.cvck")
        logits, reports = [], []
        for size in ("1", "2", "4"):
            out = trained / f"logits_{size}.cvtn"
            assert main(["predict", "--checkpoint", ckpt, "--image", str(scenes / "img_0000.ppm"),
                         "--out", str(trained / "pred.ppm"), "--logits-out", str(out), "--batch-size", size]) == 0
            report = trained / f"report_{size}.json"
            assert main(["eval", "--checkpoint", ckpt, "--manifest", str(scenes / "manifest.json"),
                         "--out", str(report), "--batch-size", size]) == 0
            logits.append(out.read_bytes())
            reports.append(report.read_text())
        capsys.readouterr()
        assert logits[0] == logits[1] == logits[2]
        assert reports[0] == reports[1] == reports[2]

    def test_predict_round_trip(self, trained, capsys, palette_to_labels):
        manifest = trained / "data" / "manifest.json"
        out = trained / "pred.ppm"
        code = main(
            [
                "predict",
                "--checkpoint", str(trained / "run" / "best.cvck"),
                "--image", str(trained / "data" / "img_0000.ppm"),
                "--out", str(out),
                "--manifest", str(manifest),
                "--logits-out", str(trained / "logits.cvtn"),
            ]
        )
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["shape"] == [32, 32]
        palette = DatasetManifest.load(manifest).palette
        classes = palette_to_labels(read_ppm(out), palette)
        assert classes.shape == (32, 32)
        (logits,) = load_tensors(str(trained / "logits.cvtn")).values()
        assert logits.shape == (4, 32, 32)
        assert np.array_equal(np.argmax(logits, axis=0), classes)

    def test_predict_with_a_palette_too_short_exits_2_and_writes_nothing(self, trained, capsys):
        two = trained / "two"
        synth_generate(two, seed=2, n_images=1, size=32, n_classes=2)  # a palette of 2 colors
        out, logits = trained / "pred.ppm", trained / "logits.cvtn"
        code = main(["predict", "--checkpoint", str(trained / "run" / "best.cvck"),
                     "--image", str(trained / "data" / "img_0000.ppm"), "--out", str(out),
                     "--manifest", str(two / "manifest.json"), "--logits-out", str(logits)])
        assert code == 2
        assert "palette has 2 colors for 4 classes" in capsys.readouterr().err
        assert not out.exists() and not logits.exists()

    def predict(self, trained, image, *extra):
        return main(["predict", "--checkpoint", str(trained / "run" / "best.cvck"),
                     "--image", str(image), "--out", str(trained / "pred.ppm"), *extra])

    @pytest.mark.parametrize("kind", ["unsupported_suffix", "one_channel_cvtn"])
    def test_predict_unreadable_image_exits_4(self, trained, capsys, kind):
        if kind == "unsupported_suffix":
            image = trained / "img.png"
            image.write_bytes((trained / "data" / "img_0000.ppm").read_bytes())
        else:
            image = trained / "img.cvtn"
            save_cvtn(image, np.zeros((1, 32, 32), dtype=np.uint8))
        assert self.predict(trained, image) == 4
        assert str(image) in capsys.readouterr().err

    def test_predict_of_version_1_cvtn_exits_4(self, trained, capsys):
        image = trained / "old.cvtn"
        image.write_bytes(CVTN_V1)
        assert self.predict(trained, image) == 4
        assert f"{image}: bad magic b'CVTN'" in capsys.readouterr().err
        assert not (trained / "pred.ppm").exists()

    def test_predict_of_zero_size_cvtn_exits_4(self, trained, capsys):
        image = trained / "empty.cvtn"
        save_cvtn(image, np.zeros((3, 0, 32), dtype=np.uint8))
        assert self.predict(trained, image) == 4
        assert str(image) in capsys.readouterr().err
        assert not (trained / "pred.ppm").exists()

    def test_predict_uint8_cvtn_matches_ppm(self, trained, capsys):
        ppm = trained / "data" / "img_0000.ppm"
        cvtn = trained / "img_0000.cvtn"
        save_cvtn(cvtn, np.ascontiguousarray(read_ppm(ppm).transpose(2, 0, 1)))
        assert self.predict(trained, ppm, "--logits-out", str(trained / "ppm.cvtn")) == 0
        assert self.predict(trained, cvtn, "--logits-out", str(trained / "cvtn.cvtn")) == 0
        capsys.readouterr()
        assert (trained / "ppm.cvtn").read_bytes() == (trained / "cvtn.cvtn").read_bytes()

    @pytest.mark.parametrize("header", ["[1]", '{"model": 5}', '{"seed": 0}'])
    def test_malformed_sidecar_exits_4(self, trained, capsys, header):
        # metadata in the header of a checkpoint that is not an object with an object 'model'
        ckpt = str(trained / "run" / "last.cvck")
        rewrite_meta(ckpt, lambda meta: json.loads(header))
        assert main(["eval", "--checkpoint", ckpt, "--manifest", str(trained / "data" / "manifest.json")]) == 4
        assert main(["train", "--config", str(write_config(trained)), "--steps", "1", "--resume", ckpt]) == 4
        assert "must be a JSON object" in capsys.readouterr().err

    def test_eval_corrupted_checkpoint_exits_4(self, trained, capsys):
        # the cut falls in the last optim.* entry, which eval passes over unread
        ckpt = trained / "run" / "last.cvck"  # its header stays valid
        ckpt.write_bytes(ckpt.read_bytes()[:-2])
        code = main(["eval", "--checkpoint", str(ckpt), "--manifest", str(trained / "data" / "manifest.json")])
        assert code == 4
        assert "truncated" in capsys.readouterr().err

    def test_predict_corrupted_checkpoint_exits_4(self, trained, capsys):
        ckpt = trained / "run" / "last.cvck"
        ckpt.write_bytes(ckpt.read_bytes()[:-2])
        assert main(["predict", "--checkpoint", str(ckpt), *reader_args(trained, "predict")]) == 4
        assert "truncated" in capsys.readouterr().err
        assert not (trained / "pred.ppm").exists()

    def test_predict_missing_checkpoint_exits_4(self, dataset, capsys):
        code = main(
            [
                "predict",
                "--checkpoint", str(dataset / "missing.cvck"),
                "--image", str(dataset / "data" / "img_0000.ppm"),
                "--out", str(dataset / "x.ppm"),
            ]
        )
        assert code == 4
        capsys.readouterr()


    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        which=st.sampled_from(["image", "label"]),
        cut=st.one_of(st.none(), st.integers(min_value=0, max_value=100)),
        flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)), max_size=4),
    )
    def test_eval_of_mutated_netpbm_exits_4(self, tmp_path, capsys, which, cut, flips):
        rng = np.random.default_rng(1)
        write_ppm(tmp_path / "img.ppm", rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8))
        write_pgm(tmp_path / "lab.pgm", rng.integers(0, 2, size=(4, 5), dtype=np.uint8))
        (tmp_path / "manifest.json").write_text(json.dumps({
            "pairs": [{"image": "img.ppm", "label": "lab.pgm"}],
            "num_classes": 2,
            "palette": [[0, 0, 0], [255, 255, 255]],
        }))
        path = tmp_path / ("img.ppm" if which == "image" else "lab.pgm")
        blob = bytearray(path.read_bytes())
        for pos, mask in flips:
            blob[pos % len(blob)] ^= mask
        if cut is not None:
            blob = blob[: cut % len(blob)]
        path.write_bytes(bytes(blob))
        try:
            load_pair(tmp_path / "img.ppm", tmp_path / "lab.pgm", 2)
            want = 0
        except DataError:
            want = 4
        assert main(["eval", "--oracle", "--manifest", str(tmp_path / "manifest.json")]) == want
        capsys.readouterr()


class TestRestore:
    def checkpoint(self, tmp_path, seed=3, name="best"):
        """A ``best.cvck`` (the model alone) or a ``last.cvck`` (with the optimizer's moments)."""
        model = CVMHUNet(NetworkConfig.from_dict(DESK_MODEL), seed=seed)
        optimizer = AdamW(model.parameters()) if name == "last" else None
        _save_run_checkpoint(tmp_path / f"{name}.cvck", model, optimizer, {"seed": seed})
        return model, tmp_path / f"{name}.cvck"

    def restore_peak(self, tmp_path, name) -> float:
        """The tracemalloc peak of ``_model_from_checkpoint`` of a ``name`` checkpoint over its parameter bytes."""
        model, path = self.checkpoint(tmp_path, name=name)
        param_bytes = sum(p.data.nbytes for p in model.parameters())
        del model
        tracemalloc.start()
        try:
            _model_from_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / param_bytes

    def test_restore_holds_the_weights_about_once(self, tmp_path):
        ratio = self.restore_peak(tmp_path, "best")
        assert ratio <= 1.5, f"restore peak is {ratio:.2f}x the parameter bytes"

    def test_restore_of_a_last_checkpoint_reads_no_moments(self, tmp_path):
        # a last.cvck holds twice the weights again in optim.* entries, which a restore
        # without an optimizer passes over unread (3.18x when it read them)
        ratio = self.restore_peak(tmp_path, "last")
        assert ratio <= 1.2, f"restore peak is {ratio:.2f}x the parameter bytes"

    def test_unseeded_restore_equals_seeded(self, tmp_path):
        saved, path = self.checkpoint(tmp_path)
        restored = _model_from_checkpoint(path)
        seeded = CVMHUNet(saved.config, seed=11)
        load_tensors(str(path), lambda meta: {f"model.{k}": v for k, v in model_state(seeded).items()})
        want = model_state(seeded)
        got = model_state(restored)
        assert list(got) == list(want)
        for name, arr in got.items():
            assert arr.dtype == want[name].dtype and arr.tobytes() == want[name].tobytes(), name
        image = np.random.default_rng(0).random((3, 64, 96)).astype(np.float32)
        restored.eval()
        seeded.eval()
        logits = [_predict_logits(m, image, 2) for m in (restored, seeded)]
        assert logits[0].tobytes() == logits[1].tobytes()

# huge ints are those beyond int64 and beyond a float; strings are short relative names, so a
# fuzzed out_dir or manifest path stays inside the example's directory
_HUGE_INTS = st.one_of(st.integers(2**63, 2**64), st.integers(-(2**64), -(2**63)), st.sampled_from([10**400, -(10**400)]))
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2), _HUGE_INTS,
    st.sampled_from([float("inf"), -float("inf"), float("nan")]), st.text(alphabet="ab0", max_size=3),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=2), inner, max_size=3),
    max_leaves=4,
)
# size fields: a huge in-range size is a resource limit, not a malformed value
_SIZE_FIELDS = {"embed_dim", "state_dim", "ssm_expand", "enc_depths", "dec_depths", "input_size", "scan_block",
                "steps", "batch_size", "tile"}


def _value_paths(doc) -> list[tuple]:
    """The key path of every value in a JSON document, nested ones included, except size
    fields and the objects that hold one (an empty ``model`` is the paper-width default)."""
    paths = []

    def walk(node, path) -> bool:  # whether ``node`` holds a size field
        holds = False
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            if key in _SIZE_FIELDS:
                holds = True
                continue
            inner = isinstance(child, (dict, list)) and walk(child, path + (key,))
            holds |= inner
            if not inner:
                paths.append(path + (key,))
        return holds

    walk(doc, ())
    return paths


def _replaced(doc, path: tuple, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestFuzzedJson:
    """One fuzz family for the JSON inputs: one value of a valid manifest or run config,
    nested ones included, is replaced by an arbitrary JSON value.  Every document exits 0
    (accepted), 2 (invalid config) or 4 (unreadable input), never 1 with a traceback, and
    an accepted one runs as its values say: the oracle eval of a manifest is perfect, and a
    run config's model and loss values reach the checkpoint as they were written.

    Size fields (``_SIZE_FIELDS``) are left out of the draw: a huge in-range size is a
    resource limit, not a malformed value.  For the same reason the huge ints are those
    beyond int64 and beyond a float: a representable loss weight near the float32 limit
    overflows the loss, which is exit 3 (numeric), as a huge ``lr`` does in a longer run.
    """

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_manifest(self, dataset, capsys, data):
        doc = json.loads((dataset / "data" / "manifest.json").read_text())
        path = data.draw(st.sampled_from(_value_paths(doc)), label="path")
        fuzzed = dataset / "data" / "fuzzed.json"  # beside the images its pairs name
        fuzzed.write_text(json.dumps(_replaced(doc, path, data.draw(_JSON_VALUES, label="value"))))
        code = main(["eval", "--oracle", "--manifest", str(fuzzed)])
        assert code in (0, 2, 4)
        out = capsys.readouterr().out
        if code == 0:
            report = json.loads(out)
            assert report["oa"] == report["miou"] == report["mf1"] == 1.0

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_run_config(self, dataset, capsys, monkeypatch, data):
        doc = {
            "model": {**TINY_MODEL, "num_classes": 4, "scan_mode": "cs2d", "mfms_enabled": True, "effn_ratio": 0.5,
                      "ssm_expand": 2, "ca_reduction": 4, "kernel_alpha": 2.0, "kernel_beta": 1.0, "mfms_reduction": 4},
            "loss": {"ce_weight": 1.0, "dice_weight": 1.0, "dice_smooth": 1.0, "ignore_index": None},
            "train": {"steps": 1, "batch_size": 1, "lr": 0.003, "weight_decay": 0.05, "tile": None},
            "augment": {"hflip": 0.5, "vflip": 0.5, "rot90": 0.5},
            "manifest": str(dataset / "data" / "manifest.json"),
            "seed": 5,
            "out_dir": "run",
        }
        path = data.draw(st.sampled_from(_value_paths(doc)), label="path")
        work = Path(tempfile.mkdtemp(dir=dataset))  # relative paths resolve here
        monkeypatch.chdir(work)
        value = data.draw(_JSON_VALUES, label="value")
        (work / "run.json").write_text(json.dumps(_replaced(doc, path, value)))
        code = main(["train", "--config", "run.json"])
        assert code in (0, 2, 4)
        capsys.readouterr()
        if code == 0 and path[0] in ("model", "loss"):  # nothing is coerced on its way to the checkpoint
            drawn = value if len(path) == 1 else {path[1]: value}  # a whole loss object, or one value
            saved = read_checkpoint(work / "run" / "last.cvck")[0][path[0]]
            assert {k: json.dumps(saved[k]) for k in drawn} == {k: json.dumps(v) for k, v in drawn.items()}


class TestReports:
    def test_inspect_stage_plan(self, tmp_path, capsys):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"model": TINY_MODEL}))
        assert main(["inspect", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["stages"]) == 10
        assert report["params"] == param_count(NetworkConfig.from_dict(TINY_MODEL))
        roles = [s["role"] for s in report["stages"]]
        assert roles[0] == "patch_embed" and roles[-1] == "head"

    @pytest.mark.parametrize("field,value", MODEL_BUILD_ERRORS + MODEL_TYPE_ERRORS)
    def test_inspect_rejects_configs_the_model_cannot_be_built_from(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"model": {**TINY_MODEL, "embed_dim": 16, field: value}}))
        assert main(["inspect", "--config", str(cfg)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("size", [("0", "0"), ("-32", "64")])
    def test_inspect_rejects_input_sizes_below_32(self, capsys, size):
        assert main(["inspect", "--input-size", *size]) == 2
        assert "input size" in capsys.readouterr().err

    def test_inspect_reads_the_run_config(self, tmp_path, capsys):
        # every section is optional: an empty document is the default model, as with no --config
        assert main(["inspect"]) == 0
        default = capsys.readouterr().out
        cfg = tmp_path / "m.json"
        cfg.write_text("{}")
        assert main(["inspect", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == default
        cfg.write_text(json.dumps({"model": TINY_MODEL, "train": {"steps": 2}, "seed": 1, "out_dir": "x"}))
        assert main(["inspect", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["params"] == param_count(NetworkConfig.from_dict(TINY_MODEL))

    def test_inspect_ignores_frequency_fields_without_fusion(self, tmp_path, capsys):
        model = {**TINY_MODEL, "mfms_enabled": False, "freq_k": 0}
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"model": model}))
        assert main(["inspect", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["params"] == param_count(NetworkConfig.from_dict(model))

    def test_readme_run_config_is_read_by_the_records(self):
        # the documented config is accepted, and documents every field and no other
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        doc = json.loads(re.sub(r"//.*", "", readme.split("```jsonc\n", 1)[1].split("```", 1)[0]))
        run = _Run.from_dict(doc)
        assert set(doc) == {f.name for f in fields(_Run)}
        for name, record in {"model": NetworkConfig, "loss": LossConfig, "train": _Train,
                             "augment": AugmentConfig}.items():
            record.from_dict(getattr(run, name))
            assert set(getattr(run, name)) == {f.name for f in fields(record)}, name

    def test_gradcheck_is_not_a_subcommand(self, capsys):
        # the finite-difference suite is a test helper (tests/gradcheck.py), run by acceptance check 04
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck"])
        assert exc.value.code == 2
        assert "invalid choice: 'gradcheck'" in capsys.readouterr().err

    def test_synth_command(self, tmp_path, capsys):
        code = main(
            ["synth", "--out", str(tmp_path / "ds"), "--n-images", "2", "--size", "32",
             "--n-classes", "3"]
        )
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["images"] == 2
        assert (tmp_path / "ds" / "manifest.json").exists()

    def test_synth_bad_size_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "x"), "--size", "33"]) == 2
        capsys.readouterr()


def _stripped_child_env(**extra):
    """Environment for a child that must not inherit the parent's thread vars.

    Only ``PATH`` and the directory holding the imported ``cvmhunet`` package
    are passed on, so the child imports the same package whether it is
    installed or found through a relative ``PYTHONPATH`` entry.
    """
    package_root = Path(cvmhunet.__file__).resolve().parent.parent
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root), **extra}


class TestThreadCap:
    def test_cvmh_threads_propagates_before_numpy(self):
        code = (
            "import os, sys\n"
            "seen = []\n"
            "def hook(event, args):\n"
            "    if event == 'import' and args[0] == 'numpy' and not seen:\n"
            "        seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "sys.addaudithook(hook)\n"
            "import cvmhunet\n"
            "print(os.environ.get('OMP_NUM_THREADS'), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "print(seen)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=_stripped_child_env(CVMH_THREADS="1"),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        thread_vars, numpy_import = out.stdout.splitlines()
        assert thread_vars.split() == ["1", "1"]
        # the cap must already be in place when numpy starts loading
        assert numpy_import == "['1']"

    def test_existing_thread_vars_not_clobbered(self):
        code = (
            "import os\n"
            "import cvmhunet\n"
            "print(os.environ.get('OMP_NUM_THREADS'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=_stripped_child_env(CVMH_THREADS="1", OMP_NUM_THREADS="3"),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "3"


def test_cli_import_needs_no_scipy():
    # the runtime depends on numpy alone; scipy is only the tests' oracle
    code = "import sys\nimport cvmhunet.cli\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    out = subprocess.run([sys.executable, "-c", code], env=_stripped_child_env(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
