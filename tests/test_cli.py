"""Command-line interface: exit codes, artifacts, determinism, reports."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvmhunet
from cvmhunet.cli import main
from cvmhunet.data import (
    DatasetManifest,
    palette_to_labels,
    read_ppm,
    save_cvtn,
    synth_generate,
)
from cvmhunet.network import NetworkConfig, param_count

TINY_MODEL = {
    "embed_dim": 8,
    "input_size": [32, 32],
    "state_dim": 4,
    "scan_block": 16,
    "freq_k": 4,
}


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
        assert (dataset / "run" / "last.json").exists()

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
        meta = json.loads((out / "last.json").read_text())
        assert meta["step"] == 5
        rows = (out / "loss.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "3", "4", "5"]

    def test_resume_equals_uninterrupted_run(self, dataset, capsys):
        cfg = write_config(dataset)
        whole, split = dataset / "whole", dataset / "split"
        assert main(["train", "--config", str(cfg), "--out-dir", str(whole), "--steps", "6"]) == 0
        assert main(["train", "--config", str(cfg), "--out-dir", str(split), "--steps", "3"]) == 0
        assert main(["train", "--config", str(cfg), "--out-dir", str(split), "--steps", "3",
                     "--resume", str(split / "last.cvck")]) == 0
        capsys.readouterr()
        for name in ("loss.csv", "last.cvck", "last.json", "best.cvck", "best.json"):
            assert (whole / name).read_bytes() == (split / name).read_bytes(), name

    def test_resume_keeps_best_when_not_beaten(self, dataset, capsys):
        cfg = write_config(dataset)
        out = dataset / "r"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "2"]) == 0
        meta = json.loads((out / "last.json").read_text())
        meta["best_total"] = -1.0  # no loss can beat this
        (out / "last.json").write_text(json.dumps(meta))
        before = {name: (out / name).read_bytes() for name in ("best.cvck", "best.json")}
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "2",
                     "--resume", str(out / "last.cvck")]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["best_total"] == -1.0 and summary["best_step"] == meta["best_step"]
        assert {name: (out / name).read_bytes() for name in before} == before

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
        cfg = write_config(dataset)
        out = dataset / "r"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "1"]) == 0
        meta = json.loads((out / "last.json").read_text())
        meta[key] = value
        (out / "last.json").write_text(json.dumps(meta))
        code = main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "1",
                     "--resume", str(out / "last.cvck")])
        assert code == 4
        assert "malformed resume state" in capsys.readouterr().err

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

    def test_missing_manifest_is_io_error(self, dataset, capsys):
        cfg = write_config(dataset, manifest=str(dataset / "nope.json"))
        assert main(["train", "--config", str(cfg)]) == 4
        capsys.readouterr()

    def test_invalid_model_config_is_usage_error(self, dataset, capsys):
        cfg = write_config(dataset)
        doc = json.loads(cfg.read_text())
        doc["model"]["embed_dim"] = 6
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 2
        capsys.readouterr()

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

    def test_oracle_eval_is_perfect(self, dataset, capsys):
        code = main(
            ["eval", "--oracle", "--manifest", str(dataset / "data" / "manifest.json")]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oa"] == 1.0 and report["miou"] == 1.0 and report["mf1"] == 1.0

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

    def test_predict_round_trip(self, trained, capsys):
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
        from cvmhunet.data import load_cvtn

        logits = load_cvtn(trained / "logits.cvtn")
        assert logits.shape == (4, 32, 32)
        assert np.array_equal(np.argmax(logits, axis=0), classes)

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

    def test_predict_uint8_cvtn_matches_ppm(self, trained, capsys):
        ppm = trained / "data" / "img_0000.ppm"
        cvtn = trained / "img_0000.cvtn"
        save_cvtn(cvtn, np.ascontiguousarray(read_ppm(ppm).transpose(2, 0, 1)))
        assert self.predict(trained, ppm, "--logits-out", str(trained / "ppm.cvtn")) == 0
        assert self.predict(trained, cvtn, "--logits-out", str(trained / "cvtn.cvtn")) == 0
        capsys.readouterr()
        assert (trained / "ppm.cvtn").read_bytes() == (trained / "cvtn.cvtn").read_bytes()

    def test_eval_corrupted_checkpoint_exits_4(self, trained, capsys):
        ckpt = trained / "run" / "last.cvck"  # its sidecar last.json stays valid
        ckpt.write_bytes(ckpt.read_bytes()[:-2])
        code = main(["eval", "--checkpoint", str(ckpt), "--manifest", str(trained / "data" / "manifest.json")])
        assert code == 4
        assert "truncated" in capsys.readouterr().err

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


class TestReports:
    def test_bench_parity_and_counts(self, tmp_path, capsys):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"model": TINY_MODEL}))
        code = main(["bench", "--config", str(cfg)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scan_mode_parity"] is True
        want = param_count(NetworkConfig.from_dict(TINY_MODEL))
        assert report["cs2d"]["params"] == want
        assert report["ss2d"]["params"] == want
        assert "forward_seconds" not in report["cs2d"]

    def test_inspect_stage_plan(self, tmp_path, capsys):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"model": TINY_MODEL}))
        assert main(["inspect", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["stages"]) == 10
        assert report["params"] == param_count(NetworkConfig.from_dict(TINY_MODEL))
        roles = [s["role"] for s in report["stages"]]
        assert roles[0] == "patch_embed" and roles[-1] == "head"

    def test_gradcheck_command_passes(self, capsys):
        assert main(["gradcheck", "--seeds", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        ops = {r["op"] for r in report["results"]}
        assert {"selective_scan", "cvss_block", "mfms_fusion", "tiny_network"} <= ops
        assert all(r["max_rel_error"] < 1e-4 for r in report["results"])

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
