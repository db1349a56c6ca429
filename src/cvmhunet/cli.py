"""Command-line interface (``cvmh``).

Subcommands: ``train``, ``eval``, ``predict``, ``bench``, ``gradcheck``,
``inspect``, ``synth``. Configuration comes from a JSON file (``--config``)
with individual flags winning over file values. Exit codes are a stable
contract: 0 success, 2 configuration error, 3 numerical failure, 4 IO error.

Set ``CVMH_THREADS=1`` for bitwise-reproducible runs; the variable caps the
BLAS thread pools and is honored because the package reads it before numpy
is first imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, apply_model_state, load_tensors, model_state, save_tensors
from .data import (
    AugmentConfig,
    DataError,
    DatasetManifest,
    TileSpec,
    augment_pair,
    emit_prediction,
    load_image,
    load_pair,
    normalize_image,
    save_cvtn,
    stitch_tiles,
    synth_generate,
    tile_image,
)
from .gradcheck import DEFAULT_TOL, gradcheck_suite
from .losses import LossConfig, segmentation_loss
from .metrics import ConfusionMatrix, compute_metrics
from .network import CVMHUNet, NetworkConfig, flops_count, param_count, stage_plan
from .optim import AdamW
from .tensor import Tensor, no_grad

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

TRAIN_DEFAULTS = {
    "lr": 0.001,
    "weight_decay": 0.05,
    "batch_size": 5,
    "steps": 300,
    "tile": None,  # None -> smaller edge of the model input size
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def _read_json(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}", EXIT_IO) from e
    except json.JSONDecodeError as e:
        raise CliError(f"{path} is not valid JSON: {e}", EXIT_CONFIG) from e


def _load_run_config(args: argparse.Namespace) -> dict:
    """File config merged with flag overrides (flags win)."""
    doc = _read_json(args.config) if getattr(args, "config", None) else {}
    if not isinstance(doc, dict):
        raise CliError("config root must be a JSON object", EXIT_CONFIG)
    run = {
        "model": dict(doc.get("model", {})),
        "loss": dict(doc.get("loss", {})),
        "train": {**TRAIN_DEFAULTS, **doc.get("train", {})},
        "augment": dict(doc.get("augment", {})),
        "manifest": doc.get("manifest"),
        "seed": doc.get("seed", 0),
        "out_dir": doc.get("out_dir", "runs/default"),
    }
    for flag, dest in (
        ("manifest", "manifest"),
        ("seed", "seed"),
        ("out_dir", "out_dir"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            run[dest] = value
    for flag in ("steps", "batch_size", "lr", "weight_decay", "tile"):
        value = getattr(args, flag, None)
        if value is not None:
            run["train"][flag] = value
    return run


def _build_network_config(model_doc: dict, num_classes: int | None = None) -> NetworkConfig:
    doc = dict(model_doc)
    if num_classes is not None:
        declared = doc.get("num_classes")
        if declared is not None and declared != num_classes:
            raise CliError(
                f"model declares {declared} classes but the manifest has {num_classes}",
                EXIT_CONFIG,
            )
        doc["num_classes"] = num_classes
    try:
        return NetworkConfig.from_dict(doc)
    except (ValueError, TypeError) as e:
        raise CliError(f"invalid model config: {e}", EXIT_CONFIG) from e


def _build_loss_config(loss_doc: dict) -> LossConfig:
    try:
        return LossConfig(**loss_doc)
    except (ValueError, TypeError) as e:
        raise CliError(f"invalid loss config: {e}", EXIT_CONFIG) from e


def _load_manifest(path: str | None) -> DatasetManifest:
    if not path:
        raise CliError("a dataset manifest is required (--manifest or config)", EXIT_CONFIG)
    try:
        return DatasetManifest.load(path)
    except DataError as e:
        raise CliError(str(e), EXIT_IO) from e
    except ValueError as e:
        raise CliError(f"{path}: {e}", EXIT_CONFIG) from e


# ---------------------------------------------------------------------------
# checkpoints with training metadata
# ---------------------------------------------------------------------------


def _sidecar(path: Path) -> Path:
    return path.with_suffix(".json")


def _save_run_checkpoint(
    path: Path,
    model: CVMHUNet,
    state: dict[str, np.ndarray] | None,
    optimizer: AdamW | None,
    meta: dict,
) -> None:
    """Model (and optimizer) tensors to ``path``; ``meta`` plus the model config to its sidecar."""
    tensors = {}
    for k, v in (state or model_state(model)).items():
        tensors[f"model.{k}"] = v
    if optimizer is not None:
        for k, v in optimizer.state_tensors().items():
            tensors[f"optim.{k}"] = v
    save_tensors(str(path), tensors)
    meta = {**meta, "model": model.config.to_dict()}
    _sidecar(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _load_run_checkpoint(path: Path) -> tuple[dict, dict[str, np.ndarray], dict[str, np.ndarray]]:
    """(sidecar metadata, model state, optimizer state) from a train checkpoint."""
    side = _sidecar(path)
    if not side.exists():
        raise CliError(f"{path}: missing sidecar {side.name} (not a training checkpoint?)", EXIT_IO)
    meta = _read_json(side)
    tensors = load_tensors(str(path))
    model_part = {k[len("model.") :]: v for k, v in tensors.items() if k.startswith("model.")}
    optim_part = {k[len("optim.") :]: v for k, v in tensors.items() if k.startswith("optim.")}
    if not model_part:
        raise CliError(f"{path}: no model tensors found", EXIT_IO)
    return meta, model_part, optim_part


def _model_from_checkpoint(path: Path) -> tuple[CVMHUNet, dict]:
    meta, model_part, _ = _load_run_checkpoint(path)
    cfg = _build_network_config(meta.get("model", {}))
    model = CVMHUNet(cfg, seed=int(meta.get("seed", 0)))
    apply_model_state(model, model_part, source=str(path))
    return model, meta


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _collect_tiles(manifest: DatasetManifest, tile: int) -> list[dict]:
    spec = TileSpec(size=tile)
    tiles = []
    for img_path, lab_path in manifest.pairs:
        image, label = load_pair(
            img_path, lab_path, manifest.num_classes, manifest.ignore_index
        )
        tiles.extend(tile_image(image, label, spec, manifest.ignore_index))
    return tiles


def cmd_train(args: argparse.Namespace) -> int:
    run = _load_run_config(args)
    manifest = _load_manifest(run["manifest"])
    net_cfg = _build_network_config(run["model"], manifest.num_classes)
    loss_cfg = _build_loss_config(
        {**run["loss"], "ignore_index": manifest.ignore_index}
        if "ignore_index" not in run["loss"]
        else run["loss"]
    )
    try:
        aug_cfg = AugmentConfig(**run["augment"])
    except (ValueError, TypeError) as e:
        raise CliError(f"invalid augment config: {e}", EXIT_CONFIG) from e

    train = run["train"]
    steps = int(train["steps"])
    batch_size = int(train["batch_size"])
    if steps < 1 or batch_size < 1:
        raise CliError(f"steps and batch_size must be >= 1, got {steps}/{batch_size}", EXIT_CONFIG)
    tile = int(train["tile"] or min(net_cfg.input_size))
    seed = int(run["seed"])

    out_dir = Path(run["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    model = CVMHUNet(net_cfg, seed=seed)
    optimizer = AdamW(
        model.parameters(),
        lr=float(train["lr"]),
        weight_decay=float(train["weight_decay"]),
    )
    rng = np.random.default_rng(seed)
    best_total, best_step, start_step = np.inf, 0, 0
    if getattr(args, "resume", None):
        meta, model_part, optim_part = _load_run_checkpoint(Path(args.resume))
        if meta.get("model") != net_cfg.to_dict():
            raise CliError(
                f"{args.resume}: checkpoint model config differs from the requested one",
                EXIT_CONFIG,
            )
        try:
            apply_model_state(model, model_part, source=args.resume)
            if optim_part:
                optimizer.load_state_tensors(optim_part)
        except (CheckpointError, ValueError) as e:
            raise CliError(str(e), EXIT_IO) from e
        # continue the step count, the batch stream and the best-so-far where the saved run stopped
        try:
            start_step = int(meta.get("step", optimizer.step_count))
            if "rng_state" in meta:
                rng.bit_generator.state = meta["rng_state"]
            best_total = float(meta.get("best_total", np.inf))
            best_step = int(meta.get("best_step", start_step))
        except (KeyError, TypeError, ValueError) as e:
            raise CliError(f"{args.resume}: malformed resume state in its sidecar: {e!r}", EXIT_IO) from e

    tiles = _collect_tiles(manifest, tile)
    if not tiles:
        raise CliError("dataset produced no tiles", EXIT_CONFIG)

    model.train()
    csv_path = out_dir / "loss.csv"
    mode = "a" if start_step > 0 and csv_path.exists() else "w"
    best_state: dict[str, np.ndarray] | None = None

    with open(csv_path, mode) as csv_file:
        if mode == "w":
            csv_file.write("step,ce,dice,total\n")
        for step in range(start_step + 1, start_step + steps + 1):
            idx = rng.integers(0, len(tiles), size=batch_size)
            images, labels = [], []
            for i in idx:
                img, lab = augment_pair(tiles[i]["image"], tiles[i]["label"], aug_cfg, rng)
                images.append(normalize_image(img, aug_cfg))
                labels.append(lab)
            x = Tensor(np.stack(images))
            y = np.stack(labels)

            total, ce, dice = segmentation_loss(model(x), y, loss_cfg)
            total_v = float(total.data)
            if not np.isfinite(total_v):
                print(
                    f"error: non-finite loss at step {step} "
                    f"(ce={float(ce.data)!r}, dice={float(dice.data)!r})",
                    file=sys.stderr,
                )
                return EXIT_NUMERIC
            csv_file.write(f"{step},{float(ce.data)!r},{float(dice.data)!r},{total_v!r}\n")

            model.zero_grad()
            total.backward()
            optimizer.step()

            if total_v < best_total:
                best_total = total_v
                best_step = step
                best_state = {k: v.copy() for k, v in model_state(model).items()}
            if args.log_every and step % args.log_every == 0:
                print(f"step {step}: total {total_v:.4f} (ce {float(ce.data):.4f}, dice {float(dice.data):.4f})")

    run_meta = {"seed": seed, "loss": asdict(loss_cfg)}
    resume = {"rng_state": rng.bit_generator.state, "best_total": best_total, "best_step": best_step}
    _save_run_checkpoint(
        out_dir / "last.cvck", model, None, optimizer, {**run_meta, **resume, "step": start_step + steps}
    )
    if best_state is not None:  # else no step of this run beat the restored best: keep best.cvck
        _save_run_checkpoint(out_dir / "best.cvck", model, best_state, None, {**run_meta, "step": best_step})
    print(
        json.dumps(
            {
                "steps": steps,
                "final_step": start_step + steps,
                "best_total": best_total,
                "best_step": best_step,
                "loss_csv": str(csv_path),
                "last": str(out_dir / "last.cvck"),
                "best": str(out_dir / "best.cvck"),
            }
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval / predict
# ---------------------------------------------------------------------------


def _predict_logits(model: CVMHUNet, image: np.ndarray, aug: AugmentConfig, batch: int) -> np.ndarray:
    """Tile, forward, stitch back to the original extent; returns (K, H, W)."""
    tile = min(model.config.input_size)
    spec = TileSpec(size=tile)
    tiles = tile_image(normalize_image(image, aug), None, spec)
    logits: list[np.ndarray] = []
    with no_grad():
        for i in range(0, len(tiles), batch):
            chunk = tiles[i : i + batch]
            x = Tensor(np.stack([t["image"] for t in chunk]))
            out = model(x).data
            logits.extend(out[j] for j in range(out.shape[0]))
    origins = [(t["y"], t["x"]) for t in tiles]
    return stitch_tiles(logits, origins, image.shape[1:])


def cmd_eval(args: argparse.Namespace) -> int:
    manifest = _load_manifest(args.manifest)
    aug = AugmentConfig()  # normalization constants only; no geometric noise
    if args.oracle:
        model = None
        num_classes = manifest.num_classes
    else:
        model, _ = _model_from_checkpoint(Path(args.checkpoint))
        num_classes = model.config.num_classes
        if num_classes != manifest.num_classes:
            raise CliError(
                f"checkpoint has {num_classes} classes, manifest has {manifest.num_classes}",
                EXIT_CONFIG,
            )
        model.eval()

    cm = ConfusionMatrix(num_classes, manifest.ignore_index)
    for img_path, lab_path in manifest.pairs:
        image, label = load_pair(img_path, lab_path, num_classes, manifest.ignore_index)
        if args.oracle:
            safe = np.where(label < num_classes, label, 0)
            logits = np.eye(num_classes, dtype=np.float32)[safe].transpose(2, 0, 1)
        else:
            logits = _predict_logits(model, image, aug, args.batch_size)
        cm.update(np.argmax(logits, axis=0), label)

    try:
        report = compute_metrics(cm)
    except ValueError as e:
        raise CliError(str(e), EXIT_NUMERIC) from e
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    model, _ = _model_from_checkpoint(Path(args.checkpoint))
    model.eval()
    logits = _predict_logits(model, load_image(args.image), AugmentConfig(), args.batch_size)
    k = logits.shape[0]
    if args.manifest:
        palette = _load_manifest(args.manifest).palette
    else:
        from .data import _SYNTH_PALETTE as palette  # default color table
    if len(palette) < k:
        raise CliError(f"palette has {len(palette)} colors for {k} classes", EXIT_CONFIG)
    try:
        emit_prediction(logits, tuple(palette), args.out)
        if args.logits_out:
            save_cvtn(args.logits_out, logits.astype(np.float32))
    except OSError as e:
        raise CliError(f"cannot write output: {e}", EXIT_IO) from e
    print(json.dumps({"out": args.out, "classes": int(k), "shape": list(logits.shape[1:])}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench / gradcheck / inspect / synth
# ---------------------------------------------------------------------------


def cmd_bench(args: argparse.Namespace) -> int:
    """Parameter/FLOP counts of both scan modes, which must agree; timing lives in ``perfbench/``."""
    doc = _read_json(args.config)["model"] if args.config else {}
    report = {}
    for mode in ("ss2d", "cs2d"):
        cfg = _build_network_config({**doc, "scan_mode": mode})
        size = tuple(args.input_size) if args.input_size else cfg.input_size
        report[mode] = {"params": param_count(cfg), "flops": flops_count(cfg, size), "input_size": list(size)}

    parity = (
        report["ss2d"]["params"] == report["cs2d"]["params"]
        and report["ss2d"]["flops"] == report["cs2d"]["flops"]
    )
    report["scan_mode_parity"] = parity
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if parity else EXIT_NUMERIC


def cmd_gradcheck(args: argparse.Namespace) -> int:
    results = gradcheck_suite(args.seeds, args.tol)
    ok = all(r["pass"] for r in results)
    print(json.dumps({"tolerance": args.tol, "results": results, "pass": ok}, indent=2))
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_inspect(args: argparse.Namespace) -> int:
    doc = _read_json(args.config)["model"] if args.config else {}
    cfg = _build_network_config(doc)
    size = tuple(args.input_size) if args.input_size else cfg.input_size
    try:
        plan = stage_plan(cfg, size)
    except ValueError as e:
        raise CliError(str(e), EXIT_CONFIG) from e
    print(
        json.dumps(
            {
                "config": cfg.to_dict(),
                "params": param_count(cfg),
                "flops": flops_count(cfg, size),
                "stages": [asdict(s) for s in plan],
            },
            indent=2,
        )
    )
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        manifest = synth_generate(
            args.out, seed=args.seed, n_images=args.n_images, size=args.size, n_classes=args.n_classes
        )
    except ValueError as e:
        raise CliError(str(e), EXIT_CONFIG) from e
    except OSError as e:
        raise CliError(f"cannot write dataset: {e}", EXIT_IO) from e
    print(
        json.dumps(
            {
                "out": str(manifest.root),
                "images": len(manifest.pairs),
                "num_classes": manifest.num_classes,
                "manifest": str(manifest.root / "manifest.json"),
            }
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cvmh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train on a manifest dataset")
    train.add_argument("--config", help="JSON run config")
    train.add_argument("--manifest", help="dataset manifest path")
    train.add_argument("--out-dir", dest="out_dir", help="artifact directory")
    train.add_argument("--seed", type=int)
    train.add_argument("--steps", type=int)
    train.add_argument("--batch-size", dest="batch_size", type=int)
    train.add_argument("--lr", type=float)
    train.add_argument("--weight-decay", dest="weight_decay", type=float)
    train.add_argument("--tile", type=int)
    train.add_argument("--resume", help="training checkpoint to continue from")
    train.add_argument("--log-every", dest="log_every", type=int, default=0)
    train.set_defaults(func=cmd_train)

    evalp = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    evalp.add_argument("--checkpoint", help="training checkpoint (.cvck)")
    evalp.add_argument("--manifest", required=True)
    evalp.add_argument("--out", help="write the metrics JSON here as well")
    evalp.add_argument("--batch-size", dest="batch_size", type=int, default=4)
    evalp.add_argument(
        "--oracle",
        action="store_true",
        help="score ground truth against itself (pipeline diagnostic)",
    )
    evalp.set_defaults(func=cmd_eval)

    predict = sub.add_parser("predict", help="segment one image")
    predict.add_argument("--checkpoint", required=True)
    predict.add_argument("--image", required=True, help="PPM or CVTN image")
    predict.add_argument("--out", required=True, help="output PPM path")
    predict.add_argument("--manifest", help="palette source (defaults to built-in)")
    predict.add_argument("--logits-out", dest="logits_out", help="optional CVTN logits dump")
    predict.add_argument("--batch-size", dest="batch_size", type=int, default=4)
    predict.set_defaults(func=cmd_predict)

    bench = sub.add_parser("bench", help="report parameter/FLOP counts of both scan modes")
    bench.add_argument("--config", help="JSON run config (model section)")
    bench.add_argument("--input-size", dest="input_size", type=int, nargs=2, metavar=("H", "W"))
    bench.set_defaults(func=cmd_bench)

    grad = sub.add_parser("gradcheck", help="finite-difference check of every block")
    grad.add_argument("--seeds", type=int, default=2)
    grad.add_argument("--tol", type=float, default=DEFAULT_TOL)
    grad.set_defaults(func=cmd_gradcheck)

    inspect = sub.add_parser("inspect", help="print the stage plan and counters")
    inspect.add_argument("--config", help="JSON run config (model section)")
    inspect.add_argument("--input-size", dest="input_size", type=int, nargs=2, metavar=("H", "W"))
    inspect.set_defaults(func=cmd_inspect)

    synth = sub.add_parser("synth", help="generate the synthetic shapes dataset")
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--n-images", dest="n_images", type=int, default=8)
    synth.add_argument("--size", type=int, default=64)
    synth.add_argument("--n-classes", dest="n_classes", type=int, default=4)
    synth.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "eval" and not args.oracle and not args.checkpoint:
        print("error: eval needs --checkpoint (or --oracle)", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (DataError, CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
