"""Command-line interface (``cvmh``).

Subcommands: ``train``, ``eval``, ``predict``, ``inspect``,
``synth``. Configuration comes from a JSON file (``--config``) with
individual flags winning over file values. Exit codes are a stable contract:
0 success, 2 configuration error, 3 numerical failure, 4 IO error.

Set ``CVMH_THREADS=1`` for bitwise-reproducible runs; the variable caps the
BLAS thread pools and is honored because the package reads it before numpy
is first imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_tensors, model_state, save_tensors
from .config import Record
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
    stitch_tiles,
    synth_generate,
    tile_image,
)
from .losses import LossConfig, segmentation_loss
from .metrics import ConfusionMatrix, compute_metrics
from .network import CVMHUNet, NetworkConfig, flops_count, param_count, stage_plan
from .optim import AdamW
from .tensor import Tensor, no_grad

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


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


@dataclass(frozen=True)
class _Run(Record):
    """The run config's root; each section is a JSON object that its own record reads."""

    model: dict = field(default_factory=dict)
    loss: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    augment: dict = field(default_factory=dict)
    manifest: str | None = None
    seed: int = 0
    out_dir: str = "runs/default"


@dataclass(frozen=True)
class _Train(Record):
    lr: float = 0.001
    weight_decay: float = 0.05
    batch_size: int = 5
    steps: int = 300
    tile: int | None = None  # None -> smaller edge of the model input size


def _load_run_config(args: argparse.Namespace) -> tuple[_Run, _Train]:
    """The run config and its ``train`` section; a flag named like a field wins over the file's value."""
    doc = _read_json(args.config) if getattr(args, "config", None) else {}
    if not isinstance(doc, dict):
        raise CliError("config root must be a JSON object", EXIT_CONFIG)
    run = _checked("run", _Run.from_dict, _with_flags(_Run, doc, args))
    return run, _checked("train", _Train.from_dict, _with_flags(_Train, run.train, args))


def _with_flags(record: type[Record], doc: dict, args: argparse.Namespace) -> dict:
    flags = {f.name: getattr(args, f.name, None) for f in fields(record)}
    return {**doc, **{k: v for k, v in flags.items() if v is not None}}


def _checked(section: str, build, *args, code: int = EXIT_CONFIG, **kwargs):
    """``build(*args, **kwargs)``; a value it rejects exits ``code`` as an invalid ``section`` config."""
    try:
        return build(*args, **kwargs)
    except (ValueError, TypeError) as e:
        raise CliError(f"invalid {section} config: {e}", code) from e


def _build_network_config(model_doc: dict, num_classes: int | None = None) -> NetworkConfig:
    doc = dict(model_doc)
    if num_classes is not None:
        declared = doc.setdefault("num_classes", num_classes)  # null is a value, not "take the manifest's"
        if declared != num_classes:
            raise CliError(f"model num_classes {declared!r} is not the manifest's {num_classes}", EXIT_CONFIG)
    return _checked("model", NetworkConfig.from_dict, doc)


def _load_manifest(path: str | None) -> DatasetManifest:
    if not path:
        raise CliError("a dataset manifest is required (--manifest or config)", EXIT_CONFIG)
    try:
        return DatasetManifest.load(path)
    except DataError as e:
        raise CliError(str(e), EXIT_IO) from e
    except (ValueError, TypeError) as e:
        raise CliError(f"{path}: {e}", EXIT_CONFIG) from e


# ---------------------------------------------------------------------------
# checkpoints with training metadata
# ---------------------------------------------------------------------------


def _run_tensors(model: CVMHUNet, optimizer: AdamW | None) -> dict[str, np.ndarray]:
    """A run checkpoint's entries by name: ``model.*`` for the model's own arrays, ``optim.*`` for the optimizer's."""
    tensors = {f"model.{k}": v for k, v in model_state(model).items()}
    if optimizer is not None:
        tensors.update((f"optim.{k}", v) for k, v in optimizer.state_tensors().items())
    return tensors


def _save_run_checkpoint(path: Path, model: CVMHUNet, optimizer: AdamW | None, meta: dict) -> None:
    """Model (and optimizer) tensors to ``path``, with ``meta`` and the model config in its header."""
    save_tensors(str(path), _run_tensors(model, optimizer), {**meta, "model": model.config.to_dict()})


def _restore(path: Path, build) -> CVMHUNet:
    """Read a train checkpoint in one pass into the arrays of the model and optimizer (or None) that
    ``build(meta)`` returns; an entry neither names is unknown, except ``optim.*`` when there is no
    optimizer, which the read passes over.
    """
    built = []

    def targets(meta: dict) -> dict:
        if not isinstance(meta.get("model"), dict):
            raise CliError(f"{path}: metadata must be a JSON object with an object 'model'", EXIT_IO)
        model, optimizer = build(meta)
        built.extend((model, optimizer, _run_tensors(model, optimizer)))
        return built[2]

    def unused(name: str) -> bool:
        return built[1] is None and name.startswith("optim.")

    tensors = load_tensors(str(path), targets, unused)
    model, optimizer, into = built
    unknown = [k for k in tensors if k not in into]
    if unknown:
        raise CheckpointError(f"{path}: unknown entries {unknown[:5]} ({len(unknown)} in all)")
    if optimizer is not None:
        step = float(into["optim.step"][0])
        if not step.is_integer():
            raise CheckpointError(f"{path}: optim.step {step} is not a whole number")
        optimizer.step_count = int(step)
    return model


def _model_from_checkpoint(path: Path) -> CVMHUNet:
    def build(meta: dict) -> tuple[CVMHUNet, None]:  # the load fills every parameter: skip the random init
        config = _checked(f"{path} model", NetworkConfig.from_dict, meta["model"], code=EXIT_IO)  # the file's fault
        return CVMHUNet(config, seed=None), None

    return _restore(path, build)


# ---------------------------------------------------------------------------
# train: the config, one run state, one step
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TrainConfig:
    manifest: DatasetManifest
    model: NetworkConfig
    loss: LossConfig
    augment: AugmentConfig
    tile: TileSpec
    train: _Train
    seed: int
    out_dir: Path


def _train_config(args: argparse.Namespace) -> _TrainConfig:
    """The whole ``train`` config, read and checked before anything is built or written."""
    run, train = _load_run_config(args)
    manifest = _load_manifest(run.manifest)
    model = _build_network_config(run.model, manifest.num_classes)
    loss = _checked("loss", LossConfig.from_dict, {"ignore_index": manifest.ignore_index, **run.loss})
    augment = _checked("augment", AugmentConfig.from_dict, run.augment)
    if train.steps < 1 or train.batch_size < 1:
        raise CliError(f"steps and batch_size must be >= 1, got {train.steps}/{train.batch_size}", EXIT_CONFIG)
    tile = _checked("train", TileSpec, size=min(model.input_size) if train.tile is None else train.tile)
    return _TrainConfig(manifest, model, loss, augment, tile, train, run.seed, Path(run.out_dir))


@dataclass(frozen=True)
class _Resume(Record):  # the resume record in the metadata of last.cvck
    step: int
    rng_state: dict
    best_total: float
    best_step: int


class _RunState:
    """Where a training run stands: the step, the batch RNG, and the best loss so far with its step."""

    def __init__(self, seed: int):
        self.step = 0
        self.rng = np.random.default_rng(seed)
        self.best_total, self.best_step = np.inf, 0

    def resume(self, path: Path, model: CVMHUNet, optimizer: AdamW) -> None:
        """Continue the run saved in ``path`` (a ``last.cvck``): weights, moments, step, batch RNG, best."""
        def same_model(meta: dict) -> tuple[CVMHUNet, AdamW]:
            if meta["model"] != model.config.to_dict():  # then the resume record, before any entry is read
                raise CliError(f"{path}: checkpoint model config differs from the requested one", EXIT_CONFIG)
            try:
                record = _Resume(**{f.name: meta[f.name] for f in fields(_Resume)})
                if not 1 <= record.best_step <= record.step:
                    raise ValueError(f"step {record.step}, best_step {record.best_step}")
                self.rng.bit_generator.state = record.rng_state
            except (KeyError, TypeError, ValueError) as e:
                raise CliError(f"{path}: malformed resume state in its metadata: {e!r}", EXIT_IO) from e
            self.step, self.best_total, self.best_step = record.step, float(record.best_total), record.best_step
            return model, optimizer

        _restore(path, same_model)
        if self.step != optimizer.step_count:
            raise CliError(f"{path}: malformed resume state in its metadata: step {self.step}, "
                           f"optim.step {optimizer.step_count}", EXIT_IO)

    def advance(self, total: float, model: CVMHUNet, out_dir: Path, run_meta: dict) -> None:
        """Count the step just taken; if its loss is the best so far, write ``best.cvck`` from the live model.

        It runs after the step's update and before the next forward moves the BatchNorm running
        statistics, so the file holds that step's state without a copy of the weights.
        """
        self.step += 1
        if total < self.best_total:
            self.best_total, self.best_step = total, self.step
            _save_run_checkpoint(out_dir / "best.cvck", model, None, {**run_meta, "step": self.step})

    def save(self, out_dir: Path, model: CVMHUNet, optimizer: AdamW, run_meta: dict) -> None:
        """``last.cvck`` with the resume record; ``best.cvck`` is written by ``advance``."""
        record = _Resume(self.step, self.rng.bit_generator.state, self.best_total, self.best_step)
        _save_run_checkpoint(out_dir / "last.cvck", model, optimizer, {**run_meta, **record.to_dict()})


def _train_step(
    model: CVMHUNet, optimizer: AdamW, tiles: list[dict], cfg: _TrainConfig, state: _RunState
) -> tuple[float, float, float]:
    """One update on a batch of augmented tiles drawn with the run's RNG; returns (ce, dice, total)."""
    images, labels = [], []
    for i in state.rng.integers(0, len(tiles), size=cfg.train.batch_size):
        img, lab = augment_pair(tiles[i]["image"], tiles[i]["label"], cfg.augment, state.rng)
        images.append(normalize_image(img))
        labels.append(lab)
    total, ce, dice = segmentation_loss(model(Tensor(np.stack(images))), np.stack(labels), cfg.loss)
    ce_v, dice_v, total_v = float(ce.data), float(dice.data), float(total.data)
    if total_v == np.inf and np.isfinite(ce_v) and np.isfinite(dice_v):
        # a weight scaled a finite term past float32: name it, or both weights if only the sum overflows
        terms = {"ce_weight": (cfg.loss.ce_weight, ce.data), "dice_weight": (cfg.loss.dice_weight, dice.data)}
        with np.errstate(over="ignore"):
            named = [k for k, (w, v) in terms.items() if not np.isfinite(v * w)]
        named = named or [k for k, (w, _) in terms.items() if w]
        raise CliError(f"loss {' and '.join(named)} too large: the weighted loss at step {state.step + 1} overflows "
                       f"float32 (ce={ce_v!r}, dice={dice_v!r})", EXIT_CONFIG)
    if not np.isfinite(total_v):
        raise CliError(f"non-finite loss at step {state.step + 1} (ce={ce_v!r}, dice={dice_v!r})", EXIT_NUMERIC)
    optimizer.step(total)  # backward and update in one sweep; its return ends the step
    return ce_v, dice_v, total_v


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _train_config(args)
    model = CVMHUNet(cfg.model, seed=None if args.resume else cfg.seed)  # a resume overwrites every parameter
    optimizer = AdamW(model.parameters(), lr=float(cfg.train.lr), weight_decay=float(cfg.train.weight_decay))
    state = _RunState(cfg.seed)
    if args.resume:
        state.resume(Path(args.resume), model, optimizer)
    manifest, tiles = cfg.manifest, []  # a manifest lists an image, and every image gives a tile
    for img_path, lab_path in manifest.pairs:
        image, label = load_pair(img_path, lab_path, manifest.num_classes, manifest.ignore_index)
        tiles.extend(tile_image(image, label, cfg.tile, manifest.ignore_index))

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    run_meta = {"seed": cfg.seed, "loss": cfg.loss.to_dict()}
    csv_path = cfg.out_dir / "loss.csv"
    append = state.step > 0 and csv_path.exists()
    if append:  # a run that stopped before its final save left rows of steps this run takes again
        rows = csv_path.read_text().splitlines(keepends=True)
        if len(rows) > 1 + state.step:
            csv_path.write_text("".join(rows[: 1 + state.step]))
    model.train()
    with open(csv_path, "a" if append else "w") as csv_file:
        if not append:
            csv_file.write("step,ce,dice,total\n")
        for _ in range(cfg.train.steps):
            ce, dice, total = _train_step(model, optimizer, tiles, cfg, state)
            state.advance(total, model, cfg.out_dir, run_meta)
            csv_file.write(f"{state.step},{ce!r},{dice!r},{total!r}\n")
            if args.log_every and state.step % args.log_every == 0:
                print(f"step {state.step}: total {total:.4f} (ce {ce:.4f}, dice {dice:.4f})")

    state.save(cfg.out_dir, model, optimizer, run_meta)
    last, best = cfg.out_dir / "last.cvck", cfg.out_dir / "best.cvck"
    print(json.dumps({"steps": cfg.train.steps, "final_step": state.step, "best_total": state.best_total,
                      "best_step": state.best_step, "loss_csv": str(csv_path), "last": str(last),
                      "best": str(best) if best.exists() else None}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval / predict
# ---------------------------------------------------------------------------


def _predict_logits(model: CVMHUNet, image: np.ndarray, batch: int) -> np.ndarray:
    """Tile, forward, stitch back to the original extent; returns (K, H, W)."""
    tile = min(model.config.input_size)
    spec = TileSpec(size=tile)
    tiles = tile_image(normalize_image(image), None, spec)
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
    if args.oracle:
        model = None
        num_classes = manifest.num_classes
    else:
        model = _model_from_checkpoint(Path(args.checkpoint))
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
            logits = _predict_logits(model, image, args.batch_size)
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
    model = _model_from_checkpoint(Path(args.checkpoint))
    model.eval()
    logits = _predict_logits(model, load_image(args.image), args.batch_size)
    if args.manifest:
        palette = _load_manifest(args.manifest).palette
    else:
        from .data import _SYNTH_PALETTE as palette  # default color table
    try:
        emit_prediction(logits, palette, args.out)
        if args.logits_out:
            save_tensors(args.logits_out, {"logits": logits})
    except OSError as e:
        raise CliError(f"cannot write output: {e}", EXIT_IO) from e
    print(json.dumps({"out": args.out, "classes": logits.shape[0], "shape": list(logits.shape[1:])}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# inspect / synth
# ---------------------------------------------------------------------------


def cmd_inspect(args: argparse.Namespace) -> int:
    cfg = _build_network_config(_load_run_config(args)[0].model)
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


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


_TILE_BATCH_HELP = "tiles per forward (speed and memory only: the output is the same at any value)"


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
    evalp.add_argument("--batch-size", dest="batch_size", type=_positive_int, default=4, help=_TILE_BATCH_HELP)
    evalp.add_argument(
        "--oracle",
        action="store_true",
        help="score ground truth against itself (pipeline diagnostic)",
    )
    evalp.set_defaults(func=cmd_eval)

    predict = sub.add_parser("predict", help="segment one image")
    predict.add_argument("--checkpoint", required=True)
    predict.add_argument("--image", required=True, help="PPM or .cvtn image")
    predict.add_argument("--out", required=True, help="output PPM path")
    predict.add_argument("--manifest", help="palette source (defaults to built-in)")
    predict.add_argument("--logits-out", dest="logits_out", help="optional .cvtn logits dump")
    predict.add_argument("--batch-size", dest="batch_size", type=_positive_int, default=4, help=_TILE_BATCH_HELP)
    predict.set_defaults(func=cmd_predict)

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
