"""Dataset plumbing: binary PPM/PGM codecs, JSON manifests, tiling/stitching,
geometric augmentation, a deterministic synthetic shapes dataset, and
palette-colored prediction emission.

Formats kept deliberately simple:

* images: 8-bit binary PPM (``P6``), labels: 8-bit binary PGM (``P5``)
* ``.cvtn`` tensors: the package's one tensor container (``checkpoint``)
  with a single float32 or uint8 entry; older ``CVTN`` files load too
* manifest: JSON ``{pairs:[{image,label}], num_classes, palette, ignore_index}``,
  read as a ``config.Record``: a missing key or a wrong structure is a
  ``DataError``, a value of the wrong type or range ``TypeError``/``ValueError``
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import load_tensors
from .config import Record

__all__ = [
    "DataError",
    "read_ppm",
    "write_ppm",
    "read_pgm",
    "write_pgm",
    "DatasetManifest",
    "TileSpec",
    "AugmentConfig",
    "load_image",
    "load_pair",
    "tile_image",
    "stitch_tiles",
    "augment_pair",
    "normalize_image",
    "synth_generate",
    "emit_prediction",
]


class DataError(IOError):
    """Malformed or truncated dataset file."""


# ---------------------------------------------------------------------------
# netpbm codecs
# ---------------------------------------------------------------------------


def _read_netpbm(path: str | Path, magic: bytes, channels: int) -> np.ndarray:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise DataError(f"{path}: {e}") from e
    if not raw.startswith(magic):
        raise DataError(f"{path}: expected {magic.decode()} header")
    # header = magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments; payload starts after the single byte following maxval
    pos = len(magic)
    tokens: list[int] = []
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated header")
        try:
            tokens.append(int(raw[start:pos]))
        except ValueError:
            raise DataError(f"{path}: bad header token {raw[start:pos]!r}") from None
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = tokens
    if width < 1 or height < 1:
        raise DataError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 supported, got {maxval}")
    need = width * height * channels
    payload = raw[pos : pos + need]
    if len(payload) < need:
        raise DataError(f"{path}: truncated payload ({len(payload)} of {need} bytes)")
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(height, width).copy()
    return arr.reshape(height, width, channels).copy()


def read_ppm(path: str | Path) -> np.ndarray:
    """Binary PPM -> uint8 (H, W, 3)."""
    return _read_netpbm(path, b"P6", 3)


def read_pgm(path: str | Path) -> np.ndarray:
    """Binary PGM -> uint8 (H, W)."""
    return _read_netpbm(path, b"P5", 1)


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError(f"write_ppm wants uint8 (H, W, 3), got {image.dtype} {image.shape}")
    h, w, _ = image.shape
    Path(path).write_bytes(b"P6\n%d %d\n255\n" % (w, h) + image.tobytes())


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError(f"write_pgm wants uint8 (H, W), got {image.dtype} {image.shape}")
    h, w = image.shape
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + image.tobytes())


# ---------------------------------------------------------------------------
# manifest and pair loading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetManifest(Record):
    root: Path
    pairs: tuple[tuple[Path, Path], ...]
    num_classes: int
    palette: tuple[tuple[int, int, int], ...]
    ignore_index: int | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.ignore_index is not None and not -(2**63) <= self.ignore_index < 2**63:  # the label maps are int64
            raise ValueError(f"ignore_index must be an int64 integer or null, got {self.ignore_index!r}")
        for rgb in self.palette:
            if not all(0 <= c <= 255 for c in rgb):
                raise ValueError(f"palette entries must be three integers in [0, 255], got {list(rgb)!r}")
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if len(self.palette) < self.num_classes:
            raise ValueError(
                f"palette has {len(self.palette)} colors for {self.num_classes} classes"
            )
        if len(set(self.palette[: self.num_classes])) != self.num_classes:
            raise ValueError("palette colors must be distinct per class")
        if not self.pairs:
            raise ValueError("manifest lists no image/label pairs")

    @staticmethod
    def load(path: str | Path) -> "DatasetManifest":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise DataError(f"{path}: {e}") from e
        try:
            pairs = tuple((_pair_path(path, p, "image"), _pair_path(path, p, "label")) for p in doc["pairs"])
            num_classes, palette, ignore_index = doc["num_classes"], doc["palette"], doc.get("ignore_index")
        except (KeyError, TypeError) as e:
            raise DataError(f"{path}: malformed manifest ({e})") from e
        return DatasetManifest(path.parent, pairs, num_classes, palette, ignore_index)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        doc = {
            "pairs": [
                {"image": str(img.relative_to(path.parent)), "label": str(lab.relative_to(path.parent))}
                for img, lab in self.pairs
            ],
            "num_classes": self.num_classes,
            "palette": [list(rgb) for rgb in self.palette],
            "ignore_index": self.ignore_index,
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")


def _pair_path(manifest: Path, pair: dict, key: str) -> Path:
    """``pair[key]``, relative to the manifest: a missing key raises ``KeyError``, a non-string ``ValueError``."""
    if not isinstance(pair[key], str):
        raise ValueError(f"pair {key} must be a path string, got {pair[key]!r}")
    return manifest.parent / pair[key]


def _load_tensor(path: Path) -> np.ndarray:
    """The one array of a ``.cvtn`` tensor file."""
    try:
        arrays = load_tensors(str(path))
    except OSError as e:  # the container's own error included
        raise DataError(str(e)) from e
    if len(arrays) != 1:
        raise DataError(f"{path}: a tensor file holds one entry, found {len(arrays)}")
    return next(iter(arrays.values()))


def load_image(path: str | Path) -> np.ndarray:
    """PPM or ``.cvtn`` image file -> float32 (3, H, W); uint8 data is scaled to [0, 1]."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ppm":
        return read_ppm(path).astype(np.float32).transpose(2, 0, 1) / 255.0
    if suffix == ".cvtn":
        arr = _load_tensor(path)
        if arr.ndim != 3 or arr.shape[0] != 3 or arr.size == 0:
            raise DataError(f"{path}: expected (3, H, W) with H, W >= 1, got {arr.shape}")
        if arr.dtype == np.uint8:
            return arr.astype(np.float32) / 255.0
        return arr
    raise DataError(f"{path}: unsupported image format {suffix!r}")


def _load_label(path: Path) -> np.ndarray:
    """Label file -> int64 (H, W)."""
    suffix = path.suffix.lower()
    if suffix == ".pgm":
        return read_pgm(path).astype(np.int64)
    if suffix == ".cvtn":
        arr = _load_tensor(path)
        if arr.ndim != 2 or arr.dtype != np.uint8 or arr.size == 0:
            raise DataError(f"{path}: expected uint8 (H, W) with H, W >= 1, got {arr.dtype} {arr.shape}")
        return arr.astype(np.int64)
    raise DataError(f"{path}: unsupported label format {suffix!r}")


def load_pair(
    image_path: str | Path,
    label_path: str | Path,
    num_classes: int | None = None,
    ignore_index: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(float32 (3,H,W) image in [0,1], int64 (H,W) label map)."""
    image = load_image(image_path)
    label = _load_label(Path(label_path))
    if image.shape[1:] != label.shape:
        raise DataError(
            f"{image_path} is {image.shape[1:]} but {label_path} is {label.shape}"
        )
    if num_classes is not None:
        ok = label < num_classes
        if ignore_index is not None:
            ok |= label == ignore_index
        if not ok.all():
            bad = int(label[~ok].ravel()[0])
            raise DataError(f"{label_path}: label {bad} outside [0, {num_classes})")
    return image, label


# ---------------------------------------------------------------------------
# tiling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TileSpec(Record):
    size: int = 256

    def __post_init__(self):
        super().__post_init__()
        if self.size < 32 or self.size % 32 != 0:
            raise ValueError(f"tile size must be a positive multiple of 32, got {self.size}")


def _grid(extent: int, size: int) -> tuple[int, list[int]]:
    """(padded extent, tile origins) of the non-overlapping tiles covering ``extent`` pixels."""
    steps = max(1, -(-extent // size))
    return steps * size, [i * size for i in range(steps)]


def tile_image(
    image: np.ndarray,
    label: np.ndarray | None,
    spec: TileSpec,
    ignore_index: int | None = None,
) -> list[dict]:
    """Raster-order tiles; out-of-bounds pixels get 0 image / ignore label.

    Each entry carries ``image``, ``label`` (None if no label was given),
    and the ``y``/``x`` origin in the padded canvas.
    """
    c, h, w = image.shape
    pad_label = ignore_index if ignore_index is not None else 0
    padded_h, ys = _grid(h, spec.size)
    padded_w, xs = _grid(w, spec.size)
    img = np.zeros((c, padded_h, padded_w), dtype=image.dtype)
    img[:, :h, :w] = image
    lab = None
    if label is not None:
        lab = np.full((padded_h, padded_w), pad_label, dtype=label.dtype)
        lab[:h, :w] = label
    tiles = []
    for y in ys:
        for x in xs:
            entry = {
                "image": img[:, y : y + spec.size, x : x + spec.size],
                "label": None if lab is None else lab[y : y + spec.size, x : x + spec.size],
                "y": y,
                "x": x,
            }
            tiles.append(entry)
    return tiles


def stitch_tiles(
    predictions: list[np.ndarray],
    origins: list[tuple[int, int]],
    out_shape: tuple[int, int],
) -> np.ndarray:
    """Place per-tile logit maps (K,t,t) at their origins and crop to ``out_shape``.

    Tiles must not overlap and must cover the requested extent, as the tiles
    of ``tile_image`` do.
    """
    if len(predictions) != len(origins) or not predictions:
        raise ValueError("need one origin per prediction tile")
    k, th, tw = predictions[0].shape
    h, w = out_shape
    # canvas must span the requested extent even when tiles fall short,
    # so the cover check below can see the gap
    canvas_h = max(h, max(y + th for y, _ in origins))
    canvas_w = max(w, max(x + tw for _, x in origins))
    out = np.empty((k, canvas_h, canvas_w), dtype=predictions[0].dtype)
    covered = np.zeros((canvas_h, canvas_w), dtype=bool)
    for p, (y, x) in zip(predictions, origins):
        if p.shape != (k, th, tw):
            raise ValueError(f"tile shape {p.shape} differs from {(k, th, tw)}")
        if covered[y : y + th, x : x + tw].any():
            raise ValueError(f"tile at {(y, x)} overlaps an earlier tile")
        out[:, y : y + th, x : x + tw] = p
        covered[y : y + th, x : x + tw] = True
    if not covered[:h, :w].all():
        raise ValueError("stitched tiles do not cover the requested extent")
    return np.ascontiguousarray(out[:, :h, :w])


# ---------------------------------------------------------------------------
# augmentation / normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentConfig(Record):
    hflip: float = 0.5
    vflip: float = 0.5
    rot90: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        for name in ("hflip", "vflip", "rot90"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability must lie in [0,1], got {p}")


def augment_pair(
    image: np.ndarray,
    label: np.ndarray,
    cfg: AugmentConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded geometric transforms applied identically to image and label."""
    if rng.random() < cfg.hflip:
        image = image[:, :, ::-1]
        label = label[:, ::-1]
    if rng.random() < cfg.vflip:
        image = image[:, ::-1, :]
        label = label[::-1, :]
    if rng.random() < cfg.rot90:
        k = int(rng.integers(1, 4))
        image = np.rot90(image, k, axes=(1, 2))
        label = np.rot90(label, k, axes=(0, 1))
    return np.ascontiguousarray(image), np.ascontiguousarray(label)


# per-channel input normalization; train, eval and predict all use these
_MEAN = np.full((3, 1, 1), 0.5, dtype=np.float32)
_STD = np.full((3, 1, 1), 0.25, dtype=np.float32)


def normalize_image(image: np.ndarray) -> np.ndarray:
    return (image.astype(np.float32) - _MEAN) / _STD


# ---------------------------------------------------------------------------
# synthetic shapes dataset
# ---------------------------------------------------------------------------

_SYNTH_PALETTE = (
    (40, 40, 40),
    (220, 70, 60),
    (70, 200, 80),
    (70, 90, 230),
    (230, 220, 70),
    (190, 70, 220),
)


def synth_generate(
    out_dir: str | Path,
    seed: int = 0,
    n_images: int = 8,
    size: int = 64,
    n_classes: int = 4,
) -> DatasetManifest:
    """Write a deterministic shapes dataset (PPM/PGM + manifest) to disk.

    Each image is a textured background (class 0) with a few rectangles,
    disks, and stripe bands painted in later-wins order, so the label map is
    exact by construction.
    """
    if size < 32 or size % 32 != 0:
        raise ValueError(f"size must be a positive multiple of 32, got {size}")
    if not 2 <= n_classes <= 6:
        raise ValueError(f"n_classes must lie in [2, 6], got {n_classes}")
    if n_images < 1:
        raise ValueError(f"need at least one image, got {n_images}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    palette = np.array(_SYNTH_PALETTE[:n_classes], dtype=np.float32)

    pairs = []
    for idx in range(n_images):
        label = np.zeros((size, size), dtype=np.uint8)
        yy, xx = np.mgrid[0:size, 0:size]
        for _ in range(int(rng.integers(3, 7))):
            cls = int(rng.integers(1, n_classes))
            kind = int(rng.integers(0, 3))
            if kind == 0:  # rectangle
                y0, x0 = rng.integers(0, size - 8, size=2)
                hgt = int(rng.integers(6, size // 2))
                wid = int(rng.integers(6, size // 2))
                label[y0 : y0 + hgt, x0 : x0 + wid] = cls
            elif kind == 1:  # disk
                cy, cx = rng.integers(8, size - 8, size=2)
                r = int(rng.integers(4, size // 4))
                label[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = cls
            else:  # stripe band
                y0 = int(rng.integers(0, size - 8))
                hgt = int(rng.integers(6, size // 3))
                period = int(rng.integers(4, 9))
                band = (yy >= y0) & (yy < y0 + hgt) & ((xx // period) % 2 == 0)
                label[band] = cls

        image = palette[label]  # (H, W, 3) base colors
        image = image + rng.normal(0.0, 12.0, size=image.shape).astype(np.float32)
        image = np.clip(image, 0, 255).astype(np.uint8)

        img_path = out_dir / f"img_{idx:04d}.ppm"
        lab_path = out_dir / f"lab_{idx:04d}.pgm"
        write_ppm(img_path, image)
        write_pgm(lab_path, label)
        pairs.append((img_path, lab_path))

    manifest = DatasetManifest(
        root=out_dir,
        pairs=tuple(pairs),
        num_classes=n_classes,
        palette=tuple(tuple(int(c) for c in rgb) for rgb in _SYNTH_PALETTE[:n_classes]),
        ignore_index=None,
    )
    manifest.save(out_dir / "manifest.json")
    return manifest


# ---------------------------------------------------------------------------
# prediction emission
# ---------------------------------------------------------------------------


def emit_prediction(
    logits: np.ndarray,
    palette: tuple[tuple[int, int, int], ...],
    path: str | Path,
) -> np.ndarray:
    """Argmax (ties -> lowest class) colored by palette, written as PPM."""
    if logits.ndim != 3:
        raise ValueError(f"expected (K, H, W) logits, got {logits.shape}")
    k = logits.shape[0]
    if len(palette) < k:
        raise ValueError(f"palette has {len(palette)} colors for {k} classes")
    classes = np.argmax(logits, axis=0)  # first maximum wins
    colors = np.array(palette[:k], dtype=np.uint8)
    write_ppm(path, colors[classes])
    return classes

