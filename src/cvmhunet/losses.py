"""Segmentation losses: multi-class cross-entropy and soft Dice.

Labels are integer maps of shape (N, H, W). An optional ``ignore_index``
marks pixels (and the matching class channel) that must not contribute to
either loss. Both losses are differentiable through the logits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import functional as F
from .config import Record
from .tensor import Tensor

__all__ = ["LossConfig", "ce_loss", "dice_loss", "segmentation_loss"]


@dataclass(frozen=True)
class LossConfig(Record):
    ce_weight: float = 1.0
    dice_weight: float = 1.0
    dice_smooth: float = 1.0
    ignore_index: int | None = None

    def __post_init__(self):
        super().__post_init__()
        top = float(np.finfo(np.float32).max)  # a training loss is float32: a larger value is inf there
        if not (0 <= self.ce_weight <= top and 0 <= self.dice_weight <= top):
            raise ValueError(f"ce_weight, dice_weight must be in [0, {top:.8g}]: {self.ce_weight}, {self.dice_weight}")
        if self.ce_weight == 0 and self.dice_weight == 0:
            raise ValueError("at least one loss weight must be positive")
        if not 0 < self.dice_smooth <= top:
            raise ValueError(f"dice_smooth must be in (0, {top:.8g}]: {self.dice_smooth}")


def _check_labels(labels: np.ndarray, logits: Tensor, ignore_index: int | None) -> np.ndarray:
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    n, k, h, w = logits.shape
    if labels.shape != (n, h, w):
        raise ValueError(f"labels shape {labels.shape} does not match logits {(n, h, w)}")
    valid = (labels >= 0) & (labels < k)
    if ignore_index is not None:
        valid |= labels == ignore_index
    if not valid.all():
        bad = labels[~valid].ravel()[0]
        raise ValueError(f"label {bad} outside [0, {k}) and not the ignore index")
    return labels


def _valid_mask(labels: np.ndarray, ignore_index: int | None) -> np.ndarray:
    if ignore_index is None:
        return np.ones(labels.shape, dtype=bool)
    return labels != ignore_index


def _one_hot(labels: np.ndarray, num_classes: int, mask: np.ndarray, dtype) -> np.ndarray:
    """(N,K,H,W) one-hot of labels; masked-out pixels are all-zero rows."""
    clipped = np.where(mask, labels, 0)
    eye = np.eye(num_classes, dtype=dtype)
    onehot = eye[clipped].transpose(0, 3, 1, 2)
    return onehot * mask[:, None, :, :].astype(dtype)


def ce_loss(logits: Tensor, labels: np.ndarray, ignore_index: int | None = None) -> Tensor:
    """Mean negative log-likelihood over non-ignored pixels."""
    labels = _check_labels(labels, logits, ignore_index)
    mask = _valid_mask(labels, ignore_index)
    n_valid = int(mask.sum())
    if n_valid == 0:
        warnings.warn("ce_loss: every pixel is ignored; returning 0", stacklevel=2)
        return Tensor(np.zeros((), dtype=logits.data.dtype))
    onehot = _one_hot(labels, logits.shape[1], mask, logits.data.dtype)
    log_probs = F.log_softmax(logits, axis=1)
    return -(log_probs * Tensor(onehot)).sum() * (1.0 / n_valid)


def dice_loss(
    logits: Tensor,
    labels: np.ndarray,
    smooth: float = 1.0,
    ignore_index: int | None = None,
) -> Tensor:
    """1 - mean soft Dice over classes (smoothed; ignored pixels masked out).

    The class channel equal to ``ignore_index`` is dropped from the mean:
    its target is empty by construction, so keeping it would only add a
    constant near-1 penalty that no prediction could remove.
    """
    labels = _check_labels(labels, logits, ignore_index)
    mask = _valid_mask(labels, ignore_index)
    if not mask.any():
        warnings.warn("dice_loss: every pixel is ignored; returning 0", stacklevel=2)
        return Tensor(np.zeros((), dtype=logits.data.dtype))
    k = logits.shape[1]
    dtype = logits.data.dtype
    onehot = Tensor(_one_hot(labels, k, mask, dtype))
    mask_t = Tensor(mask[:, None, :, :].astype(dtype))
    probs = F.log_softmax(logits, axis=1).exp() * mask_t
    axes = (0, 2, 3)
    inter = (probs * onehot).sum(axis=axes)
    denom = probs.sum(axis=axes) + onehot.sum(axis=axes)
    dice = (inter * 2.0 + smooth) / (denom + smooth)
    if ignore_index is not None and 0 <= ignore_index < k:
        keep = np.arange(k) != ignore_index
        dice = dice[np.flatnonzero(keep)]
    return 1.0 - dice.mean()


def segmentation_loss(
    logits: Tensor, labels: np.ndarray, cfg: LossConfig | None = None
) -> tuple[Tensor, Tensor, Tensor]:
    """Weighted CE + Dice; returns (total, ce, dice) for logging."""
    cfg = cfg or LossConfig()
    ce = ce_loss(logits, labels, cfg.ignore_index)
    dice = dice_loss(logits, labels, cfg.dice_smooth, cfg.ignore_index)
    total = ce * cfg.ce_weight + dice * cfg.dice_weight
    return total, ce, dice
