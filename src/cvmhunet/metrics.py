"""Confusion-matrix segmentation metrics.

A ``ConfusionMatrix`` accumulates pixel counts (rows = ground truth,
columns = prediction) over any number of ``update`` calls, one per image,
tile or batch. Scores derive from the final matrix:

    OA      trace / total pixels
    IoU_k   TP / (TP + FP + FN)
    F1_k    2 P R / (P + R)

Means (mIoU, mF1, macro precision/recall) run over classes that actually
appear in the ground truth; zero-support classes and the ignored class are
excluded. ``macro_pr_f1`` is the harmonic mean of macro precision and macro
recall — a stricter, less common aggregate exposed alongside ``mf1`` (the
mean of per-class F1) for comparison.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ConfusionMatrix", "compute_metrics"]


class ConfusionMatrix:
    def __init__(self, num_classes: int, ignore_index: int | None = None):
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        self.num_classes = num_classes
        self.ignore_index = ignore_index
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, prediction: np.ndarray, target: np.ndarray) -> None:
        prediction = np.asarray(prediction)
        target = np.asarray(target)
        if prediction.shape != target.shape:
            raise ValueError(f"shape mismatch: {prediction.shape} vs {target.shape}")
        k = self.num_classes
        keep = np.ones(target.shape, dtype=bool)
        if self.ignore_index is not None:
            keep = target != self.ignore_index
        t = target[keep]
        p = prediction[keep]
        if t.size and (t.min() < 0 or t.max() >= k):
            raise ValueError(f"target labels outside [0, {k})")
        if p.size and (p.min() < 0 or p.max() >= k):
            raise ValueError(f"predicted labels outside [0, {k})")
        flat = t.astype(np.int64) * k + p.astype(np.int64)
        self.counts += np.bincount(flat, minlength=k * k).reshape(k, k)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros_like(num, dtype=np.float64), where=den > 0)


def compute_metrics(cm: ConfusionMatrix) -> dict:
    """Score a confusion matrix; raises on an empty one."""
    counts = cm.counts
    total = counts.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(counts).astype(np.float64)
    support = counts.sum(axis=1).astype(np.float64)
    predicted = counts.sum(axis=0).astype(np.float64)
    fp = predicted - tp
    fn = support - tp

    iou = _safe_div(tp, tp + fp + fn)
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    f1 = _safe_div(2 * precision * recall, precision + recall)

    evaluated = support > 0
    if cm.ignore_index is not None and 0 <= cm.ignore_index < cm.num_classes:
        evaluated[cm.ignore_index] = False
    if not evaluated.any():
        raise ValueError("no class has ground-truth support")

    macro_p = float(precision[evaluated].mean())
    macro_r = float(recall[evaluated].mean())
    macro_pr_f1 = 2 * macro_p * macro_r / (macro_p + macro_r) if macro_p + macro_r > 0 else 0.0

    return {
        "oa": float(tp.sum() / total),
        "miou": float(iou[evaluated].mean()),
        "mf1": float(f1[evaluated].mean()),
        "iou": iou.tolist(),
        "f1": f1.tolist(),
        "precision": precision.tolist(),
        "recall": recall.tolist(),
        "macro_precision": macro_p,
        "macro_recall": macro_r,
        "macro_pr_f1": macro_pr_f1,
        "support": support.astype(np.int64).tolist(),
        "total_pixels": int(total),
        "evaluated_classes": np.flatnonzero(evaluated).tolist(),
    }
