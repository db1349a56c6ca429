"""Output checks.  Each returns ``(ok, detail)``; a failed check counts as a failed op."""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from cvmhunet import ssm
from cvmhunet.network import flops_count
from cvmhunet.tensor import Tensor

# float32 scan against a float64 reference; measured error at this commit is
# ~1e-7 of the output scale on every stage-0 shape used here
SCAN_RTOL = 1e-5
ORACLE_KEYS = ("oa", "miou", "mf1", "macro_precision", "macro_recall", "macro_pr_f1")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def read_losses(csv_path: Path) -> list[float]:
    rows = csv_path.read_text().splitlines()[1:]
    return [float(r.split(",")[3]) for r in rows]


def losses(totals: list[float], ops: int, must_decrease: bool) -> list[tuple[str, bool, str]]:
    bad = sum(1 for v in totals if not math.isfinite(v))
    out = [
        ("loss_rows", len(totals) == ops, f"{len(totals)} rows for {ops} steps"),
        ("loss_finite", bad == 0, f"{bad} non-finite"),
    ]
    if must_decrease and totals:
        out.append(("loss_decreases", totals[-1] < totals[0], f"first {totals[0]:.4f}, last {totals[-1]:.4f}"))
    return out


def scan_reference(inputs: list[np.ndarray], block: int) -> tuple[bool, str]:
    """``selective_scan`` against ``sequential_scan`` in float64 on one call's inputs."""
    y = ssm.selective_scan(*(Tensor(v) for v in inputs), block=block).data
    u, delta, a, b, c, dskip = (v.astype(np.float64) for v in inputs)
    abar = np.exp(delta[:, :, None, :] * a[None, :, :, None])
    bbar = (delta * u)[:, :, None, :] * b[:, None, :, :]
    h = ssm.sequential_scan(abar, bbar)
    ref = np.einsum("nsl,ndsl->ndl", c, h) + dskip[None, :, None] * u
    err = float(np.max(np.abs(y - ref))) / max(1.0, float(np.max(np.abs(ref))))
    return err <= SCAN_RTOL, f"(N,D,L) {inputs[0].shape}, rel err {err:.2e} (tol {SCAN_RTOL:g})"


def oracle(report_text: str) -> tuple[bool, str]:
    report = json.loads(report_text)
    classes = report["evaluated_classes"]
    bad = [k for k in ORACLE_KEYS if report[k] != 1.0]
    for k in ("iou", "f1", "precision", "recall"):
        bad += [f"{k}[{i}]" for i in classes if report[k][i] != 1.0]
    return not bad, "all 1.0" if not bad else f"below 1.0: {bad}"


def eval_report(report_text: str, pixels: int) -> tuple[bool, str]:
    report = json.loads(report_text)
    finite = all(math.isfinite(report[k]) for k in ORACLE_KEYS)
    ok = finite and report["total_pixels"] == pixels
    return ok, f"scored {report['total_pixels']} of {pixels} px, miou {report['miou']:.4f}"


def mac_coverage(first_forward, cfg) -> tuple[bool, str]:
    """Per-call MACs of one forward against ``flops_count(cfg, size) * batch``."""
    if first_forward is None:
        return False, "no forward traced"
    macs, shape = first_forward
    expected = flops_count(cfg, shape[2:]) * shape[0]
    return macs == expected, f"{macs} traced vs {expected} analytic for input {list(shape)}"


def same_as_before(store: Path, key: str, value: str) -> tuple[bool, str]:
    """Compare a digest with the one an earlier run of the same key stored here."""
    seen = json.loads(store.read_text()) if store.exists() else {}
    before = seen.get(key)
    if before is None:
        seen[key] = value
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, store)
        return True, f"{value[:16]} (first run of this seed here)"
    return before == value, f"{value[:16]} vs earlier run {before[:16]}"
