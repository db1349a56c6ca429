"""Finite-difference gradient verification.

``check_gradients`` compares reverse-mode gradients against central
differences in float64.  For large tensors a random coordinate subset is
probed instead of every entry, which keeps whole-network checks fast while
still catching wiring mistakes (a wrong backward is wrong almost everywhere).

The reported number is ``max|ga - gfd| / max(max|gfd|, 1e-8)`` aggregated
over every probed coordinate of every checked tensor.  ``gradcheck_suite``
runs the check over every block of the network at several seeds.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from cvmhunet import functional as F
from cvmhunet.blocks import CVSSBlock, CrossScanModule, EFFN
from cvmhunet.mfms import GlobalFrequencyAttention, LocalPointwiseAttention, MFMSBlock
from cvmhunet.network import CVMHUNet, NetworkConfig
from cvmhunet.ssm import DirectionalSSM, default_dt_rank, selective_scan
from cvmhunet.tensor import Tensor, no_grad

__all__ = ["check_gradients", "GradCheckResult", "gradcheck_suite"]

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4


class GradCheckResult:
    def __init__(self, rel_error: float, max_abs_diff: float, n_coords: int):
        self.rel_error = rel_error
        self.max_abs_diff = max_abs_diff
        self.n_coords = n_coords

    def __repr__(self) -> str:
        return f"GradCheckResult(rel_error={self.rel_error:.3e}, coords={self.n_coords})"


def check_gradients(
    f: Callable[[], Tensor],
    wrt: Sequence[Tensor],
    h: float = DEFAULT_STEP,
    max_coords_per_tensor: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckResult:
    """Compare ``backward()`` gradients of the scalar ``f()`` with central differences.

    ``f`` must recompute the forward pass from the current ``.data`` of each
    tensor in ``wrt``.  All tensors (and the model behind ``f``) should be in
    float64; float32 round-off would swamp the comparison.
    """
    for t in wrt:
        if t.data.dtype != np.float64:
            raise TypeError(f"gradient check requires float64 tensors, got {t.data.dtype}")
        t.grad = None
    loss = f()
    if loss.data.size != 1:
        raise ValueError(f"gradient check objective must be scalar, got shape {loss.shape}")
    loss.backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in wrt]
    for t in wrt:
        t.grad = None

    if rng is None:
        rng = np.random.default_rng(0)

    max_diff = 0.0
    max_fd = 0.0
    n_coords = 0
    with no_grad():
        for t, ga in zip(wrt, analytic):
            flat = t.data.reshape(-1)
            size = flat.shape[0]
            if max_coords_per_tensor is None or size <= max_coords_per_tensor:
                coords = np.arange(size)
            else:
                coords = rng.choice(size, size=max_coords_per_tensor, replace=False)
            ga_flat = ga.reshape(-1)
            for idx in coords:
                original = flat[idx]
                flat[idx] = original + h
                f_plus = float(f().data)
                flat[idx] = original - h
                f_minus = float(f().data)
                flat[idx] = original
                gfd = (f_plus - f_minus) / (2.0 * h)
                max_diff = max(max_diff, abs(float(ga_flat[idx]) - gfd))
                max_fd = max(max_fd, abs(gfd))
                n_coords += 1

    rel = max_diff / max(max_fd, 1e-8)
    return GradCheckResult(rel, max_diff, n_coords)


def gradcheck_suite(seeds: int, tol: float) -> list[dict]:
    """Worst finite-difference error of every block over ``seeds`` seeds (acceptance check 04)."""

    def conv(rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.3, requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        return lambda: (F.conv2d(x, w, b, padding=1) ** 2).sum(), [x, w, b]

    def depthwise(rng):
        x = Tensor(rng.normal(size=(1, 3, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 1, 3, 3)) * 0.3, requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        return lambda: (F.depthwise_conv2d(x, w, b, padding=1) ** 2).sum(), [x, w, b]

    def scan(rng):
        u = Tensor(rng.normal(size=(1, 3, 6)), requires_grad=True)
        delta = Tensor(rng.uniform(0.05, 0.4, size=(1, 3, 6)), requires_grad=True)
        a = Tensor(-rng.uniform(0.2, 1.0, size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 4, 6)), requires_grad=True)
        c = Tensor(rng.normal(size=(1, 4, 6)), requires_grad=True)
        d = Tensor(rng.normal(size=(3,)), requires_grad=True)
        return lambda: (selective_scan(u, delta, a, b, c, d) ** 2).sum(), [u, delta, a, b, c, d]

    def directional(rng):
        m = DirectionalSSM(4, default_dt_rank(4), 3, "cs2d", 64, rng).to_dtype(np.float64)
        x = Tensor(rng.normal(size=(1, 4, 3, 3)), requires_grad=True)
        return lambda: (m(x) ** 2).sum(), [x, *m.parameters()]

    def cross_scan(rng):
        m = CrossScanModule(4, NetworkConfig(embed_dim=4, state_dim=3, scan_block=8), rng).to_dtype(np.float64)
        m.out_proj.weight.data += rng.normal(size=m.out_proj.weight.shape) * 0.2
        x = Tensor(rng.normal(size=(1, 4, 3, 3)), requires_grad=True)
        return lambda: (m(x) ** 2).sum(), [x]

    def cvss_block(rng):
        m = CVSSBlock(4, NetworkConfig(embed_dim=4, state_dim=3, scan_block=8), rng).to_dtype(np.float64)
        for p in m.parameters():
            if p.data.size and np.all(p.data == 0):
                p.data = rng.normal(size=p.data.shape) * 0.2
        x = Tensor(rng.normal(size=(1, 4, 4, 4)), requires_grad=True)
        return lambda: (m(x) ** 2).sum(), [x]

    def effn(rng):
        m = EFFN(4, NetworkConfig(embed_dim=4), rng).to_dtype(np.float64)
        m.pw2.weight.data = rng.normal(size=m.pw2.weight.shape) * 0.3
        x = Tensor(rng.normal(size=(1, 4, 3, 3)), requires_grad=True)
        return lambda: (m(x) ** 2).sum(), [x]

    def mfms_global(rng):
        m = GlobalFrequencyAttention(8, NetworkConfig(embed_dim=8)).to_dtype(np.float64)
        for p in m.parameters():
            p.data = rng.normal(size=p.data.shape) * 0.3
        x = Tensor(rng.normal(size=(1, 8, 4, 4)), requires_grad=True)
        return lambda: (m(x) ** 2).sum(), [x, *m.parameters()]

    def mfms_local(rng):
        m = LocalPointwiseAttention(8, 4, rng).to_dtype(np.float64)
        m.pw2.weight.data = rng.normal(size=m.pw2.weight.shape) * 0.3
        x = Tensor(rng.normal(size=(1, 8, 4, 4)), requires_grad=True)
        return lambda: (m(x) ** 2).sum(), [x]

    def mfms_fusion(rng):
        m = MFMSBlock(8, NetworkConfig(embed_dim=8), rng).to_dtype(np.float64)
        f = Tensor(rng.normal(size=(1, 8, 4, 4)), requires_grad=True)
        g = Tensor(rng.normal(size=(1, 8, 4, 4)), requires_grad=True)
        return lambda: (m(f, g) ** 2).sum(), [f, g]

    def tiny_network(rng):
        cfg = NetworkConfig(
            embed_dim=8, num_classes=3, input_size=(32, 32), state_dim=4, scan_block=16, freq_k=4
        )
        m = CVMHUNet(cfg, seed=int(rng.integers(0, 2**31))).to_dtype(np.float64)
        x = Tensor(rng.normal(size=(1, 3, 32, 32)), requires_grad=True)
        return lambda: (m(x) ** 2).mean(), [x]

    suite = [
        ("conv2d", conv),
        ("depthwise_conv2d", depthwise),
        ("selective_scan", scan),
        ("directional_ssm", directional),
        ("cross_scan_module", cross_scan),
        ("cvss_block", cvss_block),
        ("effn", effn),
        ("mfms_global_attention", mfms_global),
        ("mfms_local_attention", mfms_local),
        ("mfms_fusion", mfms_fusion),
        ("tiny_network", tiny_network),
    ]

    results = []
    for name, builder in suite:
        worst = 0.0
        worst_seed = 0
        for seed in range(seeds):
            rng = np.random.default_rng(1000 + seed)
            fn, wrt = builder(rng)
            res = check_gradients(fn, wrt, max_coords_per_tensor=4, rng=np.random.default_rng(seed))
            if res.rel_error > worst:
                worst, worst_seed = res.rel_error, seed
        results.append(
            {"op": name, "max_rel_error": worst, "seeds": seeds, "worst_seed": worst_seed, "pass": worst < tol}
        )
    return results
