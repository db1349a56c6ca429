"""Selective state-space recurrence (diagonal S6) over flattened scan sequences.

Per channel ``d`` and state ``s`` the recurrence over time ``t`` is

    h_t = exp(dt_t * A[d,s]) * h_{t-1} + dt_t * B_t[s] * u_t[d]
    y_t = sum_s C_t[s] * h_t[d,s] + D[d] * u_t[d]

with ``A`` held negative (``-exp(A_log)``) so the propagator ``exp(dt*A)``
stays inside the unit interval and ``dt = softplus(raw)`` stays positive.
The state transition uses exact zero-order-hold discretization; the input
injection uses the Euler/simplified form ``dt * B``.

The scan runs time-major and channel-minor: propagators and states are
built as C-contiguous (L, N, S, D) chunks of ``block`` steps, so every
broadcast runs along the contiguous channel axis and one in-place kernel,
``_scan``, updates a contiguous (N, S, D) slice per step for the forward,
the reversed adjoint and ``first_order_scan``.  The chunk buffers are
reused.  A forward that a backward can follow keeps only the state entering
each chunk; the backward rebuilds each chunk's states from it (``block`` is
the checkpoint interval), so the state trajectory is never materialized.
"""

from __future__ import annotations

import math

import numpy as np

from . import functional as F
from .module import Module, ModuleList, init_linear
from .scan import flatten_spatial, scan_orders, unflatten_spatial
from .tensor import Parameter, Tensor, is_grad_enabled

__all__ = [
    "sequential_scan",
    "first_order_scan",
    "selective_scan",
    "S6Direction",
    "DirectionalSSM",
    "default_dt_rank",
]

DEFAULT_STATE_DIM = 16
DEFAULT_SCAN_BLOCK = 64


def default_dt_rank(dim: int) -> int:
    """Low-rank bottleneck width for the timestep projection."""
    return max(1, math.ceil(dim / 16))


# ---------------------------------------------------------------------------
# scan kernels (plain numpy, last axis is time)
# ---------------------------------------------------------------------------


def sequential_scan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference ``h_t = a_t * h_{t-1} + b_t`` with ``h_{-1} = 0``, step by step."""
    out = np.empty_like(b)
    h = np.zeros(b.shape[:-1], dtype=b.dtype)
    for t in range(b.shape[-1]):
        h = a[..., t] * h + b[..., t]
        out[..., t] = h
    return out


def _scan(a: np.ndarray, h: np.ndarray, prev: np.ndarray) -> None:
    """In place along axis 0: ``h[t] = a[t] * h[t-1] + h[t]``, with ``h[-1] = prev``.

    One multiply into a reused temporary and one in-place add per step: the
    same two roundings as ``sequential_scan``, so the two agree bitwise.
    """
    tmp = np.empty_like(prev)
    for t in range(len(h)):
        np.multiply(a[t], prev, out=tmp)
        h[t] += tmp
        prev = h[t]


def _time_major(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.moveaxis(x, -1, 0))


def _time_last(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


def first_order_scan(a: np.ndarray, b: np.ndarray, block: int = DEFAULT_SCAN_BLOCK) -> np.ndarray:
    """``h_t = a_t * h_{t-1} + b_t`` with ``h_{-1} = 0``; last axis is time.

    Moves time to the front, runs ``_scan`` and moves it back, so the result
    equals ``sequential_scan`` bitwise.  ``block`` must be >= 1; the result
    does not depend on it.
    """
    if a.shape != b.shape:
        raise ValueError(f"scan inputs must share a shape, got {a.shape} vs {b.shape}")
    if a.shape[-1] == 0:
        return b.copy()
    if block < 1:
        raise ValueError(f"scan block size must be >= 1, got {block}")
    h = np.moveaxis(b, -1, 0).copy()
    _scan(np.moveaxis(a, -1, 0), h, np.zeros(h.shape[1:], dtype=h.dtype))
    return _time_last(h)


# ---------------------------------------------------------------------------
# selective scan autograd op
# ---------------------------------------------------------------------------


def selective_scan(
    u: Tensor,
    delta: Tensor,
    A: Tensor,
    B: Tensor,
    C: Tensor,
    D: Tensor,
    block: int = DEFAULT_SCAN_BLOCK,
) -> Tensor:
    """Input-dependent state-space recurrence; single autograd op.

    Shapes: ``u``/``delta`` (N, D, L); ``A`` (D, S); ``B``/``C`` (N, S, L);
    ``D`` (D,).  Returns (N, D, L).  The scan runs in chunks of ``block``
    steps over (L, N, S, D) buffers that are reused from chunk to chunk.
    When a backward can follow, the forward keeps only the state entering
    each chunk, a (ceil(L / block), N, S, D) array; the backward walks the
    chunks in reverse, rebuilds each chunk's propagators and states from its
    carry with the forward's own ops (so bitwise the same), and forms every
    gradient chunk by chunk.  No (L, N, S, D) array is ever allocated.
    """
    n, d, length = u.shape
    s = A.shape[1]
    if delta.shape != u.shape:
        raise ValueError(f"selective_scan: delta shape {delta.shape} != input shape {u.shape}")
    if A.shape != (d, s) or B.shape != (n, s, length) or C.shape != (n, s, length) or D.shape != (d,):
        raise ValueError(
            "selective_scan: inconsistent operand shapes "
            f"u={u.shape} A={A.shape} B={B.shape} C={C.shape} D={D.shape}"
        )
    if block < 1:
        raise ValueError(f"scan block size must be >= 1, got {block}")
    operands = (u, delta, A, B, C, D)
    dtype = np.result_type(*(t.data for t in operands))
    keep = is_grad_enabled() and any(t.requires_grad for t in operands)
    chunk = max(1, min(block, length))
    starts = range(0, length, chunk)
    at = np.ascontiguousarray(A.data.T)  # (S, D): every broadcast runs along D

    def chunk_states(k, dt, dtu, bt, abar, h):
        """Propagators into ``abar[:m]`` and states into ``h[1 : m + 1]`` of chunk ``k``, from ``h[0]``."""
        tc = slice(starts[k], min(starts[k] + chunk, length))
        ac, hc = abar[: tc.stop - tc.start], h[1 : tc.stop - tc.start + 1]
        np.multiply(dt[tc, :, None, :], at, out=ac)
        np.exp(ac, out=ac)
        np.multiply(dtu[tc, :, None, :], bt[tc, :, :, None], out=hc)
        _scan(ac, hc, h[0])
        return tc, ac, hc

    ut, dt, bt, ct = (_time_major(x.data) for x in (u, delta, B, C))
    dtu = dt * ut
    abar = np.empty((chunk, n, s, d), dtype)
    h = np.zeros((chunk + 1, n, s, d), dtype)  # h[0]: the state entering the chunk
    carries = np.empty((len(starts) if keep else 0, n, s, d), dtype)
    yt = np.empty((length, n, 1, d), dtype)
    for k in range(len(starts)):
        if keep:
            carries[k] = h[0]
        tc, _, hc = chunk_states(k, dt, dtu, bt, abar, h)
        np.matmul(ct[tc, :, None, :], hc, out=yt[tc])
        h[0] = hc[-1]
    y = D.data[:, None] * u.data
    y += yt[:, :, 0].transpose(1, 2, 0)

    def backward(g):
        ut, dt, bt, ct, gt = (_time_major(x) for x in (u.data, delta.data, B.data, C.data, g))
        dtu = dt * ut
        abar = np.empty((chunk, n, s, d), dtype)
        h = np.empty((chunk + 1, n, s, d), dtype)
        lam = np.empty((chunk, n, s, d), dtype)
        lam_next = np.zeros((n, s, d), dtype)  # abar[t1] * lam[t1] across the edge to the next chunk
        lam_b = np.empty((length, n, 1, d), dtype)
        ddelta = np.empty((length, n, d), dtype)
        dB = np.empty((length, n, s, 1), dtype)
        dC = np.empty((length, n, s, 1), dtype)
        dA = np.zeros((s, d), dtype)
        for k in reversed(range(len(starts))):
            h[0] = carries[k]
            tc, ac, hc = chunk_states(k, dt, dtu, bt, abar, h)
            # adjoint, in reverse: lam[t] = g[t] * C[t] + abar[t+1] * lam[t+1]
            lc = lam[: len(ac)]
            np.multiply(gt[tc, :, None, :], ct[tc, :, :, None], out=lc)
            lc[-1] += lam_next
            _scan(ac[:0:-1], lc[-2::-1], lc[-1])
            np.multiply(ac[0], lc[0], out=lam_next)
            np.matmul(bt[tc, :, None, :], lc, out=lam_b[tc])
            np.matmul(lc, dtu[tc, :, :, None], out=dB[tc])
            np.matmul(hc, gt[tc, :, :, None], out=dC[tc])
            # gradient wrt the product delta*A: abar[t] * h[t-1] * lam[t]
            d_dta = ac
            d_dta *= h[: len(ac)]
            d_dta *= lc
            np.einsum("tnsd,sd->tnd", d_dta, at, out=ddelta[tc])
            dA += np.einsum("tnsd,tnd->sd", d_dta, dt[tc])
        lam_b = lam_b[:, :, 0]
        ddelta += lam_b * ut
        du = lam_b * dt + gt * D.data
        dD = np.einsum("ndl,ndl->d", g, u.data)
        return _time_last(du), _time_last(ddelta), dA.T.copy(), _time_last(dB[..., 0]), _time_last(dC[..., 0]), dD

    return Tensor.from_op(y, operands, backward)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


class S6Direction(Module):
    """Projections + selective scan for a single traversal direction.

    Per time step the input is projected to a low-rank timestep code plus the
    input-dependent ``B`` and ``C`` vectors; the timestep code is expanded
    back to one positive ``dt`` per channel through a softplus.
    """

    def __init__(
        self,
        dim: int,
        state_dim: int = DEFAULT_STATE_DIM,
        dt_rank: int | None = None,
        scan_block: int = DEFAULT_SCAN_BLOCK,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.state_dim = state_dim
        self.dt_rank = dt_rank if dt_rank is not None else default_dt_rank(dim)
        self.scan_block = scan_block

        self.x_proj_weight = Parameter(init_linear(rng, self.dt_rank + 2 * state_dim, dim))
        dt_std = self.dt_rank**-0.5
        self.dt_weight = Parameter(rng.uniform(-dt_std, dt_std, size=(dim, self.dt_rank)).astype(np.float32))
        # bias chosen so softplus(bias) lands log-uniformly in [1e-3, 1e-1]
        dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=dim))
        self.dt_bias = Parameter(np.log(np.expm1(dt)).astype(np.float32), weight_decay_exempt=True)
        a_row = np.log(np.arange(1, state_dim + 1, dtype=np.float64))
        self.A_log = Parameter(
            np.tile(a_row, (dim, 1)).astype(np.float32), weight_decay_exempt=True
        )
        self.D_skip = Parameter(np.ones(dim, dtype=np.float32), weight_decay_exempt=True)

    def forward(self, seq: Tensor) -> Tensor:
        """(N, dim, L) -> (N, dim, L) along an already-flattened scan order."""
        n, d, length = seq.shape
        if d != self.dim:
            raise ValueError(f"sequence has {d} channels, module built for {self.dim}")
        feats = seq.moveaxis(1, 2)  # (N, L, dim)
        projected = F.linear(feats, self.x_proj_weight)
        r, s = self.dt_rank, self.state_dim
        dt_code = projected[:, :, :r]
        b_seq = projected[:, :, r : r + s]
        c_seq = projected[:, :, r + s :]
        dt = F.softplus(F.linear(dt_code, self.dt_weight, self.dt_bias)).moveaxis(1, 2)
        a = -(self.A_log.exp())
        return selective_scan(
            seq, dt, a, b_seq.moveaxis(1, 2), c_seq.moveaxis(1, 2), self.D_skip, block=self.scan_block
        )


class DirectionalSSM(Module):
    """Four scan directions, each with its own recurrence; outputs are summed."""

    def __init__(
        self,
        dim: int,
        state_dim: int = DEFAULT_STATE_DIM,
        dt_rank: int | None = None,
        scan_mode: str = "cs2d",
        scan_block: int = DEFAULT_SCAN_BLOCK,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.scan_mode = scan_mode
        self.directions = ModuleList(
            [S6Direction(dim, state_dim, dt_rank, scan_block, rng) for _ in range(4)]
        )

    def forward(self, x: Tensor) -> Tensor:
        """(N, C, H, W) -> (N, C, H, W); sum of per-direction scan outputs."""
        n, c, h, w = x.shape
        orders = scan_orders(h, w, self.scan_mode)
        total: Tensor | None = None
        for order, s6 in zip(orders, self.directions):
            yseq = s6(flatten_spatial(x, order))
            ymap = unflatten_spatial(yseq, order)
            total = ymap if total is None else total + ymap
        return total
