"""Selective state-space recurrence (diagonal S6) over flattened scan sequences.

Per channel ``d`` and state ``s`` the recurrence over time ``t`` is

    h_t = exp(dt_t * A[d,s]) * h_{t-1} + dt_t * B_t[s] * u_t[d]
    y_t = sum_s C_t[s] * h_t[d,s] + D[d] * u_t[d]

with ``A`` held negative (``-exp(A_log)``) so the propagator ``exp(dt*A)``
stays inside the unit interval and ``dt = softplus(raw)`` stays positive.
The state transition uses exact zero-order-hold discretization; the input
injection uses the Euler/simplified form ``dt * B``.

The scan runs time-major and channel-minor: propagators and states are
built as C-contiguous (steps, N, S, D) buffers, so every broadcast runs
along the contiguous channel axis and one in-place kernel, ``_scan``,
updates a contiguous (N, S, D) slice per step for the forward and the
reversed adjoint.  Every pass runs over a tile of at most
``TILE_BYTES``, so a tile's data stays in L2 from one pass to the next, and
the tile buffers are reused.  A forward that a backward can follow keeps
only the state entering each chunk of ``block`` steps but the first; the
backward rebuilds each chunk's states from it (``block`` is the checkpoint
interval), so the state trajectory is never materialized.

``DirectionalSSM`` runs the scan along four traversal orders of a feature
map.  Each direction projects the map itself and gathers only that small
projection into scan order; the scan keeps its operands' rebuilds, so the
graph keeps the module input (or its rebuild) once, and none of each
direction's sequence, projection, timesteps or ``A``.
"""

from __future__ import annotations

import math

import numpy as np

from . import functional as F
from .module import Module, init_linear
from .scan import flatten_spatial, scan_orders, unflatten_spatial
from .tensor import Parameter, Tensor, is_grad_enabled

__all__ = [
    "sequential_scan",
    "selective_scan",
    "DirectionalSSM",
    "default_dt_rank",
]

DEFAULT_SCAN_BLOCK = 64
# Bytes of (steps, N, S, D) data one tile of the scan may span: the tile's
# propagators, states and adjoints then stay in a 2 MB L2 between passes.
TILE_BYTES = 1 << 19


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
    The ufuncs write through positional ``out`` arguments into the step views,
    with no index or store back into ``h`` (``h[t] += x`` would copy the
    slice onto itself).
    """
    tmp = np.empty_like(prev)
    mul, add = np.multiply, np.add
    for a_t, h_t in zip(a, h):
        mul(a_t, prev, tmp)
        add(h_t, tmp, h_t)
        prev = h_t


def _time_major(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.moveaxis(x, -1, 0))


def _time_last(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


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
    ``D`` (D,).  Returns (N, D, L).  Every pass over (steps, N, S, D) data
    runs in tiles of at most ``TILE_BYTES``, so a tile's propagators, states
    and adjoints stay in cache from one pass to the next.  When a backward
    can follow, the forward keeps only the state entering each chunk of
    ``block`` steps after the first (which enters from zero), a
    (ceil(L / block) - 1, N, S, D) array; the backward walks
    the chunks in reverse, rebuilds each chunk's propagators and states from
    its carry with the forward's own ops (so bitwise the same), and then
    forms every gradient tile by tile, last tile first.  No (L, N, S, D)
    array is ever allocated, and the result does not depend on ``block``.
    The graph keeps ``u``, ``delta``, ``A``, ``B`` and ``C`` as ``Tensor._keep``.
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
    chunk = max(1, min(block, length)) if keep else max(1, length)
    most = max(1, TILE_BYTES // (n * s * d * dtype.itemsize))
    tile = math.ceil(chunk / math.ceil(chunk / most))  # the fewest tiles of at most `most` steps, evenly sized
    starts = range(0, length, chunk)

    def tiles(k):
        """Step slices of at most ``tile`` steps covering chunk ``k``."""
        stop = min(starts[k] + chunk, length)
        return [slice(t, min(t + tile, stop)) for t in range(starts[k], stop, tile)]

    def tile_states(tc, at, dt, dtu, bt, abar, h):
        """Propagators of steps ``tc`` into ``abar[:m]`` and their states into ``h[1 : m + 1]``, from ``h[0]``; returns the states."""
        m = tc.stop - tc.start
        ac, hc = abar[:m], h[1 : m + 1]
        np.einsum("tnd,sd->tnsd", dt[tc], at, out=ac, casting="same_kind")
        np.exp(ac, out=ac)
        np.einsum("tns,tnd->tnsd", bt[tc], dtu[tc], out=hc, casting="same_kind")
        _scan(ac, hc, h[0])
        return hc

    at = np.ascontiguousarray(A.data.T)  # (S, D): every broadcast runs along D
    ut, dt, bt, ct = (_time_major(x.data) for x in (u, delta, B, C))
    dtu = dt * ut
    abar = np.empty((tile, n, s, d), dtype)
    h = np.zeros((tile + 1, n, s, d), dtype)  # h[0]: the state entering the tile
    carries = np.empty((len(starts) - 1 if keep else 0, n, s, d), dtype)  # chunk 0 enters from zero
    yt = np.empty((length, n, 1, d), dtype)
    for k in range(len(starts)):
        if keep and k:
            carries[k - 1] = h[0]
        for tc in tiles(k):
            hc = tile_states(tc, at, dt, dtu, bt, abar, h)
            np.matmul(ct[tc, :, None, :], hc, out=yt[tc])
            h[0] = hc[-1]
    y = D.data[:, None] * u.data
    y += yt[:, :, 0].transpose(1, 2, 0)
    kept, d_skip = [t._keep() for t in operands[:5]], D.data

    def backward(g):
        u_data, delta_data, a_data, b_data, c_data = (keep() for keep in kept)
        at = np.ascontiguousarray(a_data.T)
        ut, dt, bt, ct, gt = (_time_major(x) for x in (u_data, delta_data, b_data, c_data, g))
        dtu = dt * ut
        abar = np.empty((chunk, n, s, d), dtype)
        h = np.empty((chunk + 1, n, s, d), dtype)
        lam = np.empty((tile, n, s, d), dtype)
        lam_next = np.zeros((n, s, d), dtype)  # abar[t1] * lam[t1] across the edge to the next tile
        lam_b = np.empty((length, n, 1, d), dtype)
        ddelta = np.empty((length, n, d), dtype)
        dB = np.empty((length, n, s, 1), dtype)
        dC = np.empty((length, n, s, 1), dtype)
        dA = np.zeros((s, d), dtype)
        for k in reversed(range(len(starts))):
            h[0] = carries[k - 1] if k else 0
            for tc in tiles(k):
                o = tc.start - starts[k]
                tile_states(tc, at, dt, dtu, bt, abar[o:], h[o:])
            for tc in reversed(tiles(k)):
                o, m = tc.start - starts[k], tc.stop - tc.start
                ac, hc = abar[o : o + m], h[o + 1 : o + m + 1]
                # adjoint, in reverse: lam[t] = g[t] * C[t] + abar[t+1] * lam[t+1]
                lc = lam[:m]
                np.einsum("tns,tnd->tnsd", ct[tc], gt[tc], out=lc, casting="same_kind")
                lc[-1] += lam_next
                _scan(ac[:0:-1], lc[-2::-1], lc[-1])
                np.multiply(ac[0], lc[0], out=lam_next)
                np.matmul(bt[tc, :, None, :], lc, out=lam_b[tc])
                np.matmul(lc, dtu[tc, :, :, None], out=dB[tc])
                np.matmul(hc, gt[tc, :, :, None], out=dC[tc])
                # gradient wrt the product delta*A: abar[t] * h[t-1] * lam[t]
                d_dta = ac
                d_dta *= h[o : o + m]
                d_dta *= lc
                np.einsum("tnsd,sd->tnd", d_dta, at, out=ddelta[tc])
                dA += np.einsum("tnsd,tnd->sd", d_dta, dt[tc])
        lam_b = lam_b[:, :, 0]
        ddelta += lam_b * ut
        du = lam_b * dt + gt * d_skip
        dD = np.einsum("ndl,ndl->d", g, u_data)
        return _time_last(du), _time_last(ddelta), dA.T.copy(), _time_last(dB[..., 0]), _time_last(dC[..., 0]), dD

    return Tensor.from_op(y, operands, backward)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


class DirectionalSSM(Module):
    """Selective scans along the four traversal directions of ``scan_orders``, summed.

    Each parameter stacks the four directions on its first axis, row ``k``
    for the ``k``-th order: ``x_proj_weight`` (4, r + 2S, D), ``dt_weight``
    (4, D, r), ``dt_bias`` (4, D), ``A_log`` (4, D, S) and ``D_skip`` (4, D).
    Per time step a direction projects its input to a low-rank timestep code
    plus the input-dependent ``B`` and ``C`` vectors; the timestep code is
    expanded back to one positive ``dt`` per channel through a softplus.
    """

    def __init__(
        self, dim: int, dt_rank: int, state_dim: int, scan_mode: str, scan_block: int, rng: np.random.Generator
    ):
        super().__init__()
        self.dim = dim
        self.state_dim = state_dim
        self.dt_rank = r = dt_rank
        self.scan_mode = scan_mode
        self.scan_block = scan_block

        dt_std = r**-0.5
        x_proj, dt_weight, dt_bias = [], [], []
        for _ in range(4):  # one direction's draws after another
            x_proj.append(init_linear(rng, r + 2 * state_dim, dim))
            dt_weight.append(rng.uniform(-dt_std, dt_std, size=(dim, r)).astype(np.float32))
            # bias chosen so softplus(bias) lands log-uniformly in [1e-3, 1e-1]
            dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=dim))
            dt_bias.append(np.log(np.expm1(dt)).astype(np.float32))
        self.x_proj_weight = Parameter(np.stack(x_proj))
        self.dt_weight = Parameter(np.stack(dt_weight))
        self.dt_bias = Parameter(np.stack(dt_bias), weight_decay_exempt=True)
        a_row = np.log(np.arange(1, state_dim + 1, dtype=np.float64))
        self.A_log = Parameter(np.tile(a_row, (4, dim, 1)).astype(np.float32), weight_decay_exempt=True)
        self.D_skip = Parameter(np.ones((4, dim), dtype=np.float32), weight_decay_exempt=True)

    def forward(self, x: Tensor) -> Tensor:
        """(N, C, H, W) -> (N, C, H, W); sum of per-direction scan outputs.

        ``x_proj`` runs on the map itself, one GEMM per position, and only its
        (r + 2S)-channel output is gathered into scan order.  The timesteps are
        ``softplus(linear(code))``.  Each scan keeps its operands' rebuilds, so
        its backward gathers ``x`` (or its rebuild) again and reruns ``x_proj``,
        the dt GEMM and its softplus, and ``-exp(A_log)``, each once per sweep:
        the softplus's backward reads the same memoized GEMM output its rebuild
        did.
        """
        n, c, h, w = x.shape
        if c != self.dim:
            raise ValueError(f"input has {c} channels, module built for {self.dim}")
        r, s = self.dt_rank, self.state_dim
        a = _negative_exp(self.A_log)
        total: Tensor | None = None
        for k, order in enumerate(scan_orders(h, w, self.scan_mode)):
            seq = flatten_spatial(x, order)  # (N, C, L)
            projected = flatten_spatial(F.linear(x, self.x_proj_weight[k]), order)  # (N, r + 2S, L)
            dt = F.softplus(F.linear(projected[:, :r], self.dt_weight[k], self.dt_bias[k]))  # (N, C, L)
            b_seq, c_seq = projected[:, r : r + s], projected[:, r + s :]  # (N, S, L) each
            yseq = selective_scan(seq, dt, a[k], b_seq, c_seq, self.D_skip[k], block=self.scan_block)
            ymap = unflatten_spatial(yseq, order)
            total = ymap if total is None else total + ymap
        return total


def _negative_exp(x: Tensor) -> Tensor:
    """``-exp(x)`` as one op that keeps only ``x``'s array: its backward, ``g * out``, and
    the output's rebuild form ``out`` again."""
    a = x.data
    forward = lambda: np.negative(np.exp(a))
    return Tensor.from_op(forward(), (x,), lambda g: (g * forward(),))._with_rebuild(forward)
