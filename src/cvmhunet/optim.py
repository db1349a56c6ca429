"""AdamW with decoupled weight decay.

Decay multiplies each non-exempt parameter by ``1 - lr * weight_decay``
*before* the moment-based update, so it never leaks into the moment
estimates. Parameters flagged ``weight_decay_exempt`` (norm affines, state
matrices, skip gains, biases of scan projections) skip the decay but still
receive the Adam update.
"""

from __future__ import annotations

import warnings

import numpy as np

from .tensor import Parameter, Tensor

__all__ = ["AdamW"]

# Elements of one slice of a parameter's update: the slice's parameter, grad,
# moments and two temporaries then stay in a 2 MB L2 through all its passes.
SLICE = 1 << 15


class AdamW:
    def __init__(
        self,
        params,
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.05,
    ):
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        if not (0 <= lr < np.inf and 0 <= weight_decay < np.inf and 0 < eps < np.inf):  # NaN fails each
            raise ValueError(f"lr {lr} and weight_decay {weight_decay} must be finite and >= 0, eps {eps} finite and > 0")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self, loss: Tensor | None = None) -> None:
        """One in-place update, ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``.

        With a ``loss``, the step runs ``loss.backward`` itself and updates
        each parameter inside the sweep, as soon as its grad is final, then
        drops that grad (``p.grad = None``), so no grad outlives its update
        and the full set of grads never exists at once (LOMO, arXiv
        2306.09782).  This needs what ``Tensor.backward`` states for
        ``on_leaf``: no closure reads a parameter's data except through the
        graph.  Parameters the sweep did not finish (no grad reached them,
        or the loss does not depend on them) then go through the loop that
        is all of a call without a loss: it updates each parameter that has
        a grad, keeps that grad, and warns about the others.  Parameters
        are independent, so the order of the updates does not change them.

        A parameter is updated one slice of ``SLICE`` elements of its flat
        view at a time, all passes on a slice before the next, so the slice
        stays in cache between passes.  Temporaries go into two scratch
        buffers of one slice each (at the larger of the parameter's and the
        grad's itemsize); a parameter of one slice or less is updated whole,
        with fresh temporaries.  Each op is elementwise and runs in the dtype
        the whole-array expression with fresh temporaries would use, so the
        result is bitwise the same: the moment increments in the grad's
        dtype (a float64 grad of a float32 parameter stays float64 until it
        is added), the update in the parameter's.
        """
        t = self.step_count + 1
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        scratch: list[np.ndarray] = []
        done = [False] * len(self.params)
        decay = 1.0 - self.lr * self.weight_decay

        def sliced(like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return _shaped_like(scratch[0], like), _shaped_like(scratch[1], like)

        def update(i: int, p: Parameter) -> None:
            arrays = (p.data, self._m[i], self._v[i], p.grad)
            if p.grad.size <= SLICE:
                parts, temporaries = [arrays], lambda like: (np.empty_like(like), np.empty_like(like))
            else:
                flat = [a.reshape(-1, copy=False) for a in arrays[:3]] + [p.grad.reshape(-1)]
                nbytes = SLICE * max(p.data.itemsize, p.grad.itemsize)
                if not scratch or scratch[0].nbytes < nbytes:
                    scratch[:] = np.empty(nbytes, np.uint8), np.empty(nbytes, np.uint8)
                parts = ([a[start : start + SLICE] for a in flat] for start in range(0, p.grad.size, SLICE))
                temporaries = sliced
            decayed = not p.weight_decay_exempt and self.weight_decay != 0.0
            for pk, m, v, gk in parts:
                if decayed:
                    pk *= decay
                a, b = temporaries(gk)
                m *= self.beta1
                np.multiply(gk, 1.0 - self.beta1, out=a)
                m += a
                v *= self.beta2
                np.multiply(gk, gk, out=b)
                b *= 1.0 - self.beta2
                v += b
                a, b = temporaries(m)
                np.divide(m, bc1, out=a)
                np.divide(v, bc2, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                a *= self.lr
                pk -= a

        if loss is not None:
            index = {id(p): i for i, p in enumerate(self.params)}

            def on_leaf(leaf: Tensor) -> None:
                i = index.get(id(leaf))
                if i is not None and leaf.grad is not None:
                    update(i, leaf)
                    leaf.grad = None
                    done[i] = True

            loss.backward(on_leaf=on_leaf)  # a loss it rejects leaves the optimizer as it was
        self.step_count = t
        for i, p in enumerate(self.params):
            if done[i]:
                continue
            if p.grad is None:
                warnings.warn(
                    f"adamw: parameter {p.name or i} has no gradient; skipped", stacklevel=2
                )
                continue
            update(i, p)

    # -- persistence (arrays suitable for the tensor checkpoint format) ----------

    def state_tensors(self) -> dict[str, np.ndarray]:
        out = {"step": np.array([float(self.step_count)], dtype=np.float32)}
        for i, _ in enumerate(self.params):
            out[f"p{i:04d}.m"] = self._m[i]
            out[f"p{i:04d}.v"] = self._v[i]
        return out


def _shaped_like(buf: np.ndarray, like: np.ndarray) -> np.ndarray:
    """The first ``like.nbytes`` bytes of ``buf`` as an array of ``like``'s dtype and shape."""
    return buf[: like.nbytes].view(like.dtype).reshape(like.shape)
