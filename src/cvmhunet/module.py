"""Parameter-container base class with hierarchical naming.

Assigning a ``Parameter`` or a ``Module`` (a ``ModuleList`` is one) onto an
attribute registers it automatically; non-trainable state (e.g. batch-norm
running stats) is registered explicitly via ``register_buffer``.  Iteration
order is attribute-assignment order, which makes parameter traversal
deterministic.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Parameter

__all__ = ["Module", "ModuleList", "init_linear", "init_conv"]


class Module:
    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        out = []
        for name, p in self.named_parameters():
            p.name = name
            out.append(p)
        return out

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (f"{prefix}{name}", self._buffers[name])
        for name, mod in self._modules.items():
            yield from mod.named_buffers(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for mod in self._modules.values():
            yield from mod.modules()

    # -- mode / dtype ------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        for mod in self.modules():
            object.__setattr__(mod, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_(self) -> "Module":
        """Swap in zeroed arrays for this module's own parameters (not its children's)."""
        for p in self._parameters.values():
            p.data = np.zeros_like(p.data)
        return self

    def to_dtype(self, dtype) -> "Module":
        """In-place dtype conversion of all parameters and float buffers."""
        for _, p in self.named_parameters():
            p.data = p.data.astype(dtype)
            p.grad = None
        for mod in self.modules():
            for name, buf in mod._buffers.items():
                if np.issubdtype(buf.dtype, np.floating):
                    converted = buf.astype(dtype)
                    mod._buffers[name] = converted
                    object.__setattr__(mod, name, converted)
        return self

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class ModuleList(Module):
    """Ordered sub-modules, registered as children ``"0"``, ``"1"``, ... ."""

    def __init__(self, mods=()):
        super().__init__()
        for i, mod in enumerate(mods):
            self._modules[str(i)] = mod

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self):
        return len(self._modules)

    def __getitem__(self, idx: int) -> Module:
        return list(self._modules.values())[idx]


def init_linear(rng: np.random.Generator, dout: int, din: int) -> np.ndarray:
    """Uniform fan-in init, the usual default for dense layers."""
    bound = 1.0 / np.sqrt(din)
    return rng.uniform(-bound, bound, size=(dout, din)).astype(np.float32)


def init_conv(rng: np.random.Generator, cout: int, cin: int, kh: int, kw: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(cin * kh * kw)
    return rng.uniform(-bound, bound, size=(cout, cin, kh, kw)).astype(np.float32)
