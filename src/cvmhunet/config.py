"""Config records: frozen dataclasses whose fields hold the JSON type their annotations name.

``int`` takes an integer (not a bool or a float), ``float`` a finite number
(not a bool), ``bool`` ``true`` or ``false``, ``str`` a string, ``dict`` a
JSON object, ``tuple[int, ...]`` a list of integers (kept as a tuple), and
``X | None`` also null. Any other annotation, such as ``Path``, is not
checked. Annotations are read as written, so a module that defines a record
starts with ``from __future__ import annotations``.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, fields

_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"), "bool": (bool, "true or false"),
          "str": (str, "a string"), "dict": (dict, "a JSON object")}


def _is(value, types) -> bool:
    return isinstance(value, types) and (types is bool or not isinstance(value, bool))


class Record:
    """Base of the config dataclasses; a subclass's ``__post_init__`` calls this one, then checks ranges."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.type.endswith(" | None"):
                continue
            kind = f.type.removesuffix(" | None")
            if kind.startswith("tuple[int"):
                ok, what = isinstance(value, (list, tuple)) and all(_is(v, int) for v in value), "a list of integers"
                if ok:
                    object.__setattr__(self, f.name, tuple(value))
            elif kind in _TYPES:
                ok, what = _is(value, _TYPES[kind][0]), _TYPES[kind][1]
            else:
                continue
            if not ok:
                raise TypeError(f"{f.name} must be {what}, got {value!r}")
            if kind == "float" and not abs(value) <= sys.float_info.max:  # NaN, inf, and integers beyond a float
                raise ValueError(f"{f.name} must be finite, got {value!r}")

    @classmethod
    def from_dict(cls, d: dict):
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown keys: {unknown}")
        return cls(**d)

    def to_dict(self) -> dict:
        """The fields as JSON values: tuples become lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
