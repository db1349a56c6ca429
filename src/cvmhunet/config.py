"""JSON records (the run config, its sections, the manifest, the resume record): frozen
dataclasses whose fields hold the JSON type their annotations name.

``int`` takes an integer (not a bool or a float), ``float`` a finite number
(not a bool), ``bool`` ``true`` or ``false``, ``str`` a string, ``dict`` a
JSON object, ``tuple[X, ...]`` a list of X and ``tuple[X, Y]`` a list of
that length (kept as tuples), and ``X | None`` also null; any other
annotation, such as ``Path``, any value. A wrong type raises ``TypeError``,
a wrong length or a non-finite number ``ValueError``, naming the field.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, fields
from functools import cache
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"), bool: (bool, "true or false"),
          str: (str, "a string"), dict: (dict, "a JSON object")}
_hints = cache(get_type_hints)  # a record's fields and their evaluated annotations, in field order


def _read(value, hint, name: str, null: str = ""):
    """``value`` checked against ``hint``, with its lists as tuples; ``name`` is the field or item."""
    args = get_args(hint)
    if get_origin(hint) in (Union, UnionType):  # X | None
        return None if value is None else _read(value, args[args[0] is type(None)], name, " or null")
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"{name} must be a list{null}, got {value!r}")
        items = args[:1] * len(value) if args[1:] == (...,) else args
        if len(items) != len(value):
            raise ValueError(f"{name} must be a list of {len(items)} items, got {value!r}")
        return tuple(_read(v, h, f"{name}[{i}]") for i, (v, h) in enumerate(zip(value, items)))
    if hint not in _TYPES:
        return value
    types, what = _TYPES[hint]
    if not isinstance(value, types) or (isinstance(value, bool) and hint is not bool):
        raise TypeError(f"{name} must be {what}{null}, got {value!r}")
    if hint is float and not abs(value) <= sys.float_info.max:  # NaN, inf, and integers beyond a float
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


class Record:
    """Base of the JSON records; a subclass's ``__post_init__`` calls this one, then checks ranges."""

    def __post_init__(self):
        for name, hint in _hints(type(self)).items():
            object.__setattr__(self, name, _read(getattr(self, name), hint, name))

    @classmethod
    def from_dict(cls, d: dict):
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown keys: {unknown}")
        return cls(**d)

    def to_dict(self) -> dict:
        """The fields as JSON values: tuples become lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
