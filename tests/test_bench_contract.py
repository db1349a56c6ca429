"""The benchmark in ``perfbench/`` patches package names by string; each one must still exist.

``workloads.install`` wraps functions and methods where the package looks
them up (``cli.save_tensors``, ``cli.tile_image``, ``ssm.flatten_spatial``,
``functional.silu``, ``Tensor.moveaxis``, ...).  A refactor that renames or
moves one of them fails here instead of only in a benchmark run.  The test
only reads ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_install_wraps_and_restore_puts_back(name):
    t = Tracer(spans=True)
    try:
        workloads.install(t, workloads.WORKLOADS[name])
        patched = list(t._undo)  # (owner, attribute, original) of every wrapped name
    finally:
        t.restore()
    assert patched
    for owner, attr, original in patched:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original, f"{owner}.{attr} not restored"
