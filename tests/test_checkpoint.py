"""CVCK tensor files: exact byte layout on save, only ``CheckpointError`` on bad input."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cvmhunet.checkpoint import CheckpointError, load_tensors, save_tensors


def entry(name: str, dims: tuple, values) -> bytes:
    encoded = name.encode("utf-8")
    payload = np.asarray(values, dtype="<f4").tobytes()
    return (
        struct.pack("<H", len(encoded)) + encoded
        + struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
        + payload
    )


def two_tensor_file(path) -> bytes:
    save_tensors(str(path), {"model.w": np.arange(6, dtype=np.float32).reshape(2, 3), "optim.step": np.array([7.0])})
    return path.read_bytes()


class TestSave:
    def test_bytes_match_hand_built_blob(self, tmp_path):
        w = np.arange(6, dtype=np.float64).reshape(3, 2).T  # float64, not contiguous
        tensors = {"w": w, "scalar": np.array(2.5), "bé": np.array([1.0, -1.0], dtype=np.float32)}
        save_tensors(str(tmp_path / "a.cvck"), tensors)
        want = (
            b"CVCK" + struct.pack("<II", 1, 3)
            + entry("w", (2, 3), [0, 2, 4, 1, 3, 5])
            + entry("scalar", (1,), [2.5])  # a 0-d array is stored as shape (1,)
            + entry("bé", (2,), [1.0, -1.0])
        )
        assert (tmp_path / "a.cvck").read_bytes() == want

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {"a": rng.normal(size=(2, 3, 4)).astype(np.float32), "empty": np.zeros((0, 5), dtype=np.float32)}
        save_tensors(str(tmp_path / "r.cvck"), tensors)
        back = load_tensors(str(tmp_path / "r.cvck"))
        assert list(back) == ["a", "empty"]
        for k, v in tensors.items():
            assert back[k].dtype == np.float32 and np.array_equal(back[k], v)


class TestLoadRejects:
    def test_truncated_payload(self, tmp_path):
        blob = two_tensor_file(tmp_path / "t.cvck")
        (tmp_path / "t.cvck").write_bytes(blob[:-2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_tensors(str(tmp_path / "t.cvck"))

    def test_name_not_utf8(self, tmp_path):
        blob = bytearray(two_tensor_file(tmp_path / "n.cvck"))
        blob[14] = 0xFF  # first byte of the first name
        (tmp_path / "n.cvck").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_tensors(str(tmp_path / "n.cvck"))

    def test_dims_larger_than_file(self, tmp_path):
        blob = b"CVCK" + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"x" + struct.pack("<BI", 1, 2**32 - 1)
        (tmp_path / "d.cvck").write_bytes(blob)
        with pytest.raises(CheckpointError, match="truncated"):
            load_tensors(str(tmp_path / "d.cvck"))

    def test_empty_entry_with_overflowing_dims(self, tmp_path):
        # zero elements, so nothing is truncated, but numpy cannot even describe the shape
        dims = struct.pack("<B3I", 3, 0, 2**32 - 1, 2**32 - 1)
        blob = b"CVCK" + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"x" + dims
        (tmp_path / "z.cvck").write_bytes(blob)
        with pytest.raises(CheckpointError, match="impossible tensor shape"):
            load_tensors(str(tmp_path / "z.cvck"))

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        cut=st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
        flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)), max_size=4),
    )
    def test_mutations_raise_only_checkpoint_error(self, tmp_path, cut, flips):
        blob = bytearray(two_tensor_file(tmp_path / "valid.cvck"))
        for pos, mask in flips:
            blob[pos % len(blob)] ^= mask
        if cut is not None:
            blob = blob[: cut % len(blob)]
        (tmp_path / "m.cvck").write_bytes(bytes(blob))
        try:
            load_tensors(str(tmp_path / "m.cvck"))
        except CheckpointError:
            pass  # a mutation the format cannot see (no checksum) may load
