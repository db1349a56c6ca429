"""CVCK tensor files: exact byte layout on save, atomic saves, in-place loads, only
``CheckpointError`` on bad input or another layout."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cvmhunet import checkpoint
from cvmhunet.checkpoint import CheckpointError, load_tensors, save_tensors


def entry(name: str, dims: tuple, values, code: int = 0) -> bytes:
    """A version-2 entry: name, dtype code, dims, payload."""
    encoded = name.encode("utf-8")
    payload = np.asarray(values, dtype=("<f4", "u1")[code]).tobytes()
    return (
        struct.pack("<H", len(encoded)) + encoded
        + struct.pack("<BB", code, len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
        + payload
    )


def header(count: int, meta: bytes = b"{}") -> bytes:
    """A version-2 file header holding ``meta`` and announcing ``count`` entries."""
    return b"CVCK" + struct.pack("<II", 2, len(meta)) + meta + struct.pack("<I", count)


def two_tensor_file(path) -> bytes:
    tensors = {"model.w": np.arange(6, dtype=np.float32).reshape(2, 3), "optim.step": np.array([7.0])}
    save_tensors(str(path), tensors, {"step": 7})
    return path.read_bytes()


def two_tensor_targets() -> dict[str, np.ndarray]:
    """Arrays that ``two_tensor_file``'s entries fit exactly."""
    return {"model.w": np.zeros((2, 3), dtype=np.float32), "optim.step": np.zeros(1, dtype=np.float32)}


def metadata(path) -> dict:
    """The metadata ``load_tensors`` hands to ``into`` before the entries."""
    seen = []
    load_tensors(str(path), lambda meta: seen.append(meta) or {})
    return seen[0]




class TestSave:
    def test_bytes_match_hand_built_blob(self, tmp_path):
        w = np.arange(6, dtype=np.float64).reshape(3, 2).T  # float64, not contiguous
        tensors = {"w": w, "scalar": np.array(2.5), "bé": np.array([1.0, -1.0], dtype=np.float32),
                   "u": np.array([[0, 255]], dtype=np.uint8)}
        save_tensors(str(tmp_path / "a.cvck"), tensors, {"b": 1, "a": [1.5]})
        want = (
            header(4, b'{"a": [1.5], "b": 1}')  # keys sorted
            + entry("w", (2, 3), [0, 2, 4, 1, 3, 5])
            + entry("scalar", (), [2.5])  # rank 0: no dims, one value
            + entry("bé", (2,), [1.0, -1.0])
            + entry("u", (1, 2), [0, 255], code=1)  # uint8 stays uint8
        )
        assert (tmp_path / "a.cvck").read_bytes() == want

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {"a": rng.normal(size=(2, 3, 4)).astype(np.float32), "empty": np.zeros((0, 5), dtype=np.float32),
                   "u": rng.integers(0, 256, size=(3, 2), dtype=np.uint8)}
        save_tensors(str(tmp_path / "r.cvck"), tensors)
        back = load_tensors(str(tmp_path / "r.cvck"))
        assert list(back) == ["a", "empty", "u"]
        for k, v in tensors.items():
            assert back[k].dtype == v.dtype and np.array_equal(back[k], v)
        assert metadata(tmp_path / "r.cvck") == {}

    def test_round_trip_keeps_rank_zero(self, tmp_path):
        save_tensors(str(tmp_path / "s.cvck"), {"s": np.array(-1.5), "one": np.array([2.0])})
        back = load_tensors(str(tmp_path / "s.cvck"))
        assert back["s"].shape == () and float(back["s"]) == -1.5
        assert back["one"].shape == (1,)

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch, writes_fail_after):
        path = tmp_path / "c.cvck"
        before = two_tensor_file(path)
        real_open = open
        tensors = {"a": np.ones(3, dtype=np.float32), "b": np.zeros((2, 2), dtype=np.float32)}
        for n in range(5):  # the file header, then each entry's header and payload
            monkeypatch.setattr(checkpoint, "open", lambda *a, **k: writes_fail_after(real_open(*a, **k), n),
                                raising=False)
            with pytest.raises(OSError, match="no space"):
                save_tensors(str(path), tensors)
            assert path.read_bytes() == before, n
            assert [p.name for p in tmp_path.iterdir()] == ["c.cvck"]

    def test_save_replaces_the_previous_file(self, tmp_path):
        path = tmp_path / "c.cvck"
        two_tensor_file(path)
        save_tensors(str(path), {"a": np.ones(3, dtype=np.float32)})
        assert list(load_tensors(str(path))) == ["a"]
        assert [p.name for p in tmp_path.iterdir()] == ["c.cvck"]


class TestLoadInto:
    def test_fills_matching_arrays_in_place(self, tmp_path):
        two_tensor_file(tmp_path / "t.cvck")
        into, seen = two_tensor_targets(), []
        back = load_tensors(str(tmp_path / "t.cvck"), into=lambda meta: seen.append(meta) or into)
        assert seen == [{"step": 7}]  # once; the targets it returns are filled in place
        assert back["model.w"] is into["model.w"] and back["optim.step"] is into["optim.step"]
        assert np.array_equal(into["model.w"], np.arange(6).reshape(2, 3))
        assert np.array_equal(into["optim.step"], [7.0])

    @pytest.mark.parametrize(
        "name, target, match",
        [
            ("model.v", np.zeros((2, 3), dtype=np.float32), r"missing entries \['model.v'\] \(1 in all\)"),
            ("model.w", np.zeros((3, 2), dtype=np.float32),
             r"entry 'model.w' is float32 of shape \(2, 3\), its target a float32 of shape \(3, 2\)"),
            ("model.w", np.zeros((2, 3), dtype=np.float64), r"float32 of shape \(2, 3\), its target a float64"),
            ("model.w", np.zeros((3, 2), dtype=np.float32).T, "its target a non-contiguous or read-only float32"),
            ("model.w", np.broadcast_to(np.float32(0), (2, 3)), "its target a non-contiguous or read-only float32"),
        ],
        ids=["other-name", "other-shape", "other-dtype", "not-contiguous", "read-only"],
    )
    def test_target_that_does_not_fit_raises(self, tmp_path, name, target, match):
        two_tensor_file(tmp_path / "t.cvck")
        with pytest.raises(CheckpointError, match=match):
            load_tensors(str(tmp_path / "t.cvck"), into=lambda meta: {name: target})
        assert not target.any()

    def test_entries_no_target_is_named_for_are_fresh_arrays(self, tmp_path):
        two_tensor_file(tmp_path / "t.cvck")
        target = np.zeros(1, dtype=np.float32)
        back = load_tensors(str(tmp_path / "t.cvck"), into=lambda meta: {"optim.step": target})
        assert back["optim.step"] is target and float(target[0]) == 7.0
        assert back["model.w"].dtype == np.float32 and np.array_equal(back["model.w"], np.arange(6).reshape(2, 3))

    def test_skipped_entries_are_passed_over(self, tmp_path):
        # the first entry is skipped, so the read must land past its payload on the next
        moments = np.arange(12, dtype=np.float32)
        save_tensors(str(tmp_path / "s.cvck"), {"optim.m": moments, "model.w": moments[:6].reshape(2, 3) + 1,
                                                "optim.step": np.array([7.0]), "model.b": moments[:2]})
        target = np.zeros((2, 3), dtype=np.float32)
        back = load_tensors(str(tmp_path / "s.cvck"), into=lambda meta: {"model.w": target},
                            skip=lambda name: name.startswith("optim."))
        assert list(back) == ["model.w", "model.b"] and back["model.w"] is target
        assert np.array_equal(target, np.arange(1, 7).reshape(2, 3)) and np.array_equal(back["model.b"], [0, 1])

    def test_rank_zero_entry_fills_in_place(self, tmp_path):
        save_tensors(str(tmp_path / "s.cvck"), {"s": np.array(-1.5)})
        target = np.zeros((), dtype=np.float32)
        back = load_tensors(str(tmp_path / "s.cvck"), into=lambda meta: {"s": target})
        assert back["s"] is target and float(target) == -1.5


class TestLoadRejects:
    def test_truncated_payload(self, tmp_path):
        blob = two_tensor_file(tmp_path / "t.cvck")
        (tmp_path / "t.cvck").write_bytes(blob[:-2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_tensors(str(tmp_path / "t.cvck"))

    def test_name_not_utf8(self, tmp_path):
        blob = bytearray(two_tensor_file(tmp_path / "n.cvck"))
        blob[blob.index(b"model.w")] = 0xFF  # first byte of the first name
        (tmp_path / "n.cvck").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_tensors(str(tmp_path / "n.cvck"))

    def test_dims_larger_than_file(self, tmp_path):
        blob = header(1) + struct.pack("<H", 1) + b"x" + struct.pack("<BBI", 0, 1, 2**32 - 1)
        (tmp_path / "d.cvck").write_bytes(blob)
        with pytest.raises(CheckpointError, match="truncated"):
            load_tensors(str(tmp_path / "d.cvck"))

    def test_empty_entry_with_overflowing_dims(self, tmp_path):
        # zero elements, so nothing is truncated, but numpy cannot even describe the shape
        dims = struct.pack("<BB3I", 0, 3, 0, 2**32 - 1, 2**32 - 1)
        blob = header(1) + struct.pack("<H", 1) + b"x" + dims
        (tmp_path / "z.cvck").write_bytes(blob)
        with pytest.raises(CheckpointError, match="impossible tensor shape"):
            load_tensors(str(tmp_path / "z.cvck"))

    def test_oversized_entry_raises_before_allocating(self, tmp_path):
        dims = (1024, 1024, 64)  # 256 MiB of payload claimed, 64 bytes present
        blob = header(1) + struct.pack("<H", 1) + b"x" + struct.pack("<BB3I", 0, 3, *dims)
        (tmp_path / "o.cvck").write_bytes(blob + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="truncated"):
                load_tensors(str(tmp_path / "o.cvck"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{peak} bytes allocated for a file of {len(blob) + 64}"

    @pytest.mark.parametrize(
        "blob, match",
        [
            (header(1) + entry("x", (4,), [1, 2, 3, 4])[:-2], "truncated checkpoint"),
            (header(1) + struct.pack("<H", 1) + b"x" + struct.pack("<BB", 2, 0) + bytes(4), "dtype code 2"),
            (header(2) + entry("x", (2,), [1, 2]) + entry("x", (2,), [3, 4]), "'x' appears twice"),
        ],
        ids=["truncated", "dtype", "twice"],
    )
    def test_skipped_entry_is_still_checked(self, tmp_path, blob, match):
        (tmp_path / "s.cvck").write_bytes(blob)
        with pytest.raises(CheckpointError, match=match):
            load_tensors(str(tmp_path / "s.cvck"), skip=lambda name: True)

    @pytest.mark.parametrize("into", [False, True])
    def test_duplicate_entry_name(self, tmp_path, into):
        blob = header(2) + entry("w", (2,), [1, 2]) + entry("w", (2,), [3, 4])
        (tmp_path / "w.cvck").write_bytes(blob)
        target = np.zeros(2, dtype=np.float32)
        with pytest.raises(CheckpointError, match="'w' appears twice"):
            load_tensors(str(tmp_path / "w.cvck"), into=(lambda meta: {"w": target}) if into else None)

    @pytest.mark.parametrize(
        "blob, match",
        [
            (header(0, b"[1]"), "must be a JSON object"),
            (header(0, b'{"a": '), "not JSON"),
            (header(0, b'"\xff"'), "UTF-8"),
            (b"CVCK" + struct.pack("<III", 2, 2**32 - 1, 0), "truncated metadata"),  # before allocating 4 GiB
            (header(1) + struct.pack("<H", 1) + b"x" + struct.pack("<BB", 2, 0) + bytes(4), "dtype code 2"),
            (b"CVCK" + struct.pack("<II", 3, 0), "unsupported CVCK version 3"),
            (b"CVTN" + struct.pack("<IB", 2, 0), "bad magic b'CVTN'"),
            (b"NOPE" + bytes(16), "bad magic"),
        ],
        ids=["meta-list", "meta-not-json", "meta-not-utf8", "meta-length", "dtype", "version", "cvtn-version",
             "magic"],
    )
    def test_malformed_header(self, tmp_path, blob, match):
        (tmp_path / "h.cvck").write_bytes(blob)
        with pytest.raises(CheckpointError, match=match):
            load_tensors(str(tmp_path / "h.cvck"))

    def test_version_1_cvck_file(self, tmp_path):
        # magic, u32 version 1, u32 count, entries without a dtype byte; the metadata was in a
        # sidecar, which is not read
        blob = b"CVCK" + struct.pack("<IIH1sBI", 1, 1, 1, b"w", 1, 2) + np.ones(2, dtype="<f4").tobytes()
        (tmp_path / "v1.cvck").write_bytes(blob)
        (tmp_path / "v1.json").write_text('{"step": 3}')
        with pytest.raises(CheckpointError, match="unsupported CVCK version 1"):
            load_tensors(str(tmp_path / "v1.cvck"))

    def test_cvtn_file(self, tmp_path):
        # magic CVTN, u32 version 1, u8 rank, u32 dims, u8 dtype, payload
        blob = b"CVTN" + struct.pack("<IB2IB", 1, 2, 2, 3, 1) + bytes(range(6))
        (tmp_path / "t.cvtn").write_bytes(blob)
        with pytest.raises(CheckpointError, match="bad magic b'CVTN', expected b'CVCK'"):
            load_tensors(str(tmp_path / "t.cvtn"))

    @settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        cut=st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
        flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)), max_size=4),
        into=st.booleans(),
        skip=st.booleans(),
    )
    def test_mutations_raise_only_checkpoint_error(self, tmp_path, cut, flips, into, skip):
        blob = bytearray(two_tensor_file(tmp_path / "valid.cvck"))
        for pos, mask in flips:
            blob[pos % len(blob)] ^= mask
        if cut is not None:
            blob = blob[: cut % len(blob)]
        (tmp_path / "m.cvck").write_bytes(bytes(blob))
        try:
            load_tensors(str(tmp_path / "m.cvck"), into=(lambda meta: two_tensor_targets()) if into else None,
                         skip=(lambda name: name.startswith("optim.")) if skip else None)
        except CheckpointError:
            pass  # a mutation the format cannot see (no checksum) may load
