"""Dataset IO: codecs, manifests, tiling, augmentation, synthesis, emission."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cvmhunet.checkpoint import save_tensors
from cvmhunet.data import (
    AugmentConfig,
    DataError,
    DatasetManifest,
    TileSpec,
    _load_label,
    _load_tensor,
    augment_pair,
    emit_prediction,
    load_image,
    load_pair,
    normalize_image,
    read_pgm,
    read_ppm,
    stitch_tiles,
    synth_generate,
    tile_image,
    write_pgm,
    write_ppm,
)
from cvmhunet.metrics import ConfusionMatrix, compute_metrics


def rng(seed=0):
    return np.random.default_rng(seed)


def cvtn_header(dims, code=1) -> bytes:
    """A version-1 CVTN header for ``dims``; the payload is up to the caller."""
    return b"CVTN" + struct.pack("<IB", 1, len(dims)) + struct.pack(f"<{len(dims)}I", *dims) + bytes([code])


# ---------------------------------------------------------------------------
# netpbm
# ---------------------------------------------------------------------------


def netpbm_file(path) -> bytes:
    """A small valid PPM or PGM (by suffix) at ``path``; returns its bytes."""
    if path.suffix == ".ppm":
        write_ppm(path, rng(3).integers(0, 256, size=(4, 5, 3), dtype=np.uint8))
    else:
        write_pgm(path, rng(4).integers(0, 4, size=(4, 5), dtype=np.uint8))
    return path.read_bytes()



class TestNetpbm:
    def test_ppm_round_trip(self, tmp_path):
        img = rng(1).integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        write_ppm(tmp_path / "a.ppm", img)
        assert np.array_equal(read_ppm(tmp_path / "a.ppm"), img)

    def test_pgm_round_trip(self, tmp_path):
        img = rng(2).integers(0, 256, size=(4, 6), dtype=np.uint8)
        write_pgm(tmp_path / "a.pgm", img)
        assert np.array_equal(read_pgm(tmp_path / "a.pgm"), img)

    def test_all_white_ppm_loads_as_ones(self, tmp_path):
        write_ppm(tmp_path / "w.ppm", np.full((2, 2, 3), 255, dtype=np.uint8))
        write_pgm(tmp_path / "w.pgm", np.zeros((2, 2), dtype=np.uint8))
        image, _ = load_pair(tmp_path / "w.ppm", tmp_path / "w.pgm")
        assert image.shape == (3, 2, 2)
        assert np.all(image == 1.0)

    def test_pgm_label_values_preserved(self, tmp_path):
        lab = np.array([[0, 1], [2, 1]], dtype=np.uint8)
        write_pgm(tmp_path / "l.pgm", lab)
        write_ppm(tmp_path / "i.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        _, label = load_pair(tmp_path / "i.ppm", tmp_path / "l.pgm")
        assert np.array_equal(label, lab)
        assert label.dtype == np.int64

    def test_header_comments_and_whitespace(self, tmp_path):
        payload = bytes(range(12))
        (tmp_path / "c.ppm").write_bytes(b"P6\n# a comment\n 2 # inline\n2\n255\n" + payload)
        img = read_ppm(tmp_path / "c.ppm")
        assert img.shape == (2, 2, 3)
        assert img.ravel().tolist() == list(range(12))

    def test_truncated_payload_raises(self, tmp_path):
        (tmp_path / "t.ppm").write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(DataError, match="truncated"):
            read_ppm(tmp_path / "t.ppm")

    def test_truncated_header_raises(self, tmp_path):
        (tmp_path / "t.ppm").write_bytes(b"P6\n4")
        with pytest.raises(DataError, match="truncated"):
            read_ppm(tmp_path / "t.ppm")

    def test_wrong_magic_raises(self, tmp_path):
        (tmp_path / "x.ppm").write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(DataError, match="P6"):
            read_ppm(tmp_path / "x.ppm")

    def test_unsupported_maxval_raises(self, tmp_path):
        (tmp_path / "m.pgm").write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(DataError, match="maxval"):
            read_pgm(tmp_path / "m.pgm")

    def test_missing_file_raises_dataerror(self, tmp_path):
        with pytest.raises(DataError):
            read_ppm(tmp_path / "nope.ppm")

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        kind=st.sampled_from(["ppm", "pgm"]),
        cut=st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
        flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)), max_size=4),
    )
    def test_mutations_raise_only_data_error(self, tmp_path, kind, cut, flips):
        blob = bytearray(netpbm_file(tmp_path / f"valid.{kind}"))
        for pos, mask in flips:
            blob[pos % len(blob)] ^= mask
        if cut is not None:
            blob = blob[: cut % len(blob)]
        (tmp_path / f"m.{kind}").write_bytes(bytes(blob))
        try:
            (read_ppm if kind == "ppm" else read_pgm)(tmp_path / f"m.{kind}")
        except DataError:
            pass  # a mutation the format cannot see (no checksum) may load


# ---------------------------------------------------------------------------
# .cvtn tensor files: one-entry containers
# ---------------------------------------------------------------------------


def save_cvtn(path, array) -> None:
    save_tensors(str(path), {"x": array})


class TestCvtn:
    def test_float32_round_trip(self, tmp_path):
        arr = rng(3).normal(size=(3, 4, 5)).astype(np.float32)
        save_cvtn(tmp_path / "a.cvtn", arr)
        assert np.array_equal(load_image(tmp_path / "a.cvtn"), arr)

    def test_uint8_round_trip(self, tmp_path):
        arr = rng(4).integers(0, 256, size=(6, 2), dtype=np.uint8)
        save_cvtn(tmp_path / "b.cvtn", arr)
        out = _load_tensor(tmp_path / "b.cvtn")
        assert out.dtype == np.uint8
        assert np.array_equal(out, arr)

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    def test_load_peak_is_one_payload(self, tmp_path, dtype):
        arr = np.ones((3, 256, 512), dtype=dtype)
        save_cvtn(tmp_path / "p.cvtn", arr)
        tracemalloc.start()
        try:
            out = _load_tensor(tmp_path / "p.cvtn")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, arr)
        assert peak <= 1.1 * arr.nbytes, f"{peak} bytes at peak for a {arr.nbytes}-byte payload"

    def test_other_dtypes_are_stored_as_float32(self, tmp_path):
        save_cvtn(tmp_path / "c.cvtn", np.array([-3, 0, 7], dtype=np.int64))
        out = _load_tensor(tmp_path / "c.cvtn")
        assert out.dtype == np.float32 and np.array_equal(out, [-3, 0, 7])

    @pytest.mark.parametrize("dtype, code", [(np.float32, 0), (np.uint8, 1)])
    def test_version_1_file_loads(self, tmp_path, dtype, code):
        arr = rng(8).integers(0, 256, size=(3, 2, 4)).astype(dtype)
        (tmp_path / "v1.cvtn").write_bytes(cvtn_header(arr.shape, code) + arr.astype(("<f4", "u1")[code]).tobytes())
        assert np.array_equal(_load_tensor(tmp_path / "v1.cvtn"), arr)
        out = load_image(tmp_path / "v1.cvtn")
        assert out.dtype == np.float32 and np.array_equal(out, arr.astype(np.float32) / 255.0 if code else arr)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "d.cvtn").write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            load_image(tmp_path / "d.cvtn")

    def test_truncated_payload(self, tmp_path):
        arr = np.zeros((3, 4, 4), dtype=np.float32)
        save_cvtn(tmp_path / "e.cvtn", arr)
        raw = (tmp_path / "e.cvtn").read_bytes()
        (tmp_path / "e.cvtn").write_bytes(raw[:-8])
        with pytest.raises(DataError, match="truncated"):
            load_image(tmp_path / "e.cvtn")

    def test_trailing_bytes(self, tmp_path):
        save_cvtn(tmp_path / "f.cvtn", np.zeros(2, dtype=np.uint8))
        raw = (tmp_path / "f.cvtn").read_bytes()
        (tmp_path / "f.cvtn").write_bytes(raw + b"xx")
        with pytest.raises(DataError, match="trailing"):
            _load_tensor(tmp_path / "f.cvtn")

    def test_more_than_one_entry(self, tmp_path):
        save_tensors(str(tmp_path / "g.cvtn"), {"a": np.zeros(2), "b": np.zeros(2)})
        with pytest.raises(DataError, match="one entry, found 2"):
            _load_tensor(tmp_path / "g.cvtn")

    @pytest.mark.parametrize(
        "dims",
        [
            (0, 2**32 - 1, 2**32 - 1),  # no elements, but more bytes than numpy can address
            (65536,) * 4,  # 2**64 elements: a fixed-width product wraps to 0
        ],
    )
    def test_unrepresentable_shape_is_data_error(self, tmp_path, dims):
        (tmp_path / "g.cvtn").write_bytes(cvtn_header(dims))
        with pytest.raises(DataError):
            _load_tensor(tmp_path / "g.cvtn")

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        cut=st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
        flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)), max_size=4),
    )
    def test_mutations_raise_only_data_error(self, tmp_path, cut, flips):
        # the container's own errors reach dataset code as DataError
        save_cvtn(tmp_path / "valid.cvtn", rng(7).random(size=(3, 2, 2)).astype(np.float32))
        blob = bytearray((tmp_path / "valid.cvtn").read_bytes())
        for pos, mask in flips:
            blob[pos % len(blob)] ^= mask
        if cut is not None:
            blob = blob[: cut % len(blob)]
        (tmp_path / "m.cvtn").write_bytes(bytes(blob))
        try:
            _load_tensor(tmp_path / "m.cvtn")
        except DataError:
            pass  # a mutation the format cannot see (no checksum) may load

    @pytest.mark.parametrize("shape", [(3, 0, 32), (3, 32, 0), (3, 0, 0)])
    def test_zero_size_image_is_data_error(self, tmp_path, shape):
        save_cvtn(tmp_path / "z.cvtn", np.zeros(shape, dtype=np.uint8))
        with pytest.raises(DataError, match="z.cvtn"):
            load_image(tmp_path / "z.cvtn")

    @pytest.mark.parametrize("shape", [(0, 32), (32, 0)])
    def test_zero_size_label_is_data_error(self, tmp_path, shape):
        save_cvtn(tmp_path / "z.cvtn", np.zeros(shape, dtype=np.uint8))
        with pytest.raises(DataError, match="z.cvtn"):
            _load_label(tmp_path / "z.cvtn")

    def test_pair_from_cvtn(self, tmp_path):
        img = rng(5).random(size=(3, 4, 4)).astype(np.float32)
        lab = rng(6).integers(0, 3, size=(4, 4)).astype(np.uint8)
        save_cvtn(tmp_path / "i.cvtn", img)
        save_cvtn(tmp_path / "l.cvtn", lab)
        image, label = load_pair(tmp_path / "i.cvtn", tmp_path / "l.cvtn")
        assert np.array_equal(image, img)
        assert np.array_equal(label, lab.astype(np.int64))


# ---------------------------------------------------------------------------
# pairs + manifest
# ---------------------------------------------------------------------------


class TestPairsAndManifest:
    def test_size_mismatch_names_files(self, tmp_path):
        write_ppm(tmp_path / "i.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        write_pgm(tmp_path / "l.pgm", np.zeros((4, 5), dtype=np.uint8))
        with pytest.raises(DataError, match="i.ppm"):
            load_pair(tmp_path / "i.ppm", tmp_path / "l.pgm")

    def test_label_range_check(self, tmp_path):
        write_ppm(tmp_path / "i.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        write_pgm(tmp_path / "l.pgm", np.full((2, 2), 9, dtype=np.uint8))
        with pytest.raises(DataError, match="outside"):
            load_pair(tmp_path / "i.ppm", tmp_path / "l.pgm", num_classes=4)
        # but fine when 9 is the ignore index
        load_pair(tmp_path / "i.ppm", tmp_path / "l.pgm", num_classes=4, ignore_index=9)

    def test_manifest_round_trip(self, tmp_path):
        m = synth_generate(tmp_path, seed=1, n_images=2, size=32, n_classes=3)
        loaded = DatasetManifest.load(tmp_path / "manifest.json")
        assert loaded.num_classes == 3
        assert loaded.palette == m.palette
        assert len(loaded.pairs) == 2
        for img, lab in loaded.pairs:
            assert img.exists() and lab.exists()

    def test_manifest_validation(self, tmp_path):
        with pytest.raises(ValueError, match="classes"):
            DatasetManifest(tmp_path, (("a", "b"),), 1, ((0, 0, 0), (1, 1, 1)))
        with pytest.raises(ValueError, match="palette"):
            DatasetManifest(tmp_path, (("a", "b"),), 3, ((0, 0, 0), (1, 1, 1)))
        with pytest.raises(ValueError, match="distinct"):
            DatasetManifest(tmp_path, (("a", "b"),), 2, ((0, 0, 0), (0, 0, 0)))

    @pytest.mark.parametrize(
        "rgb,error",
        [((256, 0, 0), ValueError), ((0, -1, 0), ValueError), ((0, 0, 2.0), TypeError), ((0, 0, True), TypeError),
         ((1, 1), ValueError), ((1, 1, 1, 1), ValueError)],
        ids=["above-255", "negative", "float", "bool", "two-channels", "four-channels"],
    )
    def test_manifest_rejects_a_palette_entry_outside_rgb(self, tmp_path, rgb, error):
        # a wrong type raises TypeError, as in every record; a wrong range or length ValueError
        with pytest.raises(error, match="palette"):
            DatasetManifest(tmp_path, (("a", "b"),), 2, ((0, 0, 0), rgb))

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1], ids=["above", "below"])
    def test_manifest_rejects_an_ignore_index_beyond_int64(self, tmp_path, value):
        with pytest.raises(ValueError, match="ignore_index"):
            DatasetManifest(tmp_path, (("a", "b"),), 2, ((0, 0, 0), (1, 1, 1)), ignore_index=value)
        DatasetManifest(tmp_path, (("a", "b"),), 2, ((0, 0, 0), (1, 1, 1)), ignore_index=2**63 - 1)

    def test_malformed_manifest_json(self, tmp_path):
        (tmp_path / "m.json").write_text('{"pairs": []')
        with pytest.raises(DataError):
            DatasetManifest.load(tmp_path / "m.json")
        (tmp_path / "m2.json").write_text('{"pairs": [{"image": "a"}], "num_classes": 2}')
        with pytest.raises(DataError, match="malformed"):
            DatasetManifest.load(tmp_path / "m2.json")


# ---------------------------------------------------------------------------
# tiling
# ---------------------------------------------------------------------------


class TestTiling:
    def test_exact_grid_counts(self):
        img = rng(1).random((3, 512, 512)).astype(np.float32)
        lab = rng(2).integers(0, 3, size=(512, 512))
        tiles = tile_image(img, lab, TileSpec(size=256))
        assert len(tiles) == 4
        assert [(t["y"], t["x"]) for t in tiles] == [(0, 0), (0, 256), (256, 0), (256, 256)]
        assert np.array_equal(tiles[3]["image"], img[:, 256:, 256:])

    def test_padding_uses_ignore_label(self):
        img = np.ones((3, 300, 300), dtype=np.float32)
        lab = np.zeros((300, 300), dtype=np.int64)
        tiles = tile_image(img, lab, TileSpec(size=256), ignore_index=255)
        assert len(tiles) == 4
        last = tiles[3]
        assert last["label"][50, 50] == 255  # beyond the 300-pixel extent
        assert last["label"][0, 0] == 0
        assert last["image"][0, 50, 50] == 0.0

    def test_small_image_padded_to_one_tile(self):
        img = np.ones((3, 40, 40), dtype=np.float32)
        lab = np.zeros((40, 40), dtype=np.int64)
        tiles = tile_image(img, lab, TileSpec(size=64), ignore_index=9)
        assert len(tiles) == 1
        assert tiles[0]["image"].shape == (3, 64, 64)
        assert tiles[0]["label"][50, 50] == 9

    def test_eval_cover_is_exact_once(self):
        img = rng(3).random((3, 300, 260)).astype(np.float32)
        tiles = tile_image(img, None, TileSpec(size=128))
        hits = np.zeros((384, 384))
        for t in tiles:
            hits[t["y"] : t["y"] + 128, t["x"] : t["x"] + 128] += 1
        assert np.all(hits[:300, :260] == 1)

    def test_stitch_recovers_extent_and_values(self):
        spec = TileSpec(size=64)
        full = rng(4).normal(size=(5, 150, 90)).astype(np.float32)
        padded = np.zeros((5, 192, 128), dtype=np.float32)
        padded[:, :150, :90] = full
        tiles, origins = [], []
        for y in range(0, 192, 64):
            for x in range(0, 128, 64):
                tiles.append(padded[:, y : y + 64, x : x + 64])
                origins.append((y, x))
        out = stitch_tiles(tiles, origins, (150, 90))
        assert out.shape == (5, 150, 90)
        np.testing.assert_array_equal(out, full)

    def test_stitch_rejects_overlap(self):
        a = np.zeros((1, 4, 4), dtype=np.float32)
        b = np.ones((1, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="overlaps"):
            stitch_tiles([a, b], [(0, 0), (0, 2)], (4, 6))

    def test_stitch_requires_full_cover(self):
        with pytest.raises(ValueError, match="cover"):
            stitch_tiles([np.zeros((1, 2, 2))], [(0, 0)], (4, 4))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TileSpec(size=100)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


class TestAugment:
    def test_zero_probabilities_are_identity(self):
        cfg = AugmentConfig(hflip=0.0, vflip=0.0, rot90=0.0)
        img = rng(1).random((3, 6, 8)).astype(np.float32)
        lab = rng(2).integers(0, 4, size=(6, 8))
        out_img, out_lab = augment_pair(img, lab, cfg, rng(3))
        assert np.array_equal(out_img, img)
        assert np.array_equal(out_lab, lab)

    def test_transforms_stay_aligned(self):
        cfg = AugmentConfig(hflip=1.0, vflip=1.0, rot90=1.0)
        lab = rng(4).integers(0, 5, size=(8, 8))
        img = np.broadcast_to(lab, (3, 8, 8)).astype(np.float32)
        for seed in range(6):
            out_img, out_lab = augment_pair(img, lab, cfg, rng(seed))
            assert np.array_equal(out_img[0].astype(np.int64), out_lab)

    def test_hflip_changes_asymmetric_input(self):
        cfg = AugmentConfig(hflip=1.0, vflip=0.0, rot90=0.0)
        lab = np.arange(16).reshape(4, 4)
        img = np.broadcast_to(lab, (3, 4, 4)).astype(np.float32)
        out_img, out_lab = augment_pair(img, lab, cfg, rng(1))
        assert np.array_equal(out_lab, lab[:, ::-1])
        assert np.array_equal(out_img, img[:, :, ::-1])

    def test_deterministic_given_seed(self):
        cfg = AugmentConfig()
        img = rng(6).random((3, 8, 8)).astype(np.float32)
        lab = rng(7).integers(0, 3, size=(8, 8))
        a = augment_pair(img, lab, cfg, rng(42))
        b = augment_pair(img, lab, cfg, rng(42))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_normalize(self):
        # fixed constants: mean 0.5, std 0.25 on every channel
        img = np.full((3, 2, 2), 0.75, dtype=np.float32)
        out = normalize_image(img)
        assert out.dtype == np.float32 and np.allclose(out, 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(hflip=1.5)
        with pytest.raises(TypeError):  # normalization is fixed, not configurable
            AugmentConfig(std=(0.25, 0.25, 0.25))


# ---------------------------------------------------------------------------
# synthetic dataset
# ---------------------------------------------------------------------------


class TestSynth:
    def test_same_seed_is_byte_identical(self, tmp_path):
        synth_generate(tmp_path / "a", seed=7, n_images=3, size=32, n_classes=4)
        synth_generate(tmp_path / "b", seed=7, n_images=3, size=32, n_classes=4)
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        synth_generate(tmp_path / "a", seed=1, n_images=1, size=32, n_classes=3)
        synth_generate(tmp_path / "b", seed=2, n_images=1, size=32, n_classes=3)
        assert (tmp_path / "a" / "img_0000.ppm").read_bytes() != (
            tmp_path / "b" / "img_0000.ppm"
        ).read_bytes()

    def test_all_classes_appear(self, tmp_path):
        m = synth_generate(tmp_path, seed=0, n_images=8, size=64, n_classes=4)
        hist = np.zeros(4, dtype=np.int64)
        for _, lab_path in m.pairs:
            lab = read_pgm(lab_path)
            assert lab.max() < 4
            hist += np.bincount(lab.ravel(), minlength=4)
        assert np.all(hist > 0)

    def test_labels_match_loadable_pairs(self, tmp_path):
        m = synth_generate(tmp_path, seed=3, n_images=2, size=32, n_classes=3)
        for img_path, lab_path in m.pairs:
            image, label = load_pair(img_path, lab_path, num_classes=3)
            assert image.shape == (3, 32, 32)
            assert label.shape == (32, 32)

    def test_majority_predictor_oa_equals_class_fraction(self, tmp_path):
        m = synth_generate(tmp_path, seed=5, n_images=4, size=32, n_classes=3)
        cm = ConfusionMatrix(3)
        counts = np.zeros(3, dtype=np.int64)
        for _, lab_path in m.pairs:
            lab = read_pgm(lab_path).astype(np.int64)
            counts += np.bincount(lab.ravel(), minlength=3)
            cm.update(np.zeros_like(lab), lab)  # constant class-0 predictor
        oa = compute_metrics(cm)["oa"]
        assert oa == pytest.approx(counts[0] / counts.sum())

    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ValueError):
            synth_generate(tmp_path, size=33)
        with pytest.raises(ValueError):
            synth_generate(tmp_path, n_classes=7)
        with pytest.raises(ValueError):
            synth_generate(tmp_path, n_images=0)


# ---------------------------------------------------------------------------
# prediction emission
# ---------------------------------------------------------------------------

PALETTE = ((10, 10, 10), (200, 30, 30), (30, 200, 30))


class TestEmit:
    def test_single_class_logits_uniform_color(self, tmp_path):
        logits = np.zeros((3, 4, 4), dtype=np.float32)
        logits[1] = 5.0
        emit_prediction(logits, PALETTE, tmp_path / "p.ppm")
        img = read_ppm(tmp_path / "p.ppm")
        assert np.all(img == np.array(PALETTE[1], dtype=np.uint8))

    def test_round_trip_recovers_argmax(self, tmp_path, palette_to_labels):
        logits = rng(8).normal(size=(3, 6, 5)).astype(np.float32)
        classes = emit_prediction(logits, PALETTE, tmp_path / "p.ppm")
        img = read_ppm(tmp_path / "p.ppm")
        assert np.array_equal(palette_to_labels(img, PALETTE), classes)
        assert np.array_equal(classes, np.argmax(logits, axis=0))

    def test_emitted_colors_subset_of_palette(self, tmp_path):
        logits = rng(9).normal(size=(3, 8, 8)).astype(np.float32)
        emit_prediction(logits, PALETTE, tmp_path / "p.ppm")
        img = read_ppm(tmp_path / "p.ppm").reshape(-1, 3)
        allowed = {tuple(c) for c in PALETTE}
        assert {tuple(px) for px in img} <= allowed

    def test_tie_breaks_to_lowest_class(self, tmp_path):
        logits = np.ones((3, 2, 2), dtype=np.float32)
        classes = emit_prediction(logits, PALETTE, tmp_path / "p.ppm")
        assert np.all(classes == 0)

    def test_palette_too_small(self, tmp_path):
        with pytest.raises(ValueError, match="palette"):
            emit_prediction(np.zeros((4, 2, 2), dtype=np.float32), PALETTE, tmp_path / "p.ppm")

    def test_unknown_color_rejected(self, palette_to_labels):
        bad = np.full((2, 2, 3), 99, dtype=np.uint8)
        with pytest.raises(DataError, match="palette"):
            palette_to_labels(bad, PALETTE)
