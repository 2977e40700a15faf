import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from selectmae import data
from selectmae.data import (
    SynthConfig,
    VideoClip,
    generate_clip_with_mask,
    generate_corpus,
    load_clip,
    load_manifest,
    load_mask,
    denormalize_targets,
    mask_path_for,
    patch_normalize_targets,
    save_clip,
    save_mask,
)
from selectmae.errors import ConfigError, ContractError, FormatError
from selectmae.tokenizer import unfold_clip

from testkit import generate_clip


CFG = SynthConfig()


def test_generate_clip_is_deterministic():
    a = generate_clip(CFG, 3, 42)
    b = generate_clip(CFG, 3, 42)
    assert np.array_equal(a.frames, b.frames)


def test_static_degenerate_clip():
    cfg = SynthConfig(motion_speed_range=(0.0, 0.0), noise_sigma=0.0)
    clip = generate_clip(cfg, 0, 5)
    for t in range(1, cfg.frames):
        assert np.array_equal(clip.frames[t], clip.frames[0])


def test_distinct_phases_differ_only_on_foreground():
    clip_a, mask_a = generate_clip_with_mask(CFG, 2, 42)
    clip_b, mask_b = generate_clip_with_mask(CFG, 9, 42)
    diff = (np.abs(clip_a.frames - clip_b.frames) > 0).any(axis=1)
    union = mask_a | mask_b
    assert diff.any()
    assert (diff <= union).all()


def test_clip_values_in_range_and_shape():
    cfg = SynthConfig(noise_sigma=0.05)
    clip = generate_clip(cfg, 1, 0)
    assert clip.frames.shape == (cfg.frames, 3, cfg.height, cfg.width)
    assert clip.frames.min() >= 0.0 and clip.frames.max() <= 1.0


@pytest.mark.parametrize("phase", range(12))
def test_foreground_fraction_bounds(phase):
    for seed in range(3):
        _, mask = generate_clip_with_mask(CFG, phase, [seed, phase])
        per_frame = mask.reshape(CFG.frames, -1).mean(axis=1)
        assert per_frame.min() >= 0.02
        assert per_frame.max() <= 0.25


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        SynthConfig(num_phases=1)
    with pytest.raises(ConfigError):
        SynthConfig(noise_sigma=-0.1)
    with pytest.raises(ConfigError):
        generate_clip(CFG, 99, 0)
    for sizes in ({"frames": 0}, {"height": 0}, {"width": -4}):
        with pytest.raises(ConfigError, match="must be positive"):
            SynthConfig(**sizes)
    for speeds in ((2.0, 1.0), (-1.0, 1.0)):
        with pytest.raises(ConfigError, match="motion_speed_range"):
            SynthConfig(motion_speed_range=speeds)


def test_clip_file_roundtrip(tmp_path):
    clip = generate_clip(CFG, 4, 7)
    path = tmp_path / "clip.csvc"
    save_clip(clip, path)
    loaded = load_clip(path)
    # a generated clip is already quantized, so its saved copy loads back equal
    assert np.array_equal(loaded.pixels, clip.pixels)
    assert np.array_equal(loaded.frames, clip.frames)


def test_clip_holds_uint8_pixels_and_derives_frames():
    clip = generate_clip(CFG, 4, 7)
    assert clip.pixels.dtype == np.uint8
    assert clip.pixels.shape == (CFG.frames, 3, CFG.height, CFG.width)
    expected = clip.pixels.astype(np.float32) / 255.0
    assert clip.frames.dtype == np.float32
    assert clip.frames.tobytes() == expected.tobytes()


def test_clip_rejects_pixels_that_are_not_uint8():
    for dtype, shape in ((np.float32, (2, 3, 4, 4)), (np.float64, (2, 3, 4, 4)),
                         (np.int64, (2, 3, 4, 4)), (np.uint8, (3, 4, 4))):
        with pytest.raises(ContractError, match="uint8"):
            VideoClip(np.zeros(shape, dtype=dtype))


def test_clip_file_header_payload_mismatch(tmp_path):
    path = tmp_path / "bad.csvc"
    clip = generate_clip(CFG, 0, 0)
    save_clip(clip, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(FormatError, match="payload"):
        load_clip(path)


def test_clip_file_bad_magic(tmp_path):
    path = tmp_path / "junk.csvc"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(FormatError, match="magic"):
        load_clip(path)


def test_clip_file_truncated_header(tmp_path):
    path = tmp_path / "short.csvc"
    path.write_bytes(b"CSVC\x01\x00\x00\x00")  # magic and version, no dims
    with pytest.raises(FormatError, match="truncated clip header"):
        load_clip(path)


def _small_clip(path):
    save_clip(np.random.default_rng(0).integers(0, 256, (2, 3, 4, 4), dtype=np.uint8), path)
    return path.read_bytes()


def test_clip_truncated_or_flipped_raises_only_format_error(tmp_path):
    blob = _small_clip(tmp_path / "good.csvc")
    bad = tmp_path / "bad.csvc"
    for cut in range(len(blob)):
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_clip(bad)
    for i in range(len(blob)):
        flipped = bytearray(blob)
        flipped[i] ^= 0xFF
        bad.write_bytes(bytes(flipped))
        if i < 24:  # magic, version and dims
            with pytest.raises(FormatError):
                load_clip(bad)
            continue
        assert load_clip(bad).frames.shape == (2, 3, 4, 4), i


_CLIPS = hnp.arrays(np.uint8, hnp.array_shapes(min_dims=4, max_dims=4, min_side=0, max_side=4))
_PROPERTY = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@_PROPERTY
@given(pixels=_CLIPS)
def test_any_clip_round_trips(pixels, tmp_path):
    path = tmp_path / "clip.csvc"
    save_clip(VideoClip(pixels), path)
    loaded = load_clip(path)
    assert loaded.pixels.shape == pixels.shape
    assert loaded.pixels.tobytes() == pixels.tobytes()


@_PROPERTY
@given(pixels=_CLIPS, extra=st.binary(min_size=1, max_size=3))
def test_every_cut_and_any_appended_byte_of_a_clip_raise_format_error(pixels, extra, tmp_path):
    good = tmp_path / "clip.csvc"
    save_clip(pixels, good)
    blob = good.read_bytes()
    bad = tmp_path / "bad.csvc"
    for cut in range(len(blob)):
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_clip(bad)
    bad.write_bytes(blob + extra)
    with pytest.raises(FormatError, match="payload"):
        load_clip(bad)


@pytest.mark.parametrize("name", ["clip_00000.csvc", "a.b.csvc", "clip", ".hidden", "x.", "..x"])
def test_mask_path_puts_fg_before_the_suffix_as_pathlib_splits_it(name, tmp_path):
    clip = tmp_path / name
    assert mask_path_for(clip) == str(clip.with_name(clip.stem + ".fg" + clip.suffix))
    assert mask_path_for(name) == clip.stem + ".fg" + clip.suffix


def test_failed_clip_save_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "clip.csvc"
    before = _small_clip(path)
    real_open = open

    class SecondWriteFails:
        """An open file whose second write raises, as on a full disk."""

        def __init__(self, *args):
            self.file = real_open(*args)
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, chunk):
            self.writes += 1
            if self.writes > 1:
                raise OSError("no space left on device")
            return self.file.write(chunk)

    monkeypatch.setattr(data, "open", SecondWriteFails, raising=False)
    with pytest.raises(OSError):
        save_clip(np.zeros((2, 3, 4, 4), dtype=np.uint8), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["clip.csvc"]


def test_corpus_manifest_counts(tmp_path):
    generate_corpus(CFG, 10, 0.1, 3, tmp_path / "c1")
    entries = json.loads((tmp_path / "c1" / "manifest.json").read_text())
    assert sum(e["labeled"] for e in entries) == 1
    generate_corpus(CFG, 10, 1.0, 3, tmp_path / "c2")
    entries = json.loads((tmp_path / "c2" / "manifest.json").read_text())
    assert all(e["labeled"] for e in entries)


def test_corpus_phase_histogram(tmp_path):
    generate_corpus(CFG, 120, 0.5, 0, tmp_path / "hist")
    entries = load_manifest(tmp_path / "hist" / "manifest.json")
    counts = np.bincount([e["phase_index"] for e in entries], minlength=12)
    assert (counts == 10).all()
    for e in entries:
        mask = load_mask(mask_path_for(e["path"]))
        assert mask.shape == (CFG.frames, CFG.height, CFG.width)
        break


def test_corpus_regeneration_is_byte_identical(tmp_path):
    generate_corpus(CFG, 6, 0.5, 12, tmp_path / "a")
    generate_corpus(CFG, 6, 0.5, 12, tmp_path / "b")
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# The SHA-256 of each file of `generate_corpus(SynthConfig(), 4, 1.0, 0, ...)`,
# as the corpus was written when every clip drew its own backdrop.
DEFAULT_CORPUS_SHA256 = {
    "clip_00000.csvc": "fcc9a3729958c4b35b649f7fba0f4cf9ae19abd8cfbb53e4e55b8bb33dafc091",
    "clip_00000.fg.csvc": "d2d4d2d25e6ece3ff8a94c3b0bb8d1401934f2b6b0d6f21fdede7c221537a9d9",
    "clip_00001.csvc": "027ac26d3b41c0151fbe0eb076fa1f3f863573d834e8693998c45538c8a02f3f",
    "clip_00001.fg.csvc": "cc7abfec223d4f2bf90799468148b747833f86b92ffd1c3caba2faf8f2da9022",
    "clip_00002.csvc": "5df1072b46bca170796b27513e6fb979328377005a566067695cda7117a2aa5d",
    "clip_00002.fg.csvc": "8d7ea983f7324d768dddb5e76419b6980844a47b0e7ed330f622867ff9a754d4",
    "clip_00003.csvc": "bc22bc44ba684de6e9152808e98fa6af62a6a0ca3d8cdcb92273b77923abe26f",
    "clip_00003.fg.csvc": "84c7717a72881b24ebdd753246934c1306403e5a70c6b0a4f23c52558730d82c",
}


def test_default_corpus_bytes_are_pinned(tmp_path):
    generate_corpus(SynthConfig(), 4, 1.0, 0, tmp_path)
    for name, digest in DEFAULT_CORPUS_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_the_backdrop_is_drawn_once_per_size_and_stays_read_only():
    data._eye_background.cache_clear()
    small = SynthConfig(frames=2, height=16, width=24, num_phases=4)
    for phase in range(4):
        generate_clip_with_mask(small, phase, [0, phase])
        generate_clip_with_mask(CFG, phase, [0, phase])
    info = data._eye_background.cache_info()
    assert (info.misses, info.hits) == (2, 6)
    assert not data._eye_background(16, 24).flags.writeable


def test_corpus_rejects_bad_fraction(tmp_path):
    with pytest.raises(ConfigError):
        generate_corpus(CFG, 10, 0.0, 0, tmp_path / "x")


def _rows(shape, seed):
    """The (..., N, patch_len) rows of random frames in (2, 4, 4) tubelets."""
    frames = np.random.default_rng(seed).random(shape).astype(np.float32)
    return unfold_clip(frames, (2, 4, 4))


def test_patch_targets_constant_patch_is_zero():
    rows = unfold_clip(np.full((2, 3, 4, 4), 0.7, dtype=np.float32), (2, 4, 4))
    targets = patch_normalize_targets(rows)
    assert targets.dtype == np.float32 and targets.shape == rows.shape
    np.testing.assert_allclose(targets, 0.0, atol=1e-4)


def test_patch_targets_statistics():
    targets = patch_normalize_targets(_rows((4, 3, 16, 16), 1), eps=1e-6)
    means = targets.mean(axis=1)
    variances = targets.var(axis=1)
    assert np.abs(means).max() < 1e-5
    assert np.abs(variances - 1.0).max() < 1e-2


def test_patch_targets_denormalize_roundtrip():
    # any leading shape: a (B, N, patch_len) stack is normalized row by row
    rows = _rows((2, 2, 3, 8, 8), 2)
    targets = patch_normalize_targets(rows)
    for i in range(2):
        assert np.array_equal(targets[i], patch_normalize_targets(rows[i])), i
    np.testing.assert_allclose(denormalize_targets(targets, rows), rows, atol=1e-5)
    some = np.array([3, 0])  # the rows of some tokens, as the step takes them
    np.testing.assert_allclose(
        denormalize_targets(targets[0][some], rows[0][some]), rows[0][some], atol=1e-5)


def test_patch_targets_affine_shift_invariance():
    frames = np.random.default_rng(3).random((2, 3, 8, 8)).astype(np.float32) * 0.5
    shifted = frames.copy()
    shifted[0:2, :, 0:4, 0:4] += 0.25  # shift exactly one tubelet
    base = patch_normalize_targets(unfold_clip(frames, (2, 4, 4)))
    other = patch_normalize_targets(unfold_clip(shifted, (2, 4, 4)))
    np.testing.assert_allclose(base, other, atol=1e-3)
