import json

import numpy as np
import pytest

from selectmae import data
from selectmae.data import (
    PhaseLabel,
    SynthConfig,
    VideoClip,
    generate_clip,
    generate_clip_with_mask,
    generate_corpus,
    load_clip,
    load_manifest,
    load_mask,
    mask_path_for,
    patch_normalize_targets,
    save_clip,
)
from selectmae.errors import ConfigError, FormatError
from selectmae.tokenizer import TokenizerConfig


CFG = SynthConfig()


def test_generate_clip_is_deterministic():
    a = generate_clip(CFG, PhaseLabel(3, "phase_03"), 42)
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


def test_clip_file_roundtrip(tmp_path):
    clip = generate_clip(CFG, 4, 7)
    path = tmp_path / "clip.csvc"
    save_clip(clip, path)
    loaded = load_clip(path)
    assert loaded.frames.shape == clip.frames.shape
    assert np.abs(loaded.frames - clip.frames).max() <= 1.0 / 255.0 + 1e-7


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


def test_bilinear_resize_of_constant_is_constant(tmp_path):
    frames = np.full((2, 3, 64, 64), 0.5, dtype=np.float32)
    path = tmp_path / "const.csvc"
    save_clip(VideoClip(frames), path)
    small = load_clip(path, resize_to=(32, 32))
    assert small.frames.shape == (2, 3, 32, 32)
    expected = round(0.5 * 255) / 255.0
    np.testing.assert_allclose(small.frames, expected, atol=1e-6)


def test_center_crop(tmp_path):
    frames = np.zeros((1, 3, 8, 8), dtype=np.float32)
    frames[:, :, 2:6, 2:6] = 1.0
    path = tmp_path / "crop.csvc"
    save_clip(VideoClip(frames), path)
    cropped = load_clip(path, center_crop=(4, 4))
    np.testing.assert_allclose(cropped.frames, 1.0)


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


def test_corpus_rejects_bad_fraction(tmp_path):
    with pytest.raises(ConfigError):
        generate_corpus(CFG, 10, 0.0, 0, tmp_path / "x")


def test_patch_targets_constant_patch_is_zero():
    frames = np.full((2, 3, 4, 4), 0.7, dtype=np.float32)
    targets = patch_normalize_targets(VideoClip(frames), TokenizerConfig(tubelet=(2, 4, 4)))
    np.testing.assert_allclose(targets.values, 0.0, atol=1e-4)


def test_patch_targets_identity_when_off():
    rng = np.random.default_rng(0)
    frames = rng.random((4, 3, 8, 8)).astype(np.float32)
    targets = patch_normalize_targets(
        VideoClip(frames), TokenizerConfig(tubelet=(2, 4, 4)), normalize=False
    )
    from selectmae.tokenizer import unfold_clip

    np.testing.assert_array_equal(targets.values, unfold_clip(frames, (2, 4, 4)))


def test_patch_targets_statistics():
    rng = np.random.default_rng(1)
    frames = rng.random((4, 3, 16, 16)).astype(np.float32)
    targets = patch_normalize_targets(
        VideoClip(frames), TokenizerConfig(tubelet=(2, 4, 4)), eps=1e-6
    )
    means = targets.values.mean(axis=1)
    variances = targets.values.var(axis=1)
    assert np.abs(means).max() < 1e-5
    assert np.abs(variances - 1.0).max() < 1e-2


def test_patch_targets_denormalize_roundtrip():
    rng = np.random.default_rng(2)
    frames = rng.random((2, 3, 8, 8)).astype(np.float32)
    cfg = TokenizerConfig(tubelet=(2, 4, 4))
    targets = patch_normalize_targets(VideoClip(frames), cfg)
    from selectmae.tokenizer import unfold_clip

    raw = unfold_clip(frames, (2, 4, 4))
    back = targets.denormalize(targets.values)
    np.testing.assert_allclose(back, raw, atol=1e-5)


def test_patch_targets_affine_shift_invariance():
    rng = np.random.default_rng(3)
    frames = rng.random((2, 3, 8, 8)).astype(np.float32) * 0.5
    cfg = TokenizerConfig(tubelet=(2, 4, 4))
    base = patch_normalize_targets(VideoClip(frames), cfg)
    shifted = frames.copy()
    shifted[0:2, :, 0:4, 0:4] += 0.25  # shift exactly one tubelet
    other = patch_normalize_targets(VideoClip(shifted), cfg)
    np.testing.assert_allclose(base.values, other.values, atol=1e-3)
