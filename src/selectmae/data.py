"""Synthetic surgical-style corpus, raw clip I/O, and reconstruction targets.

Clips show a static eye-like textured background with one or two moving
foreground shapes whose color, count, form, and trajectory depend on the
phase label. The exact foreground pixel mask is known, which is what
makes the adaptive-focus statistics testable. Everything is a pure
function of (config, phase, seed); parallel and serial corpus generation
agree bitwise because each clip owns the stream (seed, clip_index).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .tokenizer import TokenizerConfig, unfold_clip

CLIP_MAGIC = b"CSVC"
CLIP_VERSION = 1

_DEFAULT_PALETTE = (
    (0.85, 0.20, 0.25),
    (0.20, 0.75, 0.30),
    (0.25, 0.35, 0.90),
    (0.90, 0.80, 0.20),
)


@dataclass(frozen=True)
class PhaseLabel:
    class_index: int
    class_name: str = ""

    def __post_init__(self):
        if self.class_index < 0:
            raise ConfigError(f"phase index must be non-negative, got {self.class_index}")


def phase_name(index: int) -> str:
    return f"phase_{index:02d}"


@dataclass
class SynthConfig:
    frames: int = 8
    height: int = 32
    width: int = 32
    num_phases: int = 12
    motion_speed_range: tuple[float, float] = (0.8, 2.2)
    shape_palette: tuple = _DEFAULT_PALETTE
    background_texture_seed: int = 7
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.num_phases < 2:
            raise ConfigError(f"need at least 2 phases, got {self.num_phases}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not self.shape_palette:
            raise ConfigError("shape_palette must not be empty")


@dataclass
class VideoClip:
    frames: np.ndarray  # (T, 3, H, W) float32 in [0, 1]
    fps: float = 1.0
    source_id: str = ""


def _seed_key(seed) -> list[int]:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


def _stream(seed, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(_seed_key(seed) + list(key)))


def _eye_background(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Static eye-like disk: sclera, ring-textured iris, dark pupil."""
    h, w = cfg.height, cfg.width
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    cy = h / 2 + rng.uniform(-1.5, 1.5)
    cx = w / 2 + rng.uniform(-1.5, 1.5)
    radius = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2) / (min(h, w) / 2)

    sclera = np.array([0.84, 0.80, 0.78]) * (1.0 + rng.uniform(-0.06, 0.06, size=3))
    iris_color = np.array([0.38, 0.52, 0.62]) * (1.0 + rng.uniform(-0.10, 0.10, size=3))
    iris_radius = 0.74 + rng.uniform(-0.06, 0.06)
    pupil_radius = 0.24 + rng.uniform(-0.04, 0.04)
    ring_freq = 17.0 + rng.uniform(-3.0, 3.0)
    ring_phase = rng.uniform(0.0, 2.0 * math.pi)

    shading = np.clip(1.05 - 0.55 * radius, 0.0, 1.0)
    rings = 0.10 * np.sin(radius * ring_freq + ring_phase)
    img = np.empty((3, h, w), dtype=np.float64)
    in_iris = radius < iris_radius
    in_pupil = radius < pupil_radius
    for c in range(3):
        img[c] = sclera[c] * shading
        img[c][in_iris] = (iris_color[c] * (shading + rings))[in_iris]
        img[c][in_pupil] = 0.08
    return np.clip(img, 0.0, 1.0)


def _raster_shape(kind: str, cy: float, cx: float, size: float, h: int, w: int) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    if kind == "disk":
        return (yy - cy) ** 2 + (xx - cx) ** 2 <= size**2
    return np.maximum(np.abs(yy - cy), np.abs(xx - cx)) <= size


def generate_clip_with_mask(
    cfg: SynthConfig, phase, seed
) -> tuple[VideoClip, np.ndarray]:
    """Like `generate_clip` but also returns the (T, H, W) foreground mask."""
    p = phase.class_index if isinstance(phase, PhaseLabel) else int(phase)
    if not 0 <= p < cfg.num_phases:
        raise ConfigError(f"phase {p} outside 0..{cfg.num_phases - 1}")
    t_frames, h, w = cfg.frames, cfg.height, cfg.width
    unit = min(h, w) / 32.0

    # background depends on the texture seed only: one static backdrop per
    # config, shared by every clip of a corpus
    bg_rng = _stream(cfg.background_texture_seed, 0)
    motion_rng = _stream(seed, 1, p)
    noise_rng = _stream(seed, 2)

    background = _eye_background(cfg, bg_rng)

    n_colors = len(cfg.shape_palette)
    color_id = p % n_colors
    form_id = (p // n_colors) % 3  # 0: one disk, 1: two disks, 2: one square
    n_shapes = 2 if form_id == 1 else 1
    kind = "square" if form_id == 2 else "disk"

    speed = motion_rng.uniform(*cfg.motion_speed_range) * unit
    direction = 1.0 if p % 2 == 0 else -1.0
    shapes = []
    for s in range(n_shapes):
        size = motion_rng.uniform(3.2, 4.4) * unit
        if kind == "square":
            size *= 0.9
        center_y = h / 2 + motion_rng.uniform(-1.5, 1.5) * unit
        center_x = w / 2 + motion_rng.uniform(-1.5, 1.5) * unit
        orbit_max = min(h, w) / 2 - size - 2.0 * unit - 1.6 * unit
        orbit = min((0.16 + 0.07 * form_id) * min(h, w) + motion_rng.uniform(-1.0, 1.0) * unit,
                    orbit_max)
        orbit = max(orbit, 2.0 * unit)
        theta0 = 2.0 * math.pi * (p + 0.31 * s) / cfg.num_phases + motion_rng.uniform(-0.2, 0.2)
        omega = direction * speed / max(orbit, 1.0)
        color = np.array(cfg.shape_palette[(color_id + s) % n_colors], dtype=np.float64)
        color = np.clip(color * (1.0 + motion_rng.uniform(-0.05, 0.05, size=3)), 0.0, 1.0)
        shapes.append((size, center_y, center_x, orbit, theta0, omega, color))

    frames = np.empty((t_frames, 3, h, w), dtype=np.float64)
    fg_mask = np.zeros((t_frames, h, w), dtype=bool)
    for t in range(t_frames):
        frame = background.copy()
        for size, cy0, cx0, orbit, theta0, omega, color in shapes:
            angle = theta0 + omega * t
            cy = cy0 + orbit * math.sin(angle)
            cx = cx0 + orbit * math.cos(angle)
            mask = _raster_shape(kind, cy, cx, size, h, w)
            fg_mask[t] |= mask
            for c in range(3):
                frame[c][mask] = color[c]
        frames[t] = frame
    if cfg.noise_sigma > 0:
        frames = frames + noise_rng.normal(0.0, cfg.noise_sigma, size=frames.shape)
    frames = np.clip(frames, 0.0, 1.0).astype(np.float32)
    clip = VideoClip(frames, fps=1.0, source_id=f"synth_p{p:02d}")
    return clip, fg_mask


def generate_clip(cfg: SynthConfig, phase, seed) -> VideoClip:
    """Deterministic synthetic clip for (cfg, phase, seed)."""
    clip, _ = generate_clip_with_mask(cfg, phase, seed)
    return clip


def write_atomically(path, write):
    """Call `write(f)` on a temporary file beside `path`, then rename it
    into place: a failed or interrupted save leaves any earlier file at
    `path` as it was, and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Raw clip container: magic "CSVC", version u32, then T,C,H,W u32 (all
# little-endian), then T*C*H*W bytes of 8-bit pixels in (T, C, rows) order.

def save_clip(clip, path):
    frames = clip.frames if isinstance(clip, VideoClip) else np.asarray(clip)
    if frames.ndim != 4:
        raise FormatError(f"expected (T, C, H, W) frames, got {frames.shape}")
    if frames.dtype != np.uint8:
        frames = np.clip(np.round(frames * 255.0), 0, 255).astype(np.uint8)
    t, c, h, w = frames.shape

    def write(f):
        f.write(CLIP_MAGIC)
        f.write(struct.pack("<IIIII", CLIP_VERSION, t, c, h, w))
        f.write(np.ascontiguousarray(frames).tobytes())

    write_atomically(path, write)


def _bilinear_resize(frames: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    t, c, h, w = frames.shape
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, None, :, None]
    wx = (xs - x0)[None, None, None, :]
    f00 = frames[:, :, y0[:, None], x0[None, :]]
    f01 = frames[:, :, y0[:, None], x1[None, :]]
    f10 = frames[:, :, y1[:, None], x0[None, :]]
    f11 = frames[:, :, y1[:, None], x1[None, :]]
    top = f00 * (1 - wx) + f01 * wx
    bottom = f10 * (1 - wx) + f11 * wx
    return (top * (1 - wy) + bottom * wy).astype(frames.dtype)


def load_clip(path, resize_to: tuple[int, int] | None = None,
              center_crop: tuple[int, int] | None = None) -> VideoClip:
    """Read a raw clip; pixels scaled to [0, 1], optional crop then resize."""
    with open(path, "rb") as f:
        header = f.read(4 + 20)
        if header[:4] != CLIP_MAGIC:
            raise FormatError(f"bad clip magic in {path}")
        if len(header) < 24:
            raise FormatError(f"truncated clip header in {path}: {len(header)} of 24 bytes")
        version, t, c, h, w = struct.unpack("<IIIII", header[4:24])
        if version != CLIP_VERSION:
            raise FormatError(f"unsupported clip version {version}")
        payload = f.read()
    expected = t * c * h * w
    if len(payload) != expected:
        raise FormatError(
            f"clip payload is {len(payload)} bytes, header implies {expected}"
        )
    frames = np.frombuffer(payload, dtype=np.uint8).reshape(t, c, h, w)
    frames = frames.astype(np.float32) / 255.0
    if center_crop is not None:
        ch, cw = center_crop
        if ch > h or cw > w:
            raise ConfigError(f"crop {center_crop} larger than frame {(h, w)}")
        top = (h - ch) // 2
        left = (w - cw) // 2
        frames = frames[:, :, top:top + ch, left:left + cw]
    if resize_to is not None and frames.shape[2:] != tuple(resize_to):
        frames = _bilinear_resize(frames, *resize_to)
    return VideoClip(np.ascontiguousarray(frames), source_id=str(path))


def save_mask(mask: np.ndarray, path):
    """Store a (T, H, W) boolean mask in the clip container with C=1."""
    save_clip((mask[:, None, :, :] * np.uint8(255)), path)


def load_mask(path) -> np.ndarray:
    clip = load_clip(path)
    return clip.frames[:, 0] > 0.5


def mask_path_for(clip_path) -> Path:
    p = Path(clip_path)
    return p.with_name(p.stem + ".fg" + p.suffix)


# ---------------------------------------------------------------------------
# Corpus generation and manifest handling.

def generate_corpus(cfg: SynthConfig, n_clips: int, label_fraction: float, seed: int,
                    out_dir) -> Path:
    """Write clips, foreground masks, and a manifest; returns the manifest path.

    Phases are assigned round-robin, the first ceil(label_fraction * n)
    clips in that order are flagged labeled (so labeled clips are
    phase-balanced too), and each clip derives its RNG stream from
    (seed, clip_index).
    """
    if not 0 < label_fraction <= 1:
        raise ConfigError(f"label_fraction must be in (0, 1], got {label_fraction}")
    if n_clips < 1:
        raise ConfigError("n_clips must be positive")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_labeled = math.ceil(label_fraction * n_clips)
    entries = []
    for i in range(n_clips):
        phase = i % cfg.num_phases
        clip, fg = generate_clip_with_mask(cfg, phase, [seed, i])
        name = f"clip_{i:05d}.csvc"
        save_clip(clip, out / name)
        save_mask(fg, mask_path_for(out / name))
        entries.append(
            {
                "path": name,
                "phase_index": phase,
                "phase_name": phase_name(phase),
                "labeled": i < n_labeled,
            }
        )
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    return manifest


def load_manifest(manifest_path) -> list[dict]:
    entries = json.loads(Path(manifest_path).read_text())
    base = Path(manifest_path).parent
    for e in entries:
        e["path"] = str(base / e["path"])
    return entries


# ---------------------------------------------------------------------------
# Reconstruction targets.

@dataclass
class PatchTargets:
    values: np.ndarray  # (N, patch_len)
    mean: np.ndarray  # (N, 1) raw per-token mean
    std: np.ndarray  # (N, 1) raw per-token std
    normalized: bool
    eps: float

    def denormalize(self, values: np.ndarray, ids=None) -> np.ndarray:
        if not self.normalized:
            return np.asarray(values)
        mean, std = self.mean, self.std
        if ids is not None:
            ids = np.asarray(ids, dtype=np.int64)
            mean, std = mean[ids], std[ids]
        return np.asarray(values) * (std + self.eps) + mean


def patch_normalize_targets(
    clip, tokenizer_cfg: TokenizerConfig, normalize: bool = True, eps: float = 1e-6
) -> PatchTargets:
    """Per-token flattened pixels, optionally normalized to zero mean/unit std."""
    frames = clip.frames if isinstance(clip, VideoClip) else np.asarray(clip)
    tokenizer_cfg.grid_dims(frames.shape)  # divisibility check
    patches = unfold_clip(frames, tokenizer_cfg.tubelet).astype(np.float64)
    # float64 statistics so constant patches normalize to exactly zero
    mean = patches.mean(axis=1, keepdims=True)
    std = patches.std(axis=1, keepdims=True)
    if normalize:
        values = (patches - mean) / (std + eps)
    else:
        values = patches
    return PatchTargets(values.astype(np.float32), mean, std, normalize, eps)
