"""Synthetic surgical-style corpus, raw clip I/O, and reconstruction targets.

A clip has one stored form, on disk and in memory: (T, C, H, W) uint8
pixels. Float frames, tubelet patches and normalized targets are derived
from the pixels where they are used, and never cached beside them; the
targets come from the patch rows the training step has already unfolded.

Clips show a static eye-like textured background with one or two moving
foreground shapes whose color, count, form, and trajectory depend on the
phase label. The exact foreground pixel mask is known, which is what
makes the adaptive-focus statistics testable. Everything is a pure
function of (config, phase, seed); parallel and serial corpus generation
agree bitwise because each clip owns the stream (seed, clip_index).
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, FormatError

CLIP_MAGIC = b"CSVC"
CLIP_VERSION = 1

_SHAPE_PALETTE = (
    (0.85, 0.20, 0.25),
    (0.20, 0.75, 0.30),
    (0.25, 0.35, 0.90),
    (0.90, 0.80, 0.20),
)
_BACKGROUND_SEED = 7


def phase_name(index: int) -> str:
    return f"phase_{index:02d}"


@dataclass
class SynthConfig:
    """The corpus settings a run may vary: clip geometry, phase count,
    shape speed and pixel noise. The look is fixed: every phase draws
    its shapes' colours from `_SHAPE_PALETTE`, and every clip of every
    corpus shares the backdrop that `_BACKGROUND_SEED` draws."""
    frames: int = 8
    height: int = 32
    width: int = 32
    num_phases: int = 12
    motion_speed_range: tuple[float, float] = (0.8, 2.2)
    noise_sigma: float = 0.0

    def __post_init__(self):
        if min(self.frames, self.height, self.width) < 1:
            raise ConfigError(
                f"frames, height and width must be positive, got"
                f" {self.frames}, {self.height} and {self.width}"
            )
        low, high = self.motion_speed_range
        if not 0 <= low <= high:  # (0, 0) draws static clips
            raise ConfigError(f"motion_speed_range needs 0 <= low <= high, got [{low}, {high}]")
        if self.num_phases < 2:
            raise ConfigError(f"need at least 2 phases, got {self.num_phases}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass
class VideoClip:
    """A clip as its file stores it: (T, C, H, W) uint8 pixels, the only
    form a clip is held in. `frames` derives the float32 [0, 1] view on
    each access."""
    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.dtype != np.uint8 or self.pixels.ndim != 4:
            raise ContractError(
                f"a clip holds (T, C, H, W) uint8 pixels, got {self.pixels.dtype}"
                f" {self.pixels.shape}"
            )

    @property
    def frames(self) -> np.ndarray:
        return self.pixels.astype(np.float32) / 255.0


def _to_pixels(frames: np.ndarray) -> np.ndarray:
    """The 8-bit pixels of frames in [0, 1]; uint8 input is kept as it is."""
    if frames.dtype == np.uint8:
        return frames
    return np.clip(np.round(frames * 255.0), 0, 255).astype(np.uint8)


def _seed_key(seed) -> list[int]:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


def _stream(seed, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(_seed_key(seed) + list(key)))


@functools.lru_cache(maxsize=8)
def _eye_background(h: int, w: int) -> np.ndarray:
    """Static eye-like disk: sclera, ring-textured iris, dark pupil. Drawn
    once per size on the stream of `_BACKGROUND_SEED`, and shared,
    read-only, by every clip of that size."""
    rng = _stream(_BACKGROUND_SEED, 0)
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
    img = np.clip(img, 0.0, 1.0)
    img.flags.writeable = False
    return img


def _raster_shape(kind: str, cy: float, cx: float, size: float, h: int, w: int) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    if kind == "disk":
        return (yy - cy) ** 2 + (xx - cx) ** 2 <= size**2
    return np.maximum(np.abs(yy - cy), np.abs(xx - cx)) <= size


def generate_clip_with_mask(
    cfg: SynthConfig, phase: int, seed
) -> tuple[VideoClip, np.ndarray]:
    """The deterministic synthetic clip for (cfg, phase, seed) and its
    (T, H, W) foreground mask."""
    p = int(phase)
    if not 0 <= p < cfg.num_phases:
        raise ConfigError(f"phase {p} outside 0..{cfg.num_phases - 1}")
    t_frames, h, w = cfg.frames, cfg.height, cfg.width
    unit = min(h, w) / 32.0

    motion_rng = _stream(seed, 1, p)
    noise_rng = _stream(seed, 2)

    background = _eye_background(h, w)

    n_colors = len(_SHAPE_PALETTE)
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
        color = np.array(_SHAPE_PALETTE[(color_id + s) % n_colors], dtype=np.float64)
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
    return VideoClip(_to_pixels(frames)), fg_mask


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
    pixels = clip.pixels if isinstance(clip, VideoClip) else np.asarray(clip)
    if pixels.ndim != 4:
        raise FormatError(f"expected (T, C, H, W) frames, got {pixels.shape}")
    pixels = _to_pixels(pixels)
    t, c, h, w = pixels.shape

    def write(f):
        f.write(CLIP_MAGIC)
        f.write(struct.pack("<IIIII", CLIP_VERSION, t, c, h, w))
        f.write(np.ascontiguousarray(pixels).tobytes())

    write_atomically(path, write)


def load_clip(path) -> VideoClip:
    """Read a raw clip; its pixels stay as the file stores them."""
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
    return VideoClip(np.frombuffer(payload, dtype=np.uint8).reshape(t, c, h, w))


def save_mask(mask: np.ndarray, path):
    """Store a (T, H, W) boolean mask in the clip container with C=1."""
    save_clip((mask[:, None, :, :] * np.uint8(255)), path)


def load_mask(path) -> np.ndarray:
    return load_clip(path).pixels[:, 0] > 127  # the pixels whose frame value is > 0.5


def mask_path_for(clip_path) -> str:
    """The foreground mask file beside a clip: `.fg` goes before the
    suffix of its name, the part from the last dot that neither starts
    nor ends the name (`clip_00000.csvc` -> `clip_00000.fg.csvc`)."""
    head, sep, name = os.fspath(clip_path).rpartition(os.sep)
    dot = name.rfind(".")
    if not 0 < dot < len(name) - 1:
        dot = len(name)
    return f"{head}{sep}{name[:dot]}.fg{name[dot:]}"


def check_one_shape(paths: list, clips: list[VideoClip]):
    """Refuse clips that do not all share the (T, C, H, W) of the first,
    as a batch stacks them; the refusal names the first that differs."""
    shape = clips[0].pixels.shape
    for path, clip in zip(paths, clips):
        if clip.pixels.shape != shape:
            raise FormatError(f"clip {path} is {clip.pixels.shape} (T, C, H, W), but {paths[0]}"
                              f" is {shape}: the clips of a run share one shape")


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
    """The clip entries of a corpus manifest, each path made relative to
    the manifest's directory. The manifest must hold a list of objects,
    each with a str `path`, an int `phase_index` and a bool `labeled`."""
    path = Path(manifest_path)
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise FormatError(f"corpus manifest {path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise FormatError(f"corpus manifest {path} must hold a list of clip entries")
    for i, e in enumerate(entries):
        if not (isinstance(e, dict) and type(e.get("path")) is str
                and type(e.get("phase_index")) is int and type(e.get("labeled")) is bool):
            raise FormatError(f"corpus manifest {path} entry {i} needs a str 'path', an int"
                              f" 'phase_index' and a bool 'labeled', got {e!r}")
        e["path"] = str(path.parent / e["path"])
    return entries


# ---------------------------------------------------------------------------
# Reconstruction targets: MAE's per-patch normalized pixels (He et al.,
# arXiv 2111.06377), computed from the patch rows a forward already
# unfolded, with statistics in float64 so a constant patch normalizes to
# exactly zero.

def patch_normalize_targets(rows: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """The float32 targets of (..., patch_len) patch rows: each row's
    pixels normalized to zero mean and unit std."""
    rows = np.asarray(rows, dtype=np.float64)
    mean, std = rows.mean(axis=-1, keepdims=True), rows.std(axis=-1, keepdims=True)
    return ((rows - mean) / (std + eps)).astype(np.float32)


def denormalize_targets(values: np.ndarray, rows: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """The inverse of `patch_normalize_targets`: target-space `values` put
    back into pixels with the statistics of the patch `rows` they stand for."""
    rows = np.asarray(rows, dtype=np.float64)
    mean, std = rows.mean(axis=-1, keepdims=True), rows.std(axis=-1, keepdims=True)
    return np.asarray(values) * (std + eps) + mean
