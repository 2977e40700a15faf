"""Video-to-token embedding and the token/pixel index geometry.

A clip of shape T x C x H x W is cut into non-overlapping tubelets of
shape (t_p, h_p, w_p) spanning all channels, flattened in
(t, channel, row, col) order, linearly projected, and given a fixed
sinusoidal positional encoding over the flattened token index. Token
order is temporal-major, then rows, then columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import Tensor, add, matmul


@dataclass
class TokenizerConfig:
    tubelet: tuple[int, int, int] = (2, 4, 4)
    dim: int = 64
    pos_encoding: str = "sinusoidal"  # "sinusoidal" or "none"

    def __post_init__(self):
        if self.dim % 2 != 0:
            raise ConfigError(f"token dim must be even for sinusoidal pairing, got {self.dim}")
        if self.pos_encoding not in ("sinusoidal", "none"):
            raise ConfigError(f"unknown positional encoding kind '{self.pos_encoding}'")
        if any(d < 1 for d in self.tubelet):
            raise ConfigError(f"tubelet dims must be positive, got {self.tubelet}")

    def patch_len(self, channels: int = 3) -> int:
        t, h, w = self.tubelet
        return t * h * w * channels

    def grid_dims(self, frames_shape) -> tuple[int, int, int]:
        """(temporal, row, col) cell counts; raises naming the offending axis."""
        t_frames, _, height, width = frames_shape
        tp, hp, wp = self.tubelet
        for name, size, p in (("T", t_frames, tp), ("H", height, hp), ("W", width, wp)):
            if size % p != 0:
                raise ConfigError(f"axis {name}={size} not divisible by tubelet dim {p}")
        return t_frames // tp, height // hp, width // wp


_PE_CACHE: dict = {}


def positional_encoding(n: int, dim: int, dtype=np.float32) -> np.ndarray:
    """Fixed 1-D sinusoidal table: pe[i, 2j] = sin(i / 10000^(2j/dim)), pe[i, 2j+1] = cos."""
    if dim % 2 != 0:
        raise ConfigError(f"positional encoding dim must be even, got {dim}")
    key = (n, dim, np.dtype(dtype).str)
    cached = _PE_CACHE.get(key)
    if cached is not None:
        return cached
    positions = np.arange(n, dtype=np.float64)[:, None]
    freqs = np.power(10000.0, -np.arange(0, dim, 2, dtype=np.float64) / dim)
    table = np.zeros((n, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(positions * freqs)
    table[:, 1::2] = np.cos(positions * freqs)
    table = table.astype(dtype)
    _PE_CACHE[key] = table
    return table


def unfold_clip(frames: np.ndarray, tubelet: tuple[int, int, int]) -> np.ndarray:
    """Extract flattened tubelet patches, one row per token."""
    t_frames, channels, height, width = frames.shape
    tp, hp, wp = tubelet
    nt, nh, nw = t_frames // tp, height // hp, width // wp
    cells = frames.reshape(nt, tp, channels, nh, hp, nw, wp)
    cells = cells.transpose(0, 3, 5, 1, 2, 4, 6)  # (nt, nh, nw, tp, C, hp, wp)
    return np.ascontiguousarray(cells.reshape(nt * nh * nw, tp * channels * hp * wp))


def fold_patches(
    values: np.ndarray, ids: np.ndarray, grid: tuple[int, int, int],
    tubelet: tuple[int, int, int], channels: int = 3,
) -> tuple[np.ndarray, np.ndarray]:
    """Write per-token pixel vectors back into a clip; returns (frames, covered)."""
    nt, nh, nw = grid
    tp, hp, wp = tubelet
    n = nt * nh * nw
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"token id out of range for {n} tokens")
    if values.shape != (ids.size, tp * channels * hp * wp):
        raise ShapeError(
            f"patch values {values.shape} do not match {(ids.size, tp * channels * hp * wp)}"
        )
    frames = np.zeros((nt * tp, channels, nh * hp, nw * wp), dtype=values.dtype)
    covered = np.zeros(n, dtype=bool)
    for row, token_id in enumerate(ids):
        t, h, w = token_cell(int(token_id), grid)
        patch = values[row].reshape(tp, channels, hp, wp)
        frames[t * tp:(t + 1) * tp, :, h * hp:(h + 1) * hp, w * wp:(w + 1) * wp] = patch
        covered[token_id] = True
    return frames, covered


def token_cell(token_id: int, grid: tuple[int, int, int]) -> tuple[int, int, int]:
    nt, nh, nw = grid
    if not 0 <= token_id < nt * nh * nw:
        raise IndexError(f"token id {token_id} out of range")
    t, rest = divmod(token_id, nh * nw)
    h, w = divmod(rest, nw)
    return t, h, w


def cell_token(cell: tuple[int, int, int], grid: tuple[int, int, int]) -> int:
    nt, nh, nw = grid
    t, h, w = cell
    if not (0 <= t < nt and 0 <= h < nh and 0 <= w < nw):
        raise IndexError(f"cell {cell} out of range for grid {grid}")
    return (t * nh + h) * nw + w


@dataclass
class TokenGrid:
    tokens: Tensor  # (N, dim)
    grid: tuple[int, int, int]
    tubelet: tuple[int, int, int] = (2, 4, 4)
    channels: int = 3

    @property
    def n_tokens(self) -> int:
        return self.tokens.shape[0]


def embed_patches(patches: Tensor, cfg: TokenizerConfig, weight: Tensor, bias: Tensor) -> Tensor:
    """Project flattened patches (..., N, patch_len) and add the positional table."""
    if weight.shape[0] != patches.shape[-1] or weight.shape[1] != cfg.dim:
        raise ShapeError(
            f"projection weight {weight.shape}, expected {(patches.shape[-1], cfg.dim)}"
        )
    tokens = add(matmul(patches, weight), bias)
    if cfg.pos_encoding == "sinusoidal":
        pe = positional_encoding(tokens.shape[-2], cfg.dim, dtype=tokens.data.dtype)
        tokens = add(tokens, Tensor(pe))
    return tokens


def tokenize(clip, cfg: TokenizerConfig, weight: Tensor, bias: Tensor) -> TokenGrid:
    """Embed a clip; equivalent to a stride-equals-kernel 3-D convolution."""
    frames = clip.frames if hasattr(clip, "frames") else np.asanyarray(clip)
    grid = cfg.grid_dims(frames.shape)
    channels = frames.shape[1]
    tokens = embed_patches(Tensor(unfold_clip(frames, cfg.tubelet)), cfg, weight, bias)
    return TokenGrid(tokens, grid, cfg.tubelet, channels)


def detokenize_patches(
    values: np.ndarray,
    ids,
    clip_shape: tuple[int, int, int, int],
    cfg: TokenizerConfig,
    stats: tuple[np.ndarray, np.ndarray, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Place per-token pixel vectors into clip coordinates.

    `stats = (mean, std, eps)` de-normalizes values first. Returns the
    partially filled clip and the per-token coverage flags.
    """
    ids = np.asarray(ids, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if stats is not None:
        mean, std, eps = stats
        values = values * (np.asarray(std)[ids] + eps) + np.asarray(mean)[ids]
    grid = cfg.grid_dims(clip_shape)
    frames, covered = fold_patches(
        values.astype(np.float32), ids, grid, cfg.tubelet, clip_shape[1]
    )
    return frames, covered
