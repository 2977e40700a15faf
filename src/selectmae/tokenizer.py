"""Video-to-token embedding and the token/pixel index geometry.

A clip of shape T x C x H x W is cut into non-overlapping tubelets of
shape (t_p, h_p, w_p) spanning all channels, flattened in
(t, channel, row, col) order, linearly projected, and given a fixed
sinusoidal positional encoding over the flattened token index. Token
order is temporal-major, then rows, then columns. `unfold_clip` cuts a
clip into one row per token and `detokenize_patches` is its inverse:
it scatters rows back by token id and undoes the same reshape and
transpose, so no per-token index arithmetic is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import Tensor, add, affine


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
    """Extract flattened tubelet patches of (..., T, C, H, W) frames as
    (..., N, patch_len), one row per token."""
    *lead, t_frames, channels, height, width = frames.shape
    tp, hp, wp = tubelet
    nt, nh, nw = t_frames // tp, height // hp, width // wp
    k = len(lead)
    cells = frames.reshape(*lead, nt, tp, channels, nh, hp, nw, wp)
    # (..., nt, nh, nw, tp, C, hp, wp)
    cells = cells.transpose(*range(k), k, k + 3, k + 5, k + 1, k + 2, k + 4, k + 6)
    return np.ascontiguousarray(cells.reshape(*lead, nt * nh * nw, tp * channels * hp * wp))


def embed_patches(patches: Tensor, cfg: TokenizerConfig, weight: Tensor, bias: Tensor) -> Tensor:
    """Project flattened patches (..., N, patch_len) and add the positional table."""
    if weight.shape[0] != patches.shape[-1] or weight.shape[1] != cfg.dim:
        raise ShapeError(
            f"projection weight {weight.shape}, expected {(patches.shape[-1], cfg.dim)}"
        )
    tokens = affine(patches, weight, bias)
    if cfg.pos_encoding == "sinusoidal":
        pe = positional_encoding(tokens.shape[-2], cfg.dim, dtype=tokens.data.dtype)
        tokens = add(tokens, Tensor(pe))
    return tokens


def tokenize(frames: np.ndarray, cfg: TokenizerConfig, weight: Tensor, bias: Tensor) -> Tensor:
    """Embed a (B, T, C, H, W) stack of clips as (B, N, dim) tokens;
    equivalent to a stride-equals-kernel 3-D convolution."""
    if frames.ndim != 5:
        raise ShapeError(f"tokenize takes a (B, T, C, H, W) stack, got {frames.shape}")
    cfg.grid_dims(frames.shape[1:])  # divisibility check
    return embed_patches(Tensor(unfold_clip(frames, cfg.tubelet)), cfg, weight, bias)


def detokenize_patches(
    values: np.ndarray,
    ids,
    clip_shape: tuple[int, int, int, int],
    cfg: TokenizerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Place per-token pixel rows in clip coordinates: the rows are
    scattered into an (N, patch_len) array, zero where no id was given,
    and `unfold_clip`'s reshape and transpose are undone. Returns the
    float32 (T, C, H, W) clip and the per-token coverage flags."""
    nt, nh, nw = cfg.grid_dims(clip_shape)
    tp, hp, wp = cfg.tubelet
    channels = clip_shape[1]
    n = nt * nh * nw
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"token id out of range for {n} tokens")
    values = np.asarray(values, dtype=np.float32)
    if values.shape != (ids.size, cfg.patch_len(channels)):
        raise ShapeError(
            f"patch values {values.shape} do not match {(ids.size, cfg.patch_len(channels))}"
        )
    rows = np.zeros((n, values.shape[1]), dtype=np.float32)
    rows[ids] = values
    covered = np.zeros(n, dtype=bool)
    covered[ids] = True
    # (nt, nh, nw, tp, C, hp, wp) back to (nt, tp, C, nh, hp, nw, wp)
    cells = rows.reshape(nt, nh, nw, tp, channels, hp, wp).transpose(0, 3, 4, 1, 5, 2, 6)
    return cells.reshape(clip_shape), covered
