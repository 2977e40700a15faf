"""Video-to-token embedding and the token/pixel index geometry.

A clip of shape T x C x H x W is cut into non-overlapping tubelets of
shape (t_p, h_p, w_p) spanning all channels, flattened in
(t, channel, row, col) order, linearly projected, and given a fixed
sinusoidal positional encoding over the flattened token index, as wide
as the projection's output. Token order is temporal-major, then rows,
then columns. The tubelet is the backbone config's; these are plain
functions of it. `unfold_clip` cuts a clip into one row per token and
`detokenize_patches` is its inverse: it scatters rows back by token id
and undoes the same reshape and transpose, so no per-token index
arithmetic is kept.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import Tensor, add, affine


def patch_len(tubelet: tuple[int, int, int], channels: int = 3) -> int:
    t, h, w = tubelet
    return t * h * w * channels


def grid_dims(frames_shape, tubelet: tuple[int, int, int]) -> tuple[int, int, int]:
    """(temporal, row, col) cell counts; raises naming the offending axis."""
    t_frames, _, height, width = frames_shape
    tp, hp, wp = tubelet
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


def embed_patches(patches: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Project flattened patches (..., N, patch_len) and add the positional table."""
    if weight.shape[0] != patches.shape[-1]:
        raise ShapeError(f"projection weight {weight.shape} for patch rows of {patches.shape[-1]}")
    tokens = affine(patches, weight, bias)
    pe = positional_encoding(tokens.shape[-2], tokens.shape[-1], dtype=tokens.data.dtype)
    return add(tokens, Tensor(pe))


def tokenize(frames: np.ndarray, tubelet: tuple[int, int, int], weight: Tensor,
             bias: Tensor) -> Tensor:
    """Embed a (B, T, C, H, W) stack of clips as (B, N, dim) tokens;
    equivalent to a stride-equals-kernel 3-D convolution."""
    if frames.ndim != 5:
        raise ShapeError(f"tokenize takes a (B, T, C, H, W) stack, got {frames.shape}")
    grid_dims(frames.shape[1:], tubelet)  # divisibility check
    return embed_patches(Tensor(unfold_clip(frames, tubelet)), weight, bias)


def detokenize_patches(
    values: np.ndarray,
    ids,
    clip_shape: tuple[int, int, int, int],
    tubelet: tuple[int, int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Place per-token pixel rows in clip coordinates: the rows are
    scattered into an (N, patch_len) array, zero where no id was given,
    and `unfold_clip`'s reshape and transpose are undone. Returns the
    float32 (T, C, H, W) clip and the per-token coverage flags."""
    nt, nh, nw = grid_dims(clip_shape, tubelet)
    tp, hp, wp = tubelet
    channels = clip_shape[1]
    n = nt * nh * nw
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"token id out of range for {n} tokens")
    values = np.asarray(values, dtype=np.float32)
    width = patch_len(tubelet, channels)
    if values.shape != (ids.size, width):
        raise ShapeError(f"patch values {values.shape} do not match {(ids.size, width)}")
    rows = np.zeros((n, width), dtype=np.float32)
    rows[ids] = values
    covered = np.zeros(n, dtype=bool)
    covered[ids] = True
    # (nt, nh, nw, tp, C, hp, wp) back to (nt, tp, C, nh, hp, nw, wp)
    cells = rows.reshape(nt, nh, nw, tp, channels, hp, wp).transpose(0, 3, 4, 1, 5, 2, 6)
    return cells.reshape(clip_shape), covered
