"""Token-selection network, categorical visible-token sampling, and
the three baseline masking strategies used for ablation.

The selection network scores every token with one pre-norm attention
block plus a linear head; a log-softmax over the sequence turns scores
into the log-probabilities of a categorical distribution. Visible
tokens are drawn without replacement through the Gumbel top-M
equivalence, which matches sequential renormalized categorical draws
exactly. Sampling consumes RNG only and never carries gradient;
training handles the non-differentiability through the selection loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .layers import AttentionParams, LayerNormParams, LinearParams, attention, linear
from .numerics import Tensor, add, log_softmax, reshape

STRATEGIES = ("adaptive", "random", "tube", "frame")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def visible_count(n_tokens: int, ratio: float) -> int:
    """Number of visible tokens for a masking ratio, floor of one token."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"masking ratio must be in (0, 1), got {ratio}")
    return max(1, n_tokens - _round_half_up(ratio * n_tokens))


def _strictly_increasing(ids: np.ndarray) -> bool:
    return bool((ids[1:] > ids[:-1]).all())


@dataclass
class MaskSpec:
    n_tokens: int
    ratio: float
    visible_ids: np.ndarray
    masked_ids: np.ndarray = field(default=None)

    def __post_init__(self):
        self.visible_ids = np.asarray(self.visible_ids, dtype=np.int64)
        if self.masked_ids is None:
            # every id in 0..N-1 that is not visible; ids outside that
            # range mark nothing here and fail validation below
            vis, n = self.visible_ids, self.n_tokens
            free = np.ones(max(n, 0), dtype=bool)
            free[vis[(vis >= 0) & (vis < n)]] = False
            self.masked_ids = np.flatnonzero(free)
        self.masked_ids = np.asarray(self.masked_ids, dtype=np.int64)
        self.validate()

    def validate(self):
        """Raise ConfigError unless the ids partition 0..N-1, each list
        strictly increasing."""
        vis, msk, n = self.visible_ids, self.masked_ids, self.n_tokens
        if vis.size == 0:
            raise ConfigError("mask spec needs at least one visible token")
        if not _strictly_increasing(vis):
            raise ConfigError("visible ids must be sorted and unique")
        if not _strictly_increasing(msk):
            raise ConfigError("masked ids must be sorted and unique")
        if np.intersect1d(vis, msk, assume_unique=True).size:
            raise ConfigError("visible and masked ids overlap")
        if vis.size + msk.size != n:
            raise ConfigError(f"partition covers {vis.size + msk.size} of {n} tokens")
        # both lists are sorted, so their end points bound every id
        lo = min(vis[0], msk[0]) if msk.size else vis[0]
        hi = max(vis[-1], msk[-1]) if msk.size else vis[-1]
        if lo < 0 or hi >= n:
            raise ConfigError("token id outside 0..N-1")

    @property
    def n_visible(self) -> int:
        return int(self.visible_ids.size)

    @property
    def n_masked(self) -> int:
        return int(self.masked_ids.size)


class SelectionParams:
    """Scoring network: pre-norm MHA block with residual, then token logits."""

    def __init__(self, rng: np.random.Generator, dim: int, heads: int = 2):
        self.dim = dim
        self.ln = LayerNormParams(dim)
        self.attn = AttentionParams(rng, dim, heads)
        self.score = LinearParams(rng, dim, 1)

    def named(self, prefix: str = "selector") -> dict[str, Tensor]:
        out = {}
        out.update(self.ln.named(f"{prefix}.ln"))
        out.update(self.attn.named(f"{prefix}.attn"))
        out.update(self.score.named(f"{prefix}.score"))
        return out


def select_probabilities(tokens: Tensor, params: SelectionParams) -> Tensor:
    """(B, N) log-probabilities of selecting each token of each clip in a
    (B, N, dim) stack, normalized over the token axis."""
    if tokens.ndim != 3:
        raise ShapeError(f"selection takes a (B, N, dim) token stack, got {tokens.shape}")
    if tokens.shape[-1] != params.dim:
        raise ConfigError(f"token dim {tokens.shape[-1]} != selection dim {params.dim}")
    y = add(tokens, attention(tokens, params.ln, params.attn))
    return log_softmax(reshape(linear(y, params.score), tokens.shape[:-1]), axis=-1)


def sample_visible(log_probs: np.ndarray, ratio: float, rng: np.random.Generator) -> MaskSpec:
    """Draw the visible set without replacement from one clip's (N,)
    categorical log-probabilities.

    Adds i.i.d. Gumbel noise to the log-probabilities and keeps the top
    M, which is distributionally identical to sequentially sampling M
    distinct indices with renormalization after each draw. Keys are
    formed from the log-probabilities themselves, so tokens whose
    probabilities would underflow to 0 keep their order.
    """
    log_p = np.asarray(log_probs, dtype=np.float64)
    if log_p.ndim != 1:
        raise ShapeError(f"sample_visible takes one clip's (N,) log-probabilities, got {log_p.shape}")
    n = log_p.shape[0]
    m = visible_count(n, ratio)
    u = np.clip(rng.random(n), 1e-12, 1.0 - 1e-12)
    keys = log_p - np.log(-np.log(u))
    visible = np.sort(np.argpartition(keys, n - m)[n - m:])
    return MaskSpec(n, ratio, visible)


def baseline_mask(
    strategy: str, grid: tuple[int, int, int], ratio: float, rng: np.random.Generator
) -> MaskSpec:
    """Uniform-random, tube (shared spatial pattern), or whole-slice frame masking."""
    nt, nh, nw = grid
    n = nt * nh * nw
    if strategy == "random":
        visible = np.sort(rng.choice(n, size=visible_count(n, ratio), replace=False))
    elif strategy == "tube":
        spatial = nh * nw
        keep = visible_count(spatial, ratio)
        cells = np.sort(rng.choice(spatial, size=keep, replace=False))
        visible = np.sort((np.arange(nt)[:, None] * spatial + cells[None, :]).ravel())
    elif strategy == "frame":
        if not 0.0 < ratio < 1.0:
            raise ConfigError(f"masking ratio must be in (0, 1), got {ratio}")
        keep = _round_half_up((1.0 - ratio) * nt)
        if keep < 1:
            raise ConfigError(
                f"frame masking at ratio {ratio} keeps {keep} of {nt} temporal slices"
            )
        slices = np.sort(rng.choice(nt, size=keep, replace=False))
        spatial = nh * nw
        visible = np.sort((slices[:, None] * spatial + np.arange(spatial)[None, :]).ravel())
    else:
        raise ConfigError(f"unknown masking strategy '{strategy}'")
    return MaskSpec(n, ratio, visible)
