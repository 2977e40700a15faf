"""Encoder over visible tokens and the lightweight reconstructing decoder.

The decoder rebuilds the full token sequence: projected visible
features at their original positions, and a shared learnable mask
vector plus the fixed positional encoding everywhere else. The
prediction head maps decoder features to flattened patch pixels in
the per-patch-normalized space of the reconstruction targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .layers import BlockParams, LinearParams, LayerNormParams, apply_layer_norm, linear, transformer_block
from .numerics import Tensor, add, concat_rows, gather_rows_batched, reshape
from .tokenizer import patch_len, positional_encoding


@dataclass
class BackboneConfig:
    tubelet: tuple[int, int, int] = (2, 4, 4)  # (t, h, w) pixels per token
    enc_depth: int = 4
    enc_dim: int = 64
    enc_heads: int = 4
    dec_depth: int = 4
    dec_dim: int = 32
    dec_heads: int = 2

    def __post_init__(self):
        if min(self.tubelet) < 1:
            raise ConfigError(f"tubelet dims must be positive, got {self.tubelet}")
        if min(self.enc_depth, self.dec_depth) < 0:
            raise ConfigError(f"depths must be >= 0, got {self.enc_depth} and {self.dec_depth}")
        if min(self.enc_dim, self.enc_heads, self.dec_dim, self.dec_heads) < 1:
            raise ConfigError("encoder and decoder dims and heads must be positive")
        if self.enc_dim % self.enc_heads != 0:
            raise ConfigError(f"encoder dim {self.enc_dim} not divisible by {self.enc_heads} heads")
        if self.dec_dim % self.dec_heads != 0:
            raise ConfigError(f"decoder dim {self.dec_dim} not divisible by {self.dec_heads} heads")
        if self.enc_dim % 2 != 0 or self.dec_dim % 2 != 0:
            raise ConfigError(f"encoder dim {self.enc_dim} and decoder dim {self.dec_dim}"
                              " must be even for the positional table")


class ModelParams:
    """Every trainable tensor of the autoencoder: tokenizer projection,
    encoder blocks, decoder embed/blocks/head, and the mask vector."""

    def __init__(self, bb_cfg: BackboneConfig, rng: np.random.Generator):
        self.bb_cfg = bb_cfg
        rows = patch_len(bb_cfg.tubelet)
        # LeCun-scale init keeps patch content comparable to the O(1)
        # positional table; a 0.02 init buries it and stalls training
        self.proj = LinearParams(rng, rows, bb_cfg.enc_dim, std=1.0 / math.sqrt(rows))
        self.enc_blocks = [
            BlockParams(rng, bb_cfg.enc_dim, bb_cfg.enc_heads)
            for _ in range(bb_cfg.enc_depth)
        ]
        self.enc_norm = LayerNormParams(bb_cfg.enc_dim)
        self.dec_embed = LinearParams(rng, bb_cfg.enc_dim, bb_cfg.dec_dim)
        self.mask_token = Tensor(
            (rng.standard_normal((1, bb_cfg.dec_dim)) * 0.02).astype(np.float32),
            requires_grad=True,
        )
        self.dec_blocks = [
            BlockParams(rng, bb_cfg.dec_dim, bb_cfg.dec_heads)
            for _ in range(bb_cfg.dec_depth)
        ]
        self.dec_norm = LayerNormParams(bb_cfg.dec_dim)
        self.head = LinearParams(rng, bb_cfg.dec_dim, rows)

    def encoder_named(self, prefix: str = "model") -> dict[str, Tensor]:
        """The subset used by the downstream classification path."""
        out = {}
        out.update(self.proj.named(f"{prefix}.tokenizer.proj"))
        for i, block in enumerate(self.enc_blocks):
            out.update(block.named(f"{prefix}.encoder.block{i}"))
        out.update(self.enc_norm.named(f"{prefix}.encoder.norm"))
        return out

    def named(self, prefix: str = "model") -> dict[str, Tensor]:
        """Every tensor: the encoder's first, in `encoder_named` order,
        then the decoder's. AdamW's flat layout follows this order."""
        out = self.encoder_named(prefix)
        out.update(self.dec_embed.named(f"{prefix}.decoder.embed"))
        out[f"{prefix}.decoder.mask_token"] = self.mask_token
        for i, block in enumerate(self.dec_blocks):
            out.update(block.named(f"{prefix}.decoder.block{i}"))
        out.update(self.dec_norm.named(f"{prefix}.decoder.norm"))
        out.update(self.head.named(f"{prefix}.decoder.head"))
        return out


def encode(visible_tokens: Tensor, params: ModelParams) -> Tensor:
    """Pre-norm transformer over a (B, n, enc_dim) stack of visible
    tokens, then the final layer-norm. One clip is B = 1."""
    if visible_tokens.ndim != 3:
        raise ContractError(f"encode takes a (B, n, dim) token stack, got {visible_tokens.shape}")
    if visible_tokens.shape[-2] < 1:
        raise ContractError("encoder needs at least one visible token")
    if visible_tokens.shape[-1] != params.bb_cfg.enc_dim:
        raise ConfigError(
            f"token dim {visible_tokens.shape[-1]} != encoder dim {params.bb_cfg.enc_dim}"
        )
    x = visible_tokens
    for block in params.enc_blocks:
        x = transformer_block(x, block)
    return apply_layer_norm(x, params.enc_norm)


def decode(latents: Tensor, visible_ids, masked_ids, params: ModelParams) -> Tensor:
    """Predict the masked patches of a batch from its visible latents.

    `latents` is (B, n_visible, enc_dim); `visible_ids` (B, n_visible)
    and `masked_ids` (B, n_masked) partition each clip's N tokens. Builds
    the N-length decoder sequence (projected visible features at their
    positions, mask vector + positional encoding at masked ones), runs
    the decoder blocks, and returns (B, n_masked, patch_len) pixel
    predictions aligned to `masked_ids`. One clip is B = 1.
    """
    visible_ids = np.asarray(visible_ids, dtype=np.int64)
    masked_ids = np.asarray(masked_ids, dtype=np.int64)
    if (latents.shape[:2] != visible_ids.shape or masked_ids.ndim != 2
            or masked_ids.shape[0] != visible_ids.shape[0]):
        raise ContractError(
            f"latents {latents.shape} do not match visible ids {visible_ids.shape}"
            f" and masked ids {masked_ids.shape}"
        )
    n_batch, n_masked = masked_ids.shape
    if n_masked < 1:
        raise ContractError("decode needs at least one masked token")
    n_visible = visible_ids.shape[1]
    n_tokens = n_visible + n_masked
    dec_dim = params.bb_cfg.dec_dim
    dtype = latents.data.dtype
    vis = linear(latents, params.dec_embed)
    pe = positional_encoding(n_tokens, dec_dim, dtype=dtype)
    mask_rows = add(reshape(params.mask_token, (1, 1, dec_dim)), Tensor(pe[masked_ids]))
    stacked = concat_rows([vis, mask_rows], axis=1)
    order = np.empty((n_batch, n_tokens), dtype=np.int64)
    rows = np.arange(n_batch)[:, None]
    order[rows, visible_ids] = np.arange(n_visible)
    order[rows, masked_ids] = n_visible + np.arange(n_masked)
    x = gather_rows_batched(stacked, order)
    for block in params.dec_blocks:
        x = transformer_block(x, block)
    x = apply_layer_norm(x, params.dec_norm)
    return linear(gather_rows_batched(x, masked_ids), params.head)
