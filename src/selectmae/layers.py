"""Transformer building blocks shared by the selection network and backbone.

Parameters are plain Tensors grouped in small holder classes that know
how to enumerate themselves by name for checkpointing. Blocks are
pre-norm: x + MHA(LN(x)) followed by x + MLP(LN(x)). Each layer norm
is one node with the projection it feeds (`norm_affine`), and the
MLP's GELU one node with its second layer (`gelu_affine`), so a block
records 7 nodes and its tape keeps neither the normalized nor the GELU
output; backward rebuilds them.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .numerics import Tensor, add, affine, attend, gelu_affine, layer_norm, norm_affine


def _normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    return (rng.standard_normal(shape) * std).astype(np.float32)


class LinearParams:
    def __init__(self, rng: np.random.Generator, fan_in: int, fan_out: int, std: float = 0.02,
                 blocks: int = 1):
        # a packed projection: `blocks` (fan_in, fan_out) weights, drawn
        # one after another and laid side by side
        weight = np.concatenate(_normal(rng, (blocks, fan_in, fan_out), std), axis=1)
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(np.zeros(blocks * fan_out, dtype=np.float32), requires_grad=True)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class LayerNormParams:
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.gain": self.gain, f"{prefix}.bias": self.bias}


class AttentionParams:
    def __init__(self, rng: np.random.Generator, dim: int, heads: int):
        if dim % heads != 0:
            raise ConfigError(f"attention dim {dim} not divisible by {heads} heads")
        self.heads = heads
        self.qkv = LinearParams(rng, dim, dim, blocks=3)  # columns [q | k | v]
        self.out = LinearParams(rng, dim, dim)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {**self.qkv.named(f"{prefix}.qkv"), **self.out.named(f"{prefix}.o")}


class BlockParams:
    def __init__(self, rng: np.random.Generator, dim: int, heads: int):
        hidden = 4 * dim  # the MLP is 4x the token width, as in MAE and VideoMAE
        self.ln1 = LayerNormParams(dim)
        self.attn = AttentionParams(rng, dim, heads)
        self.ln2 = LayerNormParams(dim)
        self.fc1 = LinearParams(rng, dim, hidden)
        self.fc2 = LinearParams(rng, hidden, dim)

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        out.update(self.ln1.named(f"{prefix}.ln1"))
        out.update(self.attn.named(f"{prefix}.attn"))
        out.update(self.ln2.named(f"{prefix}.ln2"))
        out.update(self.fc1.named(f"{prefix}.fc1"))
        out.update(self.fc2.named(f"{prefix}.fc2"))
        return out


def linear(x: Tensor, p: LinearParams) -> Tensor:
    return affine(x, p.weight, p.bias)


def apply_layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    return layer_norm(x, p.gain, p.bias)


def norm_linear(x: Tensor, ln: LayerNormParams, p: LinearParams) -> Tensor:
    """linear(apply_layer_norm(x, ln), p) as one node."""
    return norm_affine(x, ln.gain, ln.bias, p.weight, p.bias)


def attention(x: Tensor, ln: LayerNormParams, p: AttentionParams) -> Tensor:
    """Pre-norm multi-head self-attention over a (B, n, dim) stack of
    token sequences: three nodes, the normalized q/k/v projection,
    `attend` and the output projection."""
    return linear(attend(norm_linear(x, ln, p.qkv), p.heads), p.out)


def transformer_block(x: Tensor, p: BlockParams) -> Tensor:
    x = add(x, attention(x, p.ln1, p.attn))
    x = add(x, gelu_affine(norm_linear(x, p.ln2, p.fc1), p.fc2.weight, p.fc2.bias))
    return x
