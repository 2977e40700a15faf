"""Transformer building blocks shared by the selection network and backbone.

Parameters are plain Tensors grouped in small holder classes that know
how to enumerate themselves by name for checkpointing. Blocks are
pre-norm: x + MHA(LN(x)) followed by x + MLP(LN(x)).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .numerics import (
    Tensor,
    add,
    attend,
    gelu,
    layer_norm,
    matmul,
    reshape,
    transpose,
)


def _normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    return (rng.standard_normal(shape) * std).astype(np.float32)


class LinearParams:
    def __init__(self, rng: np.random.Generator, fan_in: int, fan_out: int, std: float = 0.02):
        self.weight = Tensor(_normal(rng, (fan_in, fan_out), std), requires_grad=True)
        self.bias = Tensor(np.zeros(fan_out, dtype=np.float32), requires_grad=True)

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
        self.query = LinearParams(rng, dim, dim)
        self.key = LinearParams(rng, dim, dim)
        self.value = LinearParams(rng, dim, dim)
        self.out = LinearParams(rng, dim, dim)

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for name, p in (
            ("q", self.query), ("k", self.key), ("v", self.value), ("o", self.out),
        ):
            out.update(p.named(f"{prefix}.{name}"))
        return out


class BlockParams:
    def __init__(self, rng: np.random.Generator, dim: int, heads: int, mlp_ratio: float):
        hidden = int(dim * mlp_ratio)
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
    return add(matmul(x, p.weight), p.bias)


def apply_layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    return layer_norm(x, p.gain, p.bias)


def attention(x: Tensor, p: AttentionParams) -> Tensor:
    """Multi-head self-attention over (n, dim) or batched (b, n, dim) tokens."""
    heads = p.heads
    dim = x.shape[-1]
    n = x.shape[-2]
    head_dim = dim // heads
    if x.ndim == 2:
        split_shape, split_perm = (n, heads, head_dim), (1, 0, 2)
    else:
        b = x.shape[0]
        split_shape, split_perm = (b, n, heads, head_dim), (0, 2, 1, 3)

    def split(t: Tensor) -> Tensor:  # move heads in front of the sequence axis
        return transpose(reshape(t, split_shape), split_perm)

    q = split(linear(x, p.query))
    k = split(linear(x, p.key))
    v = split(linear(x, p.value))
    context = attend(q, k, v, 1.0 / math.sqrt(head_dim))
    merged = reshape(transpose(context, split_perm), x.shape)
    return linear(merged, p.out)


def transformer_block(x: Tensor, p: BlockParams) -> Tensor:
    x = add(x, attention(apply_layer_norm(x, p.ln1), p.attn))
    x = add(x, linear(gelu(linear(apply_layer_norm(x, p.ln2), p.fc1)), p.fc2))
    return x
