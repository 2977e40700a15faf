"""AdamW with decoupled weight decay, plus the warmup+cosine LR schedule."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, FormatError, NumericError
from .tensor import Tensor


class AdamW:
    """Decoupled-weight-decay Adam over a dict of named parameters.

    Parameters with `grad is None` are skipped entirely for the step
    (no moment update, no decay), so untouched sub-networks stay put.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1.5e-4,
        betas: tuple[float, float] = (0.9, 0.95),
        eps: float = 1e-8,
        weight_decay: float = 0.05,
    ):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self, lr: float | None = None):
        lr = self.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter '{name}'")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = p.data - lr * update

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Moment buffers and step counter, keyed for checkpointing."""
        out = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        out["opt.step"] = np.array([self.step_count], dtype=np.float32)
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]):
        for name in self.params:
            self.m[name] = arrays[f"opt.m.{name}"].astype(self.m[name].dtype).copy()
            self.v[name] = arrays[f"opt.v.{name}"].astype(self.v[name].dtype).copy()
        self.step_count = stored_count(arrays, "opt.step")


def stored_count(arrays: dict[str, np.ndarray], name: str) -> int:
    """The step counter a checkpoint stores under `name`: one finite,
    whole, non-negative number in a length-1 entry."""
    arr = arrays[name]
    value = float(arr[0]) if arr.shape == (1,) else math.nan
    if not (math.isfinite(value) and value >= 0 and value == math.floor(value)):
        raise FormatError(
            f"checkpoint entry '{name}' must hold one whole number >= 0, got {arr.tolist()!r}"
        )
    return int(value)


def check_schedule(betas: tuple[float, float], weight_decay: float, warmup_steps: int,
                   min_lr: float):
    """Range checks shared by every config that drives AdamW and the LR schedule."""
    if not all(0.0 <= b < 1.0 for b in betas):
        raise ConfigError(f"betas must each be in [0, 1), got {list(betas)}")
    if weight_decay < 0:
        raise ConfigError(f"weight_decay must be >= 0, got {weight_decay}")
    if warmup_steps < 0:
        raise ConfigError(f"warmup_steps must be >= 0, got {warmup_steps}")
    if min_lr < 0:
        raise ConfigError(f"min_lr must be >= 0, got {min_lr}")


def cosine_warmup_lr(
    step: int, total_steps: int, base_lr: float, min_lr: float = 0.0, warmup_steps: int = 0
) -> float:
    """Linear warmup to `base_lr`, then cosine decay hitting `min_lr` at the last step."""
    if total_steps <= 0:
        raise ConfigError("total_steps must be positive")
    if step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    last = total_steps - 1
    if last <= warmup_steps:
        return min_lr
    progress = (step - warmup_steps) / (last - warmup_steps)
    progress = min(max(progress, 0.0), 1.0)
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + math.cos(math.pi * progress))
