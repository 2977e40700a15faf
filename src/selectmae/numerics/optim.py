"""AdamW with decoupled weight decay, plus the warmup+cosine LR schedule."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, ContractError, FormatError, NumericError
from .tensor import Tensor


class AdamW:
    """Decoupled-weight-decay Adam over a dict of named parameters.

    Parameters with `grad is None` are skipped entirely for the step
    (no moment update, no decay), so untouched sub-networks stay put.

    The moments live in two flat buffers, every parameter a slice of
    each in dict order; `m` and `v` map names to views of them. A step
    gathers the gradients and values of the parameters that have a
    gradient into flat buffers of their own and makes a fixed number of
    numpy passes over each contiguous span of them, so its Python work
    does not grow with the parameter count. Each pass is one operation
    of the per-parameter update, in its order, so the bits are those of
    updating each parameter on its own.
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
        dtypes = {p.data.dtype for p in self.params.values()}
        if len(dtypes) > 1:
            raise ContractError(f"AdamW needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.float32
        # (start, stop) of each parameter in the flat moment buffers
        self._spans = {}
        start = 0
        for name, p in self.params.items():
            self._spans[name] = (start, start + p.data.size)
            start += p.data.size
        self._m = np.zeros(start, dtype)
        self._v = np.zeros(start, dtype)
        self.m = {name: self._m[lo:hi].reshape(self.params[name].shape)
                  for name, (lo, hi) in self._spans.items()}
        self.v = {name: self._v[lo:hi].reshape(self.params[name].shape)
                  for name, (lo, hi) in self._spans.items()}

    def step(self, lr: float | None = None):
        lr = float(self.lr if lr is None else lr)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        live = [(name, p) for name, p in self.params.items() if p.grad is not None]
        if not live:
            return
        grads = np.concatenate([p.grad.ravel() for _, p in live])
        if not np.isfinite(grads).all():
            name = next(name for name, p in live if not np.isfinite(p.grad).all())
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        values = np.concatenate([p.data.ravel() for _, p in live])
        scratch = np.empty_like(grads)
        at = 0  # offset of the span in the gathered buffers
        for lo, hi in self._live_spans(live):
            end = at + hi - lo
            self._update(grads[at:end], self._m[lo:hi], self._v[lo:hi], values[at:end],
                         scratch[at:end], lr, bc1, bc2)
            at = end
        at = 0
        for _, p in live:
            p.data = values[at:at + p.data.size].reshape(p.data.shape)
            at += p.data.size

    def _live_spans(self, live) -> list[tuple[int, int]]:
        """The maximal runs of consecutive moment slices among `live`."""
        spans: list[tuple[int, int]] = []
        for name, _ in live:
            lo, hi = self._spans[name]
            if spans and spans[-1][1] == lo:
                spans[-1] = (spans[-1][0], hi)
            else:
                spans.append((lo, hi))
        return spans

    def _update(self, g, m, v, p, u, lr, bc1, bc2):
        """Update m, v and p in place from g, overwriting g; u is scratch."""
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=u)
        m += u
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=u)
        u *= g
        v += u
        # update = (m / bc1) / (sqrt(v / bc2) + eps), in u
        np.divide(m, bc1, out=u)
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        u /= g
        if self.weight_decay:
            np.multiply(p, self.weight_decay, out=g)
            u += g
        u *= lr
        p -= u

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
            for key, moment in ((f"opt.m.{name}", self.m[name]), (f"opt.v.{name}", self.v[name])):
                stored = arrays[key]
                if stored.shape != moment.shape:
                    raise FormatError(
                        f"checkpoint entry '{key}' has shape {stored.shape}, expected {moment.shape}"
                    )
                moment[...] = stored
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
