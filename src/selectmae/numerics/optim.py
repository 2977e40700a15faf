"""AdamW with decoupled weight decay, plus the warmup+cosine LR schedule."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, ContractError, FormatError, NumericError
from .tensor import Tensor


class AdamW:
    """Decoupled-weight-decay Adam that owns the buffers of a dict of
    named parameters.

    The values, gradients and both moments of all parameters live in
    four flat buffers, every parameter a slice of each in dict order.
    The constructor copies each parameter's values into the flat value
    buffer and rebinds its `data` and `grad` to its views, so `backward`
    adds each gradient into the flat gradient buffer in place and a step
    makes a fixed number of numpy passes over the whole model: its
    Python work does not grow with the parameter count. Each pass is one
    operation of the per-parameter update, in its order, so the bits are
    those of updating each parameter on its own.

    Whatever loads values into a parameter must write into its `data`
    (`data[...] = values`), never rebind it: a rebound array is not the
    optimizer's, and the step neither reads nor updates it. A parameter
    that no loss reaches keeps a zero gradient and is updated as such:
    its moments decay and weight decay shrinks it.
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
        size = sum(p.data.size for p in self.params.values())
        self._value, self._grad, self._m, self._v = (np.zeros(size, dtype) for _ in range(4))
        self.m, self.v = {}, {}
        start = 0
        for name, p in self.params.items():
            stop = start + p.data.size
            shape = p.data.shape
            self._value[start:stop] = p.data.ravel()
            p.data = self._value[start:stop].reshape(shape)
            p.grad = self._grad[start:stop].reshape(shape)
            self.m[name] = self._m[start:stop].reshape(shape)
            self.v[name] = self._v[start:stop].reshape(shape)
            start = stop

    def step(self, lr: float | None = None, max_norm: float | None = None):
        """One update of every parameter from its gradient. With `max_norm`
        the gradient is first scaled so that its global L2 norm is at most
        `max_norm`. The gradient buffer serves as scratch, so it holds no
        gradient afterwards; `zero_grad` clears it for the next step."""
        lr = float(self.lr if lr is None else lr)
        if not np.isfinite(self._grad).all():
            name = next(name for name, p in self.params.items() if not np.isfinite(p.grad).all())
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        if max_norm is not None:
            # float64 sums one parameter at a time in dict order: clipped runs keep their bits
            norm = math.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum())
                                 for p in self.params.values()))
            if norm > max_norm:
                self._grad *= max_norm / (norm + 1e-12)
        self.step_count += 1
        t = self.step_count
        self._update(lr, 1.0 - self.beta1**t, 1.0 - self.beta2**t)

    def _update(self, lr, bc1, bc2):
        """Update the moments and values in place, overwriting the gradient."""
        g, m, v, p = self._grad, self._m, self._v, self._value
        u = np.empty_like(g)
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
        self._grad.fill(0)

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
