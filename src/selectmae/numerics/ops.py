"""Differentiable kernels over Tensor, recorded on the active tape.

Every kernel checks its shape contract eagerly, computes the forward
result with numpy, and registers a closure mapping the output gradient
to per-input gradients. Gather uses scatter-add on the way back so
duplicate indices accumulate.

A backward closure captures arrays and shapes, never a Tensor: the tape
keeps every closure until backward ends, so a captured Tensor would
keep its whole buffer alive even where backward reads only its shape,
and an intermediate that no backward reads could not be freed during
forward.

Kernels may work in place, but only on arrays they allocated
themselves. A backward function must never write into its upstream
gradient `g` or into any forward input: `add` hands the same `g` object
to both of its inputs, and the tape keeps one pending gradient per
tensor until all its consumers have run, so a write into `g` corrupts
another tensor's gradient.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericError, ShapeError
from .tensor import Tensor, record_op

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    a_shape, b_shape = a.shape, b.shape
    record_op((a, b), out, lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)
    a_shape, b_shape = a.shape, b.shape
    record_op((a, b), out, lambda g: (_unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)

    def bw(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    record_op((a, b), out, bw)
    return out


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * s)
    record_op((a,), out, lambda g: (g * s,))
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading dims must match, or `b` may be a plain 2-D
    weight applied to every leading slice of `a`."""
    weight_case = b.ndim == 2 and a.ndim > 2
    if (
        a.ndim < 2
        or b.ndim < 2
        or a.shape[-1] != b.shape[-2]
        or (not weight_case and a.shape[:-2] != b.shape[:-2])
    ):
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    out = Tensor(ad @ bd)

    if weight_case:
        def bw(g):
            flat_a = ad.reshape(-1, ad.shape[-1])
            flat_g = g.reshape(-1, g.shape[-1])
            return g @ bd.T, flat_a.T @ flat_g
    else:
        def bw(g):
            return g @ _swap(bd), _swap(ad) @ g

    record_op((a, b), out, bw)
    return out


def _assert_finite(a: np.ndarray, op: str):
    # min/max both land non-finite when any entry is nan or +/-inf; two
    # scalar reductions beat materializing an isfinite mask
    if not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise NumericError(f"{op}: non-finite input")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    _assert_finite(x.data, "softmax")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted, out=shifted)
    y = np.divide(e, e.sum(axis=axis, keepdims=True), out=e)
    out = Tensor(y)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    record_op((x,), out, bw)
    return out


# attend runs over blocks of consecutive (n, m) slices whose buffers
# total at most this, so that each block stays in a core's L2 cache
# across the ~10 passes forward and backward make over it: 2 slices at
# n = m = 256 in float32. Budgets from 256 KiB to 1 MiB measured alike.
_ATTEND_BLOCK_BYTES = 512 * 1024


def _flat(a: np.ndarray) -> np.ndarray:
    """(..., r, c) as (L, r, c), with L the product of the leading dims."""
    return a.reshape(-1, *a.shape[-2:])


def attend(q: Tensor, k: Tensor, v: Tensor, s: float) -> Tensor:
    """Scaled dot-product attention, softmax(q @ k^T * s) @ v, as one node.

    q is (..., n, d), k is (..., m, d) and v is (..., m, dv) with equal
    leading dims. Only the (..., n, m) attention weights stay alive for
    backward; the raw and scaled scores share their buffer. Forward and
    backward walk the flattened leading slices a cache-sized block at a
    time; every slice sees the arithmetic of the chain
    matmul -> scale -> softmax -> matmul, in its order, so results
    match it bitwise.
    """
    if (
        q.ndim < 2
        or not q.ndim == k.ndim == v.ndim
        or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]
        or q.shape[-1] != k.shape[-1]
        or k.shape[-2] != v.shape[-2]
    ):
        raise ShapeError(f"attend: incompatible q/k/v shapes {q.shape} / {k.shape} / {v.shape}")
    s = float(s)
    qd, kd, vd = q.data, k.data, v.data
    q3, k3, v3 = _flat(qd), _flat(kd), _flat(vd)
    count, n, m = q3.shape[0], q3.shape[1], k3.shape[1]
    dtype = np.result_type(q3, k3, v3)
    y = np.empty((count, n, m), dtype)
    ctx = np.empty((count, n, v3.shape[2]), dtype)
    step = max(1, _ATTEND_BLOCK_BYTES // max(1, n * m * y.itemsize))
    blocks = [slice(i, i + step) for i in range(0, count, step)]
    for b in blocks:
        yb = y[b]
        np.matmul(q3[b], _swap(k3[b]), out=yb)
        yb *= s
        _assert_finite(yb, "attend")
        yb -= yb.max(axis=-1, keepdims=True)
        np.exp(yb, out=yb)
        yb /= yb.sum(axis=-1, keepdims=True)
        np.matmul(yb, v3[b], out=ctx[b])
    out = Tensor(ctx.reshape(*qd.shape[:-1], vd.shape[-1]))

    def bw(g):
        # the flat views are taken again, not kept: for strided inputs
        # they are copies the tape would otherwise hold until backward
        q3, k3, v3, g3 = _flat(qd), _flat(kd), _flat(vd), _flat(g)
        dq = np.empty(q3.shape, dtype)
        dkt = np.empty((count, q3.shape[2], m), dtype)
        dv = np.empty(v3.shape, dtype)
        gw_buf = np.empty((min(step, count), n, m), dtype)
        for b in blocks:
            yb = y[b]
            gw = gw_buf[:len(yb)]
            np.matmul(g3[b], _swap(v3[b]), out=gw)
            dot = (gw * yb).sum(axis=-1, keepdims=True)
            gw -= dot
            np.multiply(yb, gw, out=gw)
            gw *= s
            np.matmul(gw, k3[b], out=dq[b])
            np.matmul(_swap(q3[b]), gw, out=dkt[b])
            np.matmul(_swap(yb), g3[b], out=dv[b])
        return dq.reshape(qd.shape), _swap(dkt).reshape(kd.shape), dv.reshape(vd.shape)

    record_op((q, k, v), out, bw)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    _assert_finite(x.data, "log_softmax")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = Tensor(y)

    def bw(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    record_op((x,), out, bw)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    k = x.shape[-1]
    if gain.shape != (k,) or bias.shape != (k,):
        raise ShapeError(f"layer_norm: gain/bias {gain.shape}/{bias.shape} vs feature dim {k}")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    gd = gain.data
    out = Tensor(xhat * gd + bias.data)

    def bw(g):
        reduce_axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=reduce_axes)
        dbias = g.sum(axis=reduce_axes)
        dxhat = g * gd
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgain, dbias

    record_op((x, gain, bias), out, bw)
    return out


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximated GELU, 0.5 x (1 + tanh(c (x + a x^3))).

    Smooth, so finite-difference checks apply everywhere. Forward and
    backward run as in-place chains over their own buffers; each step
    is one of the operations of the plain expression, in its order, so
    the bits match it. Only tanh(...) is kept for backward.
    """
    xd = x.data
    sq = xd * xd
    t = xd * sq
    t *= _GELU_A
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= np.multiply(xd, 0.5, out=sq)
    out = Tensor(y)

    def bw(g):
        # g * (0.5 (1 + t) + 0.5 x ((1 - t^2) c (1 + 3 a x^2)))
        du = xd * xd
        du *= 3.0 * _GELU_A
        du += 1.0
        du *= _GELU_C
        dt = t * t
        np.subtract(1.0, dt, out=dt)
        dt *= du
        dt *= np.multiply(xd, 0.5, out=du)
        np.add(t, 1.0, out=du)
        du *= 0.5
        du += dt
        du *= g
        return (du,)

    record_op((x,), out, bw)
    return out


def log(x: Tensor) -> Tensor:
    xd = x.data
    out = Tensor(np.log(xd))
    record_op((x,), out, lambda g: (g / xd,))
    return out


def absolute(x: Tensor) -> Tensor:
    xd = x.data
    out = Tensor(np.abs(xd))
    record_op((x,), out, lambda g: (g * np.sign(xd),))
    return out


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))
    x_shape = x.shape

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x_shape).copy(),)

    record_op((x,), out, bw)
    return out


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = x.size
    else:
        count = x.shape[axis]
    out = Tensor(x.data.mean(axis=axis, keepdims=keepdims))
    x_shape = x.shape

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.divide(np.broadcast_to(g, x_shape), count),)

    record_op((x,), out, bw)
    return out


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))
    x_shape = x.shape
    record_op((x,), out, lambda g: (g.reshape(x_shape),))
    return out


def transpose(x: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    inverse = tuple(np.argsort(axes))
    out = Tensor(x.data.transpose(axes))
    record_op((x,), out, lambda g: (g.transpose(inverse),))
    return out


def concat_rows(parts: list[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    record_op(tuple(parts), out, bw)
    return out


def gather_rows_batched(x: Tensor, ids) -> Tensor:
    """Per-slice row selection: out[b, m] = x[b, ids[b, m]].

    Duplicate ids within a slice accumulate on the way back.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if x.ndim != 3 or ids.ndim != 2 or ids.shape[0] != x.shape[0]:
        raise ShapeError(
            f"gather_rows_batched: need (B, N, D) input with (B, M) ids, got {x.shape} / {ids.shape}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= x.shape[1]):
        raise IndexError(f"gather_rows_batched: id out of range for {x.shape[1]} rows")
    rows = np.arange(x.shape[0])[:, None]
    out = Tensor(x.data[rows, ids])
    x_shape, x_dtype = x.shape, x.data.dtype

    def bw(g):
        dx = np.zeros(x_shape, x_dtype)
        np.add.at(dx, (rows, ids), g)
        return (dx,)

    record_op((x,), out, bw)
    return out


def stop_gradient(x: Tensor) -> Tensor:
    """Detach: the result carries the same values but no gradient path."""
    return Tensor(x.data)


def constant(data) -> Tensor:
    return Tensor(data)


# Operator sugar on Tensor; scalars promote through scale().
def _as_op(other):
    return other if isinstance(other, Tensor) else None


def _tensor_add(self, other):
    o = _as_op(other)
    return add(self, o) if o is not None else add(self, Tensor(np.asarray(other, dtype=self.data.dtype)))


def _tensor_sub(self, other):
    o = _as_op(other)
    return sub(self, o) if o is not None else sub(self, Tensor(np.asarray(other, dtype=self.data.dtype)))


def _tensor_mul(self, other):
    if isinstance(other, Tensor):
        return mul(self, other)
    return scale(self, float(other))


Tensor.__add__ = _tensor_add
Tensor.__sub__ = _tensor_sub
Tensor.__mul__ = _tensor_mul
Tensor.__rmul__ = _tensor_mul
Tensor.__matmul__ = matmul
Tensor.__neg__ = lambda self: scale(self, -1.0)
