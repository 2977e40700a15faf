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

`affine` is a linear layer, x @ w + b, recorded as one node where the
chain add(matmul(x, w), b) took two, with the same products and sums
in backward. Each node costs Python work under the GIL, paid by both
half-batches of a training step. Its backward skips dx when x carries
no gradient, as for the tokenizer's patch rows, and `layer_norm` does
the same. For the same reason the hot ops reduce with ufunc methods
such as `np.add.reduce` rather than through numpy's Python-level
wrappers (`ndarray.sum`, `.mean`, `np.max`); they pass the same
arguments, so the bits are the same.

`norm_affine` (a pre-norm projection) and `gelu_affine` (an MLP's
second layer) fold the op that feeds a linear layer into its node and
keep less for backward, which rebuilds the linear layer's input in one
or two elementwise passes. `norm_affine` keeps `layer_norm`'s xhat and
inv, not the normalized output, and rebuilds it as xhat * gain + bias;
`gelu_affine` keeps `gelu`'s input and tanh(...), not the GELU output,
and rebuilds it as (t + 1) * (0.5 h). Each rebuild runs forward's own
operations through the same private helper, so the results are the
bits of the two-node chains. A transformer block records 7 nodes, and
its tape holds 14.2 U, U being one (B, n, dim) float32 activation; the
chains would keep another 6 U.

`attend` is multi-head self-attention over the packed (B, n, 3 dim)
output of one q/k/v projection, as in VideoMAE (Tong et al. 2022,
arXiv 2203.12602). It splits the heads with numpy views and returns
them merged, so an attention layer is three nodes: the pre-norm
projection (`norm_affine`), `attend` and the output projection. It
trades compute for memory, as in Chen et al. 2016 (*Training Deep
Nets with Sublinear Memory Cost*): its closure keeps q, k, v, one
log-sum-exp per score row and the output, not the (n, n) attention
weights of each head, and backward recomputes the weights a block at
a time. It uses the algebra of
FlashAttention-2 (Dao 2023, arXiv 2307.08691), with the row sums and
backward's shift folded into the matmuls by an extra column on q, k
and v; see `attend`. The ops of the unfused chains that the tests
check `attend` and `gelu_affine` against (`matmul`, `transpose`,
`softmax` and `gelu`) live in the tests' `testkit`; no model path
records them.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ContractError, NumericError
from .tensor import Tensor, record_op

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _swap(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _mean_last(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True) without its Python wrapper: the
    same sum, then the same divide by an intp count that `ndarray.mean`
    runs, so the bits match it."""
    total = np.add.reduce(a, axis=-1, keepdims=True)
    return np.true_divide(total, np.intp(a.shape[-1]), out=total, casting="unsafe")


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


def _check_affine(op: str, x_shape: tuple[int, ...], w: Tensor, b: Tensor):
    if len(x_shape) < 2 or w.ndim != 2 or x_shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ContractError(f"{op}: incompatible shapes {x_shape} @ {w.shape} + {b.shape}")


def _project(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """x @ w + b, the bias added in place to the product."""
    y = xd @ wd
    y += bd
    return y


def _project_grads(xd: np.ndarray, wd: np.ndarray, g: np.ndarray, x_tracked: bool):
    """(dx, dw, db) of x @ w + b: dx is g @ w^T, or None when x carries no
    gradient; dw one product over x and g flattened to rows; db sums g
    over its leading axes."""
    dx = g @ wd.T if x_tracked else None
    dw = xd.reshape(-1, xd.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return dx, dw, np.add.reduce(g, axis=tuple(range(g.ndim - 1)))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: a (k, n) weight and an (n,) bias applied to
    every leading slice of a (..., k) input.

    Backward makes the same products and sums as the two-node chain
    add(matmul(x, w), b); dx is skipped when x carries no gradient.
    """
    _check_affine("affine", x.shape, w, b)
    xd, wd = x.data, w.data
    out = Tensor(_project(xd, wd, b.data))
    x_tracked = x.tracked
    record_op((x, w, b), out, lambda g: _project_grads(xd, wd, g, x_tracked))
    return out


def _assert_finite(a: np.ndarray, op: str):
    # min/max both land non-finite when any entry is nan or +/-inf; two
    # scalar reductions beat materializing an isfinite mask
    if not (np.isfinite(np.minimum.reduce(a, axis=None))
            and np.isfinite(np.maximum.reduce(a, axis=None))):
        raise NumericError(f"{op}: non-finite input")


# attend runs over blocks of consecutive (n, n) head slices whose
# buffers total at most this, so that each block stays in a core's L2
# cache across the passes forward and backward make over it: 2 slices
# at n = 256 in float32. Budgets from 256 KiB to 1 MiB measured alike.
_ATTEND_BLOCK_BYTES = 512 * 1024


def _augment(a: np.ndarray, s: float) -> np.ndarray:
    """[a * s | 1]: (..., r, c) as a contiguous (L, r, c + 1) array, L the
    product of the leading dims, filled straight from `a`'s strides."""
    out = np.empty((*a.shape[:-1], a.shape[-1] + 1), a.dtype)
    np.multiply(a, s, out=out[..., :-1])
    out[..., -1] = 1.0
    return out.reshape(-1, *out.shape[-2:])


def attend(qkv: Tensor, heads: int) -> Tensor:
    """Multi-head self-attention of a packed projection, as one node.

    qkv is (B, n, 3 dim) with columns [q | k | v], each block `heads`
    heads of head_dim = dim / heads side by side; the result is the
    (B, n, dim) context with the heads merged back in the same order,
    softmax(q k^T / sqrt(head_dim)) v per head. The heads are split with
    numpy views inside the call, so the split records no node, and the
    gradient comes back packed like the input. No (n, n) array outlives
    the call: forward and backward walk the B * heads slices a
    cache-sized block at a time, each in its own reused scratch buffers.

    The algebra is FlashAttention-2's (Dao 2023, arXiv 2307.08691), with
    the per-row terms folded into matmuls by one extra column:
    qa = [q s | -lse], ka = [k | 1] and va = [v | 1], s = 1/sqrt(head_dim).
    Forward takes the scores transposed, k (q s)^T, so the row max is a
    reduction over the slow axis; after the shift and exp, one matmul
    with va gives the unnormalized context and the row sum together,
    and only the (n, head_dim) result is divided. Each row's
    lse = max + log(sum) goes into qa's last column, so backward
    rebuilds the weights as P = exp(qa ka^T) and the score gradient as
    ([g | -D] va^T) * P, with D = rowsum(g * out) per head. The closure
    keeps qa, ka, va and the output; the row max is the one reduction
    and no divide, scale or row-dot runs over an (n, n) buffer. Each
    slice's results do not depend on the other slices of its call.
    """
    if qkv.ndim != 3 or qkv.shape[-1] % 3 or heads < 1 or (qkv.shape[-1] // 3) % heads:
        raise ContractError(f"attend: packed q/k/v {qkv.shape} does not split into {heads} heads")
    batch, n, width = qkv.shape
    dim = width // 3
    d = dim // heads
    s = 1.0 / math.sqrt(d)
    dtype = qkv.data.dtype
    # (3, B, heads, n, d) views of the q, k and v blocks
    parts = qkv.data.reshape(batch, n, 3, heads, d).transpose(2, 0, 3, 1, 4)
    qa, ka, va = _augment(parts[0], s), _augment(parts[1], 1.0), _augment(parts[2], 1.0)
    count = batch * heads
    step = max(1, _ATTEND_BLOCK_BYTES // max(1, n * n * dtype.itemsize))
    blocks = [slice(i, min(i + step, count)) for i in range(0, count, step)]

    def scratch(rows, cols):
        return np.empty((min(step, count), rows, cols), dtype)

    ctx = np.empty((count, n, d), dtype)
    st_buf, acc_buf, max_buf = scratch(n, n), scratch(n, d + 1), scratch(1, n)
    for b in blocks:
        size = b.stop - b.start
        st, acc, row_max = st_buf[:size], acc_buf[:size], max_buf[:size]
        np.matmul(ka[b, :, :d], _swap(qa[b, :, :d]), out=st)
        _assert_finite(st, "attend")
        np.maximum.reduce(st, axis=-2, keepdims=True, out=row_max)
        st -= row_max
        np.exp(st, out=st)
        np.matmul(_swap(st), va[b], out=acc)
        np.divide(acc[..., :d], acc[..., d:], out=ctx[b])
        qa[b, :, d] = -(row_max[:, 0] + np.log(acc[..., d]))
    merged = ctx.reshape(batch, heads, n, d).transpose(0, 2, 1, 3).reshape(batch, n, dim)
    out = Tensor(merged)

    def bw(g):
        ga = _augment(g.reshape(batch, n, heads, d).transpose(0, 2, 1, 3), 1.0)
        row_dot = np.add.reduce((g * merged).reshape(batch, n, heads, d), axis=-1)
        ga.reshape(batch, heads, n, d + 1)[..., d] = -_swap(row_dot)
        # dq, dk and dv of every slice, then one transpose into the packed layout
        grads = np.empty((3, count, n, d), dtype)
        dq, dk, dval = grads
        p_buf, w_buf = scratch(n, n), scratch(n, n)
        for b in blocks:
            size = b.stop - b.start
            p, w = p_buf[:size], w_buf[:size]
            np.matmul(qa[b], _swap(ka[b]), out=p)
            np.exp(p, out=p)
            np.matmul(_swap(p), ga[b, :, :d], out=dval[b])
            np.matmul(ga[b], _swap(va[b]), out=w)
            w *= p
            np.matmul(w, ka[b, :, :d], out=dq[b])
            np.matmul(_swap(w), qa[b, :, :d], out=dk[b])
        dq *= s
        packed = grads.reshape(3, batch, heads, n, d).transpose(1, 3, 0, 2, 4)
        return (packed.reshape(batch, n, width),)

    record_op((qkv,), out, bw)
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


def _check_norm(op: str, k: int, gain: Tensor, bias: Tensor):
    if gain.shape != (k,) or bias.shape != (k,):
        raise ContractError(f"{op}: gain/bias {gain.shape}/{bias.shape} vs feature dim {k}")


def _normalize(xd: np.ndarray, eps: float):
    """(xhat, inv) over the last axis: xhat = (x - mean) * inv with
    inv = 1 / sqrt(var + eps). Centres once; each step is one of the
    operations of x.var and (x - mean) * inv, in their order, so the
    bits match them."""
    xhat = xd - _mean_last(xd)
    var = np.add.reduce(np.multiply(xhat, xhat), axis=-1, keepdims=True)
    var /= xd.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    return xhat, inv


def _scale_shift(xhat: np.ndarray, gd: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """The normalized output, xhat * gain + bias."""
    return xhat * gd + bd


def _normalize_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gd: np.ndarray,
                     x_tracked: bool):
    """(dx, dgain, dbias) from the gradient g of xhat * gain + bias; dx is
    None when x carries no gradient."""
    lead = tuple(range(xhat.ndim - 1))
    dgain = np.add.reduce(g * xhat, axis=lead)
    dbias = np.add.reduce(g, axis=lead)
    if not x_tracked:
        return None, dgain, dbias
    dxhat = g * gd
    dx = inv * (dxhat - _mean_last(dxhat) - xhat * _mean_last(dxhat * xhat))
    return dx, dgain, dbias


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.
    Its closure keeps xhat and inv."""
    _check_norm("layer_norm", x.shape[-1], gain, bias)
    xhat, inv = _normalize(x.data, eps)
    gd = gain.data
    out = Tensor(_scale_shift(xhat, gd, bias.data))
    x_tracked = x.tracked
    record_op((x, gain, bias), out, lambda g: _normalize_grads(g, xhat, inv, gd, x_tracked))
    return out


def norm_affine(x: Tensor, gain: Tensor, bias: Tensor, w: Tensor, b: Tensor,
                eps: float = 1e-5) -> Tensor:
    """affine(layer_norm(x, gain, bias), w, b) as one node, with the same
    bits forward and back.

    The closure keeps xhat and inv, as `layer_norm`'s does, but not the
    normalized output: backward rebuilds it as xhat * gain + bias, with
    forward's own operations, for dw. dx is skipped when x carries no
    gradient.
    """
    _check_norm("norm_affine", x.shape[-1], gain, bias)
    _check_affine("norm_affine", x.shape, w, b)
    xhat, inv = _normalize(x.data, eps)
    gd, bd, wd = gain.data, bias.data, w.data
    out = Tensor(_project(_scale_shift(xhat, gd, bd), wd, b.data))
    x_tracked = x.tracked

    def bw(g):
        dy, dw, db = _project_grads(_scale_shift(xhat, gd, bd), wd, g, True)
        return (*_normalize_grads(dy, xhat, inv, gd, x_tracked), dw, db)

    record_op((x, gain, bias, w, b), out, bw)
    return out


def _gelu_tanh(xd: np.ndarray) -> np.ndarray:
    """t = tanh(c (x + a x^3))."""
    t = xd * (xd * xd)
    t *= _GELU_A
    t += xd
    t *= _GELU_C
    return np.tanh(t, out=t)


def _gelu_value(xd: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The GELU output, (t + 1) * (0.5 x)."""
    y = t + 1.0
    y *= np.multiply(xd, 0.5)
    return y


def _gelu_grad(xd: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g * (0.5 (1 + t) + 0.5 x ((1 - t^2) c (1 + 3 a x^2)))."""
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
    return du


def gelu_affine(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """affine(gelu(h), w, b) as one node, with the same bits forward and
    back.

    The closure keeps h and tanh(...), as `gelu`'s does, but not the GELU
    output: backward rebuilds it as (t + 1) * (0.5 h) for dw.
    """
    _check_affine("gelu_affine", h.shape, w, b)
    hd, wd = h.data, w.data
    t = _gelu_tanh(hd)
    out = Tensor(_project(_gelu_value(hd, t), wd, b.data))
    h_tracked = h.tracked

    def bw(g):
        dy, dw, db = _project_grads(_gelu_value(hd, t), wd, g, h_tracked)
        return (_gelu_grad(hd, t, dy) if h_tracked else None), dw, db

    record_op((h, w, b), out, bw)
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
        raise ContractError(
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
