"""Helpers that only the tests use.

Central finite-difference gradient checking: the analytic gradient is
produced by the tape at the dtype under test (32-bit by default). The
difference quotient is evaluated at 64-bit so the oracle itself
contributes no roundoff at the tolerance being asserted; a pure 64-bit
mode tightens the tolerance to 1e-5.

Also the ops no model path records, from which the tests build the
unfused chains that `attend` and `gelu_affine` are checked against
(`matmul`, `softmax`, `gelu`, `transpose`), a corpus clip without its
foreground mask (`generate_clip`), the token id of a grid cell
(the order `tokenizer.unfold_clip` gives its rows in), a PPM reader for
the images `reconstruct` writes, a check that an optimizer still owns
its parameters' buffers, and the bytes a tape's closures hold.
"""

from __future__ import annotations

import numpy as np

from selectmae.data import SynthConfig, VideoClip, generate_clip_with_mask
from selectmae.errors import FormatError, ShapeError
from selectmae.numerics import Tape, Tensor, backward, ops, precision
from selectmae.numerics.tensor import record_op


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over equal leading dims; `affine` applies a weight."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    out = Tensor(ad @ bd)

    def bw(g):
        return g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g

    record_op((a, b), out, bw)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    ops._assert_finite(x.data, "softmax")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted, out=shifted)
    y = np.divide(e, e.sum(axis=axis, keepdims=True), out=e)
    out = Tensor(y)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    record_op((x,), out, bw)
    return out


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximated GELU, 0.5 x (1 + tanh(c (x + a x^3))), through
    the helpers `gelu_affine` runs.

    Smooth, so finite-difference checks apply everywhere. Forward and
    backward run as in-place chains over their own buffers; each step
    is one of the operations of the plain expression, in its order, so
    the bits match it. Only tanh(...) is kept for backward.
    """
    xd = x.data
    t = ops._gelu_tanh(xd)
    out = Tensor(ops._gelu_value(xd, t))
    record_op((x,), out, lambda g: (ops._gelu_grad(xd, t, g),))
    return out


def transpose(x: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    inverse = [0] * len(axes)
    for i, axis in enumerate(axes):
        inverse[axis] = i
    out = Tensor(x.data.transpose(axes))
    record_op((x,), out, lambda g: (g.transpose(inverse),))
    return out


def _inf_norm(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def finite_difference(build_loss, arrays: list[np.ndarray], index: int, entry, h: float) -> float:
    """Central difference of the loss w.r.t. one entry of arrays[index]."""
    plus = [a.copy() for a in arrays]
    minus = [a.copy() for a in arrays]
    plus[index][entry] += h
    minus[index][entry] -= h
    with precision(np.float64):
        lp = build_loss([Tensor(a) for a in plus]).item()
        lm = build_loss([Tensor(a) for a in minus]).item()
    return (lp - lm) / (2.0 * h)


def check_param_gradients(
    loss_fn,
    named: dict,
    rel_tol: float = 1e-3,
    max_entries: int = 16,
    h: float = 1e-4,
    rng: np.random.Generator | None = None,
    require_all: bool = True,
) -> float:
    """Gradient-check a loss against parameters held inside model objects.

    `loss_fn()` must rebuild the forward pass from the tensors in
    `named` each call (any sampling inside must be frozen by the
    caller). Analytic gradients run at the current default dtype; the
    difference quotient runs with the parameters upcast to 64-bit.
    """
    rng = rng or np.random.default_rng(0)
    originals = {k: t.data.copy() for k, t in named.items()}
    for t in named.values():
        t.grad = None
    with Tape() as tape:
        loss = loss_fn()
    backward(loss, tape)
    analytic = {}
    for k, t in named.items():
        if require_all:
            assert t.grad is not None, f"no gradient reached parameter '{k}'"
        analytic[k] = None if t.grad is None else np.asarray(t.grad, dtype=np.float64)
    # Tensors whose true gradient is exactly zero (e.g. a key-projection
    # bias, cancelled by softmax) carry only roundoff; comparing them
    # against their own noise floor is meaningless, so the tolerance is
    # anchored to the gradient scale of the whole parameter set.
    global_scale = max((_inf_norm(a) for a in analytic.values() if a is not None), default=0.0)
    worst = 0.0
    try:
        for t in named.values():
            t.data = t.data.astype(np.float64)
        with precision(np.float64):
            for k, t in named.items():
                if analytic[k] is None:
                    continue
                size = t.data.size
                if size <= max_entries:
                    flat = np.arange(size)
                else:
                    flat = rng.choice(size, size=max_entries, replace=False)
                numeric = {}
                for j in flat:
                    entry = np.unravel_index(j, t.data.shape)
                    x0 = t.data[entry]
                    step = h * max(1.0, abs(x0))
                    t.data[entry] = x0 + step
                    lp = loss_fn().item()
                    t.data[entry] = x0 - step
                    lm = loss_fn().item()
                    t.data[entry] = x0
                    numeric[entry] = (lp - lm) / (2.0 * step)
                scale = max(
                    _inf_norm(analytic[k]),
                    max(abs(v) for v in numeric.values()),
                    1e-2 * global_scale,
                    1e-8,
                )
                for entry, fd in numeric.items():
                    err = abs(analytic[k][entry] - fd) / scale
                    worst = max(worst, err)
                    assert err <= rel_tol, (
                        f"gradient mismatch for '{k}' at {entry}: "
                        f"analytic {analytic[k][entry]:.6g} vs numeric {fd:.6g} (rel {err:.2e})"
                    )
    finally:
        for k, t in named.items():
            t.data = originals[k]
            t.grad = None
    return worst


def check_gradients(
    build_loss,
    arrays: list[np.ndarray],
    rel_tol: float = 1e-3,
    dtype=np.float32,
    max_entries: int = 32,
    h: float = 1e-4,
    rng: np.random.Generator | None = None,
) -> float:
    """Assert tape gradients match central differences; returns max rel error.

    `build_loss` maps a list of Tensors (same order as `arrays`) to a
    scalar Tensor and must be re-entrant: it is called once per
    perturbed evaluation. Entries are subsampled for large arrays.
    """
    rng = rng or np.random.default_rng(0)
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    with precision(dtype):
        params = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            loss = build_loss(params)
        backward(loss, tape)
    worst = 0.0
    for i, (arr, p) in enumerate(zip(arrays, params)):
        assert p.grad is not None, f"parameter {i} received no gradient"
        analytic = np.asarray(p.grad, dtype=np.float64)
        flat = np.arange(arr.size)
        if arr.size > max_entries:
            flat = rng.choice(arr.size, size=max_entries, replace=False)
        numeric = {}
        for j in flat:
            entry = np.unravel_index(j, arr.shape)
            step = h * max(1.0, abs(arr[entry]))
            numeric[entry] = finite_difference(build_loss, arrays, i, entry, step)
        scale = max(
            _inf_norm(analytic), max(abs(v) for v in numeric.values()), 1e-8
        )
        for entry, fd in numeric.items():
            err = abs(analytic[entry] - fd) / scale
            worst = max(worst, err)
            assert err <= rel_tol, (
                f"gradient mismatch for parameter {i} at {entry}: "
                f"analytic {analytic[entry]:.6g} vs numeric {fd:.6g} (rel {err:.2e})"
            )
    return worst


def generate_clip(cfg: SynthConfig, phase: int, seed) -> VideoClip:
    """The corpus clip for (cfg, phase, seed), without its foreground mask."""
    clip, _ = generate_clip_with_mask(cfg, phase, seed)
    return clip


def cell_token(cell: tuple[int, int, int], grid: tuple[int, int, int]) -> int:
    """The token id of a (t, h, w) cell: temporal-major, then rows, then columns."""
    nt, nh, nw = grid
    t, h, w = cell
    if not (0 <= t < nt and 0 <= h < nh and 0 <= w < nw):
        raise IndexError(f"cell {cell} out of range for grid {grid}")
    return (t * nh + h) * nw + w


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.readline().strip()
        if magic != b"P6":
            raise FormatError(f"not a P6 ppm: {magic!r}")
        line = f.readline()
        while line.startswith(b"#"):
            line = f.readline()
        w, h = (int(v) for v in line.split())
        maxval = int(f.readline())
        if maxval != 255:
            raise FormatError(f"unsupported maxval {maxval}")
        payload = f.read(w * h * 3)
    if len(payload) != w * h * 3:
        raise FormatError("ppm payload truncated")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)


def assert_owned_by(opt):
    """Every parameter's `data` and `grad`, and each moment, is still a
    view of the optimizer's flat buffers."""
    for name, p in opt.params.items():
        for array, flat in ((p.data, opt._value), (p.grad, opt._grad),
                            (opt.m[name], opt._m), (opt.v[name], opt._v)):
            assert array.base is flat, name


def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_held_bytes(tape: Tape, owned=()) -> int:
    """Bytes of the distinct arrays a tape's backward closures hold, each
    counted once through the array that owns its memory, nested closures
    included. Arrays in `owned` (an optimizer's flat buffers, which
    exist with or without a tape) and their views are left out."""
    skip = {id(a) for a in owned}
    held: dict[int, int] = {}
    pending = [node.backward_fn for node in tape._nodes]
    while pending:
        for cell in pending.pop().__closure__ or ():
            obj = cell.cell_contents
            if isinstance(obj, np.ndarray):
                base = _base(obj)
                if id(base) not in skip:
                    held[id(base)] = base.nbytes
            elif callable(obj) and getattr(obj, "__closure__", None):
                pending.append(obj)
    return sum(held.values())
