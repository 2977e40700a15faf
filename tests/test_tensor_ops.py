import ctypes
import inspect
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selectmae import numerics as nm
from selectmae.errors import ContractError, NumericError, ShapeError
from selectmae.numerics import tensor
from selectmae.numerics.tensor import record_op

import testkit
from testkit import check_gradients, gelu, matmul, softmax, transpose


def test_matmul_identity():
    a = nm.Tensor(np.eye(2))
    b = nm.Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(matmul(a, b).data, [[1, 2], [3, 4]])


def test_matmul_hand_case():
    a = nm.Tensor([[1.0, 2.0]])
    b = nm.Tensor([[3.0], [4.0]])
    np.testing.assert_allclose(matmul(a, b).data, [[11.0]])


def test_matmul_shape_error_names_shapes():
    a = nm.Tensor(np.zeros((2, 3)))
    b = nm.Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\)"):
        matmul(a, b)


def test_matmul_gradcheck():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))

    def loss(params):
        prod = matmul(params[0], params[1])
        return nm.reduce_sum(nm.mul(prod, prod))

    check_gradients(loss, [a, b], rel_tol=1e-3)


def _weight_matmul(x, w):
    """The product of the two-node chain add(matmul(x, w), b) that `affine`
    replaced: a 2-D weight applied to every leading slice of x."""
    xd, wd = x.data, w.data
    out = nm.Tensor(xd @ wd)

    def bw(g):
        return g @ wd.T, xd.reshape(-1, xd.shape[-1]).T @ g.reshape(-1, g.shape[-1])

    record_op((x, w), out, bw)
    return out


@pytest.mark.parametrize("lead", [(37,), (3, 37), (2, 3, 37)], ids=["2d", "3d", "4d"])
def test_affine_matches_the_matmul_add_chain_bitwise(lead):
    rng = np.random.default_rng(30)
    x0 = rng.standard_normal((*lead, 24)).astype(np.float32)
    w0 = rng.standard_normal((24, 40)).astype(np.float32)
    b0 = rng.standard_normal(40).astype(np.float32)
    # the transpose hands y a strided gradient, as attention's do; summed
    # as a reshaped 2-D view, its bias gradient would change bits
    swap = (1, 0, *range(2, len(lead) + 1))
    upstream = nm.Tensor(rng.standard_normal((*lead, 40)).astype(np.float32).transpose(swap))
    product = matmul if len(lead) == 1 else _weight_matmul

    def run(fused):
        x, w, b = (nm.Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
        with nm.Tape() as tape:
            y = nm.affine(x, w, b) if fused else nm.add(product(x, w), b)
            loss = nm.reduce_sum(nm.mul(transpose(y, swap), upstream))
        nm.backward(loss, tape)
        return y.data, x.grad, w.grad, b.grad

    for got, want in zip(run(fused=True), run(fused=False)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_affine_gradcheck_float64():
    rng = np.random.default_rng(32)
    x = rng.standard_normal((2, 3, 4))
    w = rng.standard_normal((4, 5))
    b = rng.standard_normal(5)

    def loss(params):
        y = nm.affine(*params)
        return nm.reduce_sum(nm.mul(y, y))

    check_gradients(loss, [x, w, b], rel_tol=1e-5, dtype=np.float64)


def test_affine_shape_error_names_shapes():
    x, w = nm.Tensor(np.zeros((2, 3))), nm.Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError, match=r"\(2, 3\) @ \(4, 5\)"):
        nm.affine(x, w, nm.Tensor(np.zeros(5)))
    with pytest.raises(ShapeError, match=r"\+ \(4,\)"):
        nm.affine(nm.Tensor(np.zeros((2, 4))), w, nm.Tensor(np.zeros(4)))


@pytest.mark.parametrize("op, params", [
    ("affine", [(6, 7), (7,)]),
    ("layer_norm", [(6,), (6,)]),
])
def test_an_untracked_input_gets_no_gradient(op, params):
    # nothing can receive the gradient of an input that is not tracked, so
    # the closure skips it; the other gradients keep their bits
    rng = np.random.default_rng(31)
    x0 = rng.standard_normal((2, 5, 6)).astype(np.float32)
    p0 = [rng.standard_normal(shape).astype(np.float32) for shape in params]
    g = rng.standard_normal((2, 5, params[0][-1])).astype(np.float32)

    def closure_grads(tracked):
        x = nm.Tensor(x0, requires_grad=tracked)
        ps = [nm.Tensor(p, requires_grad=True) for p in p0]
        with nm.Tape() as tape:
            getattr(nm, op)(x, *ps)
        (node,) = tape._nodes
        return node.backward_fn(g)

    skipped, full = closure_grads(tracked=False), closure_grads(tracked=True)
    assert skipped[0] is None and full[0].shape == x0.shape
    for got, want in zip(skipped[1:], full[1:]):
        assert np.array_equal(got, want)


def test_softmax_uniform_and_stability():
    out = softmax(nm.Tensor([0.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-7)
    big = softmax(nm.Tensor([1000.0, 0.0]))
    assert np.isfinite(big.data).all()
    np.testing.assert_allclose(big.data, [1.0, 0.0], atol=1e-6)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    x = nm.Tensor(rng.standard_normal((5, 8)))
    y = softmax(x, axis=-1)
    np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(5), atol=1e-6)
    assert (y.data > 0).all()


def test_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        softmax(nm.Tensor([np.nan, 0.0]))


def test_softmax_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(8)
    w = rng.standard_normal(8)

    def loss(params):
        return nm.reduce_sum(nm.mul(softmax(params[0]), nm.Tensor(w)))

    check_gradients(loss, [x], rel_tol=1e-3)


def test_layer_norm_constant_row_is_zero():
    x = nm.Tensor(np.full((2, 4), 3.0))
    y = nm.layer_norm(x, nm.Tensor(np.ones(4)), nm.Tensor(np.zeros(4)), eps=1e-5)
    np.testing.assert_allclose(y.data, np.zeros((2, 4)), atol=1e-6)


def test_layer_norm_two_point_row():
    x = nm.Tensor([[1.0, 3.0]])
    y = nm.layer_norm(x, nm.Tensor(np.ones(2)), nm.Tensor(np.zeros(2)), eps=1e-12)
    np.testing.assert_allclose(y.data, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_gradcheck():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 8))
    gain = rng.standard_normal(8)
    bias = rng.standard_normal(8)

    def loss(params):
        y = nm.layer_norm(params[0], params[1], params[2])
        return nm.reduce_sum(nm.mul(y, nm.Tensor(np.arange(8.0))))

    check_gradients(loss, [x, gain, bias], rel_tol=1e-3)


def test_backward_sum_gives_ones():
    x = nm.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with nm.Tape() as tape:
        loss = nm.reduce_sum(x)
    nm.backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_requires_scalar():
    x = nm.Tensor(np.ones(3), requires_grad=True)
    with nm.Tape() as tape:
        y = nm.scale(x, 2.0)
    with pytest.raises(ContractError):
        nm.backward(y, tape)


def test_stop_gradient_is_absorbing():
    rng = np.random.default_rng(5)
    xv = rng.standard_normal(4)
    x = nm.Tensor(xv, requires_grad=True)
    y = nm.Tensor(rng.standard_normal(4), requires_grad=True)
    with nm.Tape() as tape:
        loss = nm.reduce_sum(nm.mul(nm.stop_gradient(x), y))
    nm.backward(loss, tape)
    assert x.grad is None
    np.testing.assert_allclose(y.grad, xv.astype(np.float32), rtol=1e-6)


def test_backward_accumulates_across_paths():
    x = nm.Tensor(np.array([2.0]), requires_grad=True)
    with nm.Tape() as tape:
        loss = nm.reduce_sum(nm.mul(x, x))  # d/dx x^2 = 2x via two-path accumulation
    nm.backward(loss, tape)
    np.testing.assert_allclose(x.grad, [4.0])


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(6)
    w_init = rng.standard_normal((5, 5)).astype(np.float32)
    x_init = rng.standard_normal((3, 5)).astype(np.float32)

    def run():
        w = nm.Tensor(w_init.copy(), requires_grad=True)
        x = nm.Tensor(x_init.copy())
        with nm.Tape() as tape:
            h = gelu(matmul(x, w))
            loss = nm.reduce_mean(nm.mul(h, h))
        nm.backward(loss, tape)
        return w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_gather_rows_scatter_add_duplicates():
    x = nm.Tensor(np.arange(8.0).reshape(1, 4, 2), requires_grad=True)
    with nm.Tape() as tape:
        picked = nm.gather_rows_batched(x, [[1, 1, 3]])
        loss = nm.reduce_sum(picked)
    nm.backward(loss, tape)
    expected = np.array([[[0, 0], [2, 2], [0, 0], [1, 1]]], dtype=np.float32)
    np.testing.assert_array_equal(x.grad, expected)


def test_gather_rows_out_of_range():
    x = nm.Tensor(np.zeros((1, 3, 2)))
    with pytest.raises(IndexError):
        nm.gather_rows_batched(x, [[0, 3]])


def test_gather_rows_gradcheck():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 6, 3))

    def loss(params):
        picked = nm.gather_rows_batched(params[0], [[0, 2, 2, 5]])
        return nm.reduce_sum(nm.mul(picked, picked))

    check_gradients(loss, [x], rel_tol=1e-3)


def test_concat_rows_roundtrip_grads():
    a = nm.Tensor(np.ones((2, 3)), requires_grad=True)
    b = nm.Tensor(np.ones((1, 3)), requires_grad=True)
    with nm.Tape() as tape:
        joined = nm.concat_rows([a, b])
        loss = nm.reduce_sum(nm.mul(joined, nm.Tensor(np.arange(9.0).reshape(3, 3))))
    nm.backward(loss, tape)
    np.testing.assert_array_equal(a.grad, np.arange(6.0).reshape(2, 3).astype(np.float32))
    np.testing.assert_array_equal(b.grad, np.array([[6.0, 7.0, 8.0]], dtype=np.float32))


@pytest.mark.parametrize("seed", range(3))
def test_elementwise_and_reduction_gradchecks(seed):
    rng = np.random.default_rng(100 + seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    c = rng.standard_normal(4)

    def loss(params):
        s = nm.add(params[0], params[2])  # broadcast add
        p = nm.mul(s, params[1])
        g = gelu(p)
        return nm.add(
            nm.reduce_mean(nm.sub(nm.mul(g, g), params[2])),
            nm.reduce_sum(nm.reduce_mean(g, axis=0)),
        )

    check_gradients(loss, [a, b, c], rel_tol=1e-3, rng=rng)


def test_transpose_reshape_gradcheck():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 4))

    def loss(params):
        t = transpose(params[0], (1, 0, 2))
        r = nm.reshape(t, (3, 8))
        return nm.reduce_sum(nm.mul(r, r))

    check_gradients(loss, [x], rel_tol=1e-3)


def test_log_and_log_softmax_agree():
    rng = np.random.default_rng(9)
    z = rng.standard_normal(6)
    p = softmax(nm.Tensor(z))
    lp = nm.log_softmax(nm.Tensor(z))
    np.testing.assert_allclose(np.log(p.data), lp.data, atol=1e-6)

    def loss(params):
        lsm = nm.log_softmax(params[0])
        return nm.reduce_sum(nm.mul(lsm, nm.Tensor(np.arange(6.0))))

    check_gradients(loss, [z], rel_tol=1e-3)


def test_mlp_composite_gradcheck_float64():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 5))
    w1 = rng.standard_normal((5, 7)) * 0.5
    b1 = rng.standard_normal(7) * 0.1
    w2 = rng.standard_normal((7, 2)) * 0.5
    b2 = rng.standard_normal(2) * 0.1

    def loss(params):
        h = gelu(nm.add(matmul(nm.Tensor(x), params[0]), params[1]))
        out = nm.add(matmul(h, params[2]), params[3])
        return nm.reduce_mean(nm.mul(out, out))

    worst = check_gradients(loss, [w1, b1, w2, b2], rel_tol=1e-5, dtype=np.float64)
    assert worst <= 1e-5


def test_batched_matmul_gradcheck():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((2, 4, 3))

    def loss(params):
        prod = matmul(params[0], params[1])
        return nm.reduce_sum(nm.mul(prod, prod))

    check_gradients(loss, [a, b], rel_tol=1e-3)


def _reference_attention(q, k, v, s):
    """The unfused chain that `attend` replaces, kept as its reference."""
    swap_last = tuple(range(q.ndim - 2)) + (q.ndim - 1, q.ndim - 2)
    scores = nm.scale(matmul(q, transpose(k, swap_last)), s)
    return matmul(softmax(scores, axis=-1), v)


def _reference_packed(qkv, heads):
    """attend(qkv, heads) built from tape ops: `_reference_attention` on the
    head-split q, k and v blocks, merged back. Each block is taken with a
    0/1 selection matmul, which is exact both ways."""
    b, n, width = qkv.shape
    dim = width // 3
    d = dim // heads
    eye = np.eye(width, dtype=qkv.data.dtype)

    def block(i):
        pick = nm.Tensor(np.broadcast_to(eye[:, i * dim:(i + 1) * dim], (b, width, dim)).copy())
        return transpose(nm.reshape(matmul(qkv, pick), (b, n, heads, d)), (0, 2, 1, 3))

    ctx = _reference_attention(block(0), block(1), block(2), 1.0 / math.sqrt(d))
    return nm.reshape(transpose(ctx, (0, 2, 1, 3)), (b, n, dim))


def _reference_gelu(x):
    """The plain-expression GELU that the in-place `gelu` replaces."""
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    sq = x.data * x.data
    t = np.tanh(c * (x.data + a * (x.data * sq)))
    out = nm.Tensor(0.5 * x.data * (1.0 + t))

    def bw(g):
        du = c * (1.0 + 3.0 * a * sq)
        return (g * (0.5 * (1.0 + t) + 0.5 * x.data * ((1.0 - t * t) * du)),)

    record_op((x,), out, bw)
    return out


def _grads_of(fn, arrays, weight):
    """Output and input gradients of sum(fn(*inputs) * weight), in the
    default precision."""
    inputs = [nm.Tensor(a, requires_grad=True) for a in arrays]
    with nm.Tape() as tape:
        out = fn(*inputs)
        loss = nm.reduce_sum(nm.mul(out, nm.Tensor(weight)))
    nm.backward(loss, tape)
    return out.data, [t.grad for t in inputs]


def _packed_inputs(rng, batch, heads, n, head_dim):
    """A (batch, n, 3 dim) packed projection and a (batch, n, dim) weight:
    q, k and v drawn one after another as (batch, n, dim) arrays, then
    the weight head by head."""
    dim = heads * head_dim
    qkv = np.concatenate([rng.standard_normal((batch, n, dim)).astype(np.float32)
                          for _ in range(3)], axis=-1)
    weight = rng.standard_normal((batch, heads, n, head_dim)).astype(np.float32)
    return qkv, weight.transpose(0, 2, 1, 3).reshape(batch, n, dim)


def _max_rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def _attend_error_bounds(qkv, weight, heads):
    """Element by element bounds on the float32 error of attend's output
    and of the q, k and v thirds of its gradient, in their packed
    layouts, given (B, n, 3 dim) inputs and the (B, n, dim) output
    gradient.

    Each bound counts the roundings on the paths into its element, each
    at most u = 2^-24 of the value it rounds, with gamma(k) = k u / (1 - k u)
    for a k-term sum or dot product of magnitudes |a| . |b| (Higham 2002,
    ch. 3). Forward: a score is a d-term dot product of q s and k, then
    the row max is subtracted, exp adds 2 u, the weights' (n + 1)-term
    matmul with [v | 1] gives the context and the row sum, and one divide
    follows. Backward rebuilds each weight from a (d + 1)-term dot product
    with -lse, where lse carries the forward's errors; [g | -D] [v | 1]^T,
    with D a d-term dot product of g and the computed output, times the
    weight gives the score gradient, and n-term matmuls give dq, dk and
    dv. An absolute error e of an exponent is a relative error expm1(e)
    of its weight. Below the normal range a rounding may instead be off
    by up to `tiny`, the smallest subnormal: at 12x scores most weights
    underflow. Magnitudes come from the exact float64 attention, so the
    bounds grow with the scores, as the rounding does. They hold to first
    order in u; the terms in u^2 are left out.
    """
    u, tiny = 2.0 ** -24, 2.0 ** -149

    def gamma(k):
        return k * u / (1 - k * u)

    def t(a):
        return np.swapaxes(a, -1, -2)

    batch, n, width = qkv.shape
    dim = width // 3
    d = dim // heads
    s = 1.0 / math.sqrt(d)
    # (B, heads, n, d) float64 views of q, k, v and the output gradient g
    q, k, v, g = (a.astype(np.float64).reshape(batch, n, heads, d).transpose(0, 2, 1, 3)
                  for a in (*np.split(qkv, 3, axis=-1), weight))
    scores = s * q @ t(k)
    lse = np.log(np.exp(scores - scores.max(axis=-1, keepdims=True)).sum(axis=-1, keepdims=True))
    lse += scores.max(axis=-1, keepdims=True)
    p = np.exp(scores - lse)
    out = p @ v
    row_dot = (g * out).sum(axis=-1, keepdims=True)
    ds = p * (g @ t(v) - row_dot)

    # forward: each row's shifted scores, weights, then the normalized matmul
    score_abs = s * np.abs(q) @ t(np.abs(k))
    row_abs = score_abs.max(axis=-1, keepdims=True)  # bounds every |score| of the row
    e_weight = np.expm1(2 * gamma(d + 2) * row_abs) + 2 * u
    out_err = (2 * (e_weight + gamma(n + 1)) + u) * (p @ np.abs(v)) + (n + 2) * tiny
    # backward: lse, the rebuilt weights, and dS = P * ([g | -D] [v | 1]^T)
    e_lse = (gamma(d + 1) * row_abs + e_weight + gamma(n) + 2 * u * math.log(n)
             + u * np.abs(lse))
    p_err = p * (np.expm1(gamma(d + 2) * (score_abs + np.abs(lse)) + e_lse) + 2 * u) + tiny
    d_err = (gamma(d) * np.abs(g) * np.abs(out) + np.abs(g) * out_err).sum(axis=-1, keepdims=True)
    w_abs = np.abs(g) @ t(np.abs(v)) + np.abs(row_dot)
    ds_err = (p + p_err) * (gamma(d + 1) * w_abs + d_err) + w_abs * (p_err + u * p) + tiny
    ds_abs = np.abs(ds) + ds_err
    e_sum = gamma(n) + 2 * u  # an n-term matmul, with q s or a final s rounded
    dq_err = s * (e_sum * ds_abs + ds_err) @ np.abs(k) + n * tiny
    dk_err = s * t(e_sum * ds_abs + ds_err) @ np.abs(q) + n * tiny
    dv_err = t(gamma(n) * p + (1 + gamma(n)) * p_err) @ np.abs(g) + n * tiny

    def packed(a):
        return a.transpose(0, 2, 1, 3).reshape(batch, n, dim)

    return [packed(out_err), packed(dq_err), packed(dk_err), packed(dv_err)]


def _attend_results(qkv, weight, heads, fn):
    """The output of fn(qkv, heads) and the q, k and v thirds of its
    gradient under `weight`."""
    out, (grad,) = _grads_of(lambda t: fn(t, heads), [qkv], weight)
    return [out, *np.split(grad, 3, axis=-1)]


# attend works through blocks of (n, n) float32 head slices of at most
# 512 KiB: n = 24 fits in one block; (8, 2) at n = 256 is the decoder's
# shape, 8 blocks of 2 slices; 5 slices at n = 256 end in a ragged
# block of one; one slice at n = 384 alone is over the budget. With q and k
# scaled 12x the scores reach the hundreds, so a row's lse nearly
# cancels its top score in exp(q s k^T - lse).
@pytest.mark.parametrize("batch_heads, n, qk_scale", [
    ((3, 1), 24, 1), ((2, 3), 24, 1), ((1, 1), 24, 1), ((8, 2), 256, 1), ((5, 1), 256, 1),
    ((3, 1), 384, 1), ((8, 2), 256, 12),
], ids=["3d", "4d", "2d", "decoder", "ragged", "oversize", "decoder-x12"])
@pytest.mark.parametrize("head_dim", [16, 32])
def test_attend_matches_reference_chain_bitwise(batch_heads, n, qk_scale, head_dim):
    """attend against the chain matmul -> scale -> softmax -> matmul on the
    head-split blocks: equal to 1e-10 in float64, and in float32 within
    `_attend_error_bounds` of the float64 chain, for the output and each
    third of the packed gradient."""
    batch, heads = batch_heads
    qkv, weight = _packed_inputs(np.random.default_rng(12), batch, heads, n, head_dim)
    qkv[..., :2 * heads * head_dim] *= qk_scale

    with tensor.precision(np.float64):
        qkv64, weight64 = qkv.astype(np.float64), weight.astype(np.float64)
        fused64 = _attend_results(qkv64, weight64, heads, nm.attend)
        want = _attend_results(qkv64, weight64, heads, _reference_packed)
    fused32 = _attend_results(qkv, weight, heads, nm.attend)
    assert fused32[0].dtype == np.float32 and fused64[0].dtype == np.float64
    bounds = _attend_error_bounds(qkv, weight, heads)
    for name, got64, got32, exact, bound in zip(("out", "dq", "dk", "dv"), fused64, fused32,
                                                want, bounds):
        assert _max_rel_err(got64, exact) <= 1e-10, name
        assert (np.abs(got32 - exact) <= bound).all(), name


def _head_columns(a, head, heads):
    """Columns of one head from each of a packed array's (q, k, v) blocks."""
    return np.concatenate([np.split(block, heads, axis=-1)[head]
                           for block in np.split(a, 3, axis=-1)], axis=-1)


@pytest.mark.parametrize("batch_heads", [(8, 2), (1, 5)], ids=["blocked", "ragged"])
def test_attend_slice_equals_the_slice_alone_bitwise(batch_heads):
    batch, heads = batch_heads
    qkv, weight = _packed_inputs(np.random.default_rng(19), batch, heads, 256, 16)
    out, (grad,) = _grads_of(lambda t: nm.attend(t, heads), [qkv], weight)
    for b in range(batch):
        for h in range(heads):
            cols = slice(16 * h, 16 * (h + 1))
            alone, (alone_grad,) = _grads_of(lambda t: nm.attend(t, 1),
                                             [_head_columns(qkv[b:b + 1], h, heads)],
                                             weight[b:b + 1, :, cols])
            assert np.array_equal(out[b:b + 1, :, cols], alone)
            assert np.array_equal(_head_columns(grad[b:b + 1], h, heads), alone_grad)


def test_attend_gradcheck_float64():
    rng = np.random.default_rng(13)
    qkv = rng.standard_normal((2, 5, 12))  # 2 heads of 2
    w = rng.standard_normal((2, 5, 4))

    def loss(params):
        return nm.reduce_sum(nm.mul(nm.attend(params[0], 2), nm.Tensor(w)))

    check_gradients(loss, [qkv], rel_tol=1e-5, dtype=np.float64)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_attend_rejects_non_finite_scores(bad):
    qkv = np.ones((1, 3, 12), dtype=np.float32)
    qkv[0, 1, 2] = bad  # in q
    # numpy's matmul flags an invalid value for an infinite operand even
    # where the product is just +/-inf; the check on the scores is under test
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="attend"):
        nm.attend(nm.Tensor(qkv), 1)


def test_attend_non_finite_in_last_block_records_nothing():
    rng = np.random.default_rng(17)
    qkv = rng.standard_normal((5, 256, 48)).astype(np.float32)
    qkv[4, 100, 3] = np.nan  # slice 4 is the third block, after two clean ones
    with nm.Tape() as tape:
        with pytest.raises(NumericError, match="attend"):
            nm.attend(nm.Tensor(qkv, requires_grad=True), 1)
    assert len(tape) == 0


def _captured_arrays(fn, seen=None) -> dict[int, np.ndarray]:
    """Every ndarray a closure captures, through nested closures, by id."""
    seen = {} if seen is None else seen
    for cell in fn.__closure__ or ():
        obj = cell.cell_contents
        if isinstance(obj, np.ndarray):
            seen[id(obj)] = obj
        elif callable(obj) and getattr(obj, "__closure__", None):
            _captured_arrays(obj, seen)
    return seen


def test_attend_backward_keeps_row_statistics_not_weights():
    batch, heads, n, head_dim = 8, 2, 256, 16  # the decoder's shape
    qkv, _ = _packed_inputs(np.random.default_rng(18), batch, heads, n, head_dim)
    with nm.Tape() as tape:
        out = nm.attend(nm.Tensor(qkv, requires_grad=True), heads)
    captured = _captured_arrays(tape._nodes[-1].backward_fn).values()
    count = batch * heads
    # [q s | -lse], [k | 1], [v | 1] and the merged output: 1,097,728
    # bytes where the weights alone take 4 MiB
    aug_shape = (count, n, head_dim + 1)
    assert sorted(a.shape for a in captured) == sorted([aug_shape] * 3 + [out.shape])
    assert any(a is out.data for a in captured)
    assert all(a.dtype == np.float32 for a in captured)
    assert sum(a.nbytes for a in captured) == 4 * count * n * (3 * (head_dim + 1) + head_dim)
    assert all(a.shape[-2:] != (n, n) for a in captured)


@pytest.mark.parametrize("shape, heads", [
    ((2, 4, 12), 3),  # 3 heads do not divide dim 4
    ((2, 4, 13), 1),  # width not three blocks
    ((4, 12), 1),  # not a (B, n, 3 dim) stack
    ((1, 2, 4, 12), 1),
    ((2, 4, 12), 0),
], ids=["heads-do-not-divide-dim", "width-not-three-blocks", "2d", "4d", "zero-heads"])
def test_attend_shape_errors(shape, heads):
    with pytest.raises(ShapeError, match="attend"):
        nm.attend(nm.Tensor(np.zeros(shape)), heads)


def test_gelu_matches_reference_bitwise():
    rng = np.random.default_rng(14)
    x = (rng.standard_normal((4, 16, 32)) * 3.0).astype(np.float32)
    weight = rng.standard_normal(x.shape).astype(np.float32)
    out, (grad,) = _grads_of(gelu, [x], weight)
    ref_out, (ref_grad,) = _grads_of(_reference_gelu, [x], weight)
    assert np.array_equal(out, ref_out)
    assert np.array_equal(grad, ref_grad)


def _norm_affine_chain(x, gain, bias, w, b):
    return nm.affine(nm.layer_norm(x, gain, bias), w, b)


def _gelu_affine_chain(h, w, b):
    return nm.affine(gelu(h), w, b)


# kernel: (fused, its two-node chain, the shapes of its parameters for
# feature dim k and output dim n)
FUSED = {
    "norm_affine": (nm.norm_affine, _norm_affine_chain, lambda k, n: [(k,), (k,), (k, n), (n,)]),
    "gelu_affine": (nm.gelu_affine, _gelu_affine_chain, lambda k, n: [(k, n), (n,)]),
}


def _fused_run(fn, arrays, weight, x_tracked):
    """Output, then the gradient of x and of each parameter, of
    sum(fn(x, *params) * weight) at the arrays' dtype."""
    with tensor.precision(arrays[0].dtype):
        x = nm.Tensor(arrays[0], requires_grad=x_tracked)
        params = [nm.Tensor(a, requires_grad=True) for a in arrays[1:]]
        with nm.Tape() as tape:
            y = fn(x, *params)
            loss = nm.reduce_sum(nm.mul(y, nm.Tensor(weight)))
        nm.backward(loss, tape)
    return [y.data, x.grad, *(p.grad for p in params)]


def _fused_inputs(op, rng, lead, k, n, dtype):
    shapes = [(*lead, k), *FUSED[op][2](k, n)]
    arrays = [(rng.standard_normal(shape) * 2.0).astype(dtype) for shape in shapes]
    return arrays, rng.standard_normal((*lead, n)).astype(dtype)


@settings(max_examples=60, deadline=None)
@given(op=st.sampled_from(sorted(FUSED)), lead=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       k=st.integers(1, 24), n=st.integers(1, 24), x_tracked=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_fused_kernel_matches_its_chain_bitwise(op, lead, k, n, x_tracked, dtype, seed):
    fused, chain, _ = FUSED[op]
    arrays, weight = _fused_inputs(op, np.random.default_rng(seed), lead, k, n, dtype)
    got, want = (_fused_run(fn, arrays, weight, x_tracked) for fn in (fused, chain))
    assert (got[1] is None) == (want[1] is None) == (not x_tracked)
    for a, b in zip(got, want):
        if b is not None:
            assert a.dtype == b.dtype == dtype and np.array_equal(a, b)


@pytest.mark.parametrize("op", sorted(FUSED))
def test_fused_kernel_gradcheck_float64(op):
    arrays, weight = _fused_inputs(op, np.random.default_rng(33), (2, 3), 5, 4, np.float64)

    def loss(params):
        return nm.reduce_sum(nm.mul(FUSED[op][0](*params), nm.Tensor(weight)))

    check_gradients(loss, arrays, rel_tol=1e-5, dtype=np.float64)


@pytest.mark.parametrize("op, helper", [("norm_affine", "_scale_shift"),
                                        ("gelu_affine", "_gelu_value")])
def test_fused_kernel_frees_the_projection_input_during_forward(monkeypatch, op, helper):
    # the chain's affine keeps the normalized or GELU output for dw; the
    # fused kernel drops it when forward returns and rebuilds it in
    # backward, through the same helper, with the same gradients
    made = []
    real = getattr(nm.ops, helper)

    def spy(*args):
        out = real(*args)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(nm.ops, helper, spy)
    arrays, weight = _fused_inputs(op, np.random.default_rng(34), (2, 5), 4, 6, np.float32)

    def run(fn):
        made.clear()
        x = nm.Tensor(arrays[0], requires_grad=True)
        params = [nm.Tensor(a, requires_grad=True) for a in arrays[1:]]
        with nm.Tape() as tape:
            loss = nm.reduce_sum(nm.mul(fn(x, *params), nm.Tensor(weight)))
        alive = [ref() is not None for ref in made]
        nm.backward(loss, tape)
        return alive, [t.grad for t in (x, *params)]

    fused, chain, _ = FUSED[op]
    (freed, grads), (kept, chain_grads) = run(fused), run(chain)
    assert freed == [False] and kept == [True]
    for got, want in zip(grads, chain_grads):
        assert np.array_equal(got, want)


def test_fused_kernel_shape_errors_name_the_kernel():
    x = nm.Tensor(np.zeros((2, 3, 4)))
    gain, w, b = nm.Tensor(np.ones(4)), nm.Tensor(np.zeros((4, 5))), nm.Tensor(np.zeros(5))
    with pytest.raises(ShapeError, match=r"norm_affine: gain/bias \(3,\)"):
        nm.norm_affine(x, nm.Tensor(np.ones(3)), gain, w, b)
    with pytest.raises(ShapeError, match=r"norm_affine: incompatible shapes \(2, 3, 4\) @ \(5, 5\)"):
        nm.norm_affine(x, gain, gain, nm.Tensor(np.zeros((5, 5))), b)
    with pytest.raises(ShapeError, match=r"gelu_affine: incompatible shapes .* \+ \(4,\)"):
        nm.gelu_affine(x, w, gain)


def test_layer_norm_matches_variance_formula_bitwise():
    rng = np.random.default_rng(20)
    x = (rng.standard_normal((8, 64, 32)) * 4.0 + 3.0).astype(np.float32)
    gain, bias = (rng.standard_normal(32).astype(np.float32) for _ in range(2))
    out = nm.layer_norm(nm.Tensor(x), nm.Tensor(gain), nm.Tensor(bias)).data
    mean = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    assert np.array_equal(out, (x - mean) * inv * gain + bias)


def test_backward_never_writes_into_shared_upstream_gradient():
    # add() hands one gradient array to both of its inputs. The leaves t1
    # and t2 hold that very array until backward ends, so any write into
    # it by gelu's or attend's backward would corrupt their gradients.
    rng = np.random.default_rng(15)
    shape = (2, 6, 4)
    x, t1, t2 = (rng.standard_normal(shape).astype(np.float32) for _ in range(3))
    qkv = rng.standard_normal((2, 6, 12)).astype(np.float32)
    weight = rng.standard_normal(shape).astype(np.float32)

    def graph(gelu_fn, attend_fn):
        return lambda x, qkv, t1, t2: nm.add(
            nm.add(gelu_fn(x), t1), nm.add(attend_fn(qkv, 2), t2)
        )

    _, grads = _grads_of(graph(gelu, nm.attend), [x, qkv, t1, t2], weight)
    _, ref_grads = _grads_of(graph(_reference_gelu, _reference_packed), [x, qkv, t1, t2], weight)
    for i in (0, 2, 3):  # x, t1 and t2
        assert np.array_equal(grads[i], ref_grads[i])
    np.testing.assert_allclose(grads[1], ref_grads[1], rtol=1e-5, atol=1e-6)
    assert np.array_equal(grads[2], weight)
    assert np.array_equal(grads[3], weight)


def test_gather_rows_batched_gradcheck_with_duplicates():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 5, 3))
    ids = np.array([[0, 2, 2, 4], [1, 1, 1, 3]])  # duplicates within each row

    def loss(params):
        picked = nm.gather_rows_batched(params[0], ids)
        return nm.reduce_sum(nm.mul(picked, picked))

    check_gradients(loss, [x], rel_tol=1e-5, dtype=np.float64)


def _holds_tensor(obj) -> bool:
    """True when `obj`, or a tuple, list or closure reachable from it,
    is a Tensor."""
    if isinstance(obj, nm.Tensor):
        return True
    if isinstance(obj, (tuple, list)):
        return any(_holds_tensor(o) for o in obj)
    cells = getattr(obj, "__closure__", None) or ()
    return any(_holds_tensor(c.cell_contents) for c in cells)


def _kernel_calls(rng):
    """One call of every public kernel in numerics.ops and of every op in
    testkit, on tracked inputs."""
    def t(*shape):
        return nm.Tensor(rng.uniform(0.5, 1.5, shape).astype(np.float32), requires_grad=True)

    return {
        "add": lambda: [nm.add(t(2, 3), t(3))],
        "sub": lambda: [nm.sub(t(2, 3), t(3))],
        "mul": lambda: [nm.mul(t(2, 3), t(2, 3))],
        "scale": lambda: [nm.scale(t(2, 3), 2.0)],
        "matmul": lambda: [matmul(t(3, 4), t(4, 5)), matmul(t(2, 3, 4), t(2, 4, 5))],
        "affine": lambda: [nm.affine(t(2, 3, 4), t(4, 5), t(5)),
                           nm.affine(nm.Tensor(np.ones((3, 4), np.float32)), t(4, 5), t(5))],
        "softmax": lambda: [softmax(t(2, 3))],
        "attend": lambda: [nm.attend(t(2, 3, 12), 2)],
        "log_softmax": lambda: [nm.log_softmax(t(2, 3))],
        "layer_norm": lambda: [nm.layer_norm(t(2, 3), t(3), t(3))],
        "norm_affine": lambda: [nm.norm_affine(t(2, 3, 4), t(4), t(4), t(4, 5), t(5))],
        "gelu": lambda: [gelu(t(2, 3))],
        "gelu_affine": lambda: [nm.gelu_affine(t(2, 3, 4), t(4, 5), t(5))],
        "reduce_sum": lambda: [nm.reduce_sum(t(2, 3)), nm.reduce_sum(t(2, 3), axis=0)],
        "reduce_mean": lambda: [nm.reduce_mean(t(2, 3)), nm.reduce_mean(t(2, 3), axis=-1)],
        "reshape": lambda: [nm.reshape(t(2, 3), (3, 2))],
        "transpose": lambda: [transpose(t(2, 3, 4), (2, 0, 1))],
        "concat_rows": lambda: [nm.concat_rows([t(2, 3), t(1, 3)])],
        "gather_rows_batched": lambda: [nm.gather_rows_batched(t(2, 4, 3), [[0, 1], [3, 3]])],
        "stop_gradient": lambda: [nm.stop_gradient(t(2, 3))],
    }


def test_no_backward_closure_holds_a_tensor():
    calls = _kernel_calls(np.random.default_rng(19))
    kernels = {name for name, fn in inspect.getmembers(nm.ops, inspect.isfunction)
               if fn.__module__ == nm.ops.__name__ and not name.startswith("_")}
    assert kernels | {"matmul", "softmax", "gelu", "transpose"} == set(calls)
    assert all(vars(testkit)[name].__module__ == "testkit" for name in set(calls) - kernels)
    with nm.Tape() as tape:
        for call in calls.values():
            call()
    assert len(tape) == 23  # every call but stop_gradient's
    for node in tape._nodes:
        assert not _holds_tensor(node.backward_fn), node.backward_fn.__qualname__


def test_tape_frees_intermediates_that_no_backward_reads():
    def block(keep: bool):
        rng = np.random.default_rng(20)
        x = nm.Tensor(rng.standard_normal((2, 5, 4)).astype(np.float32), requires_grad=True)
        w = nm.Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
        bias, gain, shift = (nm.Tensor(rng.standard_normal(4).astype(np.float32),
                                       requires_grad=True) for _ in range(3))
        with nm.Tape() as tape:
            h = nm.affine(x, w, bias)  # the residual add reads only its shape
            res = nm.add(x, h)  # layer_norm reads xhat, not its input
            out = nm.layer_norm(res, gain, shift)
            loss = nm.reduce_sum(nm.mul(out, out))
        refs = [weakref.ref(h.data), weakref.ref(res.data)]
        held = (h, res) if keep else ()
        del h, res, out
        alive = [r() is not None for r in refs]
        nm.backward(loss, tape)
        del held
        return alive, [t.grad for t in (x, w, bias, gain, shift)]

    freed, grads = block(keep=False)
    kept, kept_grads = block(keep=True)
    assert freed == [False, False]
    assert kept == [True, True]
    for got, want in zip(grads, kept_grads):
        assert np.array_equal(got, want)


class _NoLibc:
    def __init__(self, name):
        raise OSError("no shared objects")


class _LibcWithoutMallopt:
    def __init__(self, name):
        pass


@pytest.mark.parametrize("cdll", [_NoLibc, _LibcWithoutMallopt], ids=["no-libc", "no-mallopt"])
def test_allocator_setup_is_a_no_op_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    tensor._keep_freed_memory()  # returns without raising


def test_tape_records_only_the_ops_of_its_own_thread():
    x = nm.Tensor(np.ones(3), requires_grad=True)
    seen = {}

    def elsewhere():
        seen["tape"] = nm.active_tape()
        seen["out"] = nm.reduce_sum(nm.scale(x, 2.0))

    with nm.Tape() as tape:
        worker = threading.Thread(target=elsewhere)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert len(tape) == 0
        nm.reduce_sum(x)
    assert seen["tape"] is None
    assert len(tape) == 1
    assert seen["out"].item() == 6.0


def test_backward_frees_each_closure_and_refuses_a_second_pass():
    x = nm.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with nm.Tape() as tape:
        loss = nm.reduce_sum(nm.mul(x, x))
    closures = [weakref.ref(node.backward_fn) for node in tape._nodes]
    nm.backward(loss, tape)
    assert len(tape) == 2  # the nodes stay, so the tape still counts them
    assert all(node.backward_fn is None for node in tape._nodes)
    assert all(ref() is None for ref in closures)
    with pytest.raises(ContractError, match="already run"):
        nm.backward(loss, tape)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])


def test_run_halves_splits_at_the_ceiling_and_keeps_order():
    calls = {}

    def half(lo, hi, tape):
        # each half records onto the tape entered on its own thread
        calls[lo, hi] = (threading.get_ident(), tape is nm.active_tape())
        return lo, hi

    with nm.Tape() as tape:
        assert nm.run_halves(tape, 5, half) == [(0, 3), (3, 5)]
        assert nm.run_halves(tape, 1, half) == [(0, 1)]
    here = threading.get_ident()
    assert calls[0, 3] == (here, True) and calls[0, 1] == (here, True)
    assert calls[3, 5][0] != here and calls[3, 5][1]


def test_run_halves_carries_the_callers_errstate():
    def half(lo, hi, tape):
        return np.float32(1.0) / np.float32(0.0)

    with nm.Tape() as tape, np.errstate(divide="ignore"):
        assert nm.run_halves(tape, 2, half) == [np.inf, np.inf]
    with nm.Tape() as tape, np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            nm.run_halves(tape, 2, half)


def test_two_threads_sum_their_gradients_into_shared_leaves():
    # the leaf sees exactly two addends, so its bits do not depend on
    # which pass ends first
    rng = np.random.default_rng(21)
    w = nm.Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
    xs = rng.standard_normal((2, 3, 4)).astype(np.float32)

    def half(lo, hi, tape):
        nm.backward(nm.reduce_sum(gelu(matmul(nm.Tensor(xs[lo]), w))), tape)

    each = []
    for i in range(2):
        w.grad = None
        with nm.Tape() as tape:
            half(i, i + 1, tape)
        each.append(w.grad)
    w.grad = None
    with nm.Tape() as tape:
        nm.run_halves(tape, 2, half)
    assert np.array_equal(w.grad, each[0] + each[1])
    assert np.array_equal(w.grad, each[1] + each[0])


def test_concurrent_backward_passes_lose_no_gradient():
    # eight threads, each replaying its own tapes into one shared leaf with
    # a short switch interval: every pass adds exactly 1 to each entry, so
    # a lost read-modify-write of .grad would show as a missing count
    w = nm.Tensor(np.zeros((64, 64)), requires_grad=True)
    ones = nm.Tensor(np.ones((64, 64)))
    passes = 25

    def replay():
        for _ in range(passes):
            with nm.Tape() as tape:
                loss = nm.reduce_sum(nm.mul(w, ones))
            nm.backward(loss, tape)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=replay) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert np.array_equal(w.grad, np.full((64, 64), 8.0 * passes, dtype=np.float32))
