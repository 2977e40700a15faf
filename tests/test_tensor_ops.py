import inspect
import math
import weakref

import numpy as np
import pytest

from selectmae import numerics as nm
from selectmae.errors import ContractError, NumericError, ShapeError
from selectmae.numerics.gradcheck import check_gradients
from selectmae.numerics.tensor import record_op


def test_matmul_identity():
    a = nm.Tensor(np.eye(2))
    b = nm.Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(nm.matmul(a, b).data, [[1, 2], [3, 4]])


def test_matmul_hand_case():
    a = nm.Tensor([[1.0, 2.0]])
    b = nm.Tensor([[3.0], [4.0]])
    np.testing.assert_allclose(nm.matmul(a, b).data, [[11.0]])


def test_matmul_shape_error_names_shapes():
    a = nm.Tensor(np.zeros((2, 3)))
    b = nm.Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\)"):
        nm.matmul(a, b)


def test_matmul_gradcheck():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))

    def loss(params):
        prod = nm.matmul(params[0], params[1])
        return nm.reduce_sum(nm.mul(prod, prod))

    check_gradients(loss, [a, b], rel_tol=1e-3)


def test_softmax_uniform_and_stability():
    out = nm.softmax(nm.Tensor([0.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-7)
    big = nm.softmax(nm.Tensor([1000.0, 0.0]))
    assert np.isfinite(big.data).all()
    np.testing.assert_allclose(big.data, [1.0, 0.0], atol=1e-6)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    x = nm.Tensor(rng.standard_normal((5, 8)))
    y = nm.softmax(x, axis=-1)
    np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(5), atol=1e-6)
    assert (y.data > 0).all()


def test_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        nm.softmax(nm.Tensor([np.nan, 0.0]))


def test_softmax_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(8)
    w = rng.standard_normal(8)

    def loss(params):
        return nm.reduce_sum(nm.mul(nm.softmax(params[0]), nm.Tensor(w)))

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
            h = nm.gelu(nm.matmul(x, w))
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
        g = nm.gelu(p)
        return nm.add(
            nm.reduce_mean(nm.absolute(g)),
            nm.reduce_sum(nm.reduce_mean(g, axis=0)),
        )

    check_gradients(loss, [a, b, c], rel_tol=1e-3, rng=rng)


def test_transpose_reshape_gradcheck():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 4))

    def loss(params):
        t = nm.transpose(params[0], (1, 0, 2))
        r = nm.reshape(t, (3, 8))
        return nm.reduce_sum(nm.mul(r, r))

    check_gradients(loss, [x], rel_tol=1e-3)


def test_log_and_log_softmax_agree():
    rng = np.random.default_rng(9)
    z = rng.standard_normal(6)
    p = nm.softmax(nm.Tensor(z))
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
        h = nm.gelu(nm.add(nm.matmul(nm.Tensor(x), params[0]), params[1]))
        out = nm.add(nm.matmul(h, params[2]), params[3])
        return nm.reduce_mean(nm.mul(out, out))

    worst = check_gradients(loss, [w1, b1, w2, b2], rel_tol=1e-5, dtype=np.float64)
    assert worst <= 1e-5


def test_batched_matmul_gradcheck():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((2, 4, 3))

    def loss(params):
        prod = nm.matmul(params[0], params[1])
        return nm.reduce_sum(nm.mul(prod, prod))

    check_gradients(loss, [a, b], rel_tol=1e-3)


def _reference_attention(q, k, v, s):
    """The unfused chain that `attend` replaces, kept as its reference."""
    swap_last = tuple(range(q.ndim - 2)) + (q.ndim - 1, q.ndim - 2)
    scores = nm.scale(nm.matmul(q, nm.transpose(k, swap_last)), s)
    return nm.matmul(nm.softmax(scores, axis=-1), v)


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
    """Output and input gradients of sum(fn(*inputs) * weight), in float32."""
    inputs = [nm.Tensor(a, requires_grad=True) for a in arrays]
    with nm.Tape() as tape:
        out = fn(*inputs)
        loss = nm.reduce_sum(nm.mul(out, nm.Tensor(weight)))
    nm.backward(loss, tape)
    return out.data, [t.grad for t in inputs]


def _attention_inputs(rng, lead, n, head_dim):
    """q, k and v as layers.attention passes them: a 4-D input is a
    strided head-split view of a (batch, n, heads, head_dim) array."""
    if len(lead) == 2:
        b, heads = lead
        return tuple(
            rng.standard_normal((b, n, heads, head_dim)).astype(np.float32).transpose(0, 2, 1, 3)
            for _ in range(3)
        )
    return tuple(rng.standard_normal((*lead, n, head_dim)).astype(np.float32) for _ in range(3))


# attend works through blocks of (n, n) float32 slices of at most 512 KiB:
# n = 24 fits in one block; (8, 2, 256, hd) is the decoder's shape, 8
# blocks of 2 slices; 5 slices at n = 256 end in a ragged block of one;
# one slice at n = 384 alone is over the budget
@pytest.mark.parametrize("lead, n", [
    ((3,), 24), ((2, 3), 24), ((), 24), ((8, 2), 256), ((5,), 256), ((3,), 384),
], ids=["3d", "4d", "2d", "decoder", "ragged", "oversize"])
@pytest.mark.parametrize("head_dim", [16, 32])
def test_attend_matches_reference_chain_bitwise(lead, n, head_dim):
    rng = np.random.default_rng(12)
    q, k, v = _attention_inputs(rng, lead, n, head_dim)
    weight = rng.standard_normal((*lead, n, head_dim)).astype(np.float32)
    s = 1.0 / math.sqrt(head_dim)  # 0.25 for head_dim 16
    fused, fused_grads = _grads_of(lambda *t: nm.attend(*t, s), [q, k, v], weight)
    ref, ref_grads = _grads_of(lambda *t: _reference_attention(*t, s), [q, k, v], weight)
    assert fused.dtype == np.float32
    assert np.array_equal(fused, ref)
    for got, want in zip(fused_grads, ref_grads):
        assert np.array_equal(got, want)


def test_attend_gradcheck_float64():
    rng = np.random.default_rng(13)
    q, k = rng.standard_normal((2, 5, 4)), rng.standard_normal((2, 6, 4))
    v = rng.standard_normal((2, 6, 3))
    w = rng.standard_normal((2, 5, 3))

    def loss(params):
        out = nm.attend(params[0], params[1], params[2], 0.5)
        return nm.reduce_sum(nm.mul(out, nm.Tensor(w)))

    check_gradients(loss, [q, k, v], rel_tol=1e-5, dtype=np.float64)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_attend_rejects_non_finite_scores(bad):
    q = np.zeros((1, 3, 4), dtype=np.float32)
    q[0, 1, 2] = bad
    k = np.ones((1, 3, 4), dtype=np.float32)
    # numpy's matmul flags an invalid value for an infinite operand even
    # where the product is just +/-inf; the check on the scores is under test
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="attend"):
        nm.attend(nm.Tensor(q), nm.Tensor(k), nm.Tensor(k), 0.5)


def test_attend_non_finite_in_last_block_records_nothing():
    rng = np.random.default_rng(17)
    q, k, v = (rng.standard_normal((5, 256, 16)).astype(np.float32) for _ in range(3))
    q[4, 100, 3] = np.nan  # slice 4 is the third block, after two clean ones
    with nm.Tape() as tape:
        with pytest.raises(NumericError, match="attend"):
            nm.attend(*(nm.Tensor(a, requires_grad=True) for a in (q, k, v)), 0.25)
    assert len(tape) == 0


@pytest.mark.parametrize("q_shape, k_shape, v_shape", [
    ((2, 4, 8), (2, 4, 6), (2, 4, 8)),  # head dims of q and k differ
    ((2, 4, 8), (2, 5, 8), (2, 4, 8)),  # k and v sequence lengths differ
    ((2, 4, 8), (3, 4, 8), (3, 4, 8)),  # leading dims differ
    ((2, 4, 8), (4, 8), (4, 8)),  # ranks differ
    ((8,), (8,), (8,)),  # not a matrix
])
def test_attend_shape_errors(q_shape, k_shape, v_shape):
    q, k, v = (nm.Tensor(np.zeros(shape)) for shape in (q_shape, k_shape, v_shape))
    with pytest.raises(ShapeError):
        nm.attend(q, k, v, 1.0)


def test_gelu_matches_reference_bitwise():
    rng = np.random.default_rng(14)
    x = (rng.standard_normal((4, 16, 32)) * 3.0).astype(np.float32)
    weight = rng.standard_normal(x.shape).astype(np.float32)
    out, (grad,) = _grads_of(nm.gelu, [x], weight)
    ref_out, (ref_grad,) = _grads_of(_reference_gelu, [x], weight)
    assert np.array_equal(out, ref_out)
    assert np.array_equal(grad, ref_grad)


def test_backward_never_writes_into_shared_upstream_gradient():
    # add() hands one gradient array to both of its inputs. The leaves t1
    # and t2 hold that very array until backward ends, so any write into
    # it by gelu's or attend's backward would corrupt their gradients.
    rng = np.random.default_rng(15)
    shape = (2, 6, 4)
    x, q, k, v, t1, t2 = (rng.standard_normal(shape).astype(np.float32) for _ in range(6))
    weight = rng.standard_normal(shape).astype(np.float32)

    def graph(gelu_fn, attend_fn):
        return lambda x, q, k, v, t1, t2: nm.add(
            nm.add(gelu_fn(x), t1), nm.add(attend_fn(q, k, v, 0.5), t2)
        )

    _, grads = _grads_of(graph(nm.gelu, nm.attend), [x, q, k, v, t1, t2], weight)
    _, ref_grads = _grads_of(graph(_reference_gelu, _reference_attention),
                             [x, q, k, v, t1, t2], weight)
    for got, want in zip(grads, ref_grads):
        assert np.array_equal(got, want)
    assert np.array_equal(grads[4], weight)
    assert np.array_equal(grads[5], weight)


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
    """One call of every public kernel in numerics.ops, on tracked inputs."""
    def t(*shape):
        return nm.Tensor(rng.uniform(0.5, 1.5, shape).astype(np.float32), requires_grad=True)

    return {
        "add": lambda: [nm.add(t(2, 3), t(3))],
        "sub": lambda: [nm.sub(t(2, 3), t(3))],
        "mul": lambda: [nm.mul(t(2, 3), t(2, 3))],
        "scale": lambda: [nm.scale(t(2, 3), 2.0)],
        "matmul": lambda: [nm.matmul(t(2, 3, 4), t(4, 5)), nm.matmul(t(2, 3, 4), t(2, 4, 5))],
        "softmax": lambda: [nm.softmax(t(2, 3))],
        "attend": lambda: [nm.attend(t(2, 3, 4), t(2, 5, 4), t(2, 5, 6), 0.5)],
        "log_softmax": lambda: [nm.log_softmax(t(2, 3))],
        "layer_norm": lambda: [nm.layer_norm(t(2, 3), t(3), t(3))],
        "gelu": lambda: [nm.gelu(t(2, 3))],
        "log": lambda: [nm.log(t(2, 3))],
        "absolute": lambda: [nm.absolute(t(2, 3))],
        "reduce_sum": lambda: [nm.reduce_sum(t(2, 3)), nm.reduce_sum(t(2, 3), axis=0)],
        "reduce_mean": lambda: [nm.reduce_mean(t(2, 3)), nm.reduce_mean(t(2, 3), axis=-1)],
        "reshape": lambda: [nm.reshape(t(2, 3), (3, 2))],
        "transpose": lambda: [nm.transpose(t(2, 3, 4), (2, 0, 1))],
        "concat_rows": lambda: [nm.concat_rows([t(2, 3), t(1, 3)])],
        "gather_rows_batched": lambda: [nm.gather_rows_batched(t(2, 4, 3), [[0, 1], [3, 3]])],
        "stop_gradient": lambda: [nm.stop_gradient(t(2, 3))],
        "constant": lambda: [nm.constant(np.ones(3))],
    }


def test_no_backward_closure_holds_a_tensor():
    calls = _kernel_calls(np.random.default_rng(19))
    kernels = {name for name, fn in inspect.getmembers(nm.ops, inspect.isfunction)
               if fn.__module__ == nm.ops.__name__ and not name.startswith("_")}
    assert kernels == set(calls)
    with nm.Tape() as tape:
        for call in calls.values():
            call()
    assert len(tape) == 21  # every call but stop_gradient's and constant's
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
            h = nm.matmul(x, w)  # the bias add reads only its shape
            y = nm.add(h, bias)
            res = nm.add(x, y)  # layer_norm reads xhat, not its input
            out = nm.layer_norm(res, gain, shift)
            loss = nm.reduce_sum(nm.mul(out, out))
        refs = [weakref.ref(h.data), weakref.ref(res.data)]
        held = (h, res) if keep else ()
        del h, y, res, out
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
