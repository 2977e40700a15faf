import math

import numpy as np
import pytest

from selectmae import numerics as nm
from selectmae.errors import ConfigError, ContractError, FormatError, NumericError
from selectmae.numerics.optim import AdamW, cosine_warmup_lr

from testkit import assert_owned_by


def _param(value):
    return nm.Tensor(np.array(value, dtype=np.float32), requires_grad=True)


def test_zero_grad_zero_decay_leaves_params():
    p = _param([1.0, -2.0])
    opt = AdamW({"w": p}, lr=0.1, weight_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(p.data, np.array([1.0, -2.0], dtype=np.float32))


def test_first_step_is_minus_lr_for_unit_grad():
    # Hand-rolled: m_hat = v_hat = 1 after bias correction, so step = -lr/(1+eps).
    p = _param([0.0])
    opt = AdamW({"w": p}, lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
    p.grad[...] = 1.0
    opt.step()
    np.testing.assert_allclose(p.data, [-0.1], atol=1e-6)


def test_weight_decay_term_is_decoupled():
    # Same grad as above but wd=0.1 on w=1: extra -lr*0.1*1 on top of the Adam step.
    p_plain = _param([1.0])
    p_decay = _param([1.0])
    opt_plain = AdamW({"w": p_plain}, lr=0.1, weight_decay=0.0)
    opt_decay = AdamW({"w": p_decay}, lr=0.1, weight_decay=0.1)
    for p, opt in ((p_plain, opt_plain), (p_decay, opt_decay)):
        p.grad[...] = 1.0
        opt.step()
    np.testing.assert_allclose(p_decay.data, p_plain.data - 0.1 * 0.1 * 1.0, atol=1e-7)


def test_nan_gradient_names_parameter():
    p = _param([1.0])
    opt = AdamW({"enc.w0": p}, lr=0.1)
    p.grad[...] = np.nan
    with pytest.raises(NumericError, match="enc.w0"):
        opt.step()
    assert opt.step_count == 0


def test_invalid_lr_rejected():
    with pytest.raises(ConfigError):
        AdamW({"w": _param([0.0])}, lr=0.0)


def test_state_roundtrip():
    p = _param([1.0, 2.0])
    opt = AdamW({"w": p}, lr=0.01)
    for _ in range(3):
        p.grad[...] = [0.5, -0.5]
        opt.step()
    arrays = {k: v.copy() for k, v in opt.state_arrays().items()}
    other = AdamW({"w": _param([1.0, 2.0])}, lr=0.01)
    other.load_state_arrays(arrays)
    assert other.step_count == 3
    np.testing.assert_array_equal(other.m["w"], opt.m["w"])
    np.testing.assert_array_equal(other.v["w"], opt.v["w"])


def _reference_step(params, m, v, t, lr, betas, eps, weight_decay, max_norm=None):
    """AdamW one parameter at a time, clipping as `training` did before the
    flat buffers: the reference the flat step must match bit for bit."""
    beta1, beta2 = betas
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    if max_norm is not None:
        norm = math.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum())
                             for p in params.values()))
        if norm > max_norm:
            for p in params.values():
                p.grad *= max_norm / (norm + 1e-12)
    for name, p in params.items():
        g = p.grad
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        if weight_decay:
            update = update + weight_decay * p.data
        p.data = p.data - lr * update


def test_flat_step_matches_the_per_parameter_update_bitwise():
    for max_norm in (None, 1.0, 1e3):  # unclipped, clipped, a norm under the bound
        _check_against_reference(max_norm)


def _check_against_reference(max_norm):
    rng = np.random.default_rng(5)
    shapes = {"a": (30, 40), "b": (70,), "c": (4, 30, 2), "d": ()}
    start = {name: rng.standard_normal(shape).astype(np.float32) for name, shape in shapes.items()}
    flat = {name: _param(a.copy()) for name, a in start.items()}
    ref = {name: _param(a.copy()) for name, a in start.items()}
    m = {name: np.zeros_like(a) for name, a in start.items()}
    v = {name: np.zeros_like(a) for name, a in start.items()}
    opt = AdamW(flat, lr=0.01, betas=(0.9, 0.95), eps=1e-8, weight_decay=0.05)
    for t in range(1, 8):
        for name, shape in shapes.items():
            g = rng.standard_normal(shape).astype(np.float32)
            flat[name].grad[...] = g
            ref[name].grad = g.copy()
        lr = 0.01 * (1.0 - t / 10)
        opt.step(lr, max_norm=max_norm)
        opt.zero_grad()
        _reference_step(ref, m, v, t, lr, (0.9, 0.95), 1e-8, 0.05, max_norm)
        for name in shapes:
            assert np.array_equal(flat[name].data, ref[name].data), (max_norm, t, name)
            assert np.array_equal(opt.m[name], m[name]), (max_norm, t, name)
            assert np.array_equal(opt.v[name], v[name]), (max_norm, t, name)


def test_parameters_are_views_of_the_optimizer_buffers():
    params = {"a": _param([[1.0, 2.0], [3.0, 4.0]]), "b": _param([5.0])}
    opt = AdamW(params, lr=0.1)
    np.testing.assert_array_equal(params["a"].data, [[1.0, 2.0], [3.0, 4.0]])
    assert all(not p.grad.any() for p in params.values())
    assert_owned_by(opt)
    params["a"].grad[...] = 1.0
    params["b"].grad[...] = -1.0
    opt.step()
    assert_owned_by(opt)
    opt.zero_grad()
    assert all(not p.grad.any() for p in params.values())


def test_params_of_mixed_dtypes_are_refused():
    with pytest.raises(ContractError, match="one dtype"):
        AdamW({"a": _param([1.0]), "b": nm.Tensor(np.zeros(1), requires_grad=True, dtype=np.float64)})


def test_stored_moment_of_another_shape_is_a_format_error():
    opt = AdamW({"w": _param([1.0, 2.0])}, lr=0.01)
    arrays = opt.state_arrays()
    arrays["opt.v.w"] = np.zeros(3, dtype=np.float32)
    with pytest.raises(FormatError, match="opt.v.w"):
        AdamW({"w": _param([1.0, 2.0])}, lr=0.01).load_state_arrays(arrays)


def test_cosine_schedule_endpoints():
    total, warmup = 100, 10
    lrs = [cosine_warmup_lr(s, total, 1e-3, min_lr=1e-5, warmup_steps=warmup) for s in range(total)]
    assert lrs[warmup] == pytest.approx(1e-3)
    assert lrs[-1] == pytest.approx(1e-5)
    assert lrs[0] == pytest.approx(1e-4)
    # monotone decay after warmup
    assert all(a >= b for a, b in zip(lrs[warmup:], lrs[warmup + 1:]))
