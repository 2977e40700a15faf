import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from selectmae import numerics as nm
from selectmae.data import (
    SynthConfig,
    denormalize_targets,
    patch_normalize_targets,
)
from selectmae.errors import ConfigError, ContractError
from selectmae.tokenizer import (
    detokenize_patches,
    foreground_token_ids,
    patch_len,
    positional_encoding,
    tokenize,
    unfold_clip,
)

from testkit import cell_token, check_gradients, generate_clip


def _random_params(tubelet, dim, rng, channels=3):
    w = nm.Tensor(rng.standard_normal((patch_len(tubelet, channels), dim)).astype(np.float32) * 0.1,
                  requires_grad=True)
    b = nm.Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)
    return w, b


def test_token_count_arithmetic():
    tubelet = (2, 4, 4)
    clip = generate_clip(SynthConfig(), 0, 0)
    w, b = _random_params(tubelet, 64, np.random.default_rng(0))
    tokens = tokenize(clip.frames[None], tubelet, w, b)
    assert tokens.shape == (1, 4 * 8 * 8, 64)
    with pytest.raises(ContractError, match="stack"):
        tokenize(clip.frames, tubelet, w, b)  # one clip is a batch of one


def test_divisibility_error_names_axis():
    tubelet = (3, 4, 4)
    clip = generate_clip(SynthConfig(), 0, 0)  # T=8 not divisible by 3
    w, b = _random_params(tubelet, 64, np.random.default_rng(0))
    with pytest.raises(ConfigError, match="axis T"):
        tokenize(clip.frames[None], tubelet, w, b)


def test_identity_projection_recovers_first_tubelet():
    rng = np.random.default_rng(1)
    frames = rng.random((4, 3, 8, 8)).astype(np.float32)
    w = nm.Tensor(np.eye(96, dtype=np.float32))
    b = nm.Tensor(np.zeros(96, dtype=np.float32))
    tokens = tokenize(frames[None], (2, 4, 4), w, b)
    first = frames[0:2, :, 0:4, 0:4].transpose(0, 1, 2, 3).reshape(-1)
    # token 0's positional row is (sin 0, cos 0) = (0, 1) repeated
    np.testing.assert_allclose(tokens.data[0, 0] - positional_encoding(4, 96)[0], first,
                               atol=1e-6)


def test_equivalence_with_explicit_3d_convolution():
    rng = np.random.default_rng(2)
    frames = rng.random((4, 3, 8, 12)).astype(np.float32)
    w_np = rng.standard_normal((patch_len((2, 4, 4)), 10)).astype(np.float32)
    b_np = rng.standard_normal(10).astype(np.float32)
    tokens = tokenize(frames[None], (2, 4, 4), nm.Tensor(w_np), nm.Tensor(b_np))

    # brute-force convolution with kernel = stride = tubelet
    kernel = w_np.T.reshape(10, 2, 3, 4, 4)  # (out, t, c, h, w)
    nt, nh, nw = 2, 2, 3
    expected = np.zeros((nt * nh * nw, 10), dtype=np.float64)
    idx = 0
    for t in range(nt):
        for h in range(nh):
            for w in range(nw):
                block = frames[t * 2:(t + 1) * 2, :, h * 4:(h + 1) * 4, w * 4:(w + 1) * 4]
                block = block.transpose(0, 1, 2, 3)  # (t, c, h, w) to match kernel
                for o in range(10):
                    expected[idx, o] = np.sum(block * kernel[o]) + b_np[o]
                idx += 1
    expected += positional_encoding(nt * nh * nw, 10)
    np.testing.assert_allclose(tokens.data[0], expected, rtol=1e-5, atol=1e-5)


def test_positional_encoding_first_row_and_range():
    table = positional_encoding(16, 8)
    np.testing.assert_allclose(table[0], [0, 1, 0, 1, 0, 1, 0, 1], atol=1e-7)
    assert table.min() >= -1.0 and table.max() <= 1.0


def test_positional_encoding_rows_distinct():
    table = positional_encoding(4096, 8).astype(np.float64)
    # exhaustive pairwise distinctness via lexicographic sort of rows
    order = np.lexsort(table.T[::-1])
    sorted_rows = table[order]
    adjacent_equal = np.all(sorted_rows[1:] == sorted_rows[:-1], axis=1)
    assert not adjacent_equal.any()


_small_dims = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))


@settings(max_examples=30, deadline=None)
@given(grid=_small_dims, tubelet=_small_dims, channels=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_unfold_fold_roundtrip_property(grid, tubelet, channels, seed):
    rng = np.random.default_rng(seed)
    shape = (grid[0] * tubelet[0], channels, grid[1] * tubelet[1], grid[2] * tubelet[2])
    frames = rng.standard_normal(shape).astype(np.float32)
    patches = unfold_clip(frames, tubelet)
    order = rng.permutation(patches.shape[0])  # rows in any order, each with its id
    folded, covered = detokenize_patches(patches[order], order, shape, tubelet)
    assert np.array_equal(folded, frames)
    assert covered.all()
    # a stack unfolds clip by clip: pure data movement
    stack = np.stack([frames, -frames])
    assert np.array_equal(unfold_clip(stack, tubelet), np.stack([patches, -patches]))


@settings(max_examples=50, deadline=None)
@given(grid=_small_dims, tubelet=_small_dims, channels=st.integers(1, 3), data=st.data())
def test_a_single_token_row_lands_in_its_cell(grid, tubelet, channels, data):
    cell = tuple(data.draw(st.integers(0, d - 1)) for d in grid)
    shape = (grid[0] * tubelet[0], channels, grid[1] * tubelet[1], grid[2] * tubelet[2])
    row = np.arange(1, patch_len(tubelet, channels) + 1, dtype=np.float32)
    token_id = cell_token(cell, grid)
    frames, covered = detokenize_patches(row[None], [token_id], shape, tubelet)
    assert np.flatnonzero(covered).tolist() == [token_id]
    (t, h, w), (tp, hp, wp) = cell, tubelet
    block = frames[t * tp:(t + 1) * tp, :, h * hp:(h + 1) * hp, w * wp:(w + 1) * wp]
    assert np.array_equal(block.reshape(-1), row)  # in (t, channel, row, col) order
    block[...] = 0.0
    assert not frames.any()  # and nowhere else


def test_tokenize_is_linear_without_pe():
    rng = np.random.default_rng(3)
    x = rng.random((2, 3, 4, 8)).astype(np.float32)
    y = rng.random((2, 3, 4, 8)).astype(np.float32)
    w, b = _random_params((2, 4, 4), 8, rng)
    b.data = rng.standard_normal(8).astype(np.float32)
    pe = positional_encoding(2, 8)

    tok = lambda f: tokenize(f[None], (2, 4, 4), w, b).data - pe
    lhs = tok(2.0 * x + 0.5 * y)
    rhs = 2.0 * tok(x) + 0.5 * tok(y) - 1.5 * b.data  # bias enters each tokenize once
    np.testing.assert_allclose(lhs, rhs, rtol=1e-4, atol=1e-5)


def test_tokenize_gradcheck_wrt_projection():
    rng = np.random.default_rng(4)
    frames = rng.random((2, 3, 4, 4)).astype(np.float64)
    w0 = rng.standard_normal((patch_len((2, 2, 2)), 6)) * 0.2
    b0 = rng.standard_normal(6) * 0.1

    def loss(params):
        tokens = tokenize(frames[None], (2, 2, 2), params[0], params[1])
        return nm.reduce_mean(nm.mul(tokens, tokens))

    check_gradients(loss, [w0, b0], rel_tol=1e-3)


def test_detokenize_full_roundtrip():
    clip = generate_clip(SynthConfig(), 5, 9)
    patches = unfold_clip(clip.frames, (2, 4, 4))
    frames, covered = detokenize_patches(
        patches, np.arange(patches.shape[0]), clip.frames.shape, (2, 4, 4)
    )
    assert covered.all()
    np.testing.assert_array_equal(frames, clip.frames)


def test_detokenize_single_token_touches_one_cell():
    shape = (8, 3, 32, 32)
    values = np.ones((1, patch_len((2, 4, 4))), dtype=np.float32)
    frames, covered = detokenize_patches(values, [0], shape, (2, 4, 4))
    assert covered.sum() == 1
    assert frames[0:2, :, 0:4, 0:4].min() == 1.0
    frames[0:2, :, 0:4, 0:4] = 0.0
    assert frames.max() == 0.0


def test_detokenize_denormalizes_with_stats():
    clip = generate_clip(SynthConfig(), 2, 3)
    rows = unfold_clip(clip.frames, (2, 4, 4))
    ids = np.random.default_rng(0).permutation(rows.shape[0])
    values = denormalize_targets(patch_normalize_targets(rows[ids]), rows[ids])
    frames, _ = detokenize_patches(values, ids, clip.frames.shape, (2, 4, 4))
    np.testing.assert_allclose(frames, clip.frames, atol=1e-5)


def test_detokenize_rejects_bad_ids():
    tubelet = (2, 4, 4)
    values = np.zeros((1, patch_len(tubelet)), dtype=np.float32)
    with pytest.raises(IndexError):
        detokenize_patches(values, [256], (8, 3, 32, 32), tubelet)
    with pytest.raises(IndexError):
        detokenize_patches(values, [-1], (8, 3, 32, 32), tubelet)
    with pytest.raises(ContractError):  # one row for two ids
        detokenize_patches(values, [0, 1], (8, 3, 32, 32), tubelet)
    with pytest.raises(ConfigError, match="axis H"):  # no grid of whole tubelets
        detokenize_patches(values, [0], (8, 3, 30, 32), tubelet)


def test_config_validation():
    """The tokenizer checks its inputs where it uses them: an odd token
    width has no sinusoidal pairs, and the projection must take rows of
    the tubelet's patch length. The config keys themselves are the
    backbone's (`test_backbone_config_validation`)."""
    with pytest.raises(ConfigError, match="even"):
        positional_encoding(4, 63)
    rng = np.random.default_rng(5)
    w, b = _random_params((2, 4, 4), 64, rng)
    frames = rng.random((1, 4, 3, 8, 8)).astype(np.float32)
    with pytest.raises(ContractError, match="projection weight"):
        tokenize(frames, (2, 2, 2), w, b)


@st.composite
def _masks_and_tubelets(draw):
    """A (T, H, W) boolean mask of 1-4 tubelets of 1-3 pixels per axis:
    random, empty or full."""
    tubelet = tuple(draw(st.integers(1, 3)) for _ in range(3))
    shape = tuple(p * draw(st.integers(1, 4)) for p in tubelet)
    fill = draw(st.sampled_from(["random", "empty", "full"]))
    if fill == "random":
        return draw(hnp.arrays(np.bool_, shape)), tubelet
    return np.full(shape, fill == "full"), tubelet


@settings(max_examples=200, deadline=None)
@given(_masks_and_tubelets())
def test_foreground_token_ids_are_the_tokens_whose_patch_row_holds_a_true_pixel(case):
    mask, tubelet = case
    ids = foreground_token_ids(mask, tubelet)
    reference = np.flatnonzero(unfold_clip(mask[:, None], tubelet).any(axis=1))
    assert ids.dtype == reference.dtype and np.array_equal(ids, reference)
