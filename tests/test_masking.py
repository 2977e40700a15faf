import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selectmae import numerics as nm
from selectmae.errors import ConfigError, ContractError
from selectmae.masking import (
    STRATEGIES,
    MaskSpec,
    SelectionParams,
    baseline_mask,
    sample_visible,
    select_probabilities,
    visible_count,
)
from selectmae.tokenizer import positional_encoding

from testkit import check_param_gradients


def test_visible_count_arithmetic():
    assert visible_count(256, 0.95) == 13  # 256 - round(243.2)
    assert visible_count(256, 0.5) == 128
    assert visible_count(10, 0.99) == 1  # floor of one visible token
    with pytest.raises(ConfigError):
        visible_count(256, 1.0)
    with pytest.raises(ConfigError):
        visible_count(256, 0.0)


def test_mask_spec_partition_validation():
    # the masked ids are the complement of the visible ones, in order
    spec = MaskSpec(8, 0.5, np.array([0, 2, 4, 6]))
    np.testing.assert_array_equal(spec.masked_ids, [1, 3, 5, 7])
    assert spec.masked_ids.dtype == np.int64
    faults = [
        (8, [], "at least one visible token"),
        (8, [2, 1], "visible ids must be sorted and unique"),
        (8, [0, 0, 1, 2], "visible ids must be sorted and unique"),
        # an order fault is named before an id outside 0..N-1
        (4, [9, 0], "visible ids must be sorted and unique"),
        (8, [0, 9], "token id outside 0..N-1"),
        (4, [-1, 0], "token id outside 0..N-1"),
        (4, [0, 4], "token id outside 0..N-1"),
    ]
    for n, vis, message in faults:
        with pytest.raises(ConfigError, match=message):
            MaskSpec(n, 0.5, np.array(vis, dtype=np.int64))


def test_mask_spec_full():
    spec = MaskSpec(16, 0.0, np.arange(16))  # the downstream path: nothing masked
    assert spec.visible_ids.size == 16 and spec.masked_ids.size == 0


def test_identical_tokens_give_uniform_probabilities():
    rng = np.random.default_rng(0)
    params = SelectionParams(rng, dim=16, heads=2)
    tokens = nm.Tensor(np.tile(rng.standard_normal(16).astype(np.float32), (1, 10, 1)))
    log_probs = select_probabilities(tokens, params)
    np.testing.assert_allclose(log_probs.data, np.full((1, 10), np.log(0.1)), atol=1e-6)


def test_probabilities_sum_to_one_and_positive():
    rng = np.random.default_rng(1)
    params = SelectionParams(rng, dim=16, heads=2)
    tokens = nm.Tensor(rng.standard_normal((1, 32, 16)).astype(np.float32))
    log_probs = select_probabilities(tokens, params).data
    assert log_probs.shape == (1, 32) and np.isfinite(log_probs).all()
    assert abs(np.exp(log_probs.astype(np.float64)).sum() - 1.0) < 1e-6
    with pytest.raises(ContractError, match="stack"):
        select_probabilities(nm.Tensor(tokens.data[0]), params)  # one clip is a batch of one


def test_selection_permutation_equivariance():
    rng = np.random.default_rng(2)
    params = SelectionParams(rng, dim=16, heads=2)
    base = rng.standard_normal((12, 16)).astype(np.float32)
    tokens = base + positional_encoding(12, 16)
    perm = rng.permutation(12)
    p_base = np.exp(select_probabilities(nm.Tensor(tokens[None]), params).data[0])
    p_perm = np.exp(select_probabilities(nm.Tensor(tokens[None, perm]), params).data[0])
    np.testing.assert_allclose(p_perm, p_base[perm], atol=1e-5)


def test_selection_gradcheck_all_parameters():
    # sum(c_i * log P_i): the weighted form the selection loss uses; the
    # unweighted sum has an identically vanishing gradient at uniform P.
    # Parameters are re-randomized to a generic point: at the tiny training
    # init the attention path is numerically degenerate for checking.
    rng = np.random.default_rng(3)
    tokens = rng.standard_normal((6, 8)).astype(np.float32)
    weights = rng.random(6).astype(np.float32) + 0.5
    params = SelectionParams(np.random.default_rng(4), dim=8, heads=2)
    for t in params.named().values():
        t.data = (rng.standard_normal(t.shape) * 0.4).astype(np.float32)

    def loss():
        log_probs = select_probabilities(nm.Tensor(tokens[None]), params)
        return nm.reduce_sum(nm.mul(log_probs, nm.Tensor(weights)))

    check_param_gradients(loss, params.named(), rel_tol=1e-3, max_entries=6)


def test_sample_visible_counts_and_determinism():
    log_probs = np.full(256, -np.log(256))
    spec1 = sample_visible(log_probs, 0.95, np.random.default_rng(7))
    spec2 = sample_visible(log_probs, 0.95, np.random.default_rng(7))
    assert spec1.visible_ids.size == 13
    np.testing.assert_array_equal(spec1.visible_ids, spec2.visible_ids)
    with pytest.raises(ConfigError):
        sample_visible(log_probs, 1.2, np.random.default_rng(0))
    with pytest.raises(ContractError, match="one clip"):
        sample_visible(log_probs[None], 0.95, np.random.default_rng(0))


def test_sample_visible_uniform_inclusion_statistics():
    n, draws = 64, 20000
    log_probs = np.full(n, -np.log(n))
    rng = np.random.default_rng(11)
    counts = np.zeros(n)
    for _ in range(draws):
        counts[sample_visible(log_probs, 0.9, rng).visible_ids] += 1
    m = visible_count(n, 0.9)
    p = m / n
    sigma = np.sqrt(p * (1 - p) / draws)
    z = np.abs(counts / draws - p) / sigma
    assert z.max() <= 3.0, f"max z={z.max():.2f}"


def test_sample_visible_matches_sequential_draws_without_replacement():
    # Gumbel top-M (Kool et al. 2019) against the exact law of drawing M
    # distinct tokens one at a time, renormalizing after each draw: every
    # visible set's frequency over 20k draws lies within 4 standard errors
    # sqrt(P(1-P)/draws) of its enumerated probability
    probs = np.array([0.05, 0.1, 0.2, 0.3, 0.35])
    ratio, draws = 0.6, 20000
    m = visible_count(probs.size, ratio)
    assert m == 2
    exact = {}
    for order in itertools.permutations(range(probs.size), m):
        mass, left = 1.0, 1.0
        for i in order:
            mass *= probs[i] / left
            left -= probs[i]
        key = tuple(sorted(order))
        exact[key] = exact.get(key, 0.0) + mass
    assert sum(exact.values()) == pytest.approx(1.0)
    rng = np.random.default_rng(13)
    counts = dict.fromkeys(exact, 0)
    for _ in range(draws):
        counts[tuple(sample_visible(np.log(probs), ratio, rng).visible_ids.tolist())] += 1
    for key, p in exact.items():
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(counts[key] / draws - p) <= 4 * sigma, (key, counts[key] / draws, p)


def test_sample_visible_concentrated_mass():
    n = 256
    probs = np.full(n, 0.1 / (n - 1))
    probs[17] = 0.9
    rng = np.random.default_rng(5)
    hits = sum(17 in sample_visible(np.log(probs), 0.95, rng).visible_ids for _ in range(2000))
    assert hits >= 0.99 * 2000


def test_sample_visible_keeps_the_order_of_underflowing_tokens():
    # 3 logits at 0, 6 at -200 and 7 at -400: every probability but the
    # first three underflows to 0 in float32 (and -400's in float64), yet
    # the 8 visible tokens are the first three and 5 of the -200 ones
    logits = np.repeat(np.array([0.0, -200.0, -400.0], dtype=np.float32), [3, 6, 7])
    log_probs = nm.log_softmax(nm.Tensor(logits[None])).data[0]
    assert (np.exp(log_probs[3:]) == 0).all()
    rng = np.random.default_rng(8)
    for _ in range(200):
        visible = sample_visible(log_probs, 0.5, rng).visible_ids
        assert visible.size == 8
        assert (visible[:3] == [0, 1, 2]).all() and (visible[3:] < 9).all()


def test_sample_visible_monotone_in_probability():
    n = 32
    probs = np.linspace(1.0, 3.0, n)
    probs = probs / probs.sum()
    rng = np.random.default_rng(6)
    counts = np.zeros(n)
    draws = 10000
    for _ in range(draws):
        counts[sample_visible(np.log(probs), 0.75, rng).visible_ids] += 1
    freq = counts / draws
    # inclusion frequency ordering should follow probability ordering within 3 sigma
    sigma = np.sqrt(freq * (1 - freq) / draws + 1e-12)
    for a in range(0, n - 8, 4):
        b = a + 8
        assert freq[b] - freq[a] >= -3 * (sigma[a] + sigma[b])


@pytest.mark.parametrize("strategy", ["random", "tube", "frame"])
@pytest.mark.parametrize("ratio", [0.5, 0.75])
def test_baseline_partition_invariants(strategy, ratio):
    grid = (4, 8, 8)
    spec = baseline_mask(strategy, grid, ratio, np.random.default_rng(1))
    spec.validate()
    assert spec.visible_ids.size + spec.masked_ids.size == 256


_ratios = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(strategy=st.sampled_from(STRATEGIES),
       grid=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
       ratio=_ratios, seed=st.integers(0, 2**32 - 1))
def test_mask_partition_property(strategy, grid, ratio, seed):
    nt, nh, nw = grid
    n = nt * nh * nw
    rng = np.random.default_rng(seed)
    if strategy == "adaptive":
        spec = sample_visible(np.log(rng.dirichlet(np.ones(n))), ratio, rng)
    else:
        try:
            spec = baseline_mask(strategy, grid, ratio, rng)
        except ConfigError:
            # only frame masking can refuse: it would keep no whole slice
            assert strategy == "frame" and (1.0 - ratio) * nt < 0.5
            return
    vis, msk = spec.visible_ids, spec.masked_ids
    assert spec.n_tokens == n and vis.size >= 1
    assert np.array_equal(np.sort(np.concatenate([vis, msk])), np.arange(n))
    assert (np.diff(vis) > 0).all() and (np.diff(msk) > 0).all()
    if strategy == "tube":
        expected = nt * visible_count(nh * nw, ratio)
    elif strategy == "frame":
        expected = math.floor((1.0 - ratio) * nt + 0.5) * nh * nw
    else:
        expected = visible_count(n, ratio)
    assert vis.size == expected


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 4096), r1=_ratios, r2=_ratios)
def test_visible_count_monotone_in_ratio(n, r1, r2):
    low, high = sorted((r1, r2))
    assert 1 <= visible_count(n, high) <= visible_count(n, low) <= n


def test_random_strategy_count():
    spec = baseline_mask("random", (4, 8, 8), 0.95, np.random.default_rng(2))
    assert spec.visible_ids.size == 13
    assert np.unique(spec.visible_ids).size == 13


def test_tube_strategy_shares_spatial_pattern():
    grid = (4, 8, 8)
    spec = baseline_mask("tube", grid, 0.9, np.random.default_rng(3))
    per_slice = [
        np.sort(spec.visible_ids[(spec.visible_ids >= t * 64) & (spec.visible_ids < (t + 1) * 64)]) % 64
        for t in range(4)
    ]
    for cells in per_slice[1:]:
        np.testing.assert_array_equal(cells, per_slice[0])


def test_frame_strategy_slice_arithmetic():
    grid = (4, 8, 8)
    spec = baseline_mask("frame", grid, 0.75, np.random.default_rng(4))
    slices = np.unique(spec.visible_ids // 64)
    assert slices.size == 1  # round(0.25 * 4) = 1 fully visible slice
    assert spec.visible_ids.size == 64
    with pytest.raises(ConfigError):
        baseline_mask("frame", grid, 0.95, np.random.default_rng(4))


def test_unknown_strategy_rejected():
    with pytest.raises(ConfigError):
        baseline_mask("blockwise", (4, 8, 8), 0.9, np.random.default_rng(0))
