import json
import math
import platform
import sys
import threading
import time

import numpy as np
import pytest

from selectmae import numerics as nm
from selectmae import training
from selectmae.backbone import BackboneConfig, ModelParams, decode, encode
from selectmae.data import (
    SynthConfig,
    generate_clip_with_mask,
    generate_corpus,
    patch_normalize_targets,
)
from selectmae.errors import ConfigError, ContractError, FormatError, NumericError, ShapeError
from selectmae.masking import (
    STRATEGIES,
    MaskSpec,
    SelectionParams,
    baseline_mask,
    sample_visible,
    select_probabilities,
)
from selectmae.numerics import AdamW, halves
from selectmae.tokenizer import embed_patches, grid_dims, patch_len, unfold_clip
from selectmae.training import (
    PretrainConfig,
    PretrainRun,
    array_to_config,
    assign_named,
    config_to_array,
    load_checkpoint,
    masked_forward,
    pretrain_run,
    pretrain_step,
    reconstruction_loss,
    save_checkpoint,
    selection_loss,
)

from testkit import assert_owned_by, tape_held_bytes

BB = BackboneConfig(enc_depth=1, enc_dim=16, enc_heads=2, dec_depth=1, dec_dim=8, dec_heads=2)
SYNTH = SynthConfig(frames=4, height=16, width=16, num_phases=4)


def test_reconstruction_loss_perfect_prediction():
    target_rows = np.zeros((1, 2, 3), dtype=np.float32)
    preds = nm.Tensor(np.zeros((1, 2, 3), dtype=np.float32))
    loss, per_token = reconstruction_loss(preds, target_rows)
    assert loss.item() == 0.0
    np.testing.assert_array_equal(per_token.data, [[0.0, 0.0]])


def test_reconstruction_loss_hand_case():
    # two masked tokens, patch length 2: preds [[1,1],[0,0]] vs zeros
    target_rows = np.zeros((1, 2, 2), dtype=np.float32)
    preds = nm.Tensor(np.array([[[1.0, 1.0], [0.0, 0.0]]], dtype=np.float32))
    loss, per_token = reconstruction_loss(preds, target_rows)
    np.testing.assert_allclose(per_token.data, [[1.0, 0.0]])
    assert loss.item() == pytest.approx(0.5)


def test_reconstruction_loss_l1_constant_deviation():
    target_rows = np.zeros((1, 2, 6), dtype=np.float32)
    preds = nm.Tensor(np.full((1, 2, 6), 0.5, dtype=np.float32))
    loss, _ = reconstruction_loss(preds, target_rows, kind="l1")
    assert loss.item() == pytest.approx(0.5)


def test_reconstruction_loss_shape_mismatch():
    target_rows = np.zeros((1, 2, 3), dtype=np.float32)
    with pytest.raises(ContractError):
        reconstruction_loss(nm.Tensor(np.zeros((1, 3, 3), dtype=np.float32)), target_rows)


def test_selection_loss_hand_value():
    # N=2, one masked token (index 1), P = [0.5, 0.5], error 2
    logits = nm.Tensor(np.zeros((1, 2), dtype=np.float32))
    errors = nm.Tensor(np.array([[2.0]], dtype=np.float32))
    loss = selection_loss(nm.log_softmax(logits), errors, [[1]])
    assert loss.item() == pytest.approx(-np.log(0.5) * 2.0, abs=1e-6)
    assert loss.item() == pytest.approx(1.3863, abs=1e-4)


def test_selection_loss_zero_errors_zero_gradient():
    logits = nm.Tensor(np.array([[0.3, -0.2, 0.1]], dtype=np.float32), requires_grad=True)
    with nm.Tape() as tape:
        spec = MaskSpec(3, 0.67, np.array([0]))
        loss = selection_loss(nm.log_softmax(logits), nm.Tensor(np.zeros((1, 2), dtype=np.float32)),
                              spec.masked_ids[None])
    assert loss.item() == 0.0
    nm.backward(loss, tape)
    np.testing.assert_array_equal(logits.grad, np.zeros((1, 3), dtype=np.float32))


def test_selection_loss_gradient_sign_and_sum():
    # gradient pushes probability toward the high-error masked token and
    # softmax logit gradients sum to zero
    rng = np.random.default_rng(0)
    logits = nm.Tensor(rng.standard_normal((1, 6)).astype(np.float32), requires_grad=True)
    spec = MaskSpec(6, 0.83, np.array([int(rng.integers(6))]))  # 1 visible, 5 masked
    masked = spec.masked_ids
    errors = np.zeros((1, spec.n_masked), dtype=np.float32)
    hot = 2  # one masked token with high error
    errors[0, hot] = 3.0
    with nm.Tape() as tape:
        log_probs = nm.log_softmax(logits)
        loss = selection_loss(log_probs, nm.Tensor(errors), masked[None])
    nm.backward(loss, tape)
    g = logits.grad[0].astype(np.float64)
    assert g[masked[hot]] < 0  # probability of the hot token pushed up
    assert abs(g.sum()) < 1e-6
    # analytic softmax-gradient oracle: d/dz_l = -(c/|I_m|) * (delta - P_l)
    p = np.exp(log_probs.data[0].astype(np.float64))
    expected = (3.0 / spec.n_masked) * p
    expected[masked[hot]] -= 3.0 / spec.n_masked
    np.testing.assert_allclose(g, expected, atol=1e-6)


def test_selection_loss_rejects_attached_errors():
    logits = nm.Tensor(np.zeros((1, 2), dtype=np.float32), requires_grad=True)
    with nm.Tape() as tape:
        attached = nm.scale(nm.Tensor(np.ones((1, 1), dtype=np.float32), requires_grad=True), 2.0)
        with pytest.raises(ContractError):
            selection_loss(nm.log_softmax(logits), attached, [[1]])


def test_selection_loss_shape_mismatch():
    log_probs = nm.Tensor(np.zeros((2, 4), dtype=np.float32))
    masked_ids = [[0, 1, 2], [1, 2, 3]]
    with pytest.raises(ShapeError):  # two errors per clip for three masked ids
        selection_loss(log_probs, nm.Tensor(np.ones((2, 2), dtype=np.float32)), masked_ids)
    with pytest.raises(ShapeError):  # log-probabilities for one clip, errors for two
        selection_loss(nm.Tensor(np.zeros((1, 4), dtype=np.float32)),
                       nm.Tensor(np.ones((2, 3), dtype=np.float32)), masked_ids)


def _corpus(tmp_path, n_clips=6, label_fraction=1.0, seed=0):
    out = tmp_path / "corpus"
    if not (out / "manifest.json").exists():
        generate_corpus(SYNTH, n_clips, label_fraction, seed, out)
    return out / "manifest.json"


def _cfg(**kw):
    defaults = dict(
        mask_ratio=0.75, batch_size=3, max_steps=6, base_lr=1e-3,
        min_lr=1e-5, warmup_steps=2, ckpt_every=3, seed=1,
    )
    defaults.update(kw)
    return PretrainConfig(**defaults)


def _fg_ids(fg_mask, tubelet):
    """The ids of the tokens a (T, H, W) foreground mask touches."""
    cells = unfold_clip(fg_mask[:, None].astype(np.float32), tubelet)
    return np.flatnonzero(cells.max(axis=1) > 0)


def _items(n=3, seed=0, synth=SYNTH, tubelet=BB.tubelet):
    """n clips and their foreground token ids, as a pretraining run holds them."""
    clips, fg_ids = [], []
    for i in range(n):
        clip, fg = generate_clip_with_mask(synth, i % synth.num_phases, [seed, i])
        clips.append(clip)
        fg_ids.append(_fg_ids(fg, tubelet))
    return clips, fg_ids


def test_pretrain_step_updates_and_reports():
    cfg = _cfg()
    model = ModelParams(BB, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), BB.enc_dim)
    trained = dict(model.named())
    trained.update(selector.named())
    opt = AdamW(trained, lr=1e-3)
    clips, fg_ids = _items(3)
    before = model.proj.weight.data.copy()
    rngs = [np.random.default_rng([9, j]) for j in range(3)]
    report = pretrain_step(clips, fg_ids, model, selector, opt, cfg, rngs, lr=1e-3, step_index=0)
    assert not np.array_equal(model.proj.weight.data, before)
    assert np.isfinite(report.recon) and np.isfinite(report.select)
    assert report.fg_mass is not None and 0 < report.fg_mass < 1
    # invariant: recon equals the mean of per-clip per-token means
    per_clip = [float(np.mean(pt)) for pt in report.per_token]
    assert report.recon == pytest.approx(np.mean(per_clip), rel=1e-6)


def test_pretrain_step_baseline_never_touches_selector():
    cfg = _cfg(strategy="random")
    model = ModelParams(BB, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), BB.enc_dim)
    opt = AdamW(dict(model.named()), lr=1e-3)
    clips, fg_ids = _items(2)
    before = {k: t.data.copy() for k, t in selector.named().items()}
    for step in range(3):
        rngs = [np.random.default_rng([4, step, j]) for j in range(2)]
        pretrain_step(clips, fg_ids, model, selector, opt, cfg, rngs, step_index=step)
    for name, t in selector.named().items():
        assert t.grad is None
        np.testing.assert_array_equal(t.data, before[name])


def _default_adaptive_setup():
    """Model, selector, optimizer and 8 clips at the default config."""
    bb = BackboneConfig()
    model = ModelParams(bb, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), bb.enc_dim)
    trained = dict(model.named())
    trained.update(selector.named())
    opt = AdamW(trained, lr=1e-4)
    return model, selector, opt, _items(8, 5, SynthConfig(), bb.tubelet)


def _default_pretraining_halves(monkeypatch):
    """(nodes, held bytes) of each half's tape of one default adaptive
    step, as backward receives it; AdamW's flat buffers are left out."""
    model, selector, opt, items = _default_adaptive_setup()
    recorded = []
    real_backward = training.backward

    def counting_backward(loss, tape):
        recorded.append((len(tape), tape_held_bytes(tape, (opt._value, opt._grad, opt._m, opt._v))))
        return real_backward(loss, tape)

    monkeypatch.setattr(training, "backward", counting_backward)
    rngs = [np.random.default_rng([6, 0, j]) for j in range(8)]
    pretrain_step(*items, model, selector, opt, PretrainConfig(strategy="adaptive"), rngs)
    return recorded


def test_node_budget_of_a_default_pretraining_half(monkeypatch):
    # each op a half records costs it Python work under the GIL, paid by
    # both halves: a change that adds nodes has to update this on purpose
    assert [nodes for nodes, _ in _default_pretraining_halves(monkeypatch)] == [87, 87]


def test_memory_budget_of_a_default_pretraining_half(monkeypatch):
    # the arrays a half's tape holds until backward count twice in a
    # step's peak memory: a change that keeps more does so on purpose
    assert [held for _, held in _default_pretraining_halves(monkeypatch)] == [10_911_040] * 2


@pytest.mark.parametrize("strategy", ["adaptive", "random"])
def test_a_default_step_reaches_every_optimizer_parameter(strategy):
    # AdamW updates a parameter no loss reaches as if its gradient were
    # zero; no parameter of a shipped pretraining path is one
    model, selector, _, items = _default_adaptive_setup()
    trained = dict(model.named())
    if strategy == "adaptive":
        trained.update(selector.named())
    opt = AdamW(trained, lr=1e-4)
    unreached = []
    real_step = opt.step

    def step(lr=None, max_norm=None):
        unreached.extend(name for name, t in opt.params.items() if not t.grad.any())
        real_step(lr, max_norm)

    opt.step = step
    rngs = [np.random.default_rng([6, 0, j]) for j in range(8)]
    pretrain_step(*items, model, selector, opt, PretrainConfig(strategy=strategy), rngs)
    assert opt.step_count == 1 and unreached == []


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the allocator setting and the fault count are glibc's",
)
def test_warm_adaptive_step_keeps_its_memory():
    # at the default config, a step allocates and frees arrays of up to a
    # few MiB; once warm, the heap serves them without faulting pages in.
    # A warm step may still grow the heap's high-water mark by a few
    # hundred pages, so the median of five warm steps is checked.
    import resource

    model, selector, opt, items = _default_adaptive_setup()
    cfg = PretrainConfig(strategy="adaptive")
    faults = []
    for step in range(8):
        rngs = [np.random.default_rng([6, step, j]) for j in range(8)]
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        pretrain_step(*items, model, selector, opt, cfg, rngs, lr=1e-4, step_index=step)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert np.median(faults[3:]) < 200, faults


def _one_tape(tape, n, half):
    """The step run as one half on the calling thread's tape."""
    return [half(0, n, tape)]


def _two_half_step(n_clips, strategy="adaptive", **cfg):
    """Run one pretrain_step from a fixed start; returns the gradients the
    optimizer step was handed, each clip's visible ids, the report and the
    optimizer after its step."""
    model = ModelParams(BB, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), BB.enc_dim)
    trained = dict(model.named())
    if strategy == "adaptive":
        trained.update(selector.named())
    opt = AdamW(trained, lr=1e-3)
    grads = {}
    real_step = opt.step

    def step(lr=None, max_norm=None):
        assert not grads and max_norm == cfg.get("grad_clip")
        grads.update({k: t.grad.copy() for k, t in trained.items()})
        real_step(lr, max_norm)

    opt.step = step
    rngs = [np.random.default_rng([9, j]) for j in range(n_clips)]
    visible = {}

    def recording(fn):
        def record(*args):
            spec = fn(*args)
            visible[id(args[-1])] = spec.visible_ids  # keyed by the clip's rng
            return spec
        return record

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "sample_visible", recording(training.sample_visible))
        mp.setattr(training, "baseline_mask", recording(training.baseline_mask))
        report = pretrain_step(*_items(n_clips), model, selector, opt,
                               _cfg(strategy=strategy, **cfg), rngs)
    assert sorted(grads) == sorted(trained)
    return grads, [visible[id(rng)] for rng in rngs], report, opt


@pytest.mark.parametrize("strategy", ["adaptive", "random"])
@pytest.mark.parametrize("n_clips", [8, 3])
def test_two_half_step_matches_the_step_on_one_tape(monkeypatch, strategy, n_clips):
    grads, visible, report, _ = _two_half_step(n_clips, strategy)
    monkeypatch.setattr(training, "run_halves", _one_tape)
    one_grads, one_visible, one_report, _ = _two_half_step(n_clips, strategy)
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, one_grads[name], rtol=1e-5, atol=1e-7, err_msg=name)
    for ids, one_ids in zip(visible, one_visible):
        np.testing.assert_array_equal(ids, one_ids)
    # each clip's forward is the same, so only the batch reductions round differently
    for row, one_row in zip(report.per_token, one_report.per_token, strict=True):
        np.testing.assert_array_equal(row, one_row)
    assert report.recon == pytest.approx(one_report.recon, rel=1e-6)
    assert report.select == pytest.approx(one_report.select, rel=1e-6)
    assert report.fg_mass == one_report.fg_mass


def test_two_half_steps_are_bitwise_repeatable():
    first, visible, report, _ = _two_half_step(8)
    for _ in range(4):
        grads, again, repeat, _ = _two_half_step(8)
        for name, grad in grads.items():
            assert np.array_equal(grad, first[name]), name
        assert all(np.array_equal(a, b) for a, b in zip(again, visible))
        assert (repeat.recon, repeat.select, repeat.fg_mass) == (
            report.recon, report.select, report.fg_mass)


def test_grad_clip_runs_once_on_the_summed_gradient():
    # the one optimizer step is handed the summed, unclipped gradient and
    # max_norm; from zero moments it leaves m = (1 - beta1) * the clipped one
    unclipped, _, _, _ = _two_half_step(4)
    handed, _, _, opt = _two_half_step(4, grad_clip=1e-3)
    assert all(np.array_equal(handed[name], g) for name, g in unclipped.items())
    assert opt.step_count == 1
    clipped = [m.astype(np.float64) / (1.0 - opt.beta1) for m in opt.m.values()]
    norm = math.sqrt(sum(float((g ** 2).sum()) for g in clipped))
    assert norm == pytest.approx(1e-3, rel=1e-5)


def _adaptive_setup():
    model = ModelParams(BB, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), BB.enc_dim)
    return model, selector, AdamW({**model.named(), **selector.named()}, lr=1e-3)


def _assert_untouched(opt, before):
    for name, t in opt.params.items():
        assert not t.grad.any(), name
        assert np.array_equal(t.data, before[name]), name
    assert opt.step_count == 0
    assert all(not m.any() for m in opt.m.values()) and all(not v.any() for v in opt.v.values())


def test_non_finite_loss_in_both_halves_moves_nothing():
    model, selector, opt = _adaptive_setup()
    model.head.bias.data[:] = np.inf
    before = {k: t.data.copy() for k, t in opt.params.items()}
    rngs = [np.random.default_rng([9, j]) for j in range(2)]
    with pytest.raises(NumericError, match="non-finite loss at step 4"):
        pretrain_step(*_items(2), model, selector, opt, _cfg(), rngs, step_index=4)
    _assert_untouched(opt, before)


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_an_error_in_either_half_waits_for_the_other(monkeypatch, failing):
    # the half that does not fail finishes its backward, and so leaves
    # gradients, after the failing one has raised
    model, selector, opt = _adaptive_setup()
    before = {k: t.data.copy() for k, t in opt.params.items()}
    finished = []
    real_backward = training.backward

    def backward(loss, tape):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (failing == "caller"):
            raise NumericError(f"injected on the {failing}")
        time.sleep(0.05)
        real_backward(loss, tape)
        finished.append(True)

    monkeypatch.setattr(training, "backward", backward)
    rngs = [np.random.default_rng([9, j]) for j in range(4)]
    with pytest.raises(NumericError, match=f"injected on the {failing}"):
        pretrain_step(*_items(4), model, selector, opt, _cfg(), rngs)
    assert finished == [True]
    _assert_untouched(opt, before)


def test_steps_reuse_one_worker_thread():
    model, selector, opt = _adaptive_setup()
    items = _items(2)
    before = threading.active_count()
    for step in range(5):
        rngs = [np.random.default_rng([9, step, j]) for j in range(2)]
        pretrain_step(*items, model, selector, opt, _cfg(), rngs, step_index=step)
        assert threading.active_count() <= before + 1


def test_a_one_clip_step_never_touches_the_worker(monkeypatch):
    def no_worker():
        raise AssertionError("a one-clip step asked for the worker")

    monkeypatch.setattr(halves, "_executor", no_worker)
    model, selector, opt = _adaptive_setup()
    pretrain_step(*_items(1), model, selector, opt, _cfg(), [np.random.default_rng(0)])
    assert opt.step_count == 1


def _predict(model, clips, specs):
    """Tokens, latents and (B, n_masked, patch_len) predictions for clips
    with their own masks, through the calls masked_forward makes."""
    patches = nm.Tensor(np.stack([unfold_clip(clip.frames, BB.tubelet) for clip in clips]))
    tokens = embed_patches(patches, model.proj.weight, model.proj.bias)
    visible_ids = np.stack([spec.visible_ids for spec in specs])
    masked_ids = np.stack([spec.masked_ids for spec in specs])
    latents = encode(nm.gather_rows_batched(tokens, visible_ids), model)
    return tokens, latents, decode(latents, visible_ids, masked_ids, model)


def _losses(model, selector, clip, spec):
    """L_R and L_select of one clip as a batch of one, as pretrain_step forms them."""
    tokens, _, preds = _predict(model, [clip], [spec])
    log_probs = select_probabilities(nm.stop_gradient(tokens), selector)
    rows = unfold_clip(clip.frames, BB.tubelet)[spec.masked_ids]
    recon, per_token = reconstruction_loss(preds, patch_normalize_targets(rows)[None])
    sel = selection_loss(log_probs, nm.stop_gradient(per_token), spec.masked_ids[None])
    return recon, sel


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_masked_forward_draws_each_clip_from_its_own_stream(strategy):
    # clip i of a 3-clip stack gets the mask its own stream gives it alone
    model = ModelParams(BB, np.random.default_rng(3))
    selector = SelectionParams(np.random.default_rng(4), BB.enc_dim)
    frames = np.stack([clip.frames for clip in _items(3)[0]])
    streams = lambda: [np.random.default_rng([7, i]) for i in range(3)]
    patches, log_probs, visible, masked, preds = masked_forward(
        frames, model, selector, strategy, 0.5, streams())
    assert np.array_equal(patches, unfold_clip(frames, BB.tubelet))
    assert (log_probs is None) == (strategy != "adaptive")
    assert preds.shape == (3, masked.shape[1], patch_len(BB.tubelet))
    for i, rng in enumerate(streams()):
        if strategy == "adaptive":
            spec = sample_visible(log_probs.data[i], 0.5, rng)
        else:
            spec = baseline_mask(strategy, grid_dims(frames.shape[1:], BB.tubelet), 0.5, rng)
        assert np.array_equal(visible[i], spec.visible_ids), i
        assert np.array_equal(masked[i], spec.masked_ids), i
    if strategy in ("adaptive", "random"):
        assert len({tuple(ids) for ids in visible}) == 3


@pytest.mark.parametrize("normalize", [True, False])
def test_a_step_scores_the_rows_at_its_masked_ids(normalize):
    # the step's L_R is that of its own patch rows at the masked ids
    model = ModelParams(BB, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), BB.enc_dim)
    clips, fg_ids = _items(1)
    spec = baseline_mask("random", grid_dims(clips[0].pixels.shape, BB.tubelet), 0.75,
                         np.random.default_rng(5))
    _, _, preds = _predict(model, clips, [spec])
    rows = unfold_clip(clips[0].frames, BB.tubelet)[spec.masked_ids]
    expected, per_token = reconstruction_loss(
        preds, patch_normalize_targets(rows, normalize)[None])
    opt = AdamW(dict(model.named()), lr=1e-3)
    report = pretrain_step(clips, fg_ids, model, selector, opt,
                           _cfg(strategy="random", normalize_targets=normalize),
                           [np.random.default_rng(5)])
    assert report.recon == expected.item()
    assert np.array_equal(report.per_token[0], per_token.data[0])


def test_batched_forward_matches_each_clip_alone():
    # slice i of a batch of three equals clip i run as a batch of one, bit for bit
    model = ModelParams(BB, np.random.default_rng(3))
    clips, _ = _items(3)
    specs = [sample_visible(np.full(32, -np.log(32)), 0.75, np.random.default_rng([2, i]))
             for i in range(3)]
    assert len({tuple(spec.visible_ids) for spec in specs}) == 3
    _, latents, preds = _predict(model, clips, specs)
    for i in range(3):
        _, latents_i, preds_i = _predict(model, clips[i:i + 1], specs[i:i + 1])
        assert np.array_equal(latents.data[i], latents_i.data[0]), i
        assert np.array_equal(preds.data[i], preds_i.data[0]), i


def test_gradient_isolation_structural():
    # with a frozen mask: d L_R / d theta = 0 and d L_select / d phi = 0, exactly
    model = ModelParams(BB, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), BB.enc_dim)
    clip = _items(1)[0][0]
    spec = sample_visible(np.full(32, -np.log(32)), 0.75, np.random.default_rng(2))

    def forward(which: str):
        for t in list(model.named().values()) + list(selector.named().values()):
            t.grad = None
        with nm.Tape() as tape:
            recon, sel = _losses(model, selector, clip, spec)
            nm.backward(recon if which == "recon" else sel, tape)

    forward("recon")
    assert all(t.grad is None for t in selector.named().values())
    assert all(t.grad is not None for t in model.named().values())
    forward("select")
    assert all(t.grad is None for t in model.named().values())
    assert any(np.abs(t.grad).max() > 0 for t in selector.named().values() if t.grad is not None)


def test_gradient_isolation_finite_difference():
    # finite difference of L_R w.r.t. a selector entry (mask frozen) is zero,
    # while the same perturbation moves L_select
    model = ModelParams(BB, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), BB.enc_dim)
    clip = _items(1)[0][0]
    spec = sample_visible(np.full(32, -np.log(32)), 0.75, np.random.default_rng(2))

    def losses():
        recon, sel = _losses(model, selector, clip, spec)
        return recon.item(), sel.item()

    base_recon, base_sel = losses()
    w = selector.score.weight
    w.data[3, 0] += 0.05
    recon_plus, sel_plus = losses()
    w.data[3, 0] -= 0.10
    recon_minus, sel_minus = losses()
    w.data[3, 0] += 0.05
    assert recon_plus == base_recon and recon_minus == base_recon
    assert sel_plus != base_sel or sel_minus != base_sel


def test_pretrain_step_rejects_non_finite_loss():
    cfg = _cfg()
    model = ModelParams(BB, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), BB.enc_dim)
    opt = AdamW(dict(model.named()), lr=1e-3)
    clip = _items(1)[0][0]
    model.head.bias.data[:] = np.inf  # uint8 pixels cannot hold inf, so the predictions do
    with pytest.raises(NumericError):
        pretrain_step([clip], [None], model, selector, opt, cfg, [np.random.default_rng(0)])


def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    arrays = {
        "model.w": rng.standard_normal((3, 4)).astype(np.float32),
        "opt.step": np.array([7.0], dtype=np.float32),
        "scalar": np.float32(2.5).reshape(()),
    }
    path = tmp_path / "ck.csma"
    save_checkpoint(path, arrays)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert np.array_equal(loaded[k], np.asarray(arrays[k], dtype=np.float32))
    # byte-identical rewrite
    save_checkpoint(tmp_path / "ck2.csma", loaded)
    assert (tmp_path / "ck.csma").read_bytes() == (tmp_path / "ck2.csma").read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.csma"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def _small_checkpoint(path):
    save_checkpoint(path, {
        "model.w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "step": np.float32(7.0).reshape(()),
    })
    return path.read_bytes()


def test_checkpoint_truncated_or_flipped_raises_only_format_error(tmp_path):
    blob = _small_checkpoint(tmp_path / "good.csma")
    shapes = {k: v.shape for k, v in load_checkpoint(tmp_path / "good.csma").items()}
    bad = tmp_path / "bad.csma"
    for cut in range(len(blob)):  # 4-11 bytes: a magic with a short header
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(bad)
    for i in range(len(blob)):
        flipped = bytearray(blob)
        flipped[i] ^= 0xFF
        bad.write_bytes(bytes(flipped))
        if i < 12:  # magic, version and entry count
            with pytest.raises(FormatError):
                load_checkpoint(bad)
            continue
        try:
            loaded = load_checkpoint(bad)
        except FormatError:
            continue
        # a flip that loads may change values, never names or shapes
        assert {k: v.shape for k, v in loaded.items()} == shapes, i


def test_failed_checkpoint_save_keeps_previous_file(tmp_path):
    path = tmp_path / "ck.csma"
    before = _small_checkpoint(path)
    with pytest.raises(ValueError):
        save_checkpoint(path, {"a": np.ones(3, dtype=np.float32), "z": "not a number"})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.csma"]


def test_config_snapshot_roundtrip():
    snap = {"a": 1, "b": {"c": [1, 2, 3], "d": "text"}}
    assert array_to_config(config_to_array(snap)) == snap


def test_checkpoint_forward_is_bitwise_identical(tmp_path):
    model = ModelParams(BB, np.random.default_rng(3))
    clip = _items(1)[0][0]
    spec = sample_visible(np.full(32, -np.log(32)), 0.75, np.random.default_rng(2))

    def forward(m):
        return _predict(m, [clip], [spec])[2].data

    reference = forward(model)
    save_checkpoint(tmp_path / "m.csma", {k: t.data for k, t in model.named().items()})
    fresh = ModelParams(BB, np.random.default_rng(99))
    assign_named(fresh.named(), load_checkpoint(tmp_path / "m.csma"))
    assert np.array_equal(forward(fresh), reference)


def test_pretrain_run_log_and_schedule(tmp_path):
    manifest = _corpus(tmp_path)
    cfg = _cfg()
    result = pretrain_run(manifest, tmp_path / "run", cfg, BB)
    lines = [json.loads(l) for l in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
    assert len(lines) == result["total_steps"] == 6
    assert lines[-1]["lr"] == pytest.approx(cfg.min_lr)
    assert all(np.isfinite(l["L_R"]) for l in lines)
    assert all(l["fg_prob_mass"] is not None for l in lines)
    assert result["checkpoint"].exists()


def test_pretrain_run_determinism(tmp_path):
    manifest = _corpus(tmp_path)
    r1 = pretrain_run(manifest, tmp_path / "r1", _cfg(), BB)
    r2 = pretrain_run(manifest, tmp_path / "r2", _cfg(), BB)
    assert r1["checkpoint"].read_bytes() == r2["checkpoint"].read_bytes()
    assert (tmp_path / "r1" / "metrics.jsonl").read_text() == (
        tmp_path / "r2" / "metrics.jsonl"
    ).read_text()


def test_pretrain_resume_matches_uninterrupted(tmp_path):
    manifest = _corpus(tmp_path)
    full = pretrain_run(manifest, tmp_path / "full", _cfg(), BB)
    full_lines = (tmp_path / "full" / "metrics.jsonl").read_text().splitlines()

    resumed = pretrain_run(
        manifest, tmp_path / "resumed", _cfg(), BB,
        resume_from=tmp_path / "full" / "checkpoint_000003.csma",
    )
    resumed_lines = (tmp_path / "resumed" / "metrics.jsonl").read_text().splitlines()
    assert resumed_lines == full_lines[3:]
    assert resumed["checkpoint"].read_bytes() == full["checkpoint"].read_bytes()


def test_pretrain_resume_config_mismatch_refused(tmp_path):
    manifest = _corpus(tmp_path)
    pretrain_run(manifest, tmp_path / "base", _cfg(), BB)
    other = _cfg(mask_ratio=0.5)
    run = PretrainRun(manifest, tmp_path / "other", other, BB)
    with pytest.raises(ConfigError, match="mask_ratio"):
        run.resume(tmp_path / "base" / "checkpoint_000006.csma")


def _crash_after(monkeypatch, calls_ok: int):
    """Make pretrain_step raise NumericError once it has run `calls_ok` times."""
    real_step = training.pretrain_step
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > calls_ok:
            raise NumericError(f"non-finite loss at step {kwargs['step_index']}")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(training, "pretrain_step", flaky)


def test_pretrain_run_abort_references_checkpoint(tmp_path, monkeypatch):
    manifest = _corpus(tmp_path)
    cfg = _cfg()
    run = PretrainRun(manifest, tmp_path / "abort", cfg, BB)
    _crash_after(monkeypatch, 4)
    with pytest.raises(NumericError, match="checkpoint_000003"):
        run.run()


def test_pretrain_config_validation():
    with pytest.raises(ConfigError):
        PretrainConfig(mask_ratio=1.5)
    with pytest.raises(ConfigError):
        PretrainConfig(loss_kind="huber")
    with pytest.raises(ConfigError):
        PretrainConfig(strategy="blocks")
    for bad, message in (
        ({"max_steps": -2}, "max_steps"),
        ({"max_steps": 0}, "max_steps"),
        ({"warmup_steps": -1}, "warmup_steps"),
        ({"weight_decay": -1.0}, "weight_decay"),
        ({"betas": (1.5, 2.0)}, "betas"),
        ({"betas": (0.9, 1.0)}, "betas"),
        ({"betas": (-0.1, 0.9)}, "betas"),
        ({"min_lr": -1e-6}, "min_lr"),
        ({"grad_clip": 0.0}, "grad_clip"),
        ({"grad_clip": -1.0}, "grad_clip"),
    ):
        with pytest.raises(ConfigError, match=message):
            PretrainConfig(**bad)
    PretrainConfig(max_steps=1, warmup_steps=0, weight_decay=0.0, betas=(0.0, 0.0), min_lr=0.0,
                   grad_clip=1e-6)


def test_pretrain_run_caches_only_the_stored_pixels(tmp_path):
    # a cached clip is its file's uint8 payload (8x3x32x32 at the default
    # config), held beside its foreground ids: no float frames, patches or targets
    manifest = generate_corpus(SynthConfig(), 2, 1.0, 0, tmp_path / "corpus")
    run = PretrainRun(manifest, tmp_path / "run", PretrainConfig(max_steps=1))
    assert len(run.items) == len(run.fg_ids) == 2
    for clip, fg_ids in zip(run.items, run.fg_ids):
        assert sorted(vars(clip)) == ["pixels"]
        assert clip.pixels.dtype == np.uint8
        assert clip.pixels.nbytes == 8 * 3 * 32 * 32 == 24_576
        assert clip.frames.tobytes() == (clip.pixels.astype(np.float32) / 255.0).tobytes()
        assert fg_ids.dtype == np.int64 and 0 < fg_ids.size < 256


def test_pretrain_resume_in_place_matches_uninterrupted(tmp_path, monkeypatch):
    manifest = _corpus(tmp_path)
    full = pretrain_run(manifest, tmp_path / "full", _cfg(), BB)

    with monkeypatch.context() as patch:
        _crash_after(patch, 4)  # steps 0-3 logged, checkpoint_000003 written
        with pytest.raises(NumericError):
            pretrain_run(manifest, tmp_path / "crashed", _cfg(), BB)
    resumed = pretrain_run(
        manifest, tmp_path / "crashed", _cfg(), BB,
        resume_from=tmp_path / "crashed" / "checkpoint_000003.csma",
    )
    assert (tmp_path / "crashed" / "metrics.jsonl").read_bytes() == (
        tmp_path / "full" / "metrics.jsonl"
    ).read_bytes()
    assert resumed["checkpoint"].read_bytes() == full["checkpoint"].read_bytes()


def test_pretrain_abort_after_resume_names_resume_checkpoint(tmp_path, monkeypatch):
    manifest = _corpus(tmp_path)
    pretrain_run(manifest, tmp_path / "base", _cfg(), BB)
    ckpt = tmp_path / "base" / "checkpoint_000003.csma"
    run = PretrainRun(manifest, tmp_path / "resumed", _cfg(), BB)
    run.resume(ckpt)
    _crash_after(monkeypatch, 0)
    with pytest.raises(NumericError, match="last good checkpoint: .*checkpoint_000003"):
        run.run()


def test_pretrain_resume_in_place_after_every_step(tmp_path, monkeypatch):
    manifest = _corpus(tmp_path)
    full = pretrain_run(manifest, tmp_path / "full", _cfg(ckpt_every=1), BB)
    full_log = (tmp_path / "full" / "metrics.jsonl").read_bytes()
    for k in range(1, 6):
        out = tmp_path / f"crash{k}"
        with monkeypatch.context() as patch:
            _crash_after(patch, k)  # steps 0..k-1 logged, checkpoint_{k} written
            with pytest.raises(NumericError):
                pretrain_run(manifest, out, _cfg(ckpt_every=1), BB)
        resumed = pretrain_run(
            manifest, out, _cfg(ckpt_every=1), BB,
            resume_from=out / f"checkpoint_{k:06d}.csma",
        )
        assert (out / "metrics.jsonl").read_bytes() == full_log, k
        assert resumed["checkpoint"].read_bytes() == full["checkpoint"].read_bytes(), k


def test_loaders_write_into_the_optimizer_buffers(tmp_path):
    manifest = _corpus(tmp_path)
    pretrain_run(manifest, tmp_path / "base", _cfg(), BB)
    checkpoint = tmp_path / "base" / "checkpoint_000003.csma"
    run = PretrainRun(manifest, tmp_path / "resumed", _cfg(), BB)
    run.resume(checkpoint)
    assert_owned_by(run.optimizer)
    arrays = load_checkpoint(checkpoint)
    for name, t in run.optimizer.params.items():
        assert np.array_equal(t.data, arrays[name]), name
    other = load_checkpoint(tmp_path / "base" / "checkpoint_000006.csma")
    assign_named(run.model.named(), other)
    assert_owned_by(run.optimizer)
    for name, t in run.model.named().items():
        assert np.array_equal(t.data, other[name]), name
