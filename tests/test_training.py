import json

import numpy as np
import pytest

from selectmae import numerics as nm
from selectmae import training
from selectmae.backbone import BackboneConfig, ModelParams, decode, encode
from selectmae.data import SynthConfig, generate_corpus
from selectmae.errors import ConfigError, ContractError, FormatError, NumericError, ShapeError
from selectmae.masking import (
    MaskSpec,
    ProbabilityMap,
    SelectionParams,
    sample_visible,
    select_probabilities,
)
from selectmae.numerics import AdamW
from selectmae.tokenizer import TokenizerConfig, embed_patches
from selectmae.training import (
    PretrainConfig,
    PretrainRun,
    array_to_config,
    assign_named,
    config_to_array,
    load_checkpoint,
    prepare_clip,
    pretrain_run,
    pretrain_step,
    reconstruction_loss,
    save_checkpoint,
    selection_loss,
)

TOK = TokenizerConfig(tubelet=(2, 4, 4), dim=16)
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


def _pmap_from_logits(logits: nm.Tensor) -> ProbabilityMap:
    return ProbabilityMap(nm.softmax(logits, axis=-1), nm.log_softmax(logits, axis=-1))


def test_selection_loss_hand_value():
    # N=2, one masked token (index 1), P = [0.5, 0.5], error 2
    logits = nm.Tensor(np.zeros((1, 2), dtype=np.float32))
    pmap = _pmap_from_logits(logits)
    errors = nm.Tensor(np.array([[2.0]], dtype=np.float32))
    loss = selection_loss(pmap.log_probs, errors, [[1]])
    assert loss.item() == pytest.approx(-np.log(0.5) * 2.0, abs=1e-6)
    assert loss.item() == pytest.approx(1.3863, abs=1e-4)


def test_selection_loss_zero_errors_zero_gradient():
    logits = nm.Tensor(np.array([[0.3, -0.2, 0.1]], dtype=np.float32), requires_grad=True)
    with nm.Tape() as tape:
        pmap = _pmap_from_logits(logits)
        spec = MaskSpec(3, 0.67, np.array([0]))
        loss = selection_loss(pmap.log_probs, nm.Tensor(np.zeros((1, 2), dtype=np.float32)),
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
        pmap = _pmap_from_logits(logits)
        loss = selection_loss(pmap.log_probs, nm.Tensor(errors), masked[None])
    nm.backward(loss, tape)
    g = logits.grad[0].astype(np.float64)
    assert g[masked[hot]] < 0  # probability of the hot token pushed up
    assert abs(g.sum()) < 1e-6
    # analytic softmax-gradient oracle: d/dz_l = -(c/|I_m|) * (delta - P_l)
    p = pmap.probs.data[0].astype(np.float64)
    expected = (3.0 / spec.n_masked) * p
    expected[masked[hot]] -= 3.0 / spec.n_masked
    np.testing.assert_allclose(g, expected, atol=1e-6)


def test_selection_loss_rejects_attached_errors():
    logits = nm.Tensor(np.zeros((1, 2), dtype=np.float32), requires_grad=True)
    with nm.Tape() as tape:
        pmap = _pmap_from_logits(logits)
        attached = nm.scale(nm.Tensor(np.ones((1, 1), dtype=np.float32), requires_grad=True), 2.0)
        with pytest.raises(ContractError):
            selection_loss(pmap.log_probs, attached, [[1]])


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
        mask_ratio=0.75, epochs=10, batch_size=3, max_steps=6, base_lr=1e-3,
        min_lr=1e-5, warmup_steps=2, ckpt_every=3, seed=1,
    )
    defaults.update(kw)
    return PretrainConfig(**defaults)


def _items(n=3, seed=0, cfg=None):
    cfg = cfg or _cfg()
    items = []
    for i in range(n):
        from selectmae.data import generate_clip_with_mask

        clip, fg = generate_clip_with_mask(SYNTH, i % SYNTH.num_phases, [seed, i])
        items.append(prepare_clip(clip.frames, TOK, cfg, fg))
    return items


def test_pretrain_step_updates_and_reports():
    cfg = _cfg()
    model = ModelParams(TOK, BB, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), TOK.dim)
    trained = dict(model.named())
    trained.update(selector.named())
    opt = AdamW(trained, lr=1e-3)
    items = _items(3)
    before = model.proj.weight.data.copy()
    rngs = [np.random.default_rng([9, j]) for j in range(3)]
    report = pretrain_step(items, model, selector, opt, cfg, rngs, lr=1e-3, step_index=0)
    assert not np.array_equal(model.proj.weight.data, before)
    assert np.isfinite(report.recon) and np.isfinite(report.select)
    assert report.fg_mass is not None and 0 < report.fg_mass < 1
    # invariant: recon equals the mean of per-clip per-token means
    per_clip = [float(np.mean(pt)) for pt in report.per_token]
    assert report.recon == pytest.approx(np.mean(per_clip), rel=1e-6)


def test_pretrain_step_zero_selection_weight_zeroes_selector_grads():
    cfg = _cfg(selection_weight=0.0)
    model = ModelParams(TOK, BB, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), TOK.dim)
    opt = AdamW(dict(model.named()), lr=1e-3)  # selector outside the optimizer
    items = _items(2)
    rngs = [np.random.default_rng([3, j]) for j in range(2)]
    pretrain_step(items, model, selector, opt, cfg, rngs, step_index=0)
    for name, t in selector.named().items():
        assert t.grad is not None, name
        np.testing.assert_array_equal(t.grad, np.zeros_like(t.grad))


def test_pretrain_step_baseline_never_touches_selector():
    cfg = _cfg(strategy="random")
    model = ModelParams(TOK, BB, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), TOK.dim)
    opt = AdamW(dict(model.named()), lr=1e-3)
    items = _items(2)
    before = {k: t.data.copy() for k, t in selector.named().items()}
    for step in range(3):
        rngs = [np.random.default_rng([4, step, j]) for j in range(2)]
        pretrain_step(items, model, selector, opt, cfg, rngs, step_index=step)
    for name, t in selector.named().items():
        assert t.grad is None
        np.testing.assert_array_equal(t.data, before[name])


def _predict(model, items, specs):
    """Tokens, latents and (B, n_masked, patch_len) predictions for clips
    with their own masks, through the calls pretrain_step makes."""
    patches = nm.Tensor(np.stack([item.patches for item in items]))
    tokens = embed_patches(patches, TOK, model.proj.weight, model.proj.bias)
    visible_ids = np.stack([spec.visible_ids for spec in specs])
    masked_ids = np.stack([spec.masked_ids for spec in specs])
    latents = encode(nm.gather_rows_batched(tokens, visible_ids), model)
    return tokens, latents, decode(latents, visible_ids, masked_ids, model)


def _losses(model, selector, item, spec):
    """L_R and L_select of one clip as a batch of one, as pretrain_step forms them."""
    tokens, _, preds = _predict(model, [item], [spec])
    pmap = select_probabilities(nm.stop_gradient(tokens), selector)
    recon, per_token = reconstruction_loss(preds, item.targets.values[spec.masked_ids][None])
    sel = selection_loss(pmap.log_probs, nm.stop_gradient(per_token), spec.masked_ids[None])
    return recon, sel


def test_batched_forward_matches_each_clip_alone():
    # slice i of a batch of three equals clip i run as a batch of one, bit for bit
    model = ModelParams(TOK, BB, np.random.default_rng(3))
    items = _items(3)
    specs = [sample_visible(np.full(32, 1 / 32), 0.75, np.random.default_rng([2, i]))
             for i in range(3)]
    assert len({tuple(spec.visible_ids) for spec in specs}) == 3
    _, latents, preds = _predict(model, items, specs)
    for i in range(3):
        _, latents_i, preds_i = _predict(model, items[i:i + 1], specs[i:i + 1])
        assert np.array_equal(latents.data[i], latents_i.data[0]), i
        assert np.array_equal(preds.data[i], preds_i.data[0]), i


def test_gradient_isolation_structural():
    # with a frozen mask: d L_R / d theta = 0 and d L_select / d phi = 0, exactly
    model = ModelParams(TOK, BB, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), TOK.dim)
    item = _items(1)[0]
    spec = sample_visible(np.full(32, 1 / 32), 0.75, np.random.default_rng(2))

    def forward(which: str):
        for t in list(model.named().values()) + list(selector.named().values()):
            t.grad = None
        with nm.Tape() as tape:
            recon, sel = _losses(model, selector, item, spec)
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
    model = ModelParams(TOK, BB, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), TOK.dim)
    item = _items(1)[0]
    spec = sample_visible(np.full(32, 1 / 32), 0.75, np.random.default_rng(2))

    def losses():
        recon, sel = _losses(model, selector, item, spec)
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
    model = ModelParams(TOK, BB, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), TOK.dim)
    opt = AdamW(dict(model.named()), lr=1e-3)
    item = _items(1)[0]
    item.targets.values[:] = np.inf
    with pytest.raises(NumericError):
        pretrain_step([item], model, selector, opt, cfg, [np.random.default_rng(0)])


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
    model = ModelParams(TOK, BB, np.random.default_rng(3))
    item = _items(1)[0]
    spec = sample_visible(np.full(32, 1 / 32), 0.75, np.random.default_rng(2))

    def forward(m):
        return _predict(m, [item], [spec])[2].data

    reference = forward(model)
    save_checkpoint(tmp_path / "m.csma", {k: t.data for k, t in model.named().items()})
    fresh = ModelParams(TOK, BB, np.random.default_rng(99))
    assign_named(fresh.named(), load_checkpoint(tmp_path / "m.csma"))
    assert np.array_equal(forward(fresh), reference)


def test_pretrain_run_log_and_schedule(tmp_path):
    manifest = _corpus(tmp_path)
    cfg = _cfg()
    result = pretrain_run(manifest, tmp_path / "run", cfg, TOK, BB)
    lines = [json.loads(l) for l in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
    assert len(lines) == result["total_steps"] == 6
    assert lines[-1]["lr"] == pytest.approx(cfg.min_lr)
    assert all(np.isfinite(l["L_R"]) for l in lines)
    assert all(l["fg_prob_mass"] is not None for l in lines)
    assert result["checkpoint"].exists()


def test_pretrain_run_determinism(tmp_path):
    manifest = _corpus(tmp_path)
    r1 = pretrain_run(manifest, tmp_path / "r1", _cfg(), TOK, BB)
    r2 = pretrain_run(manifest, tmp_path / "r2", _cfg(), TOK, BB)
    assert r1["checkpoint"].read_bytes() == r2["checkpoint"].read_bytes()
    assert (tmp_path / "r1" / "metrics.jsonl").read_text() == (
        tmp_path / "r2" / "metrics.jsonl"
    ).read_text()


def test_pretrain_resume_matches_uninterrupted(tmp_path):
    manifest = _corpus(tmp_path)
    full = pretrain_run(manifest, tmp_path / "full", _cfg(), TOK, BB)
    full_lines = (tmp_path / "full" / "metrics.jsonl").read_text().splitlines()

    resumed = pretrain_run(
        manifest, tmp_path / "resumed", _cfg(), TOK, BB,
        resume_from=tmp_path / "full" / "checkpoint_000003.csma",
    )
    resumed_lines = (tmp_path / "resumed" / "metrics.jsonl").read_text().splitlines()
    assert resumed_lines == full_lines[3:]
    assert resumed["checkpoint"].read_bytes() == full["checkpoint"].read_bytes()


def test_pretrain_resume_config_mismatch_refused(tmp_path):
    manifest = _corpus(tmp_path)
    pretrain_run(manifest, tmp_path / "base", _cfg(), TOK, BB)
    other = _cfg(mask_ratio=0.5)
    run = PretrainRun(manifest, tmp_path / "other", other, TOK, BB)
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
    run = PretrainRun(manifest, tmp_path / "abort", cfg, TOK, BB)
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
    with pytest.raises(ConfigError):
        PretrainConfig(selection_weight=-1.0)


def test_pretrain_resume_in_place_matches_uninterrupted(tmp_path, monkeypatch):
    manifest = _corpus(tmp_path)
    full = pretrain_run(manifest, tmp_path / "full", _cfg(), TOK, BB)

    with monkeypatch.context() as patch:
        _crash_after(patch, 4)  # steps 0-3 logged, checkpoint_000003 written
        with pytest.raises(NumericError):
            pretrain_run(manifest, tmp_path / "crashed", _cfg(), TOK, BB)
    resumed = pretrain_run(
        manifest, tmp_path / "crashed", _cfg(), TOK, BB,
        resume_from=tmp_path / "crashed" / "checkpoint_000003.csma",
    )
    assert (tmp_path / "crashed" / "metrics.jsonl").read_bytes() == (
        tmp_path / "full" / "metrics.jsonl"
    ).read_bytes()
    assert resumed["checkpoint"].read_bytes() == full["checkpoint"].read_bytes()


def test_pretrain_abort_after_resume_names_resume_checkpoint(tmp_path, monkeypatch):
    manifest = _corpus(tmp_path)
    pretrain_run(manifest, tmp_path / "base", _cfg(), TOK, BB)
    ckpt = tmp_path / "base" / "checkpoint_000003.csma"
    run = PretrainRun(manifest, tmp_path / "resumed", _cfg(), TOK, BB)
    run.resume(ckpt)
    _crash_after(monkeypatch, 0)
    with pytest.raises(NumericError, match="last good checkpoint: .*checkpoint_000003"):
        run.run()


def test_pretrain_resume_in_place_after_every_step(tmp_path, monkeypatch):
    manifest = _corpus(tmp_path)
    full = pretrain_run(manifest, tmp_path / "full", _cfg(ckpt_every=1), TOK, BB)
    full_log = (tmp_path / "full" / "metrics.jsonl").read_bytes()
    for k in range(1, 6):
        out = tmp_path / f"crash{k}"
        with monkeypatch.context() as patch:
            _crash_after(patch, k)  # steps 0..k-1 logged, checkpoint_{k} written
            with pytest.raises(NumericError):
                pretrain_run(manifest, out, _cfg(ckpt_every=1), TOK, BB)
        resumed = pretrain_run(
            manifest, out, _cfg(ckpt_every=1), TOK, BB,
            resume_from=out / f"checkpoint_{k:06d}.csma",
        )
        assert (out / "metrics.jsonl").read_bytes() == full_log, k
        assert resumed["checkpoint"].read_bytes() == full["checkpoint"].read_bytes(), k
