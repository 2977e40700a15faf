import json
import threading
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from selectmae import downstream
from selectmae import numerics as nm
from selectmae.backbone import BackboneConfig, ModelParams
from selectmae.data import SynthConfig, generate_corpus, load_clip, load_manifest
from selectmae.downstream import (
    ClassifierHead,
    FinetuneConfig,
    SplitSpec,
    classification_logits,
    compute_metrics,
    evaluate_checkpoint,
    finetune_run,
    labeled_train_ids,
)
from selectmae.errors import ConfigError, ContractError, FormatError
from selectmae.training import CONFIG_ENTRY, PretrainConfig, config_snapshot, config_to_array

from testkit import assert_owned_by, generate_clip, tape_held_bytes

BB = BackboneConfig(enc_depth=1, enc_dim=16, enc_heads=2, dec_depth=1, dec_dim=8, dec_heads=2)
SYNTH = SynthConfig(frames=4, height=16, width=16, num_phases=3)


def test_metrics_perfect_prediction():
    report = compute_metrics([0, 1, 2, 1], [0, 1, 2, 1], 3)
    assert report.accuracy == report.precision == report.recall == report.jaccard == 1.0


def test_metrics_hand_confusion_case():
    report = compute_metrics([0, 1, 1, 1], [0, 0, 1, 1], 2)
    assert report.accuracy == pytest.approx(0.75)
    assert report.precision == pytest.approx(5 / 6)
    assert report.recall == pytest.approx(0.75)
    assert report.jaccard == pytest.approx(7 / 12)
    np.testing.assert_array_equal(report.confusion, [[1, 1], [0, 2]])


def test_metrics_degenerate_single_class_predictions():
    # all predictions class 0, labels balanced: class 1 precision undefined -> excluded
    report = compute_metrics([0, 0, 0, 0], [0, 0, 1, 1], 2)
    assert report.accuracy == pytest.approx(0.5)
    assert report.precision == pytest.approx(0.5)
    assert report.recall == pytest.approx(0.5)  # (1.0 + 0.0) / 2
    assert report.jaccard == pytest.approx(0.25)  # (0.5 + 0.0) / 2


def test_metrics_confusion_row_sums_match_truth_counts():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=100)
    preds = rng.integers(0, 4, size=100)
    report = compute_metrics(preds, labels, 4)
    np.testing.assert_array_equal(report.confusion.sum(axis=1), np.bincount(labels, minlength=4))


def test_metrics_validation_errors():
    with pytest.raises(ContractError):
        compute_metrics([0, 1], [0], 2)
    with pytest.raises(ContractError):
        compute_metrics([0, 5], [0, 1], 2)
    with pytest.raises(ContractError):
        compute_metrics([], [], 2)


def test_metrics_relabeling_invariance():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 5, size=200)
    preds = rng.integers(0, 5, size=200)
    base = compute_metrics(preds, labels, 5)
    perm = rng.permutation(5)
    remapped = compute_metrics(perm[preds], perm[labels], 5)
    assert remapped.accuracy == pytest.approx(base.accuracy)
    assert remapped.precision == pytest.approx(base.precision)
    assert remapped.recall == pytest.approx(base.recall)
    assert remapped.jaccard == pytest.approx(base.jaccard)


def test_jaccard_bounded_by_precision_and_recall_fuzz():
    rng = np.random.default_rng(2)
    for _ in range(300):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        labels = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        report = compute_metrics(preds, labels, k)
        confusion = report.confusion.astype(float)
        tp = np.diag(confusion)
        fp = confusion.sum(axis=0) - tp
        fn = confusion.sum(axis=1) - tp
        for c in range(k):
            if tp[c] + fp[c] + fn[c] == 0:
                continue
            j = tp[c] / (tp[c] + fp[c] + fn[c])
            if tp[c] + fp[c] > 0:
                assert j <= tp[c] / (tp[c] + fp[c]) + 1e-12
            if tp[c] + fn[c] > 0:
                assert j <= tp[c] / (tp[c] + fn[c]) + 1e-12


def test_classify_clip_shape_and_zero_head():
    clip = generate_clip(SYNTH, 0, 0)
    model = ModelParams(BB, np.random.default_rng(0))
    head = ClassifierHead(np.random.default_rng(1), 16, 3)
    logits = classification_logits(clip.frames, model, head).data
    assert logits.shape == (3,)
    head.proj.weight.data[:] = 0.0
    head.proj.bias.data[:] = 0.0
    uniform = classification_logits(clip.frames, model, head).data
    e = np.exp(uniform - uniform.max())
    np.testing.assert_allclose(e / e.sum(), np.full(3, 1 / 3), atol=1e-7)


def test_classify_mean_pool_permutation_invariance():
    # permuting token order (with positions carried in token values)
    # leaves the pooled logits unchanged
    from selectmae import numerics as nm
    from selectmae.backbone import encode
    from selectmae.numerics import reduce_mean
    from selectmae.layers import linear
    from selectmae.tokenizer import tokenize

    clip = generate_clip(SYNTH, 1, 3)
    model = ModelParams(BB, np.random.default_rng(0))
    head = ClassifierHead(np.random.default_rng(1), 16, 3)
    tokens = tokenize(clip.frames[None], BB.tubelet, model.proj.weight, model.proj.bias)
    perm = np.random.default_rng(4).permutation(tokens.shape[1])

    def pooled_logits(tokens):
        return linear(reduce_mean(encode(tokens, model), axis=1), head.proj).data

    base = pooled_logits(tokens)
    permuted = pooled_logits(nm.Tensor(tokens.data[:, perm]))
    np.testing.assert_allclose(permuted, base, atol=1e-5)


def _default_classification_tape():
    """The tape of a 3-clip default classification forward, and the
    optimizer fine-tuning builds over its parameters."""
    synth = SynthConfig()
    model = ModelParams(BackboneConfig(), np.random.default_rng(0))
    head = ClassifierHead(np.random.default_rng(1), model.bb_cfg.enc_dim, synth.num_phases)
    opt = nm.AdamW({**model.encoder_named(), **head.named()}, lr=1e-3)
    frames = np.stack([generate_clip(synth, i, [2, i]).frames for i in range(3)])
    with nm.Tape() as tape:
        classification_logits(frames, model, head)
    return tape, opt


def test_node_budget_of_a_default_classification_forward():
    # a change that adds nodes to the fine-tune forward does so on purpose
    tape, _ = _default_classification_tape()
    assert len(tape) == 34


def test_memory_budget_of_a_default_classification_forward():
    # a change that keeps more arrays on the fine-tune tape until
    # backward, AdamW's flat buffers left out, does so on purpose
    tape, opt = _default_classification_tape()
    assert tape_held_bytes(tape, (opt._value, opt._grad, opt._m, opt._v)) == 11_677_440


def _pooled_features(frames, model):
    """What classification_logits feeds the head: (B, enc_dim)."""
    from selectmae.backbone import encode
    from selectmae.tokenizer import tokenize

    tokens = tokenize(frames, model.bb_cfg.tubelet, model.proj.weight, model.proj.bias)
    return encode(tokens, model).data.mean(axis=1)


def test_batched_classification_matches_each_clip_alone():
    # the default widths: a (1, 64) @ head product takes another BLAS
    # kernel than a (3, 64) one, so the logits may differ in the last
    # bits while everything up to the pooled features stays bitwise
    model = ModelParams(BackboneConfig(), np.random.default_rng(0))
    head = ClassifierHead(np.random.default_rng(1), model.bb_cfg.enc_dim, 3)
    stack = np.stack([generate_clip(SYNTH, phase, [5, phase]).frames for phase in range(3)])
    batched = classification_logits(stack, model, head).data
    assert batched.shape == (3, 3)
    assert np.array_equal(classification_logits(stack[None], model, head).data, batched[None])
    pooled = _pooled_features(stack, model)
    for i in range(3):
        assert np.array_equal(pooled[i], _pooled_features(stack[i:i + 1], model)[0])
        np.testing.assert_allclose(
            batched[i], classification_logits(stack[i], model, head).data, rtol=0, atol=1e-6
        )


def test_batched_loss_gradient_is_the_mean_of_per_clip_gradients():
    from selectmae import numerics as nm
    from selectmae.downstream import _cross_entropy

    model = ModelParams(BB, np.random.default_rng(0))
    head = ClassifierHead(np.random.default_rng(1), 16, 3)
    params = {**model.encoder_named(), **head.named()}
    stack = np.stack([generate_clip(SYNTH, phase, [6, phase]).frames for phase in range(3)])
    labels = np.array([0, 1, 2])

    def gradients(batches):
        for t in params.values():
            t.grad = None
        for frames, truth in batches:
            with nm.Tape() as tape:
                loss = _cross_entropy(classification_logits(frames, model, head), truth)
                nm.backward(loss, tape)
        return {k: t.grad for k, t in params.items()}

    batched = gradients([(stack, labels)])
    summed = gradients([(stack[i:i + 1], labels[i:i + 1]) for i in range(3)])
    for name, grad in batched.items():
        np.testing.assert_allclose(grad, summed[name] / 3, rtol=1e-4, atol=1e-7, err_msg=name)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds_corpus")
    # static, distinct-color phases: linearly separable by pooled features
    cfg = SynthConfig(
        frames=4, height=16, width=16, num_phases=3,
        motion_speed_range=(0.4, 0.8), noise_sigma=0.0,
    )
    generate_corpus(cfg, 36, 1.0, 7, out)
    return out / "manifest.json"


def test_split_from_manifest_balanced(corpus):
    entries = load_manifest(corpus)
    split = SplitSpec.from_manifest(entries, 18, 6, 12)
    assert len(split.train_ids) == 18 and len(split.val_ids) == 6 and len(split.test_ids) == 12
    phases = [entries[i]["phase_index"] for i in split.train_ids]
    assert np.bincount(phases, minlength=3).tolist() == [6, 6, 6]
    with pytest.raises(ConfigError):
        SplitSpec.from_manifest(entries, 30, 6, 12)
    with pytest.raises(ConfigError):
        SplitSpec([0, 1], [1, 2], [3])


def _consumed(monkeypatch, entries):
    """Spy on `downstream.classification_logits` and `downstream.load_clip`.

    Returns (calls, loads): `calls` gets one (training, clip id) pair per
    clip that a classification call consumes, in order, where training
    means the call ran under an active tape; `loads` gets each loaded path."""
    ids_by_pixels = {load_clip(e["path"]).frames.tobytes(): i for i, e in enumerate(entries)}
    assert len(ids_by_pixels) == len(entries)  # every clip is told apart by its pixels
    calls, loads = [], []
    real_logits, real_load = downstream.classification_logits, downstream.load_clip

    def logits(frames, model, head):
        training = nm.active_tape() is not None
        for clip in frames.reshape(-1, *frames.shape[-4:]):
            calls.append((training, ids_by_pixels[clip.tobytes()]))
        return real_logits(frames, model, head)

    def load(path):
        loads.append(path)
        return real_load(path)

    monkeypatch.setattr(downstream, "classification_logits", logits)
    monkeypatch.setattr(downstream, "load_clip", load)
    return calls, loads


def _assert_test_clips_consumed_once_after_training(calls, test_ids):
    last_train = max(k for k, (training, _) in enumerate(calls) if training)
    test_calls = [(k, i) for k, (training, i) in enumerate(calls) if i in test_ids]
    assert sorted(i for _, i in test_calls) == sorted(test_ids)
    assert all(k > last_train and not calls[k][0] for k, _ in test_calls)


def test_label_fraction_takes_each_phase_in_the_given_train_order():
    # ceil(0.5 * 6) = 3 clips, phases interleaved 0, 1, 0; within a phase the
    # split file's order decides, not the clip ids
    entries = [{"phase_index": p, "labeled": True} for p in (0, 1, 0, 1, 0, 1)]
    train = [4, 1, 0, 5, 2, 3]
    assert labeled_train_ids(entries, train, 0.5) == [0, 1, 4]
    with pytest.raises(ConfigError, match="need 3 labeled"):
        labeled_train_ids([{**e, "labeled": i < 2} for i, e in enumerate(entries)], train, 0.5)
    # no fraction: every labeled train clip, in the given order
    assert labeled_train_ids(entries, train, None) == train


def test_finetune_reaches_full_accuracy_on_separable_corpus(corpus, monkeypatch):
    entries = load_manifest(corpus)
    split = SplitSpec.from_manifest(entries, 18, 6, 12)
    calls, loads = _consumed(monkeypatch, entries)
    bb = BackboneConfig(enc_depth=2, enc_dim=32, enc_heads=2, dec_depth=1, dec_dim=8, dec_heads=2)
    result = finetune_run(
        corpus, split, FinetuneConfig(epochs=40, batch_size=6, lr=1e-2, patience=40, seed=0),
        num_steps=3, bb_cfg=bb,
    )
    assert result["labeled_train"] == 18
    assert result["report"].accuracy == 1.0
    # access audit: training consumes only labeled train clips, and every
    # clip the run uses is read once
    labeled = {i for i in split.train_ids if entries[i]["labeled"]}
    assert {i for training, i in calls if training} <= labeled
    _assert_test_clips_consumed_once_after_training(calls, split.test_ids)
    used = [*labeled, *split.val_ids, *split.test_ids]
    assert sorted(loads) == sorted(entries[i]["path"] for i in used)


def test_finetune_requires_labeled_clips(corpus):
    entries = load_manifest(corpus)
    split = SplitSpec.from_manifest(entries, 18, 6, 12)
    for e in entries:
        e["labeled"] = False
    unlabeled = Path(str(corpus)).parent / "manifest_unlabeled.json"
    rel = [dict(e, path=Path(e["path"]).name) for e in entries]
    unlabeled.write_text(json.dumps(rel, indent=2, sort_keys=True))
    with pytest.raises(ConfigError, match="labeled"):
        finetune_run(unlabeled, split, FinetuneConfig(epochs=1), 3, BB)


def test_evaluate_checkpoint_roundtrip(corpus, tmp_path):
    from selectmae.training import load_checkpoint, save_checkpoint

    entries = load_manifest(corpus)
    split = SplitSpec.from_manifest(entries, 18, 6, 12)
    result = finetune_run(
        corpus, split, FinetuneConfig(epochs=5, batch_size=6, seed=1),
        num_steps=3, bb_cfg=BB,
    )
    arrays = {k: t.data for k, t in result["model"].encoder_named().items()}
    arrays.update({k: t.data for k, t in result["head"].named().items()})
    save_checkpoint(tmp_path / "cls.csma", arrays)
    report = evaluate_checkpoint(
        corpus, split.test_ids, load_checkpoint(tmp_path / "cls.csma"), 3, BB
    )
    assert report.accuracy == pytest.approx(result["report"].accuracy)


def test_empty_validation_split_keeps_the_final_epoch(corpus, tmp_path, monkeypatch):
    from selectmae.training import load_checkpoint, save_checkpoint

    entries = load_manifest(corpus)
    split = SplitSpec.from_manifest(entries, 12, 0, 8)
    calls, _ = _consumed(monkeypatch, entries)
    # with patience 1 an epoch scored against no clips must not count as stale
    result = finetune_run(
        corpus, split, FinetuneConfig(epochs=3, batch_size=6, patience=1, seed=2),
        num_steps=3, bb_cfg=BB,
    )
    assert result["best_epoch"] == 2
    assert result["val_accuracy"] is None
    trained = [i for training, i in calls if training]
    assert len(trained) == 3 * 12 and set(trained) <= set(split.train_ids)
    _assert_test_clips_consumed_once_after_training(calls, split.test_ids)
    arrays = {k: t.data for k, t in result["model"].encoder_named().items()}
    arrays.update({k: t.data for k, t in result["head"].named().items()})
    save_checkpoint(tmp_path / "cls.csma", arrays)
    report = evaluate_checkpoint(
        corpus, split.test_ids, load_checkpoint(tmp_path / "cls.csma"), 3, BB
    )
    assert report.to_json_dict() == result["report"].to_json_dict()


def test_finetune_is_deterministic(corpus, tmp_path):
    from selectmae.training import save_checkpoint

    entries = load_manifest(corpus)
    split = SplitSpec.from_manifest(entries, 18, 6, 12)
    outputs = []
    for run in range(2):
        result = finetune_run(
            corpus, split, FinetuneConfig(epochs=3, batch_size=6, seed=4),
            num_steps=3, bb_cfg=BB,
        )
        report = result["report"].to_json_dict()
        report.update(val_accuracy=result["val_accuracy"], best_epoch=result["best_epoch"])
        arrays = {k: t.data for k, t in result["model"].encoder_named().items()}
        arrays.update({k: t.data for k, t in result["head"].named().items()})
        save_checkpoint(tmp_path / f"cls{run}.csma", arrays)
        outputs.append((json.dumps(report, sort_keys=True), (tmp_path / f"cls{run}.csma").read_bytes()))
    assert outputs[0] == outputs[1]


def _first_step_gradients(corpus, monkeypatch, batch_size):
    """The gradients AdamW is handed at the first fine-tune step, and the
    threads that entered a `downstream.Tape`, with how many nodes each recorded."""
    real_step = downstream.AdamW.step
    grads = []

    def step(opt, lr=None):
        if not grads:
            grads.append({k: p.grad.copy() for k, p in opt.params.items() if p.grad is not None})
        return real_step(opt, lr)

    entered = []

    class SeenTape(nm.Tape):
        def __exit__(self, *exc):
            entered.append((threading.get_ident(), len(self)))
            return super().__exit__(*exc)

    with monkeypatch.context() as mp:
        mp.setattr(downstream.AdamW, "step", step)
        mp.setattr(downstream, "Tape", SeenTape)
        split = SplitSpec.from_manifest(load_manifest(corpus), 12, 0, 3)
        finetune_run(corpus, split, FinetuneConfig(epochs=1, batch_size=batch_size, seed=5),
                     num_steps=3, bb_cfg=BB)
    return grads[0], entered


@pytest.mark.parametrize("batch_size", [6, 5])
def test_two_half_finetune_step_matches_the_step_on_one_tape(corpus, monkeypatch, batch_size):
    grads, entered = _first_step_gradients(corpus, monkeypatch, batch_size)
    # one downstream.Tape per step, entered on this thread, holding the first half
    assert len(entered) == -(-12 // batch_size)
    assert all(ident == threading.get_ident() and nodes > 0 for ident, nodes in entered)
    monkeypatch.setattr(downstream, "run_halves", lambda tape, n, half: [half(0, n, tape)])
    one_tape, _ = _first_step_gradients(corpus, monkeypatch, batch_size)
    assert sorted(grads) == sorted(one_tape)
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, one_tape[name], rtol=1e-5, atol=1e-7, err_msg=name)


def _recording_optimizer(monkeypatch):
    """Make finetune_run build an AdamW that keeps itself in `made` and
    notes, at each step, the parameters whose gradient is all zero."""
    made, unreached = [], []

    class Recording(nm.AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

        def step(self, lr=None, max_norm=None):
            unreached.extend(name for name, t in self.params.items() if not t.grad.any())
            super().step(lr, max_norm)

    monkeypatch.setattr(downstream, "AdamW", Recording)
    return made, unreached


def test_a_default_finetune_step_reaches_every_optimizer_parameter(monkeypatch, tmp_path):
    # AdamW updates a parameter no loss reaches as if its gradient were zero;
    # no parameter of the shipped fine-tune path is one
    synth = SynthConfig()
    manifest = generate_corpus(synth, 6, 1.0, 2, tmp_path / "corpus")
    made, unreached = _recording_optimizer(monkeypatch)
    split = SplitSpec.from_manifest(load_manifest(manifest), 4, 1, 1)
    finetune_run(manifest, split, FinetuneConfig(epochs=1), num_steps=synth.num_phases)
    assert made[0].step_count == 1 and unreached == []


def test_best_weights_restore_writes_into_the_optimizer_buffers(corpus, monkeypatch):
    made, _ = _recording_optimizer(monkeypatch)
    split = SplitSpec.from_manifest(load_manifest(corpus), 12, 6, 3)
    result = finetune_run(corpus, split, FinetuneConfig(epochs=3, batch_size=6, seed=4),
                          num_steps=3, bb_cfg=BB)
    assert result["val_accuracy"] is not None  # the best weights were restored
    (opt,) = made
    assert_owned_by(opt)
    trained = {**result["model"].encoder_named(), **result["head"].named()}
    assert all(opt.params[name] is t for name, t in trained.items())


@pytest.mark.parametrize("stage", ["val", "test"])
def test_a_truncated_clip_fails_the_run_before_its_first_step(stage, corpus, tmp_path,
                                                              monkeypatch):
    entries = load_manifest(corpus)
    split = SplitSpec.from_manifest(entries, 12, 6, 6)
    ids = {"val": split.val_ids, "test": split.test_ids}[stage]
    for e in entries:
        clip = Path(e["path"])
        data = clip.read_bytes()
        if e is entries[ids[-1]]:
            data = data[:-1]
        (tmp_path / clip.name).write_bytes(data)
    rel = [dict(e, path=Path(e["path"]).name) for e in entries]
    (tmp_path / "manifest.json").write_text(json.dumps(rel))
    steps = []
    monkeypatch.setattr(downstream.AdamW, "step", lambda opt, *args, **kwargs: steps.append(1))
    with pytest.raises(FormatError, match="clip payload"):
        finetune_run(tmp_path / "manifest.json", split, FinetuneConfig(epochs=2), 3, BB)
    assert steps == []


def test_finetune_init_checks_the_architecture_a_checkpoint_was_pretrained_with(corpus):
    split = SplitSpec.from_manifest(load_manifest(corpus), 6, 0, 3)
    cfg = FinetuneConfig(epochs=1)
    arrays = {k: t.data for k, t in ModelParams(BB, np.random.default_rng(0))
              .encoder_named().items()}
    finetune_run(corpus, split, cfg, 3, BB, init_arrays=arrays)  # no config: a classifier
    arrays[CONFIG_ENTRY] = config_to_array(
        config_snapshot(backbone=BB, pretrain=PretrainConfig()))
    finetune_run(corpus, split, cfg, 3, BB, init_arrays=arrays)
    # 4 heads of 4 dims hold the same parameter shapes as 2 heads of 8
    four_heads = BackboneConfig(**{**asdict(BB), "enc_heads": 4})
    with pytest.raises(ConfigError, match=r"the config of the encoder init does not match the"
                                          r" run config:\n~ backbone\.enc_heads: 2 -> 4$"):
        finetune_run(corpus, split, cfg, 3, four_heads, init_arrays=arrays)
