import numpy as np
import pytest

from selectmae.backbone import BackboneConfig, ModelParams
from selectmae.data import SynthConfig, generate_clip, generate_corpus, load_manifest
from selectmae.downstream import (
    ClassifierHead,
    FinetuneConfig,
    SplitSpec,
    classification_logits,
    compute_metrics,
    evaluate_checkpoint,
    finetune_run,
)
from selectmae.errors import ConfigError, DataError
from selectmae.tokenizer import TokenizerConfig

TOK = TokenizerConfig(tubelet=(2, 4, 4), dim=16)
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
    with pytest.raises(DataError):
        compute_metrics([0, 1], [0], 2)
    with pytest.raises(DataError):
        compute_metrics([0, 5], [0, 1], 2)
    with pytest.raises(DataError):
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
    model = ModelParams(TOK, BB, np.random.default_rng(0))
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
    from selectmae.numerics import reduce_mean, reshape
    from selectmae.layers import linear
    from selectmae.tokenizer import tokenize

    clip = generate_clip(SYNTH, 1, 3)
    model = ModelParams(TOK, BB, np.random.default_rng(0))
    head = ClassifierHead(np.random.default_rng(1), 16, 3)
    grid = tokenize(clip, TOK, model.proj.weight, model.proj.bias)
    perm = np.random.default_rng(4).permutation(grid.n_tokens)

    def pooled_logits(tokens):
        feats = encode(tokens, model)
        pooled = reshape(reduce_mean(feats, axis=0), (1, 16))
        return reshape(linear(pooled, head.proj), (3,)).data

    base = pooled_logits(grid.tokens)
    permuted = pooled_logits(nm.Tensor(grid.tokens.data[perm]))
    np.testing.assert_allclose(permuted, base, atol=1e-5)


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
    assert split.label_fraction == 1.0
    with pytest.raises(ConfigError):
        SplitSpec.from_manifest(entries, 30, 6, 12)
    with pytest.raises(ConfigError):
        SplitSpec([0, 1], [1, 2], [3], 1.0)


def test_finetune_reaches_full_accuracy_on_separable_corpus(corpus):
    entries = load_manifest(corpus)
    split = SplitSpec.from_manifest(entries, 18, 6, 12)
    log = []
    tok = TokenizerConfig(tubelet=(2, 4, 4), dim=32)
    bb = BackboneConfig(enc_depth=2, enc_dim=32, enc_heads=2, dec_depth=1, dec_dim=8, dec_heads=2)
    result = finetune_run(
        corpus, split, FinetuneConfig(epochs=40, batch_size=6, lr=1e-2, patience=40, seed=0),
        num_steps=3, tok_cfg=tok, bb_cfg=bb, access_log=log,
    )
    assert result["labeled_train"] == 18
    assert result["report"].accuracy == 1.0
    # access audit: training touches only labeled train clips
    train_paths = {entries[i]["path"] for i in split.train_ids if entries[i]["labeled"]}
    test_paths = {entries[i]["path"] for i in split.test_ids}
    seen_train = {p for stage, p in log if stage == "train"}
    assert seen_train <= train_paths
    assert all(stage == "test" for stage, p in log if p in test_paths)


def test_finetune_requires_labeled_clips(corpus):
    entries = load_manifest(corpus)
    split = SplitSpec.from_manifest(entries, 18, 6, 12)
    for e in entries:
        e["labeled"] = False
    import json
    from pathlib import Path

    unlabeled = Path(str(corpus)).parent / "manifest_unlabeled.json"
    rel = [dict(e, path=Path(e["path"]).name) for e in entries]
    unlabeled.write_text(json.dumps(rel, indent=2, sort_keys=True))
    with pytest.raises(ConfigError, match="labeled"):
        finetune_run(unlabeled, split, FinetuneConfig(epochs=1), 3, TOK, BB)


def test_evaluate_checkpoint_roundtrip(corpus, tmp_path):
    from selectmae.training import load_checkpoint, save_checkpoint

    entries = load_manifest(corpus)
    split = SplitSpec.from_manifest(entries, 18, 6, 12)
    result = finetune_run(
        corpus, split, FinetuneConfig(epochs=5, batch_size=6, seed=1),
        num_steps=3, tok_cfg=TOK, bb_cfg=BB,
    )
    arrays = {k: t.data for k, t in result["model"].encoder_named().items()}
    arrays.update({k: t.data for k, t in result["head"].named().items()})
    save_checkpoint(tmp_path / "cls.csma", arrays)
    report = evaluate_checkpoint(
        corpus, split.test_ids, load_checkpoint(tmp_path / "cls.csma"), 3, TOK, BB
    )
    assert report.accuracy == pytest.approx(result["report"].accuracy)
