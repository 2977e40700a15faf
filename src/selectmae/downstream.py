"""Step-recognition fine-tuning on labeled clips plus evaluation metrics.

Classification runs the encoder over the full token sequence (nothing
masked) of each clip in a (B, ...) stack, mean-pools the token
features, and applies a linear head; one clip is B = 1. Fine-tuning
trains the head together with the tokenizer projection and encoder;
a step runs its batch as two stacked half-batches at once, each with
its own tape and backward pass. `finetune_run` reads every clip it
uses (labeled train, val and test) once, before its first step, so a
corrupt clip stops the run before any training. Validation, the test
pass and `evaluate_checkpoint` share one evaluation, which classifies
one clip per call. Precision/recall/Jaccard are macro-averaged over
classes present in the labels, skipping zero-denominator classes per
metric.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .backbone import BackboneConfig, ModelParams, encode
from .data import load_clip, load_manifest
from .errors import ConfigError, DataError
from .layers import LinearParams, linear
from .numerics import (
    AdamW,
    Tape,
    Tensor,
    backward,
    check_schedule,
    cosine_warmup_lr,
    log_softmax,
    mul,
    reduce_mean,
    reduce_sum,
    reshape,
    run_halves,
    scale,
)
from .tokenizer import tokenize
from .training import assign_named, config_diff, config_snapshot, written_config


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    jaccard: float
    confusion: np.ndarray  # (num_steps, num_steps), rows = ground truth

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "jaccard": self.jaccard,
            "confusion": self.confusion.astype(int).tolist(),
        }


def compute_metrics(predictions, labels, num_steps: int) -> MetricsReport:
    """Accuracy plus macro precision/recall/Jaccard from a confusion matrix.

    Classes absent from the labels are excluded; a class with a zero
    denominator for one metric is excluded from that metric's mean only.
    """
    preds = np.asarray(predictions, dtype=np.int64)
    truth = np.asarray(labels, dtype=np.int64)
    if preds.shape != truth.shape or preds.ndim != 1 or preds.size < 1:
        raise DataError(f"predictions {preds.shape} and labels {truth.shape} must be equal-length 1-D")
    for name, arr in (("prediction", preds), ("label", truth)):
        if arr.min() < 0 or arr.max() >= num_steps:
            raise DataError(f"{name} outside 0..{num_steps - 1}")
    confusion = np.zeros((num_steps, num_steps), dtype=np.int64)
    np.add.at(confusion, (truth, preds), 1)

    tp = np.diag(confusion).astype(np.float64)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    present = confusion.sum(axis=1) > 0

    def macro(numer, denom) -> float:
        include = present & (denom > 0)
        if not include.any():
            return 0.0
        return float((numer[include] / denom[include]).mean())

    return MetricsReport(
        accuracy=float(tp.sum() / preds.size),
        precision=macro(tp, tp + fp),
        recall=macro(tp, tp + fn),
        jaccard=macro(tp, tp + fp + fn),
        confusion=confusion,
    )


def phase_round_robin(entries: list[dict], ids) -> list[int]:
    """`ids` interleaved by phase: the first clip of each phase in phase
    order, then the second of each, and so on; each phase's clips keep
    their order in `ids`."""
    by_phase: dict[int, list[int]] = {}
    for i in ids:
        by_phase.setdefault(entries[i]["phase_index"], []).append(i)
    queues = [by_phase[p] for p in sorted(by_phase)]
    depth = max(map(len, queues), default=0)
    return [q[k] for k in range(depth) for q in queues if k < len(q)]


@dataclass
class SplitSpec:
    train_ids: list
    val_ids: list
    test_ids: list

    def __post_init__(self):
        groups = []
        for name, ids in (("train", self.train_ids), ("val", self.val_ids),
                          ("test", self.test_ids)):
            counts = Counter(ids)
            repeated = [i for i, count in counts.items() if count > 1]
            if repeated:
                raise ConfigError(f"split id {repeated[0]} appears"
                                  f" {counts[repeated[0]]} times in the {name} list")
            groups.append(set(counts))
        if len(set.union(*groups)) != sum(map(len, groups)):
            raise ConfigError("split id lists must be disjoint")

    @classmethod
    def from_manifest(cls, entries: list[dict], n_train: int, n_val: int, n_test: int) -> "SplitSpec":
        """Phase-balanced split; labeled clips land in the train list."""
        for name, count in (("train", n_train), ("val", n_val), ("test", n_test)):
            if count < 0:
                raise ConfigError(f"split {name} count must be >= 0, got {count}")
        if n_train + n_val + n_test > len(entries):
            raise ConfigError(
                f"split sizes {n_train}+{n_val}+{n_test} exceed corpus of {len(entries)}"
            )
        ordered = phase_round_robin(entries, range(len(entries)))
        train = sorted(ordered[:n_train])
        val = sorted(ordered[n_train:n_train + n_val])
        test = sorted(ordered[n_train + n_val:n_train + n_val + n_test])
        return cls(train, val, test)


class ClassifierHead:
    def __init__(self, rng: np.random.Generator, enc_dim: int, num_steps: int):
        self.num_steps = num_steps
        self.proj = LinearParams(rng, enc_dim, num_steps)

    def named(self, prefix: str = "classifier.head") -> dict[str, Tensor]:
        return self.proj.named(prefix)


def classification_logits(frames: np.ndarray, model: ModelParams, head: ClassifierHead) -> Tensor:
    """Logits (..., num_steps) of (..., T, C, H, W) float frames: the
    leading dims are flattened into one batch, tokenized with everything
    visible, encoded, mean-pooled over the tokens and put through the head."""
    lead = frames.shape[:-4]
    tokens = tokenize(frames.reshape(-1, *frames.shape[-4:]), model.bb_cfg.tubelet,
                      model.proj.weight, model.proj.bias)
    pooled = reduce_mean(encode(tokens, model), axis=1)
    return reshape(linear(pooled, head.proj), (*lead, head.num_steps))


def _cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over the batch of each clip's cross-entropy; logits (B, num_steps)."""
    onehot = np.zeros(logits.shape, dtype=np.float32)
    onehot[np.arange(labels.size), labels] = 1.0
    log_probs = log_softmax(logits, axis=-1)
    return scale(reduce_sum(mul(log_probs, Tensor(onehot))), -1.0 / labels.size)


@dataclass
class FinetuneConfig:
    epochs: int = 40
    batch_size: int = 6
    lr: float = 1e-2
    min_lr: float = 1e-5
    warmup_steps: int = 10
    betas: tuple[float, float] = (0.9, 0.95)
    weight_decay: float = 0.05
    patience: int = 10  # epochs without val-accuracy improvement
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        check_schedule(self.betas, self.weight_decay, self.warmup_steps, self.min_lr)


def _check_labels(entries: list[dict], ids, num_steps: int):
    """Every clip in `ids` carries a label the num_steps-way head can score."""
    for i in ids:
        if not 0 <= entries[i]["phase_index"] < num_steps:
            raise ConfigError(
                f"clip {i} ({entries[i]['path']}) has phase_index {entries[i]['phase_index']},"
                f" outside the {num_steps} phases of data.num_phases"
            )


def _check_architecture(arrays: dict, bb_cfg: BackboneConfig, path):
    """Raise ConfigError where the backbone config a checkpoint was
    written with differs from the run's. A checkpoint without a config,
    as perfbench writes its classifiers, is not checked."""
    written = written_config(arrays, path)
    if written is None:
        return
    run = config_snapshot(backbone=bb_cfg)
    diff = config_diff({k: written[k] for k in run if k in written}, run)
    if diff:
        raise ConfigError(
            "checkpoint architecture does not match the run config:\n" + "\n".join(diff)
        )


def _classify(clips: dict, ids, entries: list[dict], model, head) -> MetricsReport:
    """Metrics of the clips `ids` against their manifest labels, one clip per call."""
    preds = [int(np.argmax(classification_logits(clips[i].frames, model, head).data))
             for i in ids]
    truth = [entries[i]["phase_index"] for i in ids]
    return compute_metrics(preds, truth, head.num_steps)


def finetune_run(
    manifest_path,
    split: SplitSpec,
    cfg: FinetuneConfig,
    num_steps: int,
    bb_cfg: BackboneConfig | None = None,
    init_arrays: dict | None = None,
) -> dict:
    """Cross-entropy fine-tuning of encoder+head on labeled train clips.

    `init_arrays` holds pretrained checkpoint tensors (scratch when
    None); the backbone config a checkpoint embeds, tubelet included,
    must equal `bb_cfg`. Early-stops on validation accuracy and reports test
    metrics with the best-validation weights. With no validation clips it
    trains every epoch, keeps the final weights and reports `val_accuracy`
    None.
    """
    bb_cfg = bb_cfg or BackboneConfig()
    if init_arrays is not None:
        _check_architecture(init_arrays, bb_cfg, "the encoder init")
    entries = load_manifest(manifest_path)
    labeled = [i for i in split.train_ids if entries[i]["labeled"]]
    if not labeled:
        raise ConfigError("no labeled clips in the training split")
    if not split.test_ids:
        raise ConfigError("the test split is empty: no clips to report metrics on")
    used = [*labeled, *split.val_ids, *split.test_ids]
    _check_labels(entries, used, num_steps)
    clips = {i: load_clip(entries[i]["path"]) for i in used}

    model = ModelParams(bb_cfg, np.random.default_rng([cfg.seed, 0]))
    if init_arrays is not None:
        assign_named(model.encoder_named(), init_arrays, "(encoder init)")
    head = ClassifierHead(np.random.default_rng([cfg.seed, 2]), bb_cfg.enc_dim, num_steps)
    trained = dict(model.encoder_named())
    trained.update(head.named())
    optimizer = AdamW(trained, lr=cfg.lr, betas=cfg.betas, weight_decay=cfg.weight_decay)

    steps_per_epoch = math.ceil(len(labeled) / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    best = {"val_accuracy": None, "arrays": None, "epoch": -1}
    stale = 0
    step = 0
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, 3, epoch]).permutation(len(labeled))
        for b in range(steps_per_epoch):
            ids = [labeled[i] for i in order[b * cfg.batch_size:(b + 1) * cfg.batch_size]]
            lr = cosine_warmup_lr(step, total_steps, cfg.lr, cfg.min_lr, cfg.warmup_steps)
            labels = np.array([entries[i]["phase_index"] for i in ids])
            with Tape() as tape:
                frames = np.stack([clips[i].frames for i in ids])

                def half(lo, hi, half_tape):
                    logits = classification_logits(frames[lo:hi], model, head)
                    loss = _cross_entropy(logits, labels[lo:hi])
                    backward(scale(loss, (hi - lo) / len(ids)), half_tape)

                run_halves(tape, len(ids), half)
            optimizer.step(lr)
            optimizer.zero_grad()
            step += 1
        if not split.val_ids:
            best["epoch"] = epoch
            continue
        val_acc = _classify(clips, split.val_ids, entries, model, head).accuracy
        if best["arrays"] is None or val_acc > best["val_accuracy"]:
            best = {
                "val_accuracy": val_acc,
                "arrays": {k: t.data.copy() for k, t in trained.items()},
                "epoch": epoch,
            }
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    if best["arrays"] is not None:
        for k, t in trained.items():
            t.data[...] = best["arrays"][k]

    return {
        "report": _classify(clips, split.test_ids, entries, model, head),
        "model": model,
        "head": head,
        "val_accuracy": best["val_accuracy"],
        "best_epoch": best["epoch"],
        "labeled_train": len(labeled),
    }


def evaluate_checkpoint(
    manifest_path,
    split_ids,
    arrays: dict,
    num_steps: int,
    bb_cfg: BackboneConfig | None = None,
) -> MetricsReport:
    """Eval-only path: classifier checkpoint -> MetricsReport on given ids.
    The backbone config a checkpoint embeds, where it holds one, must
    equal `bb_cfg`."""
    bb_cfg = bb_cfg or BackboneConfig()
    _check_architecture(arrays, bb_cfg, "the classifier")
    if not len(split_ids):
        raise ConfigError("the test split is empty: no clips to report metrics on")
    entries = load_manifest(manifest_path)
    _check_labels(entries, split_ids, num_steps)
    clips = {i: load_clip(entries[i]["path"]) for i in split_ids}
    model = ModelParams(bb_cfg, np.random.default_rng(0))
    assign_named(model.encoder_named(), arrays, "(encoder)")
    head = ClassifierHead(np.random.default_rng(1), bb_cfg.enc_dim, num_steps)
    assign_named(head.named(), arrays, "(classifier head)")
    return _classify(clips, split_ids, entries, model, head)
