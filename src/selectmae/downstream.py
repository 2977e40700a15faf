"""Step-recognition fine-tuning on labeled clips plus evaluation metrics.

Classification runs the encoder over the full token sequence (nothing
masked), mean-pools the token features, and applies a linear head.
Fine-tuning trains the head together with the tokenizer projection and
encoder; precision/recall/Jaccard are macro-averaged over classes
present in the labels, skipping zero-denominator classes per metric.
"""

from __future__ import annotations

import math
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
    cosine_warmup_lr,
    log_softmax,
    mul,
    reduce_mean,
    reduce_sum,
    reshape,
    scale,
)
from .tokenizer import TokenizerConfig, tokenize
from .training import assign_named


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


@dataclass
class SplitSpec:
    train_ids: list
    val_ids: list
    test_ids: list
    label_fraction: float = 1.0
    explicit_labeled: list | None = None  # overrides manifest flags when set

    def __post_init__(self):
        groups = [set(self.train_ids), set(self.val_ids), set(self.test_ids)]
        total = sum(len(g) for g in groups)
        if len(groups[0] | groups[1] | groups[2]) != total:
            raise ConfigError("split id lists must be disjoint")

    @classmethod
    def from_manifest(cls, entries: list[dict], n_train: int, n_val: int, n_test: int) -> "SplitSpec":
        """Phase-balanced split; labeled clips land in the train list."""
        if n_train + n_val + n_test > len(entries):
            raise ConfigError(
                f"split sizes {n_train}+{n_val}+{n_test} exceed corpus of {len(entries)}"
            )
        by_phase: dict[int, list[int]] = {}
        for i, e in enumerate(entries):
            by_phase.setdefault(e["phase_index"], []).append(i)
        phases = sorted(by_phase)
        queues = {p: list(by_phase[p]) for p in phases}
        ordered = []
        while any(queues.values()):
            for p in phases:
                if queues[p]:
                    ordered.append(queues[p].pop(0))
        train = sorted(ordered[:n_train])
        val = sorted(ordered[n_train:n_train + n_val])
        test = sorted(ordered[n_train + n_val:n_train + n_val + n_test])
        labeled = sum(1 for i in train if entries[i]["labeled"])
        return cls(train, val, test, label_fraction=labeled / max(len(train), 1))

    def labeled_train_ids(self, entries: list[dict]) -> list:
        if self.explicit_labeled is not None:
            return list(self.explicit_labeled)
        return [i for i in self.train_ids if entries[i]["labeled"]]


class ClassifierHead:
    def __init__(self, rng: np.random.Generator, enc_dim: int, num_steps: int):
        self.num_steps = num_steps
        self.proj = LinearParams(rng, enc_dim, num_steps)

    def named(self, prefix: str = "classifier.head") -> dict[str, Tensor]:
        return self.proj.named(prefix)


def classification_logits(frames, model: ModelParams, head: ClassifierHead) -> Tensor:
    """Tokenize with everything visible, encode, mean-pool, apply the head."""
    grid = tokenize(frames, model.tok_cfg, model.proj.weight, model.proj.bias)
    features = encode(grid.tokens, model)
    pooled = reshape(reduce_mean(features, axis=0), (1, model.bb_cfg.enc_dim))
    return reshape(linear(pooled, head.proj), (head.num_steps,))


def _cross_entropy(logits: Tensor, label: int, num_steps: int) -> Tensor:
    log_probs = log_softmax(reshape(logits, (1, num_steps)), axis=-1)
    onehot = np.zeros((1, num_steps), dtype=np.float32)
    onehot[0, label] = 1.0
    return scale(reduce_sum(mul(log_probs, Tensor(onehot))), -1.0)


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


class _ClipStore:
    """Caches token patches per clip and records every access."""

    def __init__(self, entries: list[dict], access_log: list | None):
        self.entries = entries
        self.access_log = access_log if access_log is not None else []
        self._cache: dict[int, np.ndarray] = {}

    def frames(self, clip_id: int, stage: str) -> np.ndarray:
        self.access_log.append((stage, self.entries[clip_id]["path"]))
        if clip_id not in self._cache:
            self._cache[clip_id] = load_clip(self.entries[clip_id]["path"]).frames
        return self._cache[clip_id]


def _evaluate(store: _ClipStore, ids, model, head, stage: str) -> np.ndarray:
    preds = []
    for i in ids:
        logits = classification_logits(store.frames(i, stage), model, head)
        preds.append(int(np.argmax(logits.data)))
    return np.asarray(preds, dtype=np.int64)


def finetune_run(
    manifest_path,
    split: SplitSpec,
    cfg: FinetuneConfig,
    num_steps: int,
    tok_cfg: TokenizerConfig | None = None,
    bb_cfg: BackboneConfig | None = None,
    init_arrays: dict | None = None,
    access_log: list | None = None,
) -> dict:
    """Cross-entropy fine-tuning of encoder+head on labeled train clips.

    `init_arrays` holds pretrained checkpoint tensors (scratch when
    None). Early-stops on validation accuracy and reports test metrics
    with the best-validation weights.
    """
    tok_cfg = tok_cfg or TokenizerConfig()
    bb_cfg = bb_cfg or BackboneConfig()
    entries = load_manifest(manifest_path)
    labeled = split.labeled_train_ids(entries)
    if not labeled:
        raise ConfigError("no labeled clips in the training split")
    store = _ClipStore(entries, access_log)

    model = ModelParams(tok_cfg, bb_cfg, np.random.default_rng([cfg.seed, 0]))
    if init_arrays is not None:
        assign_named(model.encoder_named(), init_arrays, "(encoder init)")
    head = ClassifierHead(np.random.default_rng([cfg.seed, 2]), bb_cfg.enc_dim, num_steps)
    trained = dict(model.encoder_named())
    trained.update(head.named())
    optimizer = AdamW(trained, lr=cfg.lr, betas=cfg.betas, weight_decay=cfg.weight_decay)

    steps_per_epoch = math.ceil(len(labeled) / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    best = {"val_accuracy": -1.0, "arrays": None, "epoch": -1}
    stale = 0
    step = 0
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, 3, epoch]).permutation(len(labeled))
        for b in range(steps_per_epoch):
            ids = [labeled[i] for i in order[b * cfg.batch_size:(b + 1) * cfg.batch_size]]
            lr = cosine_warmup_lr(step, total_steps, cfg.lr, cfg.min_lr, cfg.warmup_steps)
            with Tape() as tape:
                total = None
                for clip_id in ids:
                    logits = classification_logits(store.frames(clip_id, "train"), model, head)
                    ce = _cross_entropy(logits, entries[clip_id]["phase_index"], num_steps)
                    total = ce if total is None else total + ce
                total = scale(total, 1.0 / len(ids))
                backward(total, tape)
            optimizer.step(lr)
            optimizer.zero_grad()
            step += 1
        val_preds = _evaluate(store, split.val_ids, model, head, "val")
        val_truth = np.array([entries[i]["phase_index"] for i in split.val_ids])
        val_acc = float((val_preds == val_truth).mean()) if split.val_ids else 1.0
        if val_acc > best["val_accuracy"]:
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
            t.data = best["arrays"][k]

    test_preds = _evaluate(store, split.test_ids, model, head, "test")
    test_truth = np.array([entries[i]["phase_index"] for i in split.test_ids])
    report = compute_metrics(test_preds, test_truth, num_steps)
    return {
        "report": report,
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
    tok_cfg: TokenizerConfig | None = None,
    bb_cfg: BackboneConfig | None = None,
    access_log: list | None = None,
) -> MetricsReport:
    """Eval-only path: classifier checkpoint -> MetricsReport on given ids."""
    tok_cfg = tok_cfg or TokenizerConfig()
    bb_cfg = bb_cfg or BackboneConfig()
    entries = load_manifest(manifest_path)
    store = _ClipStore(entries, access_log)
    model = ModelParams(tok_cfg, bb_cfg, np.random.default_rng(0))
    assign_named(model.encoder_named(), arrays, "(encoder)")
    head = ClassifierHead(np.random.default_rng(1), bb_cfg.enc_dim, num_steps)
    assign_named(head.named(), arrays, "(classifier head)")
    preds = _evaluate(store, split_ids, model, head, "test")
    truth = np.array([entries[i]["phase_index"] for i in split_ids])
    return compute_metrics(preds, truth, num_steps)
