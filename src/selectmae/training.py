"""Losses, the isolated-gradient pretraining step, and the run loop.

One joint backward pass serves both objectives. Stop-gradient barriers
keep them apart: the selection network reads detached token values, so
its score-function loss trains only the selector; the reconstruction
loss never touches the selector because sampling consumes indices, not
probabilities. Per-masked-token errors enter the selection loss as
constants.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .backbone import BackboneConfig, ModelParams, decode, encode
from .data import (
    PatchTargets,
    load_clip,
    load_manifest,
    load_mask,
    mask_path_for,
    patch_normalize_targets,
    write_atomically,
)
from .errors import ConfigError, ContractError, FormatError, NumericError, ShapeError
# Unused here; bound because perfbench/tracer.py patches these names in this module.
from .layers import apply_layer_norm, linear, transformer_block
from .masking import (
    STRATEGIES,
    SelectionParams,
    baseline_mask,
    sample_visible,
    select_probabilities,
)
from .numerics import (
    AdamW,
    Tape,
    Tensor,
    absolute,
    add,
    backward,
    cosine_warmup_lr,
    gather_rows_batched,
    mul,
    reduce_mean,
    reshape,
    scale,
    stop_gradient,
    sub,
)
from .tokenizer import (
    TokenizerConfig,
    embed_patches,
    unfold_clip,
)

CKPT_MAGIC = b"CSMA"
CKPT_VERSION = 1

LOSS_KINDS = ("mse", "l1")


@dataclass
class LossReport:
    step: int
    recon: float  # L_R, mean over the batch
    select: float  # L_select, mean over the batch (0.0 for baselines)
    per_token: list  # per-clip arrays of per-masked-token errors
    fg_mass: float | None = None  # mean probability mass on foreground tokens


@dataclass
class PretrainConfig:
    mask_ratio: float = 0.95
    epochs: int = 800
    batch_size: int = 8
    max_steps: int | None = 2000  # desk-scale cap; None runs all epochs
    base_lr: float = 1.5e-4
    min_lr: float = 1e-6
    warmup_steps: int = 100
    betas: tuple[float, float] = (0.9, 0.95)
    weight_decay: float = 0.05
    loss_kind: str = "mse"
    normalize_targets: bool = True
    strategy: str = "adaptive"
    selection_weight: float = 1.0
    grad_clip: float | None = None
    seed: int = 0
    ckpt_every: int = 500

    def __post_init__(self):
        if not 0.0 < self.mask_ratio < 1.0:
            raise ConfigError(f"mask_ratio must be in (0, 1), got {self.mask_ratio}")
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss_kind must be one of {LOSS_KINDS}, got '{self.loss_kind}'")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got '{self.strategy}'")
        if self.selection_weight < 0:
            raise ConfigError("selection_weight must be >= 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be positive")


def reconstruction_loss(
    preds: Tensor, target_rows: np.ndarray, kind: str = "mse"
) -> tuple[Tensor, Tensor]:
    """Masked-patch error of (B, n_masked, patch_len) predictions against
    the target rows at the same masked positions: per-token mean over the
    patch vector, then the mean over every masked token, which equals the
    mean of per-clip means. Returns (scalar loss, (B, n_masked) errors)."""
    if kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind '{kind}'")
    target_rows = Tensor(target_rows)
    if preds.shape != target_rows.shape:
        raise ContractError(
            f"prediction rows {preds.shape} != target rows {target_rows.shape}"
        )
    diff = sub(preds, target_rows)
    if kind == "mse":
        per_token = reduce_mean(mul(diff, diff), axis=-1)
    else:
        per_token = reduce_mean(absolute(diff), axis=-1)
    return reduce_mean(per_token), per_token


def selection_loss(log_probs: Tensor, errors: Tensor, masked_ids) -> Tensor:
    """Score-function objective: -(1/|masked|) sum log(P_i) * err_i, over
    the masked tokens of every clip.

    `log_probs` is (B, N), `errors` and `masked_ids` are (B, n_masked).
    Minimizing it raises selection probability where reconstruction is
    hardest. The errors must be detached; gradient flows only through
    the probabilities.
    """
    if errors.tracked or errors.requires_grad:
        raise ContractError("per-token errors must be detached before the selection loss")
    masked_ids = np.asarray(masked_ids, dtype=np.int64)
    if (errors.shape != masked_ids.shape or log_probs.ndim != 2
            or log_probs.shape[0] != masked_ids.shape[0]):
        raise ShapeError(
            f"{errors.shape} errors for {masked_ids.shape} masked ids"
            f" and {log_probs.shape} log-probabilities"
        )
    n_batch, n_tokens = log_probs.shape
    log_p = gather_rows_batched(reshape(log_probs, (n_batch, n_tokens, 1)), masked_ids)
    return scale(reduce_mean(mul(reshape(log_p, errors.shape), errors)), -1.0)


@dataclass
class ClipBatchItem:
    """A clip prepared for the training step."""
    frames: np.ndarray
    targets: PatchTargets
    patches: np.ndarray  # raw flattened tubelets, cached once per clip
    grid: tuple[int, int, int]
    fg_token_ids: np.ndarray | None = None


def prepare_clip(frames: np.ndarray, tok_cfg: TokenizerConfig, cfg: PretrainConfig,
                 fg_mask: np.ndarray | None = None) -> ClipBatchItem:
    targets = patch_normalize_targets(frames, tok_cfg, normalize=cfg.normalize_targets)
    fg_ids = None
    if fg_mask is not None:
        cells = unfold_clip(fg_mask[:, None, :, :].astype(np.float32), tok_cfg.tubelet)
        fg_ids = np.flatnonzero(cells.max(axis=1) > 0)
    patches = unfold_clip(frames, tok_cfg.tubelet).astype(np.float32)
    return ClipBatchItem(frames, targets, patches, tok_cfg.grid_dims(frames.shape), fg_ids)


def pretrain_step(
    batch: list[ClipBatchItem],
    model: ModelParams,
    selector: SelectionParams,
    optimizer: AdamW,
    cfg: PretrainConfig,
    rngs: list[np.random.Generator],
    lr: float | None = None,
    step_index: int = 0,
) -> LossReport:
    """One optimization step over a batch of clips; updates parameters.

    All clips run as one batched graph: masks are sampled per clip from
    per-clip RNG streams, then visible gathering, encoding, decoding,
    and both losses operate on stacked (batch, ...) tensors. Every clip
    in the batch therefore shares the token-count geometry.
    """
    if len(rngs) != len(batch):
        raise ContractError(f"{len(rngs)} rng streams for {len(batch)} clips")
    adaptive = cfg.strategy == "adaptive"
    grid = batch[0].grid
    with Tape() as tape:
        patches = Tensor(np.stack([item.patches for item in batch]))
        tokens = embed_patches(patches, model.tok_cfg, model.proj.weight, model.proj.bias)

        pmap = None
        if adaptive:
            pmap = select_probabilities(stop_gradient(tokens), selector)
            specs = [
                sample_visible(pmap.probs.data[i], cfg.mask_ratio, rng)
                for i, rng in enumerate(rngs)
            ]
        else:
            specs = [baseline_mask(cfg.strategy, grid, cfg.mask_ratio, rng) for rng in rngs]
        visible_ids = np.stack([s.visible_ids for s in specs])
        masked_ids = np.stack([s.masked_ids for s in specs])

        latents = encode(gather_rows_batched(tokens, visible_ids), model)
        preds = decode(latents, visible_ids, masked_ids, model)
        target_rows = np.stack([
            item.targets.values[ids] for item, ids in zip(batch, masked_ids)
        ])
        recon, per_token = reconstruction_loss(preds, target_rows, cfg.loss_kind)

        select_value = 0.0
        total = recon
        if adaptive:
            select = selection_loss(pmap.log_probs, stop_gradient(per_token), masked_ids)
            select_value = select.item()
            total = add(recon, scale(select, cfg.selection_weight))
        if not np.isfinite(total.item()):
            raise NumericError(f"non-finite loss at step {step_index}")
        backward(total, tape)
    if cfg.grad_clip is not None:
        _clip_grad_norm(optimizer.params.values(), cfg.grad_clip)
    optimizer.step(lr)
    optimizer.zero_grad()

    fg_mass = None
    if adaptive:
        masses = [
            float(pmap.probs.data[i, item.fg_token_ids].sum())
            for i, item in enumerate(batch)
            if item.fg_token_ids is not None
        ]
        fg_mass = float(np.mean(masses)) if masses else None
    return LossReport(
        step=step_index,
        recon=recon.item(),
        select=select_value,
        per_token=[row.copy() for row in per_token.data],
        fg_mass=fg_mass,
    )


def _clip_grad_norm(params, max_norm: float):
    total = 0.0
    grads = [p.grad for p in params if p.grad is not None]
    for g in grads:
        total += float((g.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        factor = max_norm / (norm + 1e-12)
        for g in grads:
            g *= factor


# ---------------------------------------------------------------------------
# Checkpoint container: magic "CSMA", version u32, entry count u32, then per
# tensor: name length u16 + UTF-8 name, ndim u8, dims u32 each, raw
# little-endian 32-bit floats. Entries are written in sorted-name order so
# files are byte-identical across runs.

def save_checkpoint(path, arrays: dict[str, np.ndarray]):
    """Write the checkpoint atomically: a failed or interrupted save
    leaves any earlier file at `path` as it was."""

    def write(f):
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<II", CKPT_VERSION, len(arrays)))
        for name in sorted(arrays):
            arr = np.asarray(arrays[name], dtype="<f4")  # not ascontiguousarray: keeps 0-d
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<I", dim))
            f.write(arr.tobytes())

    write_atomically(path, write)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    blob = Path(path).read_bytes()
    if blob[:4] != CKPT_MAGIC:
        raise FormatError(f"bad checkpoint magic in {path}")
    out: dict[str, np.ndarray] = {}
    try:
        version, count = struct.unpack_from("<II", blob, 4)
        if version != CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        offset = 12
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            dims = struct.unpack_from(f"<{ndim}I", blob, offset) if ndim else ()
            offset += 4 * ndim
            size = int(np.prod(dims)) if dims else 1
            arr = np.frombuffer(blob, dtype="<f4", count=size, offset=offset)
            offset += 4 * size
            out[name] = arr.reshape(dims).copy()
    except (struct.error, ValueError) as exc:
        raise FormatError(f"truncated checkpoint {path}: {exc}") from exc
    if offset != len(blob):
        raise FormatError(f"checkpoint {path} has {len(blob) - offset} trailing bytes")
    return out


def config_to_array(config: dict) -> np.ndarray:
    raw = json.dumps(config, sort_keys=True).encode("utf-8")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.float32)


def array_to_config(arr: np.ndarray) -> dict:
    return json.loads(bytes(arr.astype(np.uint8)).decode("utf-8"))


def assign_named(tensors: dict[str, Tensor], arrays: dict[str, np.ndarray], context: str = ""):
    for name, tensor in tensors.items():
        if name not in arrays:
            raise FormatError(f"checkpoint missing tensor '{name}' {context}")
        arr = arrays[name]
        if tuple(arr.shape) != tuple(tensor.shape):
            raise ConfigError(
                f"checkpoint tensor '{name}' has shape {arr.shape}, expected {tensor.shape}"
            )
        tensor.data = arr.astype(tensor.data.dtype).copy()


def _config_snapshot(tok_cfg: TokenizerConfig, bb_cfg: BackboneConfig,
                     cfg: PretrainConfig) -> dict:
    snap = {
        "tokenizer": asdict(tok_cfg),
        "backbone": asdict(bb_cfg),
        "pretrain": asdict(cfg),
    }
    snap["tokenizer"]["tubelet"] = list(snap["tokenizer"]["tubelet"])
    snap["pretrain"]["betas"] = list(snap["pretrain"]["betas"])
    return snap


def config_diff(expected: dict, actual: dict, prefix: str = "") -> list[str]:
    lines = []
    keys = sorted(set(expected) | set(actual))
    for key in keys:
        path = f"{prefix}.{key}" if prefix else key
        if key not in expected:
            lines.append(f"+ {path} = {actual[key]!r}")
        elif key not in actual:
            lines.append(f"- {path} = {expected[key]!r}")
        elif isinstance(expected[key], dict) and isinstance(actual[key], dict):
            lines.extend(config_diff(expected[key], actual[key], path))
        elif expected[key] != actual[key]:
            lines.append(f"~ {path}: {expected[key]!r} -> {actual[key]!r}")
    return lines


class PretrainRun:
    """Owns the parameters, optimizer, corpus cache, and metrics log."""

    def __init__(
        self,
        manifest_path,
        out_dir,
        cfg: PretrainConfig,
        tok_cfg: TokenizerConfig | None = None,
        bb_cfg: BackboneConfig | None = None,
    ):
        self.cfg = cfg
        self.tok_cfg = tok_cfg or TokenizerConfig()
        self.bb_cfg = bb_cfg or BackboneConfig()
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.snapshot = _config_snapshot(self.tok_cfg, self.bb_cfg, cfg)

        entries = load_manifest(manifest_path)
        if not entries:
            raise ConfigError(f"empty corpus manifest {manifest_path}")
        self.items: list[ClipBatchItem] = []
        for entry in entries:
            clip = load_clip(entry["path"])
            fg = None
            mask_file = mask_path_for(entry["path"])
            if mask_file.exists():
                fg = load_mask(mask_file)
            self.items.append(prepare_clip(clip.frames, self.tok_cfg, cfg, fg))

        self.model = ModelParams(self.tok_cfg, self.bb_cfg, np.random.default_rng([cfg.seed, 0]))
        self.selector = SelectionParams(np.random.default_rng([cfg.seed, 1]), self.tok_cfg.dim)
        trained = dict(self.model.named())
        if cfg.strategy == "adaptive":
            trained.update(self.selector.named())
        self.optimizer = AdamW(
            trained, lr=cfg.base_lr, betas=cfg.betas, weight_decay=cfg.weight_decay
        )
        steps_per_epoch = math.ceil(len(self.items) / cfg.batch_size)
        self.total_steps = steps_per_epoch * cfg.epochs
        if cfg.max_steps is not None:
            self.total_steps = min(self.total_steps, cfg.max_steps)
        self.steps_per_epoch = steps_per_epoch
        self.start_step = 0
        self.resumed_from: Path | None = None

    def checkpoint_arrays(self, completed_steps: int) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] = {}
        for name, t in self.model.named().items():
            arrays[name] = t.data
        for name, t in self.selector.named().items():
            arrays[name] = t.data
        arrays.update(self.optimizer.state_arrays())
        arrays["trainer.step"] = np.array([completed_steps], dtype=np.float32)
        arrays["meta.config_utf8"] = config_to_array(self.snapshot)
        return arrays

    def save(self, completed_steps: int) -> Path:
        path = self.out_dir / f"checkpoint_{completed_steps:06d}.csma"
        save_checkpoint(path, self.checkpoint_arrays(completed_steps))
        return path

    def resume(self, checkpoint_path):
        arrays = load_checkpoint(checkpoint_path)
        stored = array_to_config(arrays["meta.config_utf8"])
        diff = config_diff(stored, self.snapshot)
        if diff:
            raise ConfigError(
                "checkpoint config does not match the run config:\n" + "\n".join(diff)
            )
        assign_named(self.model.named(), arrays, "(model)")
        assign_named(self.selector.named(), arrays, "(selector)")
        self.optimizer.load_state_arrays(arrays)
        self.start_step = int(arrays["trainer.step"][0])
        self.resumed_from = Path(checkpoint_path)

    def _batch_ids(self, step: int) -> np.ndarray:
        epoch = step // self.steps_per_epoch
        index = step % self.steps_per_epoch
        order = np.random.default_rng([self.cfg.seed, 2, epoch]).permutation(len(self.items))
        return order[index * self.cfg.batch_size:(index + 1) * self.cfg.batch_size]

    def run(self) -> dict:
        cfg = self.cfg
        log_path = self.out_dir / "metrics.jsonl"
        # A resume in place keeps the complete lines of the steps before the
        # checkpoint and drops those an interrupted run logged after it.
        kept = []
        if self.start_step > 0 and log_path.exists():
            kept = [
                line for line in log_path.read_text().splitlines(keepends=True)
                if line.endswith("\n") and json.loads(line)["step"] < self.start_step
            ]
        last_ckpt = self.resumed_from
        final_recon = float("nan")
        with open(log_path, "w") as log:
            log.writelines(kept)
            for step in range(self.start_step, self.total_steps):
                ids = self._batch_ids(step)
                batch = [self.items[i] for i in ids]
                rngs = [np.random.default_rng([cfg.seed, 3, step, j]) for j in range(len(batch))]
                lr = cosine_warmup_lr(
                    step, self.total_steps, cfg.base_lr, cfg.min_lr, cfg.warmup_steps
                )
                try:
                    report = pretrain_step(
                        batch, self.model, self.selector, self.optimizer, cfg, rngs,
                        lr=lr, step_index=step,
                    )
                except NumericError as exc:
                    reference = str(last_ckpt) if last_ckpt else "no checkpoint written yet"
                    raise NumericError(f"{exc}; last good checkpoint: {reference}") from exc
                line = {
                    "step": step,
                    "L_R": report.recon,
                    "L_select": report.select,
                    "lr": lr,
                    "fg_prob_mass": report.fg_mass,
                }
                log.write(json.dumps(line) + "\n")
                final_recon = report.recon
                if (step + 1) % cfg.ckpt_every == 0 and (step + 1) < self.total_steps:
                    last_ckpt = self.save(step + 1)
        final = self.save(self.total_steps)
        return {
            "checkpoint": final,
            "log": log_path,
            "final_recon": final_recon,
            "total_steps": self.total_steps,
        }


def pretrain_run(
    manifest_path,
    out_dir,
    cfg: PretrainConfig,
    tok_cfg: TokenizerConfig | None = None,
    bb_cfg: BackboneConfig | None = None,
    resume_from=None,
) -> dict:
    """Run (or resume) pretraining; returns checkpoint/log paths and final loss."""
    run = PretrainRun(manifest_path, out_dir, cfg, tok_cfg, bb_cfg)
    if resume_from is not None:
        run.resume(resume_from)
    return run.run()
