"""Losses, the masked forward, the isolated-gradient pretraining step,
and the run loop.

`masked_forward` is the autoencoder's one forward: a (B, T, C, H, W)
stack is unfolded once into patch rows, embedded, masked per clip from
each clip's own RNG stream, and the visible tokens are encoded and the
masked ones decoded. The pretraining step and `reconstruct` both call
it; the step takes its targets from the same rows.

A step runs its batch as two half-batches at once, each with its own
tape and one joint backward pass that serves both objectives; the
optimizer then clips (when `grad_clip` is set) and applies the summed
gradient in one step.
Stop-gradient barriers keep them apart: the selection network reads
detached token values, so its score-function loss trains only the
selector; the reconstruction loss never touches the selector because
sampling consumes indices, not probabilities. Per-masked-token errors
enter the selection loss as constants.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .backbone import BackboneConfig, ModelParams, decode, encode
from .data import (
    VideoClip,
    check_one_shape,
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
    add,
    backward,
    check_schedule,
    cosine_warmup_lr,
    gather_rows_batched,
    mul,
    reduce_mean,
    reshape,
    run_halves,
    scale,
    stop_gradient,
    stored_count,
    sub,
)
from .tokenizer import embed_patches, grid_dims, unfold_clip

CKPT_MAGIC = b"CSMA"
CKPT_VERSION = 1


@dataclass
class LossReport:
    step: int
    recon: float  # L_R, mean over the batch
    select: float  # L_select, mean over the batch (0.0 for baselines)
    fg_mass: float | None = None  # mean probability mass on foreground tokens


@dataclass
class PretrainConfig:
    mask_ratio: float = 0.95
    batch_size: int = 8
    max_steps: int = 2000  # the run's length in optimizer steps
    base_lr: float = 1.5e-4
    min_lr: float = 1e-6
    warmup_steps: int = 100
    betas: tuple[float, float] = (0.9, 0.95)
    weight_decay: float = 0.05
    strategy: str = "adaptive"
    grad_clip: float | None = None
    seed: int = 0
    ckpt_every: int = 500

    def __post_init__(self):
        if not 0.0 < self.mask_ratio < 1.0:
            raise ConfigError(f"mask_ratio must be in (0, 1), got {self.mask_ratio}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got '{self.strategy}'")
        if min(self.batch_size, self.max_steps, self.ckpt_every) < 1:
            raise ConfigError("batch_size, max_steps and ckpt_every must be positive")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ConfigError(f"grad_clip must be > 0 when set, got {self.grad_clip}")
        check_schedule(self.betas, self.weight_decay, self.warmup_steps, self.min_lr)


def reconstruction_loss(preds: Tensor, target_rows: np.ndarray) -> tuple[Tensor, Tensor]:
    """Mean-squared error of (B, n_masked, patch_len) predictions against
    the per-patch-normalized target rows at the same masked positions,
    MAE's objective: per-token mean over the patch vector, then the mean
    over every masked token, which equals the mean of per-clip means.
    Returns (scalar loss, (B, n_masked) errors)."""
    target_rows = Tensor(target_rows)
    if preds.shape != target_rows.shape:
        raise ContractError(
            f"prediction rows {preds.shape} != target rows {target_rows.shape}"
        )
    diff = sub(preds, target_rows)
    per_token = reduce_mean(mul(diff, diff), axis=-1)
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


def masked_forward(frames: np.ndarray, model: ModelParams, selector: SelectionParams,
                   strategy: str, ratio: float, rngs: list[np.random.Generator]):
    """The masked autoencoder forward of a (B, T, C, H, W) float stack.

    Each clip's mask is drawn from its own stream in `rngs`: from the
    selector's log-probabilities for `adaptive`, else from
    `baseline_mask` on the clips' token grid. Returns the (B, N,
    patch_len) patch rows, the (B, N) log-probabilities (None unless
    adaptive), the (B, n_visible) visible and (B, n_masked) masked token
    ids, and the (B, n_masked, patch_len) predictions.
    """
    tubelet = model.bb_cfg.tubelet
    grid = grid_dims(frames.shape[1:], tubelet)
    patches = unfold_clip(frames, tubelet)
    tokens = embed_patches(Tensor(patches), model.proj.weight, model.proj.bias)

    log_probs = None
    if strategy == "adaptive":
        log_probs = select_probabilities(stop_gradient(tokens), selector)
        specs = [sample_visible(log_probs.data[i], ratio, rng) for i, rng in enumerate(rngs)]
    else:
        specs = [baseline_mask(strategy, grid, ratio, rng) for rng in rngs]
    visible_ids = np.stack([s.visible_ids for s in specs])
    masked_ids = np.stack([s.masked_ids for s in specs])

    latents = encode(gather_rows_batched(tokens, visible_ids), model)
    preds = decode(latents, visible_ids, masked_ids, model)
    return patches, log_probs, visible_ids, masked_ids, preds


def pretrain_step(
    batch: list[VideoClip],
    fg_ids: list[np.ndarray | None],
    model: ModelParams,
    selector: SelectionParams,
    optimizer: AdamW,
    cfg: PretrainConfig,
    rngs: list[np.random.Generator],
    lr: float | None = None,
    step_index: int = 0,
) -> LossReport:
    """One optimization step over a batch of clips; updates parameters.

    `fg_ids[i]` holds the foreground token ids of `batch[i]`, or None;
    they feed only the logged foreground mass. The batch runs as two
    half-batches at once (`run_halves`), each one `masked_forward` on
    its own tape, whose patch rows at the masked ids give the targets;
    both losses operate on stacked (half, ...) tensors, so every clip in
    the batch shares the token-count geometry. Each half's loss is
    scaled by its share of the clips, so the gradients its backward
    leaves summed in `.grad` are those of the batch mean. Once both
    halves have ended, one `AdamW.step` clips them to `cfg.grad_clip`
    (when set) and applies them. An error in either half is raised after
    both have ended, before the optimizer runs, and leaves every
    gradient zero.
    """
    if not len(rngs) == len(fg_ids) == len(batch):
        raise ContractError(f"{len(rngs)} rng streams and {len(fg_ids)} foreground id sets"
                            f" for {len(batch)} clips")

    def half(lo: int, hi: int, tape: Tape):
        return _pretrain_half(batch[lo:hi], fg_ids[lo:hi], rngs[lo:hi], model, selector, cfg,
                              (hi - lo) / len(batch), step_index, tape)

    try:
        with Tape() as tape:
            halves = run_halves(tape, len(batch), half)
        optimizer.step(lr, max_norm=cfg.grad_clip)
    finally:
        optimizer.zero_grad()

    shares, recons, selects, masses = zip(*halves)
    masses = [m for half_masses in masses for m in half_masses]
    return LossReport(
        step=step_index,
        recon=sum(s * r for s, r in zip(shares, recons)),
        select=sum(s * v for s, v in zip(shares, selects)),
        fg_mass=float(np.mean(masses)) if masses else None,
    )


def _pretrain_half(batch, fg_ids, rngs, model, selector, cfg, share, step_index, tape):
    """Forward and backward of some clips of a step, their loss scaled by
    `share`. Returns (share, L_R, L_select, per-clip foreground masses);
    the masses only for the adaptive strategy."""
    patches, log_probs, _, masked_ids, preds = masked_forward(
        np.stack([clip.frames for clip in batch]), model, selector,
        cfg.strategy, cfg.mask_ratio, rngs,
    )
    target_rows = np.stack([patch_normalize_targets(rows[ids])
                            for rows, ids in zip(patches, masked_ids)])
    recon, per_token = reconstruction_loss(preds, target_rows)

    select_value = 0.0
    total = recon
    masses = []
    if log_probs is not None:
        select = selection_loss(log_probs, stop_gradient(per_token), masked_ids)
        select_value = select.item()
        total = add(recon, select)
        masses = [float(np.exp(log_probs.data[i, ids]).sum())
                  for i, ids in enumerate(fg_ids) if ids is not None]
    if not np.isfinite(total.item()):
        raise NumericError(f"non-finite loss at step {step_index}")
    backward(scale(total, share), tape)
    return share, recon.item(), select_value, masses


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


_CKPT_HEADER = struct.Struct("<II")  # version, entry count
_CKPT_NAME_LEN = struct.Struct("<H")
_CKPT_DIMS = tuple(struct.Struct(f"<{ndim}I") for ndim in range(256))  # ndim is one byte


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """The entries of a checkpoint, in file order, each an owned,
    writable float32 array. A bad magic or version, a truncated entry, a
    name that is not UTF-8 or repeats an earlier one, and trailing bytes
    raise FormatError."""
    blob = Path(path).read_bytes()
    if blob[:4] != CKPT_MAGIC:
        raise FormatError(f"bad checkpoint magic in {path}")
    out: dict[str, np.ndarray] = {}
    try:
        version, count = _CKPT_HEADER.unpack_from(blob, 4)
        if version != CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        offset = 12
        for _ in range(count):
            (name_len,) = _CKPT_NAME_LEN.unpack_from(blob, offset)
            offset += 2 + name_len
            name = blob[offset - name_len:offset].decode("utf-8")
            ndim = blob[offset]
            dims = _CKPT_DIMS[ndim].unpack_from(blob, offset + 1)
            offset += 1 + 4 * ndim
            size = math.prod(dims)
            if name in out:
                raise FormatError(f"checkpoint {path} repeats entry '{name}'")
            out[name] = np.frombuffer(blob, "<f4", size, offset).reshape(dims).copy()
            offset += 4 * size
    except (struct.error, ValueError, IndexError) as exc:
        raise FormatError(f"truncated checkpoint {path}: {exc}") from exc
    if offset != len(blob):
        raise FormatError(f"checkpoint {path} has {len(blob) - offset} trailing bytes")
    return out


CONFIG_ENTRY = "meta.config_utf8"
# the top-level keys of a run document, as `config.default_document` builds it
RUN_DOCUMENT_KEYS = ("seed", "data", "backbone", "pretrain", "finetune")


def config_snapshot(**sections) -> dict:
    """The JSON form of config dataclasses, one per named section, as run
    documents and checkpoints hold them: tuples become lists."""
    return json.loads(json.dumps({name: asdict(cfg) for name, cfg in sections.items()}))


def config_to_array(config: dict) -> np.ndarray:
    """The container's encoding of a config document: its sorted-key JSON,
    one UTF-8 byte per float32 value."""
    raw = json.dumps(config, sort_keys=True).encode("utf-8")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.float32)


def array_to_config(arr: np.ndarray) -> dict:
    arr = np.asarray(arr)
    if arr.ndim != 1 or not np.all((arr >= 0) & (arr <= 255) & (arr == np.floor(arr))):
        raise FormatError(f"checkpoint entry '{CONFIG_ENTRY}' does not hold bytes")
    try:
        doc = json.loads(bytes(arr.astype(np.uint8)).decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise FormatError(f"checkpoint entry '{CONFIG_ENTRY}' is not UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"checkpoint entry '{CONFIG_ENTRY}' is not a JSON object")
    return doc


def checkpoint_config(arrays: dict[str, np.ndarray], path, pretraining: bool) -> dict | None:
    """The config document a checkpoint was written with. A pretraining
    checkpoint must hold one and no classifier head; another gives None
    where it holds none."""
    unpacked = sorted(name for name in arrays if ".attn.q." in name)
    if unpacked:
        raise FormatError(f"{path} holds separate attn.q/k/v entries, such as '{unpacked[0]}',"
                          " where one packed 'attn.qkv.weight' is read")
    classifier = any(k.startswith("classifier.head.") for k in arrays)
    if pretraining and CONFIG_ENTRY not in arrays:
        kind = ("it looks like a classifier checkpoint" if classifier
                else "it is not a pretraining checkpoint")
        raise FormatError(f"{path} has no '{CONFIG_ENTRY}' entry: {kind}")
    if pretraining and classifier:
        raise FormatError(f"{path} is a classifier checkpoint, not a pretraining one")
    return array_to_config(arrays[CONFIG_ENTRY]) if CONFIG_ENTRY in arrays else None


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


def restore(arrays: dict[str, np.ndarray], path, tensors: dict[str, Tensor], run: dict,
            pretraining: bool = False):
    """Write each of `tensors` in place from the checkpoint entry of its
    name, once the checkpoint's config (`checkpoint_config`, unchecked
    where it may and does hold none) matches `run`, the run sections the
    reader builds from. A refusal names `path` and has one line for each
    key that differs and each section no run document has."""
    written = checkpoint_config(arrays, path, pretraining)
    if written is not None:
        held = {k: v for k, v in written.items() if k in run or k not in RUN_DOCUMENT_KEYS}
        diff = config_diff(held, run)
        if diff:
            raise ConfigError(f"the config of {path} does not match the run config:\n"
                              + "\n".join(diff))
    for name, tensor in tensors.items():
        if name not in arrays:
            raise FormatError(f"{path} lacks tensor '{name}'")
        if arrays[name].shape != tensor.shape:
            raise ConfigError(f"tensor '{name}' of {path} has shape {arrays[name].shape},"
                              f" expected {tensor.shape}")
        tensor.data[...] = arrays[name]


class PretrainRun:
    """Owns the parameters, optimizer, corpus cache, and metrics log."""

    def __init__(
        self,
        manifest_path,
        out_dir,
        cfg: PretrainConfig,
        bb_cfg: BackboneConfig | None = None,
    ):
        self.cfg = cfg
        self.bb_cfg = bb_cfg or BackboneConfig()
        tubelet = self.bb_cfg.tubelet
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.snapshot = config_snapshot(backbone=self.bb_cfg, pretrain=cfg)

        entries = load_manifest(manifest_path)
        if not entries:
            raise ConfigError(f"empty corpus manifest {manifest_path}")
        # each clip as stored, and the ids of its tokens that touch the foreground
        self.items: list[VideoClip] = []
        self.fg_ids: list[np.ndarray | None] = []
        for entry in entries:
            clip = load_clip(entry["path"])
            grid_dims(clip.pixels.shape, tubelet)  # divisibility check, before any step
            fg = None
            mask_file = mask_path_for(entry["path"])
            if os.path.exists(mask_file):
                mask = load_mask(mask_file)
                t, _, h, w = clip.pixels.shape
                if mask.shape != (t, h, w):
                    raise FormatError(f"foreground mask {mask_file} is {mask.shape} (T, H, W),"
                                      f" but its clip {entry['path']} is {(t, h, w)}")
                fg = np.flatnonzero(unfold_clip(mask[:, None], tubelet).any(axis=1))
            self.items.append(clip)
            self.fg_ids.append(fg)
        check_one_shape([entry["path"] for entry in entries], self.items)

        self.model = ModelParams(self.bb_cfg, np.random.default_rng([cfg.seed, 0]))
        self.selector = SelectionParams(np.random.default_rng([cfg.seed, 1]), self.bb_cfg.enc_dim)
        trained = dict(self.model.named())
        if cfg.strategy == "adaptive":
            trained.update(self.selector.named())
        self.optimizer = AdamW(
            trained, lr=cfg.base_lr, betas=cfg.betas, weight_decay=cfg.weight_decay
        )
        self.total_steps = cfg.max_steps
        # each epoch shuffles the corpus anew
        self.steps_per_epoch = math.ceil(len(self.items) / cfg.batch_size)
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
        arrays[CONFIG_ENTRY] = config_to_array(self.snapshot)
        return arrays

    def save(self, completed_steps: int) -> Path:
        path = self.out_dir / f"checkpoint_{completed_steps:06d}.csma"
        save_checkpoint(path, self.checkpoint_arrays(completed_steps))
        return path

    def resume(self, checkpoint_path):
        arrays = load_checkpoint(checkpoint_path)
        restore(arrays, checkpoint_path, {**self.model.named(), **self.selector.named()},
                self.snapshot, pretraining=True)
        missing = sorted({"trainer.step", *self.optimizer.state_arrays()} - set(arrays))
        if missing:
            raise FormatError(f"{checkpoint_path} lacks training state {missing[:3]}")
        self.optimizer.load_state_arrays(arrays)
        self.start_step = stored_count(arrays, "trainer.step")
        self.resumed_from = Path(checkpoint_path)

    def _batch_ids(self, step: int) -> np.ndarray:
        epoch = step // self.steps_per_epoch
        index = step % self.steps_per_epoch
        order = np.random.default_rng([self.cfg.seed, 2, epoch]).permutation(len(self.items))
        return order[index * self.cfg.batch_size:(index + 1) * self.cfg.batch_size]

    def run(self) -> dict:
        cfg = self.cfg
        log_path = self.out_dir / "metrics.jsonl"
        kept = []
        if self.start_step > 0 and log_path.exists():
            kept = _logged_before(log_path, self.start_step)
        last_ckpt = self.resumed_from
        final_recon = float("nan")
        with open(log_path, "w") as log:
            log.writelines(kept)
            for step in range(self.start_step, self.total_steps):
                ids = self._batch_ids(step)
                rngs = [np.random.default_rng([cfg.seed, 3, step, j]) for j in range(len(ids))]
                lr = cosine_warmup_lr(
                    step, self.total_steps, cfg.base_lr, cfg.min_lr, cfg.warmup_steps
                )
                try:
                    report = pretrain_step(
                        [self.items[i] for i in ids], [self.fg_ids[i] for i in ids],
                        self.model, self.selector, self.optimizer, cfg, rngs,
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


def _logged_before(log_path: Path, step: int) -> list[str]:
    """The complete lines of a metrics log that log a step before `step`:
    a resume in place keeps those and drops what an interrupted run
    logged after its checkpoint."""
    try:
        lines = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{log_path} is not UTF-8: {exc}") from exc
    kept = []
    for number, line in enumerate(lines, 1):
        if not line.endswith("\n"):
            continue  # the last line of an interrupted write
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if not (isinstance(record, dict) and type(record.get("step")) is int):
            raise FormatError(
                f"{log_path} line {number} is not a JSON object with an integer 'step'")
        if record["step"] < step:
            kept.append(line)
    return kept


def pretrain_run(
    manifest_path,
    out_dir,
    cfg: PretrainConfig,
    bb_cfg: BackboneConfig | None = None,
    resume_from=None,
) -> dict:
    """Run (or resume) pretraining; returns checkpoint/log paths and final loss."""
    run = PretrainRun(manifest_path, out_dir, cfg, bb_cfg)
    if resume_from is not None:
        run.resume(resume_from)
    return run.run()
