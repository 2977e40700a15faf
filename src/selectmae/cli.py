"""Operator-facing command surface.

Commands: gen-data, pretrain, finetune, eval, reconstruct, ablate.
Exit codes: 0 success, 2 config/usage error, 3 I/O error, 4 corrupt
artifact, which includes a checkpoint of the wrong kind (a classifier
given to `reconstruct` or `pretrain --resume`, a pretraining checkpoint
given to `eval`). Every command writes its resolved config next to its
outputs so any run can be reproduced from (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .backbone import ModelParams
from .config import RunConfig
from .data import denormalize_targets, generate_corpus, load_clip, load_manifest
from .downstream import SplitSpec, evaluate_checkpoint, finetune_run, phase_round_robin
from .errors import ConfigError, FormatError, SelectMAEError
from .masking import STRATEGIES, SelectionParams
from .ppm import write_ppm
from .tokenizer import detokenize_patches
from .training import (
    CONFIG_ENTRY,
    assign_named,
    checkpoint_config,
    config_snapshot,
    config_to_array,
    load_checkpoint,
    masked_forward,
    pretrain_run,
    save_checkpoint,
)


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        return RunConfig.from_file(args.config)
    return RunConfig.from_document({})


def _resolve_manifest(corpus) -> Path:
    path = Path(corpus)
    if path.is_dir():
        path = path / "manifest.json"
    if not path.exists():
        raise OSError(f"corpus manifest not found: {path}")
    return path


def _write_resolved_config(cfg: RunConfig, out_dir: Path, name: str = "config.resolved.json"):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(cfg.dumps() + "\n")


def _parse_split(spec: str, entries) -> SplitSpec:
    path = Path(spec)
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"split file {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"split file {path} must hold an object")
        groups = []
        for key in ("train", "val", "test"):
            ids = doc.get(key)
            if not isinstance(ids, list) or not all(
                type(i) is int and 0 <= i < len(entries) for i in ids
            ):
                raise ConfigError(
                    f"split file {path}: '{key}' must be a list of clip ids "
                    f"in 0..{len(entries) - 1}, got {ids!r}"
                )
            groups.append(ids)
        return SplitSpec(*groups)
    try:
        n_train, n_val, n_test = (int(v) for v in spec.split(","))
    except ValueError as exc:
        raise ConfigError(
            f"--split must be a JSON file or 'train,val,test' counts, got '{spec}'"
        ) from exc
    return SplitSpec.from_manifest(entries, n_train, n_val, n_test)


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    if args.seed is not None:
        cfg = cfg.with_overrides(seed=args.seed)
    out = Path(args.out)
    generate_corpus(cfg.data, args.clips, args.label_fraction, cfg.seed, out)
    _write_resolved_config(cfg, out)
    print(f"wrote {args.clips} clips to {out}")
    return 0


def _pretrain_overrides(args) -> dict:
    over = {}
    if args.strategy is not None:
        over["strategy"] = args.strategy
    if args.ratio is not None:
        over["mask_ratio"] = args.ratio
    if args.steps is not None:
        over["max_steps"] = args.steps
    if args.seed is not None:
        over["seed"] = args.seed
    return over


def cmd_pretrain(args) -> int:
    cfg = _load_config(args)
    over = _pretrain_overrides(args)
    if over:
        cfg = cfg.with_overrides(pretrain=over)
    manifest = _resolve_manifest(args.corpus)
    out = Path(args.out)
    _write_resolved_config(cfg, out)
    result = pretrain_run(
        manifest, out, cfg.pretrain, cfg.tokenizer, cfg.backbone,
        resume_from=args.resume,
    )
    print(f"final L_R {result['final_recon']:.6f} after {result['total_steps']} steps")
    print(f"checkpoint: {result['checkpoint']}")
    return 0


def _split_with_fraction(args, entries) -> SplitSpec:
    split = _parse_split(args.split, entries)
    if args.label_fraction is not None:
        split = _apply_label_fraction(split, entries, args.label_fraction)
    return split


def _apply_label_fraction(split: SplitSpec, entries, fraction: float) -> SplitSpec:
    if not 0 < fraction <= 1:
        raise ConfigError(f"label fraction must be in (0, 1], got {fraction}")
    want = math.ceil(fraction * len(split.train_ids))
    labeled = [i for i in split.train_ids if entries[i]["labeled"]]
    chosen = phase_round_robin(entries, labeled)[:want]
    if len(chosen) < want:
        raise ConfigError(
            f"need {want} labeled train clips for fraction {fraction}, "
            f"corpus provides {len(chosen)}"
        )
    return SplitSpec(sorted(chosen), split.val_ids, split.test_ids)


def cmd_finetune(args) -> int:
    cfg = _load_config(args)
    if args.seed is not None:
        cfg = cfg.with_overrides(finetune={"seed": args.seed})
    manifest = _resolve_manifest(args.corpus)
    entries = load_manifest(manifest)
    split = _split_with_fraction(args, entries)
    if args.scratch == bool(args.checkpoint):
        raise ConfigError("finetune needs exactly one of --checkpoint and --scratch")
    init_arrays = None if args.scratch else load_checkpoint(args.checkpoint)
    result = finetune_run(
        manifest, split, cfg.finetune, cfg.data.num_phases,
        cfg.tokenizer, cfg.backbone, init_arrays=init_arrays,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    report = result["report"].to_json_dict()
    report["val_accuracy"] = result["val_accuracy"]
    report["labeled_train"] = result["labeled_train"]
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_resolved_config(cfg, out.parent)
    if args.save_classifier:
        arrays = {k: t.data for k, t in result["model"].encoder_named().items()}
        arrays.update({k: t.data for k, t in result["head"].named().items()})
        arrays[CONFIG_ENTRY] = config_to_array(
            config_snapshot(tokenizer=cfg.tokenizer, backbone=cfg.backbone))
        save_checkpoint(args.save_classifier, arrays)
    print(json.dumps({k: report[k] for k in ("accuracy", "precision", "recall", "jaccard")}))
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    manifest = _resolve_manifest(args.corpus)
    entries = load_manifest(manifest)
    split = _parse_split(args.split, entries)
    arrays = load_checkpoint(args.checkpoint)
    report = evaluate_checkpoint(
        manifest, split.test_ids, arrays, cfg.data.num_phases, cfg.tokenizer, cfg.backbone
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    print(json.dumps({"accuracy": report.accuracy}))
    return 0


def _model_from_checkpoint(arrays: dict, path):
    cfg = RunConfig.from_document(checkpoint_config(arrays, path))
    model = ModelParams(cfg.tokenizer, cfg.backbone, np.random.default_rng(0))
    assign_named(model.named(), arrays, "(model)")
    selector = SelectionParams(np.random.default_rng(1), cfg.tokenizer.dim)
    assign_named(selector.named(), arrays, "(selector)")
    return model, selector, cfg.pretrain


def cmd_reconstruct(args) -> int:
    arrays = load_checkpoint(args.checkpoint)
    model, selector, pre_cfg = _model_from_checkpoint(arrays, args.checkpoint)
    frames = load_clip(args.clip).frames
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # one clip is a batch of one through the pretraining forward
    patches, _, visible_ids, masked_ids, preds = masked_forward(
        frames[None], model, selector, args.strategy or pre_cfg.strategy,
        args.ratio if args.ratio is not None else pre_cfg.mask_ratio,
        [np.random.default_rng(args.seed)],
    )
    rows, visible, masked = patches[0], visible_ids[0], masked_ids[0]
    predicted = denormalize_targets(preds.data[0], rows[masked], pre_cfg.normalize_targets)
    recon_masked, _ = detokenize_patches(predicted, masked, frames.shape, model.tok_cfg)
    visible_frames, _ = detokenize_patches(rows[visible], visible, frames.shape, model.tok_cfg)
    reconstruction = np.clip(visible_frames + recon_masked, 0.0, 1.0)
    overlay = visible_frames  # masked tubelets stay black

    for t in range(frames.shape[0]):
        write_ppm(out_dir / f"original_{t:03d}.ppm", frames[t].transpose(1, 2, 0))
        write_ppm(out_dir / f"mask_{t:03d}.ppm", overlay[t].transpose(1, 2, 0))
        write_ppm(out_dir / f"recon_{t:03d}.ppm", reconstruction[t].transpose(1, 2, 0))
    print(f"wrote {3 * frames.shape[0]} images to {out_dir}")
    return 0


_ABLATION_AXES = {
    "ratio": ("pretrain", "mask_ratio", float),
    "decoder-depth": ("backbone", "dec_depth", int),
    "strategy": ("pretrain", "strategy", str),
    "loss": ("pretrain", None, str),  # handled specially: kind-norm pairs
}

_LOSS_VALUES = {
    "mse-norm": {"loss_kind": "mse", "normalize_targets": True},
    "mse-raw": {"loss_kind": "mse", "normalize_targets": False},
    "l1-norm": {"loss_kind": "l1", "normalize_targets": True},
    "l1-raw": {"loss_kind": "l1", "normalize_targets": False},
}


def cmd_ablate(args) -> int:
    if args.axis not in _ABLATION_AXES:
        raise ConfigError(f"--axis must be one of {sorted(_ABLATION_AXES)}, got '{args.axis}'")
    base = _load_config(args)
    manifest = _resolve_manifest(args.corpus)
    entries = load_manifest(manifest)
    # every input is checked before the first row trains
    split = _split_with_fraction(args, entries)
    section, key, cast = _ABLATION_AXES[args.axis]
    configs = []
    for raw_value in args.values.split(","):
        raw_value = raw_value.strip()
        if args.axis == "loss":
            if raw_value not in _LOSS_VALUES:
                raise ConfigError(f"loss value must be one of {sorted(_LOSS_VALUES)}")
            configs.append((raw_value, base.with_overrides(pretrain=_LOSS_VALUES[raw_value])))
            continue
        try:
            value = cast(raw_value)
        except ValueError:
            raise ConfigError(f"--values for --axis {args.axis} must be {cast.__name__}s,"
                              f" got '{raw_value}'") from None
        configs.append((raw_value, base.with_overrides(**{section: {key: value}})))
    seen = {}
    for raw_value, cfg in configs:
        digest = cfg.config_hash()
        if digest in seen:
            raise ConfigError(f"--values '{seen[digest]}' and '{raw_value}' give the same config")
        seen[digest] = raw_value
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for raw_value, cfg in configs:
        row_dir = out_dir / f"{args.axis}_{raw_value.replace('.', 'p')}"
        _write_resolved_config(cfg, row_dir)
        result = pretrain_run(manifest, row_dir, cfg.pretrain, cfg.tokenizer, cfg.backbone)
        ft = finetune_run(
            manifest, split, cfg.finetune, cfg.data.num_phases, cfg.tokenizer,
            cfg.backbone, init_arrays=load_checkpoint(result["checkpoint"]),
        )
        report = ft["report"]
        rows.append(
            {
                "axis": args.axis,
                "value": raw_value,
                "final_L_R": round(result["final_recon"], 6),
                "accuracy": round(report.accuracy, 4),
                "precision": round(report.precision, 4),
                "recall": round(report.recall, 4),
                "jaccard": round(report.jaccard, 4),
                "config_hash": cfg.config_hash(),
            }
        )
    fields = list(rows[0])
    with open(out_dir / "table.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    md = ["| " + " | ".join(fields) + " |", "|" + "---|" * len(fields)]
    for row in rows:
        md.append("| " + " | ".join(str(row[k]) for k in fields) + " |")
    (out_dir / "table.md").write_text("\n".join(md) + "\n")
    print("\n".join(md))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selectmae",
        description="Adaptive-token-selection masked-autoencoder pretraining at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic labeled corpus")
    g.add_argument("--config")
    g.add_argument("--out", required=True)
    g.add_argument("--clips", type=int, default=120)
    g.add_argument("--label-fraction", type=float, default=0.1)
    g.add_argument("--seed", type=int)
    g.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="self-supervised pretraining")
    p.add_argument("--config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--ratio", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--resume")
    p.set_defaults(func=cmd_pretrain)

    f = sub.add_parser("finetune", help="fine-tune step recognition from a checkpoint or scratch")
    f.add_argument("--config")
    f.add_argument("--corpus", required=True)
    f.add_argument("--checkpoint")
    f.add_argument("--scratch", action="store_true")
    f.add_argument("--split", required=True, help="JSON file or 'train,val,test' counts")
    f.add_argument("--label-fraction", type=float)
    f.add_argument("--out", required=True, help="metrics JSON path")
    f.add_argument("--save-classifier", help="write the fine-tuned classifier checkpoint here")
    f.add_argument("--seed", type=int)
    f.set_defaults(func=cmd_finetune)

    e = sub.add_parser("eval", help="evaluate a fine-tuned classifier checkpoint")
    e.add_argument("--config")
    e.add_argument("--corpus", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--split", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("reconstruct", help="dump original/mask/reconstruction image triptychs")
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--clip", required=True)
    r.add_argument("--ratio", type=float)
    r.add_argument("--strategy", choices=STRATEGIES)
    r.add_argument("--out-dir", required=True)
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(func=cmd_reconstruct)

    a = sub.add_parser("ablate", help="sweep one config axis, emit Markdown/CSV table")
    a.add_argument("--config")
    a.add_argument("--corpus", required=True)
    a.add_argument("--axis", required=True)
    a.add_argument("--values", required=True)
    a.add_argument("--split", required=True)
    a.add_argument("--label-fraction", type=float)
    a.add_argument("--out-dir", required=True)
    a.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"corrupt artifact: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except SelectMAEError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
