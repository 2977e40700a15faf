"""Operator-facing command surface.

Commands: gen-data, pretrain, finetune, eval, reconstruct, ablate.
Exit codes: 0 success, 2 config/usage error, 3 I/O error, 4 corrupt
artifact, which includes a checkpoint of the wrong kind (a classifier
given to `reconstruct` or `pretrain --resume`, a pretraining checkpoint
given to `eval`), a foreground mask of another shape than its clip, and
clips of more than one shape in one `pretrain` or `finetune`.
`gen-data`, `pretrain` and `finetune` write their
resolved config next to their outputs; `eval` and `reconstruct` write
none. The resolved config and the corpus reproduce a `pretrain` run. A
`finetune` report records the labeled train, val and test clip ids it
used and the SHA-256 of its `--checkpoint` (null with `--scratch`), so
its resolved config with `finetune.label_fraction` null, those ids as a
`--split` file and that checkpoint reproduce it; an `eval` report
records its test ids and the classifier's SHA-256. `ablate` is
`pretrain` then `finetune`: each distinct backbone and pretrain section
of its rows, the document a checkpoint embeds, is pretrained once into
`pretrainNNN/` as `pretrain --out` writes it, and `rowNNN/` holds what
`finetune --checkpoint <that run's final checkpoint> --out
rowNNN/report.json` writes. Not recorded: `--clips` and
`--label-fraction` of `gen-data`.

Every command takes a repeatable `--set KEY=VALUE`: KEY is `seed` or
`section.key`, VALUE is JSON or else a bare string (`tube`, `0.9`,
`null`, `true`, `[0.9,0.95]`). Overrides go into the `--config`
document before it is resolved, so section seeds follow `--set seed=N`;
`reconstruct` puts them into the config its checkpoint embeds, and
masks from its `pretrain.strategy`, `pretrain.mask_ratio` and `seed`
(0 unless set). A KEY named more than once is swept: `ablate` trains
one row per combination, in the order the keys first appear; any other
command exits 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .backbone import ModelParams
from .config import RunConfig, config_grid
from .data import denormalize_targets, generate_corpus, load_clip, load_manifest
from .downstream import SplitSpec, evaluate_checkpoint, finetune_run, finetune_train_ids
from .errors import ConfigError, FormatError, SelectMAEError
from .masking import SelectionParams
from .ppm import write_ppm
from .tokenizer import detokenize_patches
from .training import (
    CONFIG_ENTRY,
    checkpoint_config,
    config_snapshot,
    config_to_array,
    load_checkpoint,
    masked_forward,
    pretrain_run,
    restore,
    save_checkpoint,
)


def _json_object(path, what: str) -> dict:
    try:
        document = json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"{what} {path} must hold an object")
    return document


def _config_grid(args, document=None, source=None) -> list[tuple[dict, RunConfig]]:
    """The configs of a command: its `--set` overrides put into `document`,
    read from `source`, or else into its `--config` document."""
    if document is None and args.config:
        document, source = _json_object(args.config, "config"), f"--config {args.config}"
    return config_grid(document or {}, args.set, source or "the defaults")


def _load_config(args, document=None, source=None) -> RunConfig:
    (swept, cfg), *others = _config_grid(args, document, source)
    if others:
        raise ConfigError(f"--set names {', '.join(swept)} more than once; only ablate sweeps")
    return cfg


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
        doc = _json_object(path, "split file")
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
    out = Path(args.out)
    generate_corpus(cfg.data, args.clips, args.label_fraction, cfg.seed, out)
    _write_resolved_config(cfg, out)
    print(f"wrote {args.clips} clips to {out}")
    return 0


def _pretrain(cfg: RunConfig, manifest, out: Path, resume=None) -> dict:
    """`pretrain --out out`: the resolved config, then the run's files."""
    _write_resolved_config(cfg, out)
    return pretrain_run(manifest, out, cfg.pretrain, cfg.backbone, resume_from=resume)


def cmd_pretrain(args) -> int:
    cfg = _load_config(args)
    result = _pretrain(cfg, _resolve_manifest(args.corpus), Path(args.out), args.resume)
    print(f"final L_R {result['final_recon']:.6f} after {result['total_steps']} steps")
    print(f"checkpoint: {result['checkpoint']}")
    return 0


def _finetune(cfg: RunConfig, manifest, split: SplitSpec, checkpoint, out: Path,
              save_classifier=None) -> dict:
    """`finetune --out out` from `checkpoint`, or from scratch when None:
    the report, with the clip ids used and the checkpoint's SHA-256, and
    the resolved config beside it. Returns the report."""
    init_arrays = digest = None
    if checkpoint:
        init_arrays, digest = load_checkpoint(checkpoint), _sha256(checkpoint)
    result = finetune_run(manifest, split, cfg.finetune, cfg.data.num_phases, cfg.backbone,
                          init_arrays=init_arrays, source=checkpoint)
    out.parent.mkdir(parents=True, exist_ok=True)
    report = result["report"].to_json_dict()
    report.update(val_accuracy=result["val_accuracy"], labeled_train=result["labeled_train"],
                  train_ids=result["train_ids"], val_ids=split.val_ids, test_ids=split.test_ids,
                  checkpoint_sha256=digest)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_resolved_config(cfg, out.parent)
    if save_classifier:
        arrays = {k: t.data for k, t in result["model"].encoder_named().items()}
        arrays.update({k: t.data for k, t in result["head"].named().items()})
        arrays[CONFIG_ENTRY] = config_to_array(config_snapshot(backbone=cfg.backbone))
        save_checkpoint(save_classifier, arrays)
    return report


def cmd_finetune(args) -> int:
    cfg = _load_config(args)
    manifest = _resolve_manifest(args.corpus)
    split = _parse_split(args.split, load_manifest(manifest))
    if args.scratch == bool(args.checkpoint):
        raise ConfigError("finetune needs exactly one of --checkpoint and --scratch")
    report = _finetune(cfg, manifest, split, args.checkpoint, Path(args.out), args.save_classifier)
    print(json.dumps({k: report[k] for k in ("accuracy", "precision", "recall", "jaccard")}))
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    manifest = _resolve_manifest(args.corpus)
    split = _parse_split(args.split, load_manifest(manifest))
    arrays, digest = load_checkpoint(args.checkpoint), _sha256(args.checkpoint)
    report = evaluate_checkpoint(manifest, split.test_ids, arrays, cfg.data.num_phases,
                                 cfg.backbone, source=args.checkpoint)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {**report.to_json_dict(), "test_ids": split.test_ids, "checkpoint_sha256": digest}
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"accuracy": report.accuracy}))
    return 0


def cmd_reconstruct(args) -> int:
    arrays = load_checkpoint(args.checkpoint)
    document = checkpoint_config(arrays, args.checkpoint, pretraining=True)
    cfg = _load_config(args, document, f"checkpoint {args.checkpoint}")
    model = ModelParams(cfg.backbone, np.random.default_rng(0))
    selector = SelectionParams(np.random.default_rng(1), cfg.backbone.enc_dim)
    restore(arrays, args.checkpoint, {**model.named(), **selector.named()},
            {"backbone": cfg.document["backbone"]}, pretraining=True)
    frames = load_clip(args.clip).frames
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # one clip is a batch of one through the pretraining forward
    patches, _, visible_ids, masked_ids, preds = masked_forward(
        frames[None], model, selector, cfg.pretrain.strategy, cfg.pretrain.mask_ratio,
        [np.random.default_rng(cfg.seed)],
    )
    rows, visible, masked = patches[0], visible_ids[0], masked_ids[0]
    predicted = denormalize_targets(preds.data[0], rows[masked])
    tubelet = model.bb_cfg.tubelet
    recon_masked, _ = detokenize_patches(predicted, masked, frames.shape, tubelet)
    visible_frames, _ = detokenize_patches(rows[visible], visible, frames.shape, tubelet)
    reconstruction = np.clip(visible_frames + recon_masked, 0.0, 1.0)
    overlay = visible_frames  # masked tubelets stay black

    for t in range(frames.shape[0]):
        write_ppm(out_dir / f"original_{t:03d}.ppm", frames[t].transpose(1, 2, 0))
        write_ppm(out_dir / f"mask_{t:03d}.ppm", overlay[t].transpose(1, 2, 0))
        write_ppm(out_dir / f"recon_{t:03d}.ppm", reconstruction[t].transpose(1, 2, 0))
    print(f"wrote {3 * frames.shape[0]} images to {out_dir}")
    return 0


def cmd_ablate(args) -> int:
    grid = _config_grid(args)
    manifest = _resolve_manifest(args.corpus)
    entries = load_manifest(manifest)
    # every input is checked before the first pretraining
    split = _parse_split(args.split, entries)
    seen, keys = {}, []
    for swept, cfg in grid:
        digest = cfg.config_hash()
        if digest in seen:
            raise ConfigError(f"--set values {json.dumps(seen[digest])} and {json.dumps(swept)}"
                              " give the same config")
        seen[digest] = swept
        finetune_train_ids(entries, split, cfg.finetune.label_fraction, cfg.data.num_phases)
        # rows whose checkpoints embed one document share its pretraining
        keys.append(json.dumps(config_snapshot(backbone=cfg.backbone, pretrain=cfg.pretrain)))
    out_dir = Path(args.out_dir)
    pretrained, rows = {}, []
    for index, ((swept, cfg), key) in enumerate(zip(grid, keys)):
        if key not in pretrained:
            run_dir = out_dir / f"pretrain{len(pretrained):03d}"
            pretrained[key] = run_dir, _pretrain(cfg, manifest, run_dir)
        run_dir, result = pretrained[key]
        row_dir = out_dir / f"row{index:03d}"
        report = _finetune(cfg, manifest, split, result["checkpoint"], row_dir / "report.json")
        rows.append({
            "row": row_dir.name,
            **{k: v if isinstance(v, str) else json.dumps(v) for k, v in swept.items()},
            "pretrain": run_dir.name,
            "final_L_R": round(result["final_recon"], 6),
            **{k: round(report[k], 4) for k in ("accuracy", "precision", "recall", "jaccard")},
            "config_hash": cfg.config_hash(),
        })
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

    def config_options(command, config=True):
        if config:
            command.add_argument("--config")
        command.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                             help="override config KEY ('seed' or 'section.key'); "
                                  "naming a KEY again sweeps it (ablate only)")

    g = sub.add_parser("gen-data", help="generate a synthetic labeled corpus")
    config_options(g)
    g.add_argument("--out", required=True)
    g.add_argument("--clips", type=int, default=120)
    g.add_argument("--label-fraction", type=float, default=0.1)
    g.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="self-supervised pretraining")
    config_options(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume")
    p.set_defaults(func=cmd_pretrain)

    f = sub.add_parser("finetune", help="fine-tune step recognition from a checkpoint or scratch")
    config_options(f)
    f.add_argument("--corpus", required=True)
    f.add_argument("--checkpoint")
    f.add_argument("--scratch", action="store_true")
    f.add_argument("--split", required=True, help="JSON file or 'train,val,test' counts")
    f.add_argument("--out", required=True, help="metrics JSON path")
    f.add_argument("--save-classifier", help="write the fine-tuned classifier checkpoint here")
    f.set_defaults(func=cmd_finetune)

    e = sub.add_parser("eval", help="evaluate a fine-tuned classifier checkpoint")
    config_options(e)
    e.add_argument("--corpus", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--split", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("reconstruct", help="dump original/mask/reconstruction image triptychs")
    config_options(r, config=False)  # its base document is the checkpoint's
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--clip", required=True)
    r.add_argument("--out-dir", required=True)
    r.set_defaults(func=cmd_reconstruct)

    a = sub.add_parser("ablate", help="train every combination of the swept --set values, "
                                      "emit Markdown/CSV table")
    config_options(a)
    a.add_argument("--corpus", required=True)
    a.add_argument("--split", required=True)
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
