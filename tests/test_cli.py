import csv
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selectmae.backbone import ModelParams
from selectmae.cli import _apply_label_fraction, main
from selectmae.config import RunConfig, config_grid
from selectmae.downstream import ClassifierHead, SplitSpec
from selectmae.errors import ConfigError
from selectmae.masking import STRATEGIES
from selectmae.training import array_to_config, config_to_array, load_checkpoint, save_checkpoint

from testkit import read_ppm


TINY = {
    "data": {"frames": 4, "height": 16, "width": 16, "num_phases": 4},
    "backbone": {
        "tubelet": [2, 4, 4], "enc_depth": 1, "enc_dim": 16, "enc_heads": 2,
        "dec_depth": 1, "dec_dim": 8, "dec_heads": 2,
    },
    "pretrain": {
        "mask_ratio": 0.75, "batch_size": 4, "max_steps": 6,
        "warmup_steps": 2, "ckpt_every": 3,
    },
    "finetune": {"epochs": 3, "batch_size": 4, "patience": 3},
}


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, tiny_config):
    out = tmp_path_factory.mktemp("cli_corpus")
    code = main([
        "gen-data", "--config", tiny_config, "--out", str(out),
        "--clips", "16", "--label-fraction", "0.5", "--set", "seed=3",
    ])
    assert code == 0
    return out


def _dir_hash(path: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted(path.iterdir()):
        digest.update(p.name.encode())
        digest.update(p.read_bytes())
    return digest.hexdigest()


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.from_document({"pretrain": {"masking_ratio": 0.9}})
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.from_document({"optimizer": {}})


def test_run_config_seed_propagation():
    cfg = RunConfig.from_document({"seed": 11})
    assert cfg.pretrain.seed == 11 and cfg.finetune.seed == 11
    explicit = RunConfig.from_document({"seed": 11, "pretrain": {"seed": 5}})
    assert explicit.pretrain.seed == 5


def test_run_config_type_checks_every_value():
    cfg = RunConfig.from_document(
        {"pretrain": {"base_lr": 1, "max_steps": 7, "grad_clip": 2, "betas": [0.5, 0.9]}}
    )
    assert cfg.pretrain.base_lr == 1 and cfg.pretrain.max_steps == 7
    assert cfg.pretrain.betas == (0.5, 0.9)
    for bad in (
        {"seed": "1"},
        {"pretrain": {"max_steps": 2.5}},
        {"pretrain": {"max_steps": None}},
        {"pretrain": {"normalize_targets": 1}},
        {"pretrain": {"batch_size": True}},
        {"backbone": {"tubelet": 2}},
        {"pretrain": {"base_lr": float("nan")}},
        {"pretrain": {"betas": [0.9, float("inf")]}},
        {"pretrain": {"grad_clip": float("-inf")}},
        {"finetune": {"patience": 0}},
        {"finetune": {"patience": -5}},
    ):
        with pytest.raises(ConfigError, match="must be"):
            RunConfig.from_document(bad)


_unit = st.floats(0.0, 1.0)
_beta = st.floats(0.0, 1.0, exclude_max=True)
_positive = st.floats(1e-6, 10.0)
SECTION_OVERRIDES = st.fixed_dictionaries({}, optional={
    "seed": st.integers(0, 2**31),
    "data": st.fixed_dictionaries({}, optional={
        "noise_sigma": _unit | st.integers(0, 1),
        "motion_speed_range": st.lists(_positive, min_size=2, max_size=2).map(sorted),
        "shape_palette": st.lists(st.lists(_unit, min_size=3, max_size=3), min_size=1, max_size=4),
    }),
    "backbone": st.fixed_dictionaries({}, optional={
        "tubelet": st.lists(st.integers(1, 4), min_size=3, max_size=3),
        "enc_depth": st.integers(0, 8),
        "dec_depth": st.integers(0, 8),
        "enc_mlp_ratio": st.floats(0.25, 8.0),
    }),
    "pretrain": st.fixed_dictionaries({}, optional={
        "mask_ratio": st.floats(0.01, 0.99),
        "strategy": st.sampled_from(STRATEGIES),
        "max_steps": st.integers(1, 10**6),
        "grad_clip": st.none() | _positive,
        "betas": st.lists(_beta, min_size=2, max_size=2),
        "normalize_targets": st.booleans(),
        "seed": st.integers(0, 2**31),
    }),
    "finetune": st.fixed_dictionaries({}, optional={
        "lr": _positive,
        "patience": st.integers(1, 50),
    }),
})


@settings(max_examples=60, deadline=None)
@given(SECTION_OVERRIDES)
def test_resolved_document_round_trips(user):
    cfg = RunConfig.from_document(user)
    again = RunConfig.from_document(json.loads(cfg.dumps()))
    assert again.document == cfg.document
    assert again.config_hash() == cfg.config_hash()
    for name in ("data", "backbone", "pretrain", "finetune"):
        assert getattr(again, name) == getattr(cfg, name)


@settings(max_examples=60, deadline=None)
@given(SECTION_OVERRIDES)
def test_set_overrides_resolve_like_the_document_they_spell(user):
    sets = [f"seed={json.dumps(user['seed'])}"] if "seed" in user else []
    sets += [f"{name}.{key}={json.dumps(value)}"
             for name, section in user.items() if name != "seed"
             for key, value in section.items()]
    [(swept, cfg)] = config_grid(None, sets)
    assert swept == {}
    assert cfg.document == RunConfig.from_document(user).document


def test_gen_data_manifest_counts(corpus):
    entries = json.loads((corpus / "manifest.json").read_text())
    assert len(entries) == 16
    assert sum(e["labeled"] for e in entries) == 8
    assert (corpus / "config.resolved.json").exists()


def test_gen_data_set_seed_reaches_every_section_seed(corpus):
    resolved = json.loads((corpus / "config.resolved.json").read_text())
    assert resolved["seed"] == resolved["pretrain"]["seed"] == resolved["finetune"]["seed"] == 3


def test_gen_data_missing_out_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--clips", "4"])
    assert exc.value.code == 2


def test_gen_data_rerun_is_byte_identical(tmp_path, tiny_config):
    for name in ("a", "b"):
        code = main([
            "gen-data", "--config", tiny_config, "--out", str(tmp_path / name),
            "--clips", "8", "--label-fraction", "0.5", "--set", "seed=9",
        ])
        assert code == 0
    assert _dir_hash(tmp_path / "a") == _dir_hash(tmp_path / "b")


def test_pretrain_invalid_ratio_exits_2(corpus, tiny_config, tmp_path):
    code = main([
        "pretrain", "--config", tiny_config, "--corpus", str(corpus),
        "--out", str(tmp_path / "run"), "--set", "pretrain.mask_ratio=1.5",
    ])
    assert code == 2


def test_pretrain_invalid_strategy_exits_2(corpus, tiny_config, tmp_path, capsys):
    code = main([
        "pretrain", "--config", tiny_config, "--corpus", str(corpus),
        "--out", str(tmp_path / "run"), "--set", "pretrain.strategy=zigzag",
    ])
    assert code == 2


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory, corpus, tiny_config):
    out = tmp_path_factory.mktemp("cli_pretrain")
    code = main([
        "pretrain", "--config", tiny_config, "--corpus", str(corpus),
        "--out", str(out), "--set", "pretrain.strategy=adaptive",
    ])
    assert code == 0
    return out / "checkpoint_000006.csma"


def test_pretrain_determinism(tmp_path_factory, corpus, tiny_config, pretrained):
    out2 = tmp_path_factory.mktemp("cli_pretrain2")
    code = main([
        "pretrain", "--config", tiny_config, "--corpus", str(corpus),
        "--out", str(out2), "--set", "pretrain.strategy=adaptive",
    ])
    assert code == 0
    assert (out2 / "checkpoint_000006.csma").read_bytes() == pretrained.read_bytes()


def test_checkpoint_embeds_the_resolved_config(pretrained):
    resolved_path = pretrained.parent / "config.resolved.json"
    resolved = json.loads(resolved_path.read_text())
    embedded = array_to_config(load_checkpoint(pretrained)["meta.config_utf8"])
    assert embedded == {k: resolved[k] for k in ("backbone", "pretrain")}
    rebuilt = RunConfig.from_document(embedded)
    logged = RunConfig.from_document(resolved)
    for name in ("backbone", "pretrain"):
        assert getattr(rebuilt, name) == getattr(logged, name)


def test_finetune_and_eval_roundtrip(corpus, tiny_config, pretrained, tmp_path):
    metrics = tmp_path / "metrics.json"
    classifier = tmp_path / "classifier.csma"
    code = main([
        "finetune", "--config", tiny_config, "--corpus", str(corpus),
        "--checkpoint", str(pretrained), "--split", "8,4,4",
        "--out", str(metrics), "--save-classifier", str(classifier),
    ])
    assert code == 0
    doc = json.loads(metrics.read_text())
    for key in ("accuracy", "precision", "recall", "jaccard", "confusion"):
        assert key in doc
    code = main([
        "eval", "--config", tiny_config, "--corpus", str(corpus),
        "--checkpoint", str(classifier), "--split", "8,4,4",
        "--out", str(tmp_path / "eval.json"),
    ])
    assert code == 0
    eval_doc = json.loads((tmp_path / "eval.json").read_text())
    assert eval_doc["accuracy"] == doc["accuracy"]


def test_eval_refuses_a_classifier_of_another_architecture(corpus, tiny_config, tmp_path, capsys):
    # 4 heads of 4 dims hold the same parameter shapes as 2 heads of 8, so
    # only the config the classifier was saved with can tell them apart
    classifier = tmp_path / "classifier.csma"
    assert main([
        "finetune", "--config", tiny_config, "--corpus", str(corpus), "--scratch",
        "--split", "8,4,4", "--out", str(tmp_path / "m.json"), "--save-classifier", str(classifier),
    ]) == 0
    arrays = load_checkpoint(classifier)
    resolved = json.loads((tmp_path / "config.resolved.json").read_text())
    embedded = array_to_config(arrays.pop("meta.config_utf8"))
    assert embedded == {"backbone": resolved["backbone"]}
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**TINY, "backbone": {**TINY["backbone"], "enc_heads": 4}}))
    out = tmp_path / "eval.json"

    def evaluate(checkpoint, config):
        return main(["eval", "--config", config, "--corpus", str(corpus), "--checkpoint",
                     str(checkpoint), "--split", "8,4,4", "--out", str(out)])

    capsys.readouterr()
    assert evaluate(classifier, str(other)) == 2
    assert capsys.readouterr().err.startswith(
        "config error: checkpoint architecture does not match the run config:\n"
        "~ backbone.enc_heads: 2 -> 4")
    assert not out.exists()
    assert evaluate(classifier, tiny_config) == 0
    matched = out.read_bytes()
    # a classifier saved without a config is evaluated as before
    bare = tmp_path / "bare.csma"
    save_checkpoint(bare, arrays)
    assert evaluate(bare, tiny_config) == 0
    assert out.read_bytes() == matched


def test_finetune_scratch_vs_checkpoint(corpus, tiny_config, pretrained, tmp_path):
    for mode, extra in (("scratch", ["--scratch"]), ("warm", ["--checkpoint", str(pretrained)])):
        code = main([
            "finetune", "--config", tiny_config, "--corpus", str(corpus),
            "--split", "8,4,4", "--out", str(tmp_path / f"{mode}.json"), *extra,
        ])
        assert code == 0
    assert (tmp_path / "scratch.json").exists() and (tmp_path / "warm.json").exists()


def test_finetune_without_validation_reports_null_val_accuracy(corpus, tiny_config, tmp_path):
    code = main([
        "finetune", "--config", tiny_config, "--corpus", str(corpus), "--scratch",
        "--split", "8,0,4", "--out", str(tmp_path / "m.json"),
    ])
    assert code == 0
    assert json.loads((tmp_path / "m.json").read_text())["val_accuracy"] is None


def test_finetune_without_init_exits_2(corpus, tiny_config, tmp_path):
    code = main([
        "finetune", "--config", tiny_config, "--corpus", str(corpus),
        "--split", "8,4,4", "--out", str(tmp_path / "m.json"),
    ])
    assert code == 2


def test_finetune_with_both_checkpoint_and_scratch_exits_2(corpus, tiny_config, pretrained,
                                                          tmp_path, capsys):
    code = main([
        "finetune", "--config", tiny_config, "--corpus", str(corpus), "--scratch",
        "--checkpoint", str(pretrained), "--split", "8,4,4", "--out", str(tmp_path / "m.json"),
    ])
    assert code == 2
    assert "exactly one of --checkpoint and --scratch" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_eval_corrupt_checkpoint_exits_4(corpus, tiny_config, tmp_path):
    bad = tmp_path / "bad.csma"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code = main([
        "eval", "--config", tiny_config, "--corpus", str(corpus),
        "--checkpoint", str(bad), "--split", "8,4,4",
        "--out", str(tmp_path / "e.json"),
    ])
    assert code == 4


def test_reconstruct_short_checkpoint_exits_4(corpus, tmp_path, capsys):
    bad = tmp_path / "short.csma"
    bad.write_bytes(b"CSMA\x01\x00\x00")  # magic, then a 3-byte header
    entries = json.loads((corpus / "manifest.json").read_text())
    code = main([
        "reconstruct", "--checkpoint", str(bad), "--clip", str(corpus / entries[0]["path"]),
        "--ratio", "0.75", "--strategy", "random", "--out-dir", str(tmp_path / "recon"),
    ])
    assert code == 4
    assert "corrupt artifact" in capsys.readouterr().err


def test_missing_corpus_exits_3(tiny_config, tmp_path):
    code = main([
        "pretrain", "--config", tiny_config, "--corpus", str(tmp_path / "nowhere"),
        "--out", str(tmp_path / "run"),
    ])
    assert code == 3


def test_reconstruct_writes_triptychs(corpus, pretrained, tmp_path):
    entries = json.loads((corpus / "manifest.json").read_text())
    clip_path = corpus / entries[0]["path"]
    out = tmp_path / "recon"
    code = main([
        "reconstruct", "--checkpoint", str(pretrained), "--clip", str(clip_path),
        "--ratio", "0.75", "--strategy", "adaptive", "--out-dir", str(out),
    ])
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 3 * 4  # three images per frame
    img = read_ppm(out / "original_000.ppm")
    assert img.shape == (16, 16, 3)


def test_reconstruct_mask_overlay_visible_count(corpus, pretrained, tmp_path):
    entries = json.loads((corpus / "manifest.json").read_text())
    clip_path = corpus / entries[1]["path"]
    out = tmp_path / "recon2"
    code = main([
        "reconstruct", "--checkpoint", str(pretrained), "--clip", str(clip_path),
        "--ratio", "0.75", "--strategy", "tube", "--out-dir", str(out),
    ])
    assert code == 0
    # tube masking at 0.75 on a 2x4x4 grid keeps 4 spatial cells per slice
    overlay = read_ppm(out / "mask_000.ppm")
    cells = overlay.reshape(4, 4, 4, 4, 3).swapaxes(1, 2)  # (h_cell, w_cell, 4, 4, 3)
    lit = [(h, w) for h in range(4) for w in range(4) if cells[h, w].max() > 0]
    assert len(lit) == 4


def test_ablate_table(corpus, tiny_config, tmp_path):
    out = tmp_path / "ablation"
    code = main([
        "ablate", "--config", tiny_config, "--corpus", str(corpus),
        "--set", "pretrain.strategy=random", "--set", "seed=0",
        "--set", "pretrain.strategy=adaptive", "--set", "seed=1",
        "--split", "8,4,4", "--out-dir", str(out),
    ])
    assert code == 0
    with open(out / "table.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    # one row per combination, in product order over the keys as they first appear
    grid = [("random", 0), ("random", 1), ("adaptive", 0), ("adaptive", 1)]
    assert list(rows[0])[:3] == ["row", "pretrain.strategy", "seed"]
    assert "config_hash" in rows[0]
    for index, (row, (strategy, seed)) in enumerate(zip(rows, grid, strict=True)):
        assert row["row"] == f"row{index:03d}"
        assert (row["pretrain.strategy"], row["seed"]) == (strategy, str(seed))
        resolved = json.loads((out / row["row"] / "config.resolved.json").read_text())
        assert resolved["pretrain"]["strategy"] == strategy
        assert resolved["pretrain"]["seed"] == resolved["finetune"]["seed"] == seed
        assert resolved["seed"] == seed
        assert (out / row["row"] / "checkpoint_000006.csma").exists()
    assert len({row["config_hash"] for row in rows}) == 4
    md = (out / "table.md").read_text()
    assert md.count("|") > 6


def test_ablate_invalid_axis_exits_2(corpus, tiny_config, tmp_path):
    code = main([
        "ablate", "--config", tiny_config, "--corpus", str(corpus),
        "--set", "optimizer.kind=adam", "--split", "8,4,4",
        "--out-dir", str(tmp_path / "x"),
    ])
    assert code == 2


BAD_SETS = {  # name: (--config document or the tiny one, --set texts, error text)
    "no-equals": (None, ["foo"], "--set takes KEY=VALUE"),
    "three-part-key": (None, ["a.b.c=1"], "--set takes KEY=VALUE"),
    "empty-key": (None, ["=1"], "--set takes KEY=VALUE"),
    "bare-section": (None, ["pretrain=1"], "--set takes KEY=VALUE"),
    "unknown-key": (None, ["pretrain.masking_ratio=0.9"], "unknown config key"),
    "unknown-section": (None, ["optimizer.lr=0.1"], "unknown config key"),
    "repeated-key": (None, ["seed=1", "seed=2"], "--set names seed more than once"),
    "section-not-object": ({"pretrain": 5}, ["pretrain.seed=1"], "'pretrain' must be an object"),
    "config-not-object": ([1], ["seed=1"], "must hold an object"),
    # the token width is enc_dim, and the positional table pairs its columns
    "odd-enc-dim": (None, ["backbone.enc_dim=15", "backbone.enc_heads=3"], "must be even"),
}
SET_REFUSALS = [
    (command, name) for command in ("gen-data", "pretrain", "finetune", "eval", "ablate")
    for name in BAD_SETS if (command, name) != ("ablate", "repeated-key")  # ablate sweeps
]


@pytest.mark.parametrize("command,name", SET_REFUSALS, ids=[f"{c}-{n}" for c, n in SET_REFUSALS])
def test_bad_set_exits_2_before_any_output(command, name, corpus, tiny_config, pretrained,
                                           tmp_path, capsys):
    document, sets, message = BAD_SETS[name]
    config = tiny_config
    if document is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
    out = tmp_path / "out"
    common = ["--config", str(config), *(arg for text in sets for arg in ("--set", text))]
    data = ["--corpus", str(corpus), "--split", "8,4,4"]
    argv = {
        "gen-data": ["gen-data", *common, "--out", str(out), "--clips", "2"],
        "pretrain": ["pretrain", *common, "--corpus", str(corpus), "--out", str(out)],
        "finetune": ["finetune", *common, *data, "--scratch", "--out", str(out)],
        "eval": ["eval", *common, *data, "--checkpoint", str(pretrained), "--out", str(out)],
        "ablate": ["ablate", *common, *data, "--out-dir", str(out)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and "Traceback" not in err
    assert not out.exists()


def test_split_refuses_a_repeated_id_naming_it_and_its_list():
    with pytest.raises(ConfigError, match="split id 1 appears 2 times in the train list"):
        SplitSpec([1, 1, 2, 5], [8], [9])
    with pytest.raises(ConfigError, match="split id 4 appears 3 times in the val list"):
        SplitSpec([0], [4, 4, 4], [9])
    with pytest.raises(ConfigError, match="disjoint"):
        SplitSpec([0, 1], [1], [9])


@pytest.mark.parametrize("counts,name", [("8,4,-4", "test"), ("8,-4,4", "val"),
                                         ("-1,4,4", "train")])
def test_split_counts_refuse_a_negative_count(counts, name, corpus, tiny_config, tmp_path, capsys):
    code = main([
        "finetune", "--config", tiny_config, "--corpus", str(corpus), "--scratch",
        f"--split={counts}", "--out", str(tmp_path / "m.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"split {name} count must be >= 0, got -" in err and "Traceback" not in err


def _sets(key, *values):
    return [arg for value in values for arg in ("--set", f"{key}={value}")]


BAD_SWEEPS = {  # named for the --axis/--values form they replace
    "ratio-0.9,abc": _sets("pretrain.mask_ratio", "0.9", "abc"),
    "ratio-0.9,,0.8": _sets("pretrain.mask_ratio", "0.9", "", "0.8"),
    "decoder-depth-1.5": _sets("backbone.dec_depth", "1.5"),
    "ratio-0.9,1.5": _sets("pretrain.mask_ratio", "0.9", "1.5"),
    "loss-mse-norm,mse-raw2": _sets("pretrain.loss_kind", "mse", "mse2"),
    "ratio-0.9,0.90": _sets("pretrain.mask_ratio", "0.9", "0.90"),
}


@pytest.mark.parametrize("sets", BAD_SWEEPS.values(), ids=BAD_SWEEPS)
def test_ablate_bad_value_exits_2_before_any_row(sets, corpus, tiny_config, tmp_path, capsys):
    out = tmp_path / "ablation"
    code = main([
        "ablate", "--config", tiny_config, "--corpus", str(corpus),
        *sets, "--split", "8,4,4", "--out-dir", str(out),
    ])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()  # no row trained or written


def test_ablate_bad_split_exits_2_before_any_row(corpus, tiny_config, tmp_path, capsys):
    out = tmp_path / "ablation"
    code = main([
        "ablate", "--config", tiny_config, "--corpus", str(corpus),
        "--set", "pretrain.mask_ratio=0.9", "--split", "100,4,4", "--out-dir", str(out),
    ])
    assert code == 2
    assert "exceed corpus of 16" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Every bad artifact a command reads exits on its documented code: 2 for a
# config or split, 4 for a corrupt or wrong-kind checkpoint.

def _classifier_checkpoint(path, pretrained):
    cfg = RunConfig.from_document(TINY)
    model = ModelParams(cfg.backbone, np.random.default_rng(0))
    head = ClassifierHead(np.random.default_rng(1), cfg.backbone.enc_dim, cfg.data.num_phases)
    arrays = {k: t.data for k, t in model.encoder_named().items()}
    arrays.update({k: t.data for k, t in head.named().items()})
    save_checkpoint(path, arrays)


def _configured_classifier_checkpoint(path, pretrained):
    """A classifier that holds its backbone config, as
    `finetune --save-classifier` writes one."""
    _classifier_checkpoint(path, pretrained)
    arrays = load_checkpoint(path)
    arrays["meta.config_utf8"] = config_to_array({"backbone": TINY["backbone"]})
    save_checkpoint(path, arrays)


def _config_entry(value):
    """A pretraining checkpoint whose embedded config entry is `value`."""
    if isinstance(value, bytes):
        value = np.frombuffer(value, dtype=np.uint8).astype(np.float32)

    def make(path, pretrained):
        arrays = load_checkpoint(pretrained)
        arrays["meta.config_utf8"] = np.asarray(value, dtype=np.float32)
        save_checkpoint(path, arrays)
    return make


def _text(content):
    def make(path, pretrained):
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return make


CHECKPOINTS = {  # artifact: (writer, exit code)
    "classifier": (_classifier_checkpoint, 4),
    "configured-classifier": (_configured_classifier_checkpoint, 4),
    "config-over-255": (_config_entry([3e9]), 4),
    "config-fraction": (_config_entry([123.5]), 4),
    "config-not-utf8": (_config_entry(b"\xff\xfe"), 4),
    "config-not-json": (_config_entry(b"{tokenizer"), 4),
    "config-not-object": (_config_entry(b"[1, 2]"), 4),
    "config-unknown-key": (_config_entry(json.dumps({"backbone": {"size": 4}}).encode()), 2),
    "config-negative-depth": (
        _config_entry(json.dumps({"backbone": {"enc_depth": -1}}).encode()), 2),
}
WRONG_KIND = {"pretraining": (lambda path, pretrained: shutil.copy(pretrained, path), 4)}


def _unpacked(write):
    """The checkpoint `write` makes, in the layout from before q, k and v
    were packed: separate attn.q/k/v entries, and `selection_weight` in
    the embedded config."""
    def make(path, pretrained):
        write(path, pretrained)
        arrays = load_checkpoint(path)
        for name in [n for n in arrays if ".attn.qkv." in n]:
            for part, block in zip("qkv", np.split(arrays.pop(name), 3, axis=-1)):
                arrays[name.replace(".qkv.", f".{part}.")] = block
        if "meta.config_utf8" in arrays:
            doc = array_to_config(arrays["meta.config_utf8"])
            doc["pretrain"]["selection_weight"] = 1.0
            arrays["meta.config_utf8"] = config_to_array(doc)
        save_checkpoint(path, arrays)
    return make


UNPACKED = {"unpacked-pretraining": (_unpacked(WRONG_KIND["pretraining"][0]), 4)}
UNPACKED_CLASSIFIER = {"unpacked-classifier": (_unpacked(_classifier_checkpoint), 4)}


def _without(prefix):
    """A pretraining checkpoint without the entries named `prefix`*."""
    def make(path, pretrained):
        arrays = load_checkpoint(pretrained)
        save_checkpoint(path, {k: v for k, v in arrays.items() if not k.startswith(prefix)})
    return make


def _entry(name, value):
    """A pretraining checkpoint whose entry `name` holds `value`."""
    def make(path, pretrained):
        arrays = load_checkpoint(pretrained)
        arrays[name] = np.asarray(value, dtype=np.float32)
        save_checkpoint(path, arrays)
    return make


TRAINING_STATE = {
    "no-trainer-step": (_without("trainer.step"), 4),
    "no-optimizer-moments": (_without("opt.v."), 4),
    "nan-trainer-step": (_entry("trainer.step", [np.nan]), 4),
    "negative-trainer-step": (_entry("trainer.step", [-3.0]), 4),
    "fractional-trainer-step": (_entry("trainer.step", [2.5]), 4),
    "0d-trainer-step": (_entry("trainer.step", 3.0), 4),
    "nan-optimizer-step": (_entry("opt.step", [np.nan]), 4),
    "0d-optimizer-step": (_entry("opt.step", 3.0), 4),
}
SPLITS = {
    "not-json": (_text("{"), 2),
    "missing-val": (_text({"train": [0, 1], "test": [2]}), 2),
    "id-past-corpus": (_text({"train": [0, 1], "val": [16], "test": [2]}), 2),
    "negative-id": (_text({"train": [0, 1], "val": [-1], "test": [15]}), 2),
    "float-id": (_text({"train": [0, 1], "val": [3.0], "test": [2]}), 2),
    "empty-test": (_text({"train": [0, 1, 2, 3, 4, 5, 6, 7], "val": [8], "test": []}), 2),
    "repeated-train-id": (_text({"train": [1, 1, 2, 5], "val": [8], "test": [9]}), 2),
    "repeated-test-id": (_text({"train": [1, 2], "val": [8], "test": [9, 10, 9]}), 2),
}
CONFIGS = {
    "not-json": (_text("{"), 2),
    "ratio-string": (_text({"pretrain": {"mask_ratio": "x"}}), 2),
    "short-tubelet": (_text({"backbone": {"tubelet": [2, 4]}}), 2),
    "null-max-steps": (_text({"pretrain": {"max_steps": None}}), 2),
    "negative-depth": (_text({"backbone": {"enc_depth": -1}}), 2),
    "zero-heads": (_text({"backbone": {"enc_heads": 0}}), 2),
    "zero-mlp-ratio": (_text({"backbone": {"dec_mlp_ratio": 0.0}}), 2),
    "zero-ckpt-every": (_text({"pretrain": {"ckpt_every": 0}}), 2),
    "short-color": (_text({"data": {"shape_palette": [[1.0, 0.0]]}}), 2),
    "negative-max-steps": (_text({"pretrain": {"max_steps": -2}}), 2),
    "zero-max-steps": (_text({"pretrain": {"max_steps": 0}}), 2),
    "negative-warmup": (_text({"pretrain": {"warmup_steps": -1}}), 2),
    "negative-weight-decay": (_text({"pretrain": {"weight_decay": -1.0}}), 2),
    "betas-past-one": (_text({"pretrain": {"betas": [1.5, 2.0]}}), 2),
    "negative-min-lr": (_text({"pretrain": {"min_lr": -1e-6}}), 2),
    "zero-grad-clip": (_text({"pretrain": {"grad_clip": 0.0}}), 2),
    "selection-weight": (_text({"pretrain": {"selection_weight": 1.0}}), 2),
    "negative-grad-clip": (_text({"pretrain": {"grad_clip": -1.0}}), 2),
    "finetune-beta-one": (_text({"finetune": {"betas": [0.9, 1.0]}}), 2),
    "finetune-negative-warmup": (_text({"finetune": {"warmup_steps": -1}}), 2),
    "nan-base-lr": (_text({"pretrain": {"base_lr": float("nan")}}), 2),
    "infinite-min-lr": (_text({"pretrain": {"min_lr": float("inf")}}), 2),
    "zero-frames": (_text({"data": {"frames": 0}}), 2),
    "reversed-speed-range": (_text({"data": {"motion_speed_range": [2.0, 1.0]}}), 2),
}
# the pretrained checkpoint's parameter shapes fit both, so only its config can tell
ARCHITECTURES = {
    "other-heads": (_text({**TINY, "backbone": {**TINY["backbone"], "enc_heads": 4}}), 2),
    "other-tubelet": (_text({**TINY, "backbone": {**TINY["backbone"], "tubelet": [1, 4, 8]}}),
                      2),
}
# the corpus holds phases 0..3; a 3-way head cannot score phase 3
LABELS = {
    "phase-past-num-phases": (_text({**TINY, "data": {**TINY["data"], "num_phases": 3}}), 2),
}


def _argv(command, artifact, corpus, tiny_config, pretrained, tmp_path):
    out = str(tmp_path / "out")
    data = ["--corpus", str(corpus)]
    return {
        "reconstruct": ["reconstruct", "--checkpoint", artifact,
                        "--clip", str(corpus / "clip_00000.csvc"), "--out-dir", out],
        "pretrain --resume": ["pretrain", "--config", tiny_config, *data, "--out", out,
                              "--set", "pretrain.strategy=adaptive", "--resume", artifact],
        "finetune": ["finetune", "--config", tiny_config, *data, "--checkpoint",
                     str(pretrained), "--split", artifact, "--out", out],
        "eval": ["eval", "--config", tiny_config, *data, "--checkpoint", str(pretrained),
                 "--split", artifact, "--out", out],
        "eval --checkpoint": ["eval", "--config", tiny_config, *data, "--checkpoint", artifact,
                              "--split", "8,4,4", "--out", out],
        "finetune --checkpoint": ["finetune", "--config", tiny_config, *data, "--checkpoint",
                                  artifact, "--split", "8,4,4", "--out", out],
        "pretrain": ["pretrain", "--config", artifact, *data, "--out", out],
        "gen-data": ["gen-data", "--config", artifact, "--out", out, "--clips", "2"],
        "finetune --config": ["finetune", "--config", artifact, *data, "--scratch",
                              "--split", "8,4,4", "--out", out],
        "eval --config": ["eval", "--config", artifact, *data, "--checkpoint", str(pretrained),
                          "--split", "8,4,4", "--out", out],
        "finetune --checkpoint --config": ["finetune", "--config", artifact, *data,
                                           "--checkpoint", str(pretrained), "--split", "8,4,4",
                                           "--out", out],
    }[command]


BAD_ARTIFACTS = [
    (command, name, *kind[name])
    for commands, kind in (
        (("reconstruct", "pretrain --resume"), CHECKPOINTS),
        (("eval --checkpoint",), WRONG_KIND),
        (("reconstruct", "pretrain --resume", "finetune --checkpoint"), UNPACKED),
        (("eval --checkpoint",), UNPACKED_CLASSIFIER),
        (("pretrain --resume",), TRAINING_STATE),
        (("finetune", "eval"), SPLITS),
        (("pretrain", "gen-data"), CONFIGS),
        (("finetune --config", "eval --config"), LABELS),
        (("finetune --checkpoint --config",), ARCHITECTURES),
    )
    for command in commands
    for name in kind
]


@pytest.mark.parametrize(
    "command,name,write,code", BAD_ARTIFACTS, ids=[f"{c}-{n}" for c, n, *_ in BAD_ARTIFACTS]
)
def test_bad_artifact_exits_on_its_documented_code(
    command, name, write, code, corpus, tiny_config, pretrained, tmp_path, capsys
):
    artifact = tmp_path / "artifact"
    write(artifact, pretrained)
    argv = _argv(command, str(artifact), corpus, tiny_config, pretrained, tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith({2: "config error: ", 4: "corrupt artifact: "}[code])
    assert "Traceback" not in err
    if name == "classifier":
        assert "'meta.config_utf8'" in err and "classifier checkpoint" in err
    if name == "configured-classifier":
        assert "is a classifier checkpoint, not a pretraining one" in err
    if name == "pretraining":
        assert "'classifier.head." in err
    if name.startswith("unpacked"):
        assert "attn.qkv.weight" in err
    if name == "selection-weight":
        assert "'selection_weight'" in err
    if name.startswith("repeated"):
        assert "appears 2 times in the" in err
    if name.startswith("other-"):
        assert "checkpoint architecture does not match the run config:\n~ " in err



def _with_earlier_config(checkpoint, path):
    """`checkpoint` copied to `path` with its config written as before the
    tubelet joined `backbone`: a `tokenizer` section holding the tubelet,
    the token width and the positional-encoding kind, and, in a
    pretraining checkpoint, `pretrain.epochs`."""
    arrays = load_checkpoint(checkpoint)
    doc = array_to_config(arrays["meta.config_utf8"])
    doc["tokenizer"] = {"tubelet": doc["backbone"].pop("tubelet"),
                        "dim": doc["backbone"]["enc_dim"], "pos_encoding": "sinusoidal"}
    if "pretrain" in doc:
        doc["pretrain"]["epochs"] = 800
    arrays["meta.config_utf8"] = config_to_array(doc)
    save_checkpoint(path, arrays)
    return str(path)


EARLIER_CONFIG_DIFFS = {  # command: what its refusal names
    "reconstruct": ["unknown config key(s) ['tokenizer']"],
    "pretrain --resume": ["+ backbone.tubelet = [2, 4, 4]", "- pretrain.epochs = 800",
                          "- tokenizer = {"],
    "finetune --checkpoint": ["+ backbone.tubelet = [2, 4, 4]"],
    "eval --checkpoint": ["+ backbone.tubelet = [2, 4, 4]"],
}


@pytest.mark.parametrize("command", EARLIER_CONFIG_DIFFS)
def test_a_checkpoint_with_the_earlier_tokenizer_section_exits_2(
    command, corpus, tiny_config, pretrained, tmp_path, capsys
):
    source = pretrained
    if command == "eval --checkpoint":
        source = tmp_path / "classifier.csma"
        assert main(["finetune", "--config", tiny_config, "--corpus", str(corpus), "--scratch",
                     "--split", "8,4,4", "--out", str(tmp_path / "m.json"),
                     "--save-classifier", str(source)]) == 0
    artifact = _with_earlier_config(source, tmp_path / "earlier.csma")
    argv = _argv(command, artifact, corpus, tiny_config, pretrained, tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    for line in EARLIER_CONFIG_DIFFS[command]:
        assert line in err


# A resume in place reads the run's metrics log; a corrupt complete line
# exits 4 naming the file and the line, where it raised from json before.
BAD_LOG_LINES = {
    "garbage": b"garbage\n",
    "list": b"[1, 2]\n",
    "not-utf8": b"\xff\xfe\n",
    "no-step": b'{"L_R": 1.0}\n',
    "string-step": b'{"step": "1"}\n',
    "float-step": b'{"step": 1.0}\n',
    "blank": b"\n",
}


@pytest.mark.parametrize("line", BAD_LOG_LINES.values(), ids=BAD_LOG_LINES)
def test_resume_in_place_over_a_corrupt_metrics_log_exits_4(
    line, corpus, tiny_config, pretrained, tmp_path, capsys
):
    run = tmp_path / "run"
    shutil.copytree(pretrained.parent, run)
    log = run / "metrics.jsonl"
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join([lines[0], line, *lines[1:]]))
    code = main([
        "pretrain", "--config", tiny_config, "--corpus", str(corpus), "--out", str(run),
        "--set", "pretrain.strategy=adaptive", "--resume", str(run / "checkpoint_000003.csma"),
    ])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("corrupt artifact: ") and "Traceback" not in err
    assert str(log) in err
    if line != b"\xff\xfe\n":
        assert "line 2 " in err


BAD_MANIFESTS = {
    "not-json": b"not json",
    "not-utf8": b"\xff\xfe[]",
    "object": b'{"a": 1}',
    "entry-not-object": b"[1]",
    "no-path": b'[{"phase_index": 0, "labeled": true}]',
    "no-labeled": b'[{"path": "clip_00000.csvc", "phase_index": 0}]',
    "float-phase": b'[{"path": "clip_00000.csvc", "phase_index": 0.0, "labeled": true}]',
    "bool-phase": b'[{"path": "clip_00000.csvc", "phase_index": true, "labeled": true}]',
    "int-labeled": b'[{"path": "clip_00000.csvc", "phase_index": 0, "labeled": 1}]',
}


@pytest.mark.parametrize("command", ["pretrain", "finetune", "eval", "ablate"])
@pytest.mark.parametrize("manifest", BAD_MANIFESTS.values(), ids=BAD_MANIFESTS)
def test_corrupt_manifest_exits_4(command, manifest, tiny_config, pretrained, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "manifest.json").write_bytes(manifest)
    out = str(tmp_path / "out")
    common = ["--config", tiny_config, "--corpus", str(corpus)]
    argv = {
        "pretrain": ["pretrain", *common, "--out", out],
        "finetune": ["finetune", *common, "--scratch", "--split", "1,0,0", "--out", out],
        "eval": ["eval", *common, "--checkpoint", str(pretrained), "--split", "1,0,0",
                 "--out", out],
        "ablate": ["ablate", *common, "--set", "pretrain.mask_ratio=0.5", "--split", "1,0,0",
                   "--out-dir", out],
    }[command]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("corrupt artifact: corpus manifest ") and "Traceback" not in err


def test_label_fraction_takes_each_phase_in_the_given_train_order():
    # ceil(0.5 * 6) = 3 clips, phases interleaved 0, 1, 0; within a phase the
    # split file's order decides, not the clip ids
    entries = [{"phase_index": p, "labeled": True} for p in (0, 1, 0, 1, 0, 1)]
    split = SplitSpec([4, 1, 0, 5, 2, 3], [], [])
    assert _apply_label_fraction(split, entries, 0.5) == SplitSpec([0, 1, 4], [], [])
    with pytest.raises(ConfigError, match="need 3 labeled"):
        _apply_label_fraction(split, [{**e, "labeled": i < 2} for i, e in enumerate(entries)], 0.5)
