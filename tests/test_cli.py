import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from selectmae.cli import main
from selectmae.config import RunConfig
from selectmae.errors import ConfigError
from selectmae.ppm import read_ppm


TINY = {
    "data": {"frames": 4, "height": 16, "width": 16, "num_phases": 4},
    "tokenizer": {"tubelet": [2, 4, 4], "dim": 16},
    "backbone": {
        "enc_depth": 1, "enc_dim": 16, "enc_heads": 2,
        "dec_depth": 1, "dec_dim": 8, "dec_heads": 2,
    },
    "pretrain": {
        "mask_ratio": 0.75, "epochs": 4, "batch_size": 4, "max_steps": 6,
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
        "--clips", "16", "--label-fraction", "0.5", "--seed", "3",
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


def test_gen_data_manifest_counts(corpus):
    entries = json.loads((corpus / "manifest.json").read_text())
    assert len(entries) == 16
    assert sum(e["labeled"] for e in entries) == 8
    assert (corpus / "config.resolved.json").exists()


def test_gen_data_missing_out_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--clips", "4"])
    assert exc.value.code == 2


def test_gen_data_rerun_is_byte_identical(tmp_path, tiny_config):
    for name in ("a", "b"):
        code = main([
            "gen-data", "--config", tiny_config, "--out", str(tmp_path / name),
            "--clips", "8", "--label-fraction", "0.5", "--seed", "9",
        ])
        assert code == 0
    assert _dir_hash(tmp_path / "a") == _dir_hash(tmp_path / "b")


def test_pretrain_invalid_ratio_exits_2(corpus, tiny_config, tmp_path):
    code = main([
        "pretrain", "--config", tiny_config, "--corpus", str(corpus),
        "--out", str(tmp_path / "run"), "--ratio", "1.5",
    ])
    assert code == 2


def test_pretrain_invalid_strategy_exits_2(corpus, tiny_config, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "pretrain", "--config", tiny_config, "--corpus", str(corpus),
            "--out", str(tmp_path / "run"), "--strategy", "zigzag",
        ])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory, corpus, tiny_config):
    out = tmp_path_factory.mktemp("cli_pretrain")
    code = main([
        "pretrain", "--config", tiny_config, "--corpus", str(corpus),
        "--out", str(out), "--strategy", "adaptive",
    ])
    assert code == 0
    return out / "checkpoint_000006.csma"


def test_pretrain_determinism(tmp_path_factory, corpus, tiny_config, pretrained):
    out2 = tmp_path_factory.mktemp("cli_pretrain2")
    code = main([
        "pretrain", "--config", tiny_config, "--corpus", str(corpus),
        "--out", str(out2), "--strategy", "adaptive",
    ])
    assert code == 0
    assert (out2 / "checkpoint_000006.csma").read_bytes() == pretrained.read_bytes()


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


def test_finetune_scratch_vs_checkpoint(corpus, tiny_config, pretrained, tmp_path):
    for mode, extra in (("scratch", ["--scratch"]), ("warm", ["--checkpoint", str(pretrained)])):
        code = main([
            "finetune", "--config", tiny_config, "--corpus", str(corpus),
            "--split", "8,4,4", "--out", str(tmp_path / f"{mode}.json"), *extra,
        ])
        assert code == 0
    assert (tmp_path / "scratch.json").exists() and (tmp_path / "warm.json").exists()


def test_finetune_without_init_exits_2(corpus, tiny_config, tmp_path):
    code = main([
        "finetune", "--config", tiny_config, "--corpus", str(corpus),
        "--split", "8,4,4", "--out", str(tmp_path / "m.json"),
    ])
    assert code == 2


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
        "--axis", "strategy", "--values", "random,adaptive",
        "--split", "8,4,4", "--out-dir", str(out),
    ])
    assert code == 0
    rows = (out / "table.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # header + 2 values
    assert "config_hash" in rows[0]
    md = (out / "table.md").read_text()
    assert md.count("|") > 6


def test_ablate_invalid_axis_exits_2(corpus, tiny_config, tmp_path):
    code = main([
        "ablate", "--config", tiny_config, "--corpus", str(corpus),
        "--axis", "optimizer", "--values", "adam", "--split", "8,4,4",
        "--out-dir", str(tmp_path / "x"),
    ])
    assert code == 2
