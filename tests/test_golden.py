"""Every file the CLI writes for the tiny test config, pinned by SHA-256.

One child interpreter, with BLAS pinned to one thread as `perfbench`
pins it, runs `gen-data`, `pretrain` with each strategy, `pretrain
--resume` from a mid-run checkpoint, `finetune --save-classifier` and
`finetune --scratch`, `eval`, `reconstruct` and a two-row `ablate`,
each writing under one directory. The test compares the SHA-256 of
every file there with `tests/golden_sha256.json`, which maps each
relative path to its digest. A change that moves pinned bytes rewrites
the manifest in the same commit and names each moved path; from the
repository root:

    PYTHONPATH=src python tests/test_golden.py --write

The digests hold for one numpy and BLAS build; a toolchain change moves
them.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from selectmae.masking import STRATEGIES
from testkit import TINY

MANIFEST = Path(__file__).with_name("golden_sha256.json")


def commands(config: str) -> list[list[str]]:
    """The pipeline, with paths relative to the output directory."""
    tiny = ["--config", config]
    data = ["--corpus", "corpus", "--split", "8,4,4"]
    adaptive = "pretrain_adaptive/checkpoint_000006.csma"
    return [
        ["gen-data", *tiny, "--out", "corpus", "--clips", "16", "--label-fraction", "0.5",
         "--set", "seed=3"],
        *(["pretrain", *tiny, "--corpus", "corpus", "--out", f"pretrain_{strategy}",
           "--set", f"pretrain.strategy={strategy}"] for strategy in STRATEGIES),
        ["pretrain", *tiny, "--corpus", "corpus", "--out", "resumed",
         "--resume", "pretrain_adaptive/checkpoint_000003.csma"],
        ["finetune", *tiny, *data, "--checkpoint", adaptive, "--out", "finetune/report.json",
         "--save-classifier", "finetune/classifier.csma"],
        ["finetune", *tiny, *data, "--scratch", "--out", "scratch/report.json"],
        ["eval", *tiny, *data, "--checkpoint", "finetune/classifier.csma",
         "--out", "eval/report.json"],
        ["reconstruct", "--checkpoint", adaptive, "--clip", "corpus/clip_00005.csvc",
         "--out-dir", "reconstruct", "--set", "seed=2"],
        ["ablate", *tiny, *data, "--set", "finetune.label_fraction=0.5",
         "--set", "finetune.label_fraction=null", "--out-dir", "ablate"],
    ]


def digests(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_pipeline(root: Path) -> dict[str, str]:
    """Run every command in a child interpreter inside `root`; the
    digests of the files they wrote."""
    out = root / "out"
    out.mkdir()
    config = root / "tiny.json"
    config.write_text(json.dumps(TINY))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (
               str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, __file__, "--run", str(config)], cwd=out, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return digests(out)


def test_every_cli_output_keeps_its_bytes(tmp_path):
    written = run_pipeline(tmp_path)
    pinned = json.loads(MANIFEST.read_text())
    problems = [f"differs: {path}" for path in sorted(set(written) & set(pinned))
                if written[path] != pinned[path]]
    problems += [f"missing: {path}" for path in sorted(set(pinned) - set(written))]
    problems += [f"new: {path}" for path in sorted(set(written) - set(pinned))]
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        from selectmae.cli import main

        for argv in commands(sys.argv[2]):
            status = main(argv)
            if status != 0:
                sys.exit(f"selectmae {' '.join(argv)} exited {status}")
    elif sys.argv[1:] == ["--write"]:
        with tempfile.TemporaryDirectory() as scratch:
            manifest = run_pipeline(Path(scratch))
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(manifest)} digests to {MANIFEST}")
    else:
        sys.exit(f"usage: {sys.argv[0]} --write")
