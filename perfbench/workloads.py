"""The benchmark's workloads, their output checks and their metrics.

Every workload is a closed loop in one process: one fixed-size job
(set up, run, check) after another, each job starting when the previous
one ends, until the time budget is spent. Every job of a run uses the
same seed, so all jobs must leave identical bytes behind; that is the
determinism check. With tracing on, untraced and traced jobs alternate,
which also checks that tracing changes no output byte.

All workloads use the package's default model: batches of 8 clips of
8x32x32 pixels in 2x4x4 tubelets, so 256 tokens per clip, and a 0.95
mask ratio, so 13 visible tokens.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import selectmae
from selectmae import downstream, training
from selectmae.data import SynthConfig, generate_corpus, load_manifest

from tracer import UNREGISTERED_BLOCK, Tracer


@dataclass(frozen=True)
class Sizes:
    clips: int = 64  # a multiple of the batch of 8, so every step trains 8 clips
    label_fraction: float = 0.5
    pretrain_steps: int = 8  # per job
    ckpt_every: int = 4  # one mid-run checkpoint write per job
    probe_clips: int = 16  # eval calls after each untraced pretraining job
    init_steps: int = 4  # pretraining behind the finetune checkpoint
    split: tuple[int, int, int] = (24, 12, 12)  # train, val, test clips
    finetune_epochs: int = 3
    setups: int = 4  # set-ups timed per job


FULL = Sizes()
TINY = Sizes(clips=8, pretrain_steps=2, ckpt_every=1, probe_clips=2, init_steps=1,
             split=(4, 2, 2), finetune_epochs=1, setups=1)

NUM_PHASES = SynthConfig().num_phases

# End-to-end metrics, all reported with tracing off: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "step_ms.p50": "ms",
    "step_ms.p90": "ms",
    "train_clips_per_s": "1/s",
    "eval_clip_ms.p50": "ms",
    "eval_clip_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics from the traced jobs, each a mean per call:
# name -> (span, field, unit). A span a workload never enters reports 0.
# tracing.overhead_frac is added on top: traced over untraced job time, minus 1.
PER_LAYER = {}
for _span, _counted in (
    ("tokenizer.embed_patches", "nodes"),
    ("tokenizer.tokenize", "nodes"),
    ("masking.select_probabilities", "nodes"),
    ("masking.sample_visible", None),
    ("masking.baseline_mask", None),
    *((f"backbone.{part}.block{i}", "nodes") for part in ("encoder", "decoder") for i in range(4)),
    ("layers.apply_layer_norm", "nodes"),
    ("layers.linear", "nodes"),
    ("numerics.gather_rows_batched", "nodes"),
    ("numerics.backward", "nodes"),
    ("numerics.AdamW.step", None),
    ("training.save_checkpoint", "bytes"),
    ("training.load_checkpoint", None),
    ("data.load_clip", None),
):
    PER_LAYER[f"{_span}.ms"] = (_span, "ms", "ms")
    if _counted:
        PER_LAYER[f"{_span}.{_counted}"] = (_span, "count", _counted)
PER_LAYER["training.pretrain_step.self_ms"] = ("training.pretrain_step", "self_ms", "ms")
for _stage in ("train", "eval"):
    PER_LAYER[f"downstream.classification_logits.{_stage}_ms"] = (
        f"downstream.classification_logits.{_stage}", "ms", "ms")


class Checks:
    """Output checks; each one counts as an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.problems.append(what)


@dataclass
class Job:
    setup_s: list[float]
    wall_s: float  # of PretrainRun.run() or finetune_run
    clips: int  # clip-passes trained
    fingerprint: dict


@dataclass
class Run:
    workload: str
    seed: int
    sizes: Sizes
    work: Path
    checks: Checks = field(default_factory=Checks)
    plain: Tracer = field(default_factory=Tracer)
    traced: Tracer = field(default_factory=Tracer)
    jobs: dict[bool, list[Job]] = field(default_factory=lambda: {False: [], True: []})


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def make_inputs(run: Run) -> dict:
    """Corpus with foreground masks, plus a pretrained checkpoint for
    fine-tuning; made before any timing starts, in a child interpreter,
    so that making them does not count in this process's peak_rss_mb."""
    src = str(Path(selectmae.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, __file__, run.workload, str(run.seed),
         json.dumps(asdict(run.sizes)), str(run.work)],
        env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _make_inputs_here(workload: str, seed: int, sizes: Sizes, work: Path) -> dict:
    manifest = generate_corpus(SynthConfig(), sizes.clips, sizes.label_fraction, seed,
                               work / "corpus")
    inputs = {"manifest": str(manifest)}
    if workload == "finetune-eval":
        cfg = training.PretrainConfig(max_steps=sizes.init_steps, seed=seed)
        result = training.pretrain_run(manifest, work / "init", cfg)
        inputs["checkpoint"] = str(result["checkpoint"])
    return inputs


def pretrain_job(run: Run, inputs: dict, probe: bool) -> Job:
    sizes = run.sizes
    cfg = training.PretrainConfig(
        strategy=run.workload.removeprefix("pretrain-"), max_steps=sizes.pretrain_steps,
        ckpt_every=sizes.ckpt_every, seed=run.seed,
    )
    setup = []
    for _ in range(sizes.setups):
        pre, seconds = _timed(training.PretrainRun, inputs["manifest"], run.work / "out", cfg)
        setup.append(seconds)
    result, wall = _timed(pre.run)

    lines = [json.loads(line) for line in Path(result["log"]).read_text().splitlines()]
    run.checks.expect(len(lines) == sizes.pretrain_steps,
                      f"{len(lines)} logged steps, expected {sizes.pretrain_steps}")
    for line in lines:
        run.checks.expect(math.isfinite(line["L_R"]) and math.isfinite(line["L_select"]),
                          f"non-finite loss logged at step {line['step']}")

    # Forward-only probe of the encoder just pretrained, with an untrained
    # head. Traced jobs skip it, so that their spans cover pretraining only.
    head = downstream.ClassifierHead(np.random.default_rng([run.seed, 4]),
                                     pre.bb_cfg.enc_dim, NUM_PHASES)
    for item in pre.items[:sizes.probe_clips if probe else 0]:
        logits = downstream.classification_logits(item.frames, pre.model, head)
        run.checks.expect(bool(np.isfinite(logits.data).all()), "non-finite probe logits")

    return Job(setup, wall, result["total_steps"] * cfg.batch_size, {
        "metrics.jsonl": _sha256(result["log"]),
        "checkpoint": _sha256(result["checkpoint"]),
    })


def finetune_job(run: Run, inputs: dict) -> Job:
    sizes = run.sizes
    setup = []
    for _ in range(sizes.setups):
        start = time.perf_counter()
        arrays = training.load_checkpoint(inputs["checkpoint"])
        entries = load_manifest(inputs["manifest"])
        split = downstream.SplitSpec.from_manifest(entries, *sizes.split)
        setup.append(time.perf_counter() - start)
    # patience == epochs turns early stopping off, so every job does the same work
    cfg = downstream.FinetuneConfig(epochs=sizes.finetune_epochs,
                                    patience=sizes.finetune_epochs, seed=run.seed)
    result, wall = _timed(downstream.finetune_run, inputs["manifest"], split, cfg,
                          NUM_PHASES, init_arrays=arrays)

    classifier = {k: t.data for k, t in result["model"].encoder_named().items()}
    classifier.update({k: t.data for k, t in result["head"].named().items()})
    saved = run.work / "classifier.csma"
    training.save_checkpoint(saved, classifier)
    report = downstream.evaluate_checkpoint(inputs["manifest"], split.test_ids,
                                            training.load_checkpoint(saved), NUM_PHASES)

    expected = result["report"].to_json_dict()
    run.checks.expect(report.to_json_dict() == expected,
                      "evaluate_checkpoint disagrees with finetune_run on the test split")
    run.checks.expect(0.0 <= report.accuracy <= 1.0, f"accuracy {report.accuracy}")
    run.checks.expect(int(report.confusion.sum()) == len(split.test_ids),
                      "confusion matrix does not count every test clip")
    expected.update(val_accuracy=result["val_accuracy"], best_epoch=result["best_epoch"])
    return Job(setup, wall, cfg.epochs * result["labeled_train"], {
        "report": hashlib.sha256(json.dumps(expected, sort_keys=True).encode()).hexdigest(),
        "classifier": _sha256(saved),
    })


def one_job(run: Run, inputs: dict, traced: bool) -> Job:
    tracer = run.traced if traced else run.plain
    strategy = None if run.workload == "finetune-eval" else run.workload.removeprefix("pretrain-")
    try:
        if traced:
            tracer.install_layers()
        tracer.install_steps(strategy)
        if strategy is None:
            job = finetune_job(run, inputs)
        else:
            job = pretrain_job(run, inputs, probe=not traced)
    finally:
        tracer.restore()
    run.jobs[traced].append(job)
    return job


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Jobs until `seconds` have passed, at least two; returns the metrics."""
    inputs = make_inputs(run)
    first = None
    start = time.perf_counter()
    n = 0
    while n < 2 or time.perf_counter() - start < seconds:
        job = one_job(run, inputs, traced=trace and n % 2 == 1)
        first = first or job.fingerprint
        if n:
            for name, digest in job.fingerprint.items():
                run.checks.expect(digest == first[name], f"job {n}: {name} differs from job 0")
        n += 1
    for tracer in (run.plain, run.traced):
        for problem in tracer.mask_checks:
            run.checks.expect(problem is None, f"mask: {problem}")
    return per_layer_metrics(run) if trace else end_to_end_metrics(run)


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _setup_seconds(jobs: list[Job]) -> float:
    """Median of means: the k-th set-up of every job but the first (which
    warms module caches) forms group k, and the median of the group means
    is reported. The set-ups of one job share the machine's state, which
    on a shared VM switches between a fast and a slow mode every second
    or so; a plain median of the set-ups jumps between the two modes from
    run to run, while each group mean moves smoothly with the share of
    time spent in the slow one."""
    groups = zip(*(job.setup_s for job in jobs[1:]))
    return statistics.median(statistics.fmean(group) for group in groups)


def end_to_end_metrics(run: Run) -> dict:
    jobs = run.jobs[False]
    step_span = ("downstream.finetune_step" if run.workload == "finetune-eval"
                 else "training.pretrain_step")
    steps = [ms for ms, _, _ in run.plain.spans[step_span]]
    evals = [ms for ms, _, _ in run.plain.spans["downstream.classification_logits.eval"]]
    values = {
        "setup_s": _setup_seconds(jobs),
        "step_ms.p50": _percentile(steps, 50),
        "step_ms.p90": _percentile(steps, 90),
        "train_clips_per_s": sum(j.clips for j in jobs) / sum(j.wall_s for j in jobs),
        "eval_clip_ms.p50": _percentile(evals, 50),
        "eval_clip_ms.p90": _percentile(evals, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": sum(len(j.setup_s) for j in jobs[1:]), "step_ms": len(steps),
               "eval_clip_ms": len(evals), "train_clips_per_s": sum(j.clips for j in jobs), "jobs": len(jobs)}
    return {"metrics": {k: (v, END_TO_END[k]) for k, v in values.items()}, "samples": samples}


def per_layer_metrics(run: Run) -> dict:
    spans = run.traced.spans
    run.checks.expect(not spans.get(UNREGISTERED_BLOCK),
                      "a transformer block belonged to no known model")
    metrics = {}
    for name, (span, kind, unit) in PER_LAYER.items():
        calls = spans.get(span, [])
        column = {"ms": 0, "self_ms": 1, "count": 2}[kind]
        metrics[name] = (sum(c[column] for c in calls) / len(calls) if calls else 0.0, unit)
    plain = statistics.median(j.wall_s for j in run.jobs[False])
    traced = statistics.median(j.wall_s for j in run.jobs[True])
    metrics["tracing.overhead_frac"] = (traced / plain - 1.0, "frac")
    samples = {span: len(calls) for span, calls in sorted(spans.items())}
    samples["jobs"] = {"untraced": len(run.jobs[False]), "traced": len(run.jobs[True])}
    return {"metrics": metrics, "samples": samples}


if __name__ == "__main__":
    # python3 workloads.py <workload> <seed> <sizes as JSON> <work dir>:
    # makes the inputs and prints their paths as JSON (see make_inputs).
    _workload, _seed, _sizes, _work = sys.argv[1:]
    _made = _make_inputs_here(_workload, int(_seed), Sizes(**json.loads(_sizes)), Path(_work))
    print(json.dumps(_made))
