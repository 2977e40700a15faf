"""Smoke test of the benchmark at its smallest size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int) -> dict:
    """One tiny run in a fresh interpreter, as the benchmark is run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_finite_with_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert math.isfinite(reported["value"]), metric["name"]
        assert reported["unit"] == metric["unit"], metric["name"]
        if not trace:
            assert reported["value"] > 0, metric["name"]


@pytest.fixture
def package(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    from selectmae import backbone, downstream, training
    from selectmae.numerics import AdamW

    return workloads, (training, backbone, downstream, AdamW), tmp_path


def _attributes(owners):
    return [(owner, name, value) for owner in owners for name, value in vars(owner).items()]


@pytest.mark.parametrize("workload", ["pretrain-adaptive", "finetune-eval"])
def test_traced_run_restores_every_wrapped_attribute(package, workload):
    workloads, owners, tmp_path = package
    before = _attributes(owners)
    run = workloads.Run(workload, 5, workloads.TINY, tmp_path)
    metrics = workloads.measure(run, 0, trace=True)["metrics"]
    assert not run.checks.problems
    assert metrics["backbone.encoder.block0.ms"][0] > 0
    after = _attributes(owners)
    assert len(after) == len(before)
    for (owner, name, value), (_, _, now) in zip(before, after):
        assert now is value, f"{owner.__name__}.{name} not restored"


def test_bad_mask_fails_a_check(package):
    workloads, (training, *_), tmp_path = package
    original = training.sample_visible

    def one_short(probs, ratio, rng):
        spec = original(probs, ratio, rng)
        return type(spec)(spec.n_tokens, spec.ratio, spec.visible_ids[:-1])

    training.sample_visible = one_short
    try:
        run = workloads.Run("pretrain-adaptive", 5, workloads.TINY, tmp_path)
        workloads.measure(run, 0, trace=False)
    finally:
        training.sample_visible = original
    assert any("mask" in problem for problem in run.checks.problems)
