"""Benchmark entry point for selectmae.

Run from the repository root:

    python3 perfbench/run.py --workload pretrain-adaptive --seed 1 --seconds 30 --trace 0

It builds nothing: it imports the package from `src/` of the current
directory. With `--trace 0` it reports the end-to-end metrics, with
`--trace 1` the per-layer ones. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
line before it records the BLAS thread count, nproc, numpy, the BLAS
library and each metric's sample count. The exit code is 1 when an
output check fails and 2 when the package cannot be found.

`--workload all` runs every workload, each in a fresh interpreter so
that peak memory and module caches do not carry over.
"""

import os

# Pinned before numpy is imported: with the default thread count the
# adaptive step spreads far wider on a 2-core machine.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("pretrain-adaptive", "pretrain-random", "finetune-eval")
WORK_DIR = ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke test")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas_name,
    }


def run_one(args) -> int:
    src = Path.cwd() / "src"
    if not (src / "selectmae" / "__init__.py").is_file():
        print(f"no package at {src / 'selectmae'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import selectmae

    if not Path(selectmae.__file__).resolve().is_relative_to(src.resolve()):
        print(f"imported selectmae from {selectmae.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    Path(WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        run = workloads.Run(args.workload, args.seed,
                            workloads.TINY if args.tiny else workloads.FULL, work)
        out = workloads.measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            Path(WORK_DIR).rmdir()
        except OSError:
            pass  # another run still uses it

    checks = run.checks
    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in out["metrics"].items():
        print(f"{args.workload:18} {name:44} {value:14.6f} {unit}")
    print(json.dumps({"environment": environment(), "samples": out["samples"]}))
    result = {
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": len(checks.problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter; the combined result keys
    metrics as <workload>/<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode not in (0, 1):
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
