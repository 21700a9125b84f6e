"""Benchmark entry point: one run of one workload, or a steadiness sweep.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cnn-mnist --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload city-100k --steadiness 5 --seconds 24

A run starts the workload in a fresh interpreter with ``PYTHONHASHSEED``
pinned to ``0`` and one BLAS thread, so every run of a workload does the
same work.  Afterwards a second interpreter, under ``PYTHONHASHSEED=1``,
rebuilds each scenario the run trained on (the replay operation) and the
digests of both builds are compared.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--steadiness N`` runs seeds ``0..N-1`` one after another and prints,
per metric, the median, the quartiles and their spread as a share of
the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
#: Scratch space inside the checkout (service state dirs, span dumps).
WORKDIR = ROOT / ".perfbench"

TIMED_HASH_SEED = "0"
REPLAY_HASH_SEED = "1"
#: Where a failed replay of an image task points.
HASH_FAULT = (
    "src/repro/data/synthetic.py:137 seeds class prototypes with the "
    "per-interpreter salted hash()"
)
#: Wall-clock budget of one run, children included (a run must end within 180 s).
RUN_BUDGET_S = 175


def child_env(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def spawn(role: str, args: argparse.Namespace, hash_seed: str, deadline: float,
          stdin: str = "") -> dict:
    """Run this file in ``role`` in a fresh interpreter; return its JSON."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            command, input=stdin, capture_output=True, text=True,
            env=child_env(hash_seed), cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{role} interpreter overran the {RUN_BUDGET_S} s run budget")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{role} interpreter exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_metrics(trace: int) -> dict:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def one_run(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    result = spawn("workload", args, TIMED_HASH_SEED, deadline)
    problems = list(result["problems"])
    attempted = result["scenarios"]
    failed = 0
    replays = result["replays"]
    if replays:
        again = spawn("replay", args, REPLAY_HASH_SEED, deadline,
                      stdin=json.dumps(replays))
        attempted += len(replays)
        for spec, digests in zip(replays, again):
            differ = checks.digest_mismatch(spec["digests"], digests)
            if differ:
                failed += 1
                print(
                    f"replay of seed {spec['config']['seed']} under "
                    f"PYTHONHASHSEED={REPLAY_HASH_SEED} differs in "
                    f"{', '.join(differ)}: {HASH_FAULT}",
                    file=sys.stderr,
                )
    for row in result["per_scenario"]:
        print("scenario " + " ".join(f"{k}={v}" for k, v in row.items()), file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    units = declared_metrics(args.trace)
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise SystemExit(f"workload reported no value for {missing}")
    print(f"calibration_s={result['calibration_s']:.6f} "
          f"workload={args.workload} seed={args.seed} trace={args.trace}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def steadiness(args: argparse.Namespace) -> None:
    values: dict = {}
    for seed in range(args.steadiness):
        args.seed = seed
        out = one_run(args)
        print(json.dumps(out), flush=True)
        for name, metric in out["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:<28}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run seeds 0..N-1 and print each metric's spread")
    parser.add_argument("--role", choices=("run", "workload", "replay"),
                        default="run", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.role == "workload":
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), WORKDIR)
        print(json.dumps(result))
        return 0
    if args.role == "replay":
        print(json.dumps(workloads.replay(json.loads(sys.stdin.read()))))
        return 0

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.steadiness:
        steadiness(args)
        return 0
    print(json.dumps(one_run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
