"""dasopt benchmark launcher.

    python3 perfbench/run.py --workload ls-paper --seed 0 --seconds 20 --trace 0

Run from the repository root. The launcher pins the environment (one BLAS
thread), times several fresh interpreters importing dasopt (set-up), then
runs the workload in one fresh worker process and prints the environment,
every metric by name with its unit, and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the worker wraps dasopt's public
functions and the metrics are the per-layer ones. The exit code is 0 only
when the outputs passed their checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("ls-paper", "cls-lossy", "verify-small")

# Fresh interpreters timed per run for setup_s; the first only warms the
# file cache and bytecode and is discarded.
SETUP_STARTS = 7
# Every run ends within this many seconds.
RUN_LIMIT_S = 170.0

UNITS = {"wall_s": "s", "events_per_s": "1/s", "setup_s": "s",
         "peak_rss_mb": "MB", "passed_share": "ratio"}


def pinned_env():
    """Environment for every child: this checkout's dasopt, one BLAS thread.

    The products here are small, so a second BLAS thread gains nothing and
    only adds scheduling noise between runs; one thread never exceeds nproc.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def time_setup(cmd, env, deadline):
    """Median seconds from spawning a fresh interpreter until it has imported
    dasopt and built the workload."""
    samples = []
    for n in range(SETUP_STARTS + 1):
        # the child prints time.monotonic() when ready; on Linux this is
        # CLOCK_MONOTONIC, shared by all processes of the machine
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--probe"], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        if n > 0:
            samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples), samples


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "dasopt", "__init__.py")):
        raise SystemExit(f"no dasopt sources under {os.path.join(ROOT, 'src')}")
    env = pinned_env()
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup_s, setup_samples = time_setup(cmd, env, deadline)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"workload {args.workload} did not finish within {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    env_record = dict(raw["env"], git_commit=git_commit(), seed=args.seed,
                      workload=args.workload, trace=args.trace)
    walls = raw["walls"]
    wall_s = statistics.median(walls)
    correct = not raw["problems"]
    print("env " + json.dumps(env_record, sort_keys=True))
    for problem in raw["problems"]:
        print(f"check failed: {problem}")
    print(f"samples: {len(walls)} iterations, wall min {min(walls):.4f} s, "
          f"max {max(walls):.4f} s; {len(setup_samples)} set-up starts")
    print(f"failed_share = {raw['failed'] / raw['attempted']:.6g} "
          f"({raw['failed']} of {raw['attempted']} operations)")

    if args.trace == 0:
        values = {
            "wall_s": wall_s,
            "events_per_s": raw["events"] / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": raw["peak_rss_mb"],
            "passed_share": 1.0 - raw["failed"] / raw["attempted"],
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    else:
        metrics = raw["per_layer"]
        for name in raw["absent"]:
            print(f"{name} absent: the function it measures is not defined")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
