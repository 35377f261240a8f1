#!/usr/bin/env python3
"""Build and run the simulator's host-cost benchmark.

    python3 perfbench/run.py --workload micro --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The script builds
perfbench/perfbench.exe from source with dune (the first build of a
checkout compiles the simulator's libraries too), then runs one
workload and relays its report.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end host costs; with --trace 1
they are the per-layer numbers of a traced run.  See README.md in this
directory for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850


def run_timeout_s(seconds):
    # The run measures for `seconds`, after a prepare pass and a
    # warm-up round of a few seconds each.
    return 2 * seconds + 120


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["micro", "wrk", "sweep", "record"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} not found under {ROOT}: run from a full source checkout")
    if shutil.which("dune") is None:
        die("dune is not on PATH")

    # Keep every build artefact inside the checkout (no shared cache).
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out", 1)
    if build.returncode != 0:
        die("build failed", 1)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(HERE, "out")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             timeout=run_timeout_s(args.seconds), text=True)
    except subprocess.TimeoutExpired:
        die("benchmark run timed out", 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        die(f"benchmark exited with code {run.returncode}", 1)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        die("benchmark printed no result line", 1)


if __name__ == "__main__":
    main()
