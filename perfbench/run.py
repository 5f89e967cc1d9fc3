"""colp benchmark: run one workload, or all four, each in its own process.

Run from the root of a colp checkout:

    python3 perfbench/run.py --workload loop --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py            # all four workloads, seed 1, 15 s

Each workload process gets PYTHONHASHSEED=0, so set iteration order, and
with it every traced count, repeats from run to run.  The last line of
standard output is one JSON object; see BENCHMARK.json for the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("loop", "answers", "semantics", "check")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
TIMEOUT_S = 170  # one workload run must end well inside 180 s


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """Run one workload process; (exit code, its last output line)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print(f"{workload}: no result within {TIMEOUT_S} s", file=sys.stderr)
        return 3, ""
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    return proc.returncode, lines[-1] if lines else ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "colp", "__init__.py")):
        print("no colp sources under ./src; run from a colp checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        code, last = run_one(name, args.seed, args.seconds, args.trace)
        if code != 0:
            print(f"{name}: workload process exited {code}", file=sys.stderr)
            return code or 1
        print(last)
        results[name] = json.loads(last)
    if len(names) > 1:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
