"""Run the benchmark over a range of seeds and keep each run's stdout.

    python3 perfbench/collect.py --out perfbench/results/A --seeds 1-10

Runs every workload of BENCHMARK.json once per seed, untraced, alternating
workloads within a seed, with the run length of BENCHMARK.json.  Each run's stdout goes to ``<out>/<workload>-<seed>.out``;
``perfbench/compare.py`` reads those files.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    first, _, last = args.seeds.partition("-")
    os.makedirs(args.out, exist_ok=True)
    for seed in range(int(first), int(last or first) + 1):
        for name in names:
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            path = os.path.join(args.out, f"{name}-{seed}.out")
            with open(path, "w") as fh:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=fh, timeout=900).returncode
            print(f"{name} seed {seed}: exit {rc}", flush=True)
            if rc != 0:
                return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
