"""Benchmark of the sphgas verbs, measured from outside the program.

    python3 perfbench/run.py --workload decay --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``); the line before it holds
the raw samples.  Times are probe-scaled seconds (meter.py).  See
perfbench/README.md for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One thread per numeric library, here and in every child process.
os.environ.update({
    k: "1"
    for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
})

import checks  # noqa: E402
import spans  # noqa: E402
from meter import Meter  # noqa: E402
from workloads import NAMES, config_text, workload_config  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SETUP_STARTS = 7  # timed fresh interpreters per run, after one untimed start
# report passes per round: enough for a low-noise median of the short verb
REPORTS = {"decay": 5, "dense_midpoint": 2}
CHILD_TIMEOUT = 60.0  # one fresh interpreter
RUN_LIMIT = 165.0  # the whole run, checks included, ends within 180 s
MB = 1e6

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import sphgas.cli\n"
    "t_import = time.monotonic()\n"
    "from sphgas.config import load_config, resolve\n"
    "resolve(load_config(sys.argv[2]))\n"
    "print(t_import, time.monotonic())\n"
)
BARE_CODE = "import time; print(time.monotonic())"


def fresh_start(meter, code, *args) -> list[float]:
    """Scaled seconds from spawning a fresh interpreter to each time it prints."""

    def spawn():
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code, *args], capture_output=True, text=True,
            check=True, timeout=CHILD_TIMEOUT,
        )
        return [float(tok) - t0 for tok in done.stdout.split()]

    stamps, wall, scaled = meter.measure(spawn, interrupt=False)
    return [t * scaled / wall for t in stamps]


def dir_bytes(path, skip=()) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files if f not in skip)
    return total


def run_checks(rounds, raw, decay) -> dict[str, tuple[bool, str]]:
    """Every operation of every round: the verbs' exit codes and the checks."""
    results = {}
    for i, entry in enumerate(rounds):
        for j, (name, rc, _, _, error) in enumerate(entry["verbs"]):
            results[f"r{i}.{j}.{name}_exit"] = (rc == 0, error or f"exit {rc}")
        if "untraced" in entry:
            missing = entry["untraced"]
            results[f"r{i}.trace_install"] = (not missing, f"not traced: {missing}")
        out = os.path.join(entry["dir"], "out")
        try:
            found = checks.check_run(out, raw, decay)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = {"run_outputs": (False, repr(exc))}
        try:
            found.update(checks.check_verify(os.path.join(entry["dir"], "verify")))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found["verify_outputs"] = (False, repr(exc))
        results.update({f"r{i}.{k}": v for k, v in found.items()})
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sphgas", "cli.py")):
        print(f"perfbench: no sphgas sources under {src}", file=sys.stderr)
        return 2

    # Every process of the run shares one CPU, so the probes see the speed
    # of the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    began = time.monotonic()
    raw = workload_config(args.workload, args.seed)
    meter = Meter()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        cfg = os.path.join(workdir, "workload.cfg")
        with open(cfg, "w") as fh:
            fh.write(config_text(raw))
        fresh_start(meter, SETUP_CODE, src, cfg)  # compiles bytecode, fills the file cache
        starts = [fresh_start(meter, SETUP_CODE, src, cfg) for _ in range(SETUP_STARTS)]
        bare = [fresh_start(meter, BARE_CODE)[0] for _ in range(SETUP_STARTS)] if args.trace else []

        subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), ROOT, cfg, workdir,
             repr(args.seconds), str(REPORTS[args.workload]), str(args.trace)],
            check=True, timeout=RUN_LIMIT - 15.0 - (time.monotonic() - began),
        )
        with open(os.path.join(workdir, "worker.json")) as fh:
            worker = json.load(fh)
        rounds = worker["rounds"]
        results = run_checks(rounds, raw, args.workload == "decay")

        times: dict[str, list[float]] = {}
        walls: dict[str, list[float]] = {}
        for entry in rounds:
            for name, _, wall, scaled, _ in entry["verbs"]:
                times.setdefault(name, []).append(scaled)
                walls.setdefault(name, []).append(wall)
        first_out = os.path.join(rounds[0]["dir"], "out")
        probes = meter.probes + worker["probes"]
        if args.trace:
            layers = []
            for entry in rounds:
                factors = [s / w for name, _, w, s, _ in entry["verbs"] if name != "run_untraced"]
                with open(os.path.join(entry["dir"], "spans.json")) as fh:
                    layers.append(spans.layer_metrics(json.load(fh), factors))
            try:
                with open(os.path.join(first_out, "summary.json")) as fh:
                    rejections = float(json.load(fh)["n_rejections"])
            except (OSError, ValueError, KeyError) as exc:
                results["rejections_read"] = (False, repr(exc))
                rejections = 0.0
            overhead = [t - u for t, u in zip(times["run"], times["run_untraced"])]
            values = {
                **{k: statistics.median(m[k] for m in layers) for k in layers[0]},
                "solver.rejections": rejections,
                "state.snapshot_mb": dir_bytes(os.path.join(first_out, "snapshots")) / MB,
                "cli.import_s": statistics.median(s[0] for s in starts) - statistics.median(bare),
                "machine.calib_ms": 1e3 * min(probes),
                "trace.overhead_s": statistics.median(overhead),
            }
        else:
            values = {
                "setup_s": statistics.median(s[1] for s in starts),
                "run_s": statistics.median(times["run"]),
                "report_s": statistics.median(times["report"]),
                "verify_s": statistics.median(times["verify"]),
                "peak_rss_mb": worker["peak_rss_bytes"] / MB,
                "output_mb": dir_bytes(first_out, skip=("report.json",)) / MB,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = [k for k, (ok, _) in results.items() if not ok]
    for k in failed:
        print(f"perfbench: FAILED {k}: {results[k][1]}", file=sys.stderr)
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": [s[1] for s in starts], "scaled_s": times, "wall_s": walls,
        "probe_ms": [round(1e3 * p, 3) for p in probes], "failed": failed,
    }}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
