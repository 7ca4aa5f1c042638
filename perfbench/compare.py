"""Compare two sets of benchmark results under the bounds of BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each directory holds run stdout files as written by ``collect.py``.  For
every workload and metric it prints each set's median and quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median.  With two
sets it adds a verdict for the second against the first:

* ``unresolved``: a spread is wider than the metric's bound, and neither set
  reads better on every run than every run of the other;
* ``worse``: the median moved the wrong way by more than the bound;
* ``better``: the median moved the right way by more than the base spread;
* ``same``: neither.

It also prints the share of failed operations of each set.  Metrics without
a bound (per-layer ones) get medians only.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory) -> dict:
    """workload -> {"metrics": {name: [values]}, "attempted": n, "failed": n}."""
    out: dict = {}
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".out"):
            continue
        with open(os.path.join(directory, fname)) as fh:
            lines = [json.loads(ln) for ln in fh if ln.startswith("{")]
        info, result = lines[-2]["perfbench"], lines[-1]
        entry = out.setdefault(info["workload"], {"metrics": {}, "attempted": 0, "failed": 0})
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            entry["metrics"].setdefault(name, []).append(m["value"])
    return out


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, change, bound, better) -> str:
    sign = 1.0 if better == "lower" else -1.0
    _, mb, _, sb = summary(base)
    _, mc, _, sc = summary(change)
    if max(sb, sc) > bound:
        if sign * max(change) < sign * min(base):
            return "better"
        if sign * min(change) > sign * max(base):
            return "worse"
        return "unresolved"
    delta = sign * (mc - mb) / abs(mb)
    if delta > bound:
        return "worse"
    if -delta > sb:
        return "better"
    return "same"


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = [load(d) for d in argv]
    for workload in sorted(sets[0]):
        print(f"== {workload}")
        for s, d in zip(sets, argv):
            e = s.get(workload, {"attempted": 0, "failed": 0})
            print(f"   {d}: failed {e['failed']} of {e['attempted']} operations")
        for name, values in sets[0][workload]["metrics"].items():
            spec = declared[name]
            bound = spec.get("bound")
            cols = []
            for s in sets:
                vals = s.get(workload, {"metrics": {}})["metrics"].get(name, [])
                if not vals:
                    cols.append("(missing)")
                    continue
                q1, med, q3, spread = summary(vals)
                cols.append(f"{med:11.5g} [{q1:.5g}, {q3:.5g}] spread {spread:6.2%} n={len(vals)}")
            line = f"   {name:24s} {spec['unit']:5s} " + " | ".join(cols)
            if bound is not None:
                line += f"  bound {bound:.0%}"
                if len(sets) == 2 and name in sets[1].get(workload, {"metrics": {}})["metrics"]:
                    line += "  " + verdict(values, sets[1][workload]["metrics"][name], bound, spec["better"])
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
