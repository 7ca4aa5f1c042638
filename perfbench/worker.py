"""The warm process: imports sphgas.cli once, then times whole rounds of verbs.

Usage (started by run.py, not meant to be run by hand):

    python3 perfbench/worker.py ROOT CONFIG WORKDIR SECONDS REPORTS TRACE

A round is ``run`` once, ``report`` REPORTS times on that output, then
``verify``.  Rounds start until SECONDS have passed since the first one
began.  With TRACE=1 a round is instead an untraced ``run`` followed by one
traced ``run``, ``report`` and ``verify``.  Each verb's stdout goes to a log
file beside its output.  ``WORKDIR/worker.json`` gets, per verb, its exit
code (-1 if it raised), wall seconds, probe-scaled seconds (see meter.py)
and the repr of what it raised; per traced round, the tracer's bindings
that the program no longer has.  A traced round's spans and probe pauses go
to ``spans.json`` in its round directory.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def main(argv) -> int:
    root, config, workdir, seconds, reports, trace = argv
    seconds, reports, trace = float(seconds), int(reports), trace == "1"
    sys.path.insert(0, os.path.join(root, "src"))
    from sphgas.cli import main as cli_main

    from meter import Meter
    from spans import Tracer

    meter = Meter()

    def verb(entry, label, args, log, tracer=None):
        fn = cli_main if tracer is None else tracer.span(f"cli.{args[0]}", cli_main)
        error = ""
        start = time.perf_counter()
        with open(log, "w") as fh, contextlib.redirect_stdout(fh):
            try:
                rc, wall, scaled = meter.measure(fn, args)
            except (Exception, SystemExit) as exc:
                # A verb that raises is a failed operation; its time is unscaled.
                rc, error = -1, repr(exc)
                wall = scaled = time.perf_counter() - start
        entry["verbs"].append([label, rc, wall, scaled, error])

    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rdir = os.path.join(workdir, f"round_{len(rounds):03d}")
        out, ver = os.path.join(rdir, "out"), os.path.join(rdir, "verify")
        os.makedirs(rdir)
        entry = {"dir": rdir, "verbs": []}
        tracer = None
        first_pause = len(meter.pauses)
        if trace:
            bare = os.path.join(rdir, "untraced")
            verb(entry, "run_untraced", ["run", "--config", config, "--out", bare], bare + ".log")
            tracer = Tracer()
            entry["untraced"] = tracer.install()
        try:
            verb(entry, "run", ["run", "--config", config, "--out", out], out + "_run.log", tracer)
            for i in range(1 if trace else reports):
                verb(entry, "report", ["report", "--out", out], out + f"_report{i}.log", tracer)
            verb(entry, "verify", ["verify", "--config", config, "--out", ver], ver + ".log", tracer)
        finally:
            if tracer is not None:
                tracer.remove()
        if tracer is not None:
            with open(os.path.join(rdir, "spans.json"), "w") as fh:
                json.dump({"spans": tracer.spans, "pauses": meter.pauses[first_pause:]}, fh)
        rounds.append(entry)

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(workdir, "worker.json"), "w") as fh:
        json.dump({"rounds": rounds, "peak_rss_bytes": peak_kib * 1024, "probes": meter.probes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
