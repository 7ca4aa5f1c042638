"""Print the SHA-256 of each workload's diagnostics.csv at seed 0.

    python3 perfbench/digest.py

A refactor that must keep outputs byte-identical can compare these digests
before and after the change.  This is information, not a gate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile

from workloads import NAMES, config_text, workload_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sphgas.cli import main as cli_main

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for name in NAMES:
            cfg = os.path.join(workdir, f"{name}.cfg")
            with open(cfg, "w") as fh:
                fh.write(config_text(workload_config(name, 0)))
            out = os.path.join(workdir, name)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main(["run", "--config", cfg, "--out", out])
            if rc != 0:
                print(f"{name}: sphgas run exited {rc}", file=sys.stderr)
                return rc
            with open(os.path.join(out, "diagnostics.csv"), "rb") as fh:
                print(f"{hashlib.sha256(fh.read()).hexdigest()}  {name} seed 0")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
