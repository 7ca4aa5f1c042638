"""Byte-identity gate: the SHA-256 of every output of a set of small configs.

``tests/golden.json`` maps each config of :data:`GOLDEN` to its exit code
and the digest of each file it writes: for ``run`` the resolved config,
``diagnostics.csv``, ``summary.json`` and every snapshot; for ``verify``
``orders.json`` and ``orders.txt``.  A change that alters any of these bits
on purpose regenerates the table and says why; the script first prints the
names of the entries whose digests changed:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from sphgas.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# the profile table of the "table" config, written beside its config so that
# config.resolved names it by this relative path
TABLE = "table.csv"
TABLE_TEXT = """\
# x, v, u, theta: a steep rise of v and theta, a swing of u
0,1,0,1
2,1,0,1
2.5,1.4,0.2,1.2
3,1,-0.1,1
8,1,0,1
"""

_BUMP = ["profile.kind=gaussian_bump", "profile.amplitudes=0.1,0.1,0.1"]

# name -> (verb, config lines); between them every config key takes a value
# other than its default at least once (test_cli.TestConfigProperty)
GOLDEN = {
    "bump_n2": ("run", ["X_max=12", "N=48", "t_end=2", "cadence=0.25", *_BUMP]),
    # v sets max_step_rel_change, so a fold that drops v changes summary.json
    "v_sets_step_change": ("run", [
        "mu=0.05", "profile.kind=gaussian_bump", "profile.amplitudes=0,0.3,0",
        "profile.center=4", "profile.width=1", "X_max=10", "N=40", "t_end=0.3",
    ]),
    "n3_graded_scheme2": ("run", [
        "n=3", "lambda=0.5", "scheme_order=2", "grading=1.05", "X_max=16", "N=40",
        "t_end=1.5", "cadence=0.125", *_BUMP, "profile.center=3", "profile.width=0.8",
    ]),
    "n4": ("run", ["n=4", "R=0.8", "cv=2.5", "kappa=0.5", "X_max=10", "N=32", "t_end=1",
                   *_BUMP]),
    "table": ("run", ["profile.kind=table", f"profile.table={TABLE}", "X_max=8", "N=32",
                      "t_end=1.5"]),
    "rejects_scheme2": ("run", [
        "scheme_order=2", "profile.kind=gaussian_bump", "profile.amplitudes=-0.69,-2.49,-0.36",
        "profile.width=0.5", "floors=0.34,0.6", "cfl_fraction=1", "X_max=10", "N=40",
        "t_end=0.3",
    ]),
    "fixed_dt_probe": ("run", [
        "dt_initial=0.004", "probe.k=3", "probe.x=2.5", "superlevel.a=1.05", "X_max=8",
        "N=24", "t_end=0.8", "cadence=0.2", *_BUMP,
    ]),
    "floors_16_cells": ("run", [
        "floors=0.9,0.1", "N=16", "X_max=8", "t_end=3", "grading=1.1", *_BUMP,
    ]),
    "verify_smooth_bump": ("verify", []),
    "verify_equilibrium": ("verify", ["case=equilibrium"]),
}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def outputs(name, workdir) -> dict:
    """The exit code of golden config ``name``, run in ``workdir``, and the
    digest of each file it wrote, keyed by its path in the output directory."""
    verb, lines = GOLDEN[name]
    with open(os.path.join(workdir, TABLE), "w") as fh:
        fh.write(TABLE_TEXT)
    with open(os.path.join(workdir, f"{name}.cfg"), "w") as fh:
        fh.write("".join(line + "\n" for line in lines))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([verb, "--config", f"{name}.cfg", "--out", name])
    finally:
        os.chdir(cwd)
    out = os.path.join(workdir, name)
    files = sorted(
        os.path.relpath(os.path.join(d, f), out) for d, _, fs in os.walk(out) for f in fs
    )
    return {"exit": code, "sha256": {f: _sha256(os.path.join(out, f)) for f in files}}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_table_lists_every_config(golden):
    assert list(golden) == list(GOLDEN)


@pytest.mark.parametrize("name", GOLDEN)
def test_outputs_match_the_table(name, golden, tmp_path):
    assert outputs(name, str(tmp_path)) == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: outputs(name, tmp) for name in GOLDEN}
    with open(GOLDEN_PATH) as fh:
        committed = json.load(fh)
    changed = [name for name in table if table[name] != committed.get(name)]
    print(f"changed: {', '.join(changed) or 'none'}")
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}: {len(table)} configs, "
          f"{sum(len(v['sha256']) for v in table.values())} files")
