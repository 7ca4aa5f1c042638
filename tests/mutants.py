"""Mutation table: does each seeded model error still fail a semantic test?

``tests/golden.json`` fails on any changed bit, so it cannot tell whether the
other tests would catch a wrong formula.  Each mutant below replaces one text,
which must occur exactly once in its file, in a copy of this checkout; the
tests other than ``tests/test_golden.py`` then run with ``-x``, and a mutant is
killed when they fail.  The script prints a kill table and exits 1 if any
mutant survives:

    python tests/mutants.py [name ...]
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIAG, SOLVER, CLI = "src/sphgas/diagnostics.py", "src/sphgas/solver.py", "src/sphgas/cli.py"
GRID = "src/sphgas/grid.py"

MUTANTS = {  # name: (file, old text, new text)
    "rep_W_sign": (DIAG, "- (n - 1) * _cumtrapz(W, times)", "+ (n - 1) * _cumtrapz(W, times)"),
    "rep_B_no_beta": (DIAG, "* u)) / params.beta,", "* u)),"),
    "rep_growth_sign": (DIAG, "growth = np.exp(z)", "growth = np.exp(-z)"),
    "bal_mu_sign": (DIAG, "- 2.0 * params.mu * (params.n - 1)", "+ 2.0 * params.mu * (params.n - 1)"),
    "dthx_theta_power": (DIAG, "(_mean(v) * _mean(th) ** 2)", "(_mean(v) * _mean(th))"),
    "gap_m22": (DIAG, "2.0 * mu * (n - 2))", "2.0 * mu * (n - 1))"),
    "superlevel_no_cv": (DIAG, "energy / (params.cv * _phi(_threshold(a)))",
                         "energy / _phi(_threshold(a))"),
    "anchor_2e0": (CLI, "(e0 / params.R)\n    th_lo, th_hi = anchor_roots(e0 / params.cv)",
                   "(2 * e0 / params.R)\n    th_lo, th_hi = anchor_roots(2 * e0 / params.cv)"),
    "heat_dissip_sign": (SOLVER, "sigma -= d\n", "sigma += d\n"),
    "heat_r_power": (SOLVER, "r ** self.n2 * u**2", "r ** self.n1 * u**2"),
    "seg_fold_slope": (DIAG, "(q - 1.0) / zq", "q / zq"),
    "seg_series_slope": (DIAG, "0.5 + zs / 6", "0.5 + zs / 3"),
    "gap_no_scale": (DIAG, "gap / np.maximum(1.0, scale)", "gap"),
    "readonly_no_copy": (GRID, "np.array(a, dtype=float)", "np.ascontiguousarray(a, dtype=float)"),
}


def run_mutant(name: str) -> str:
    """The first failing test of the mutated copy, or '' if every test passes."""
    path, old, new = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        with open(os.path.join(copy, path)) as fh:
            text = fh.read()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: the old text occurs {text.count(old)} times in {path}")
        with open(os.path.join(copy, path), "w") as fh:
            fh.write(text.replace(old, new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore=tests/test_golden.py"],
            cwd=copy, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(copy, "src")},
        )
    if proc.returncode == 0:
        return ""
    failed = [ln for ln in proc.stdout.splitlines() if ln.startswith(("FAILED ", "ERROR "))]
    return failed[0].split(" ", 1)[1].split(" - ")[0] if failed else f"pytest exit {proc.returncode}"


def main(names) -> int:
    survivors = 0
    print(f"{'mutant':<18} {'result':<8} first failing test")
    for name in names or MUTANTS:
        killer = run_mutant(name)
        survivors += not killer
        print(f"{name:<18} {'killed' if killer else 'SURVIVED':<8} {killer}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
