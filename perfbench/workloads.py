"""Workload configs for the benchmark, generated from a seed.

Seed 0 gives the reference configs exactly.  Any other seed moves the bump
center by up to CENTER_SHIFT and scales each amplitude by a factor in
[1 - AMP_SCALE, 1 + AMP_SCALE], drawn from ``random.Random(seed)``.  The
program only ever sees the generated config file.
"""

from __future__ import annotations

import random

CENTER_SHIFT = 0.2
AMP_SCALE = 0.05

# Values shared by both workloads and written out explicitly, so a change of
# a program default does not silently change the benchmark input.
_COMMON = {
    "mu": "1.0",
    "lambda": "0.0",
    "R": "1.0",
    "cv": "1.5",
    "kappa": "1.0",
    "grading": "uniform",
    "profile.kind": "gaussian_bump",
    "profile.width": "1.0",
    "floors": "1e-06,1e-06",
    "probe.k": "4",
    "probe.x": "3.0",
    "superlevel.a": "1.5",
    "case": "smooth_bump",
}

BASE = {
    # The acceptance decay run: CFL-bound stepping dominates `run`.
    "decay": {
        **_COMMON,
        "n": "2",
        "X_max": "40",
        "N": "800",
        "t_end": "21.0",
        "dt_initial": "1.0",
        "cfl_fraction": "0.4",
        "cadence": "0.1",
        "scheme_order": "1",
        "center": 4.0,
        "amplitudes": (0.2, 0.2, 0.2),
    },
    # Fixed-step midpoint run at n=3 sampled every step: diagnostics and
    # snapshot I/O dominate `run` and `report`.
    "dense_midpoint": {
        **_COMMON,
        "n": "3",
        "X_max": "16",
        "N": "320",
        "t_end": "2.0",
        "dt_initial": "0.0025",
        "cfl_fraction": "1.0",
        "cadence": "0.001",
        "scheme_order": "2",
        "center": 4.0,
        "amplitudes": (0.1, 0.1, 0.1),
    },
}

NAMES = tuple(BASE)


def workload_config(name: str, seed: int) -> dict[str, str]:
    """The raw ``key -> value`` config of workload ``name`` at ``seed``."""
    if name not in BASE:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    base = dict(BASE[name])
    center = base.pop("center")
    amps = base.pop("amplitudes")
    if seed != 0:
        rng = random.Random(seed)
        center += rng.uniform(-CENTER_SHIFT, CENTER_SHIFT)
        amps = tuple(a * rng.uniform(1.0 - AMP_SCALE, 1.0 + AMP_SCALE) for a in amps)
    base["profile.center"] = repr(center)
    base["profile.amplitudes"] = ",".join(repr(a) for a in amps)
    return base


def config_text(raw: dict[str, str]) -> str:
    return "".join(f"{k}={raw[k]}\n" for k in sorted(raw))
