"""Flat key=value config files mapping to (RunConfig, PhysParams).

One ``key=value`` pair per line, ``#`` starts a comment.  Documented keys:

    n, mu, lambda, R, cv, kappa          physical constants
    X_max, N, grading                    grid (grading: "uniform" or a ratio)
    profile.kind                         equilibrium | gaussian_bump | table
    profile.amplitudes                   three comma floats for (v-1, u, theta-1)
    profile.center, profile.width        bump location in mass coordinate
    profile.table                        path to a CSV of x,v,u,theta rows
    t_end, dt_initial, cfl_fraction      time integration
    floors                               two comma floats (v, theta)
    cadence                              sampling interval in time units
    scheme_order                         1 (IMEX Euler) or 2 (midpoint variant)
    probe.k, probe.x                     representation probe
    superlevel.a                         temperature threshold (> 1)
    case                                 manufactured-case name (verify)
"""

from __future__ import annotations

import numpy as np

from .grid import PhysParams
from .solver import RunConfig
from .state import InitProfile

__all__ = ["ConfigError", "parse_config_text", "load_config", "resolve", "format_config"]


class ConfigError(ValueError):
    """Malformed or inadmissible configuration."""


_KNOWN_KEYS = {
    "n", "mu", "lambda", "R", "cv", "kappa",
    "X_max", "N", "grading",
    "profile.kind", "profile.amplitudes", "profile.center", "profile.width",
    "profile.table",
    "t_end", "dt_initial", "cfl_fraction", "floors", "cadence", "scheme_order",
    "probe.k", "probe.x", "superlevel.a", "case",
}


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings, rejecting unknown or repeated keys."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        out[key] = value
    return out


def load_config(path, overrides=()) -> dict[str, str]:
    """Parse a config file and apply ``KEY=VALUE`` override strings."""
    try:
        with open(path) as fh:
            raw = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"override uses unknown key {key!r}")
        raw[key] = value
    return raw


def _finite(text, key: str) -> float:
    """The float spelled by ``text``; every float a config sets passes here,
    so NaN and infinities are rejected before anything is built."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return value


def _floats(value: str, count: int, key: str) -> list[float]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != count:
        raise ConfigError(f"{key} needs {count} comma-separated values, got {value!r}")
    return [_finite(p, key) for p in parts]


def resolve(raw: dict[str, str]) -> tuple[RunConfig, PhysParams, dict]:
    """Build the typed run configuration from raw strings."""
    def num(key, default):
        return _finite(raw.get(key, default), key)

    try:
        params = PhysParams(
            mu=num("mu", 1.0),
            lam=num("lambda", 0.0),
            R=num("R", 1.0),
            cv=num("cv", 1.5),
            kappa=num("kappa", 1.0),
            n=int(raw.get("n", 2)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    kind = raw.get("profile.kind", "equilibrium")
    amps = _floats(raw.get("profile.amplitudes", "0,0,0"), 3, "profile.amplitudes")
    table = None
    if kind == "table":
        path = raw.get("profile.table")
        if path is None:
            raise ConfigError("profile.kind=table requires profile.table=PATH")
        try:
            table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read profile table: {exc}") from exc
    try:
        profile = InitProfile(
            kind=kind,
            amp_v=amps[0], amp_u=amps[1], amp_theta=amps[2],
            center=num("profile.center", 4.0),
            width=num("profile.width", 1.0),
            table=table,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    grading_raw = raw.get("grading", "uniform")
    floors = _floats(raw.get("floors", "1e-6,1e-6"), 2, "floors")
    try:
        grading = grading_raw if grading_raw == "uniform" else _finite(grading_raw, "grading")
        config = RunConfig(
            x_max=num("X_max", 20.0),
            n_cells=int(raw.get("N", 400)),
            grading=grading,
            profile=profile,
            t_end=num("t_end", 1.0),
            dt_initial=num("dt_initial", 1.0),
            cfl_fraction=num("cfl_fraction", 0.4),
            v_floor=floors[0],
            theta_floor=floors[1],
            scheme_order=int(raw.get("scheme_order", 1)),
            cadence=num("cadence", 0.1),
            probe_k=int(raw.get("probe.k", 4)),
            probe_x=num("probe.x", 3.0),
            superlevel_a=num("superlevel.a", 1.5),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    extras = {"case": raw.get("case", "smooth_bump")}
    return config, params, extras


def format_config(raw: dict[str, str]) -> str:
    """Canonical text form of a raw config (sorted keys, one per line)."""
    return "".join(f"{k}={raw[k]}\n" for k in sorted(raw))
