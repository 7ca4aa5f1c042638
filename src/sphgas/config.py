"""Flat key=value config files mapping to (RunConfig, PhysParams).

One ``key=value`` pair per line, ``#`` starts a comment.  The documented keys
are the rows of :data:`SCHEMA`: each names the object it sets, its field(s)
and the parser of each value, and a key with k fields takes exactly k
comma-separated values.  A key left out takes its dataclass default.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .grid import PhysParams
from .oracle import FIXTURE_CASES
from .solver import RunConfig, initial_state
from .state import InitProfile

__all__ = [
    "ConfigError",
    "SCHEMA",
    "parse_setting",
    "parse_config_text",
    "load_config",
    "resolve",
    "format_config",
]

DEFAULT_CASE = "smooth_bump"  # the manufactured case `verify` runs when none is set


class ConfigError(ValueError):
    """Malformed or inadmissible configuration."""


def _finite(text: str, key: str) -> float:
    """The float spelled by ``text``; every float a config sets passes here,
    so NaN and infinities are rejected before anything is built."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc
    if not np.isfinite(value):
        raise ValueError(f"{key} must be finite, got {text!r}")
    return value


def _int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _grading(text: str, key: str) -> str | float:
    return text if text == "uniform" else _finite(text, key)


def _word(text: str, key: str) -> str:
    return text


def _table(path: str, key: str) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read profile table: {exc}") from exc


def _case(text: str, key: str) -> str:
    if text not in FIXTURE_CASES:
        raise ValueError(f"unknown case {text!r}; choose from {', '.join(FIXTURE_CASES)}")
    return text


class Setting(NamedTuple):
    target: str  # "params", "profile", "config" or "extras"
    fields: tuple[str, ...]  # one comma-separated value per field
    parse: Callable[[str, str], object]  # (value, key) -> field value


SCHEMA = {
    "n": Setting("params", ("n",), _int),  # spatial dimension (integer >= 2)
    "mu": Setting("params", ("mu",), _finite),  # shear viscosity
    "lambda": Setting("params", ("lam",), _finite),  # second viscosity
    "R": Setting("params", ("R",), _finite),  # gas constant
    "cv": Setting("params", ("cv",), _finite),  # specific heat
    "kappa": Setting("params", ("kappa",), _finite),  # heat conductivity
    "X_max": Setting("config", ("x_max",), _finite),  # domain truncation in mass coordinate
    "N": Setting("config", ("n_cells",), _int),  # cell count
    "grading": Setting("config", ("grading",), _grading),  # "uniform" or a width ratio
    "profile.kind": Setting("profile", ("kind",), _word),  # equilibrium | gaussian_bump | table
    "profile.amplitudes": Setting("profile", ("amp_v", "amp_u", "amp_theta"), _finite),  # (v-1, u, theta-1)
    "profile.center": Setting("profile", ("center",), _finite),  # bump location in mass coordinate
    "profile.width": Setting("profile", ("width",), _finite),  # bump width in mass coordinate
    "profile.table": Setting("profile", ("table",), _table),  # CSV of x,v,u,theta rows (kind=table only)
    "t_end": Setting("config", ("t_end",), _finite),  # end time
    "dt_initial": Setting("config", ("dt_initial",), _finite),  # cap on the step
    "cfl_fraction": Setting("config", ("cfl_fraction",), _finite),  # fraction of the CFL step taken
    "floors": Setting("config", ("v_floor", "theta_floor"), _finite),  # positivity floors (v, theta)
    "cadence": Setting("config", ("cadence",), _finite),  # sampling interval in time units
    "scheme_order": Setting("config", ("scheme_order",), _int),  # 1 (IMEX Euler) or 2 (midpoint)
    "probe.k": Setting("config", ("probe_k",), _int),  # representation cut-off level
    "probe.x": Setting("config", ("probe_x",), _finite),  # representation probe point
    "superlevel.a": Setting("config", ("superlevel_a",), _finite),  # temperature threshold (> 1)
    "case": Setting("extras", ("case",), _case),  # manufactured case for `verify`
}


def parse_setting(line: str, where: str) -> tuple[str, str]:
    """The (key, value) of one ``key=value`` setting of a documented key."""
    if "=" not in line:
        raise ConfigError(f"{where}: expected key=value, got {line!r}")
    key, _, value = line.partition("=")
    key, value = key.strip(), value.strip()
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, value


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings, rejecting unknown or repeated keys."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = parse_setting(line, f"line {lineno}")
        if key in out:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        out[key] = value
    return out


def load_config(path, overrides=()) -> dict[str, str]:
    """Parse a config file (none given: no settings) and apply ``KEY=VALUE``
    override strings, the later of two for one key winning."""
    raw: dict[str, str] = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides:
        key, value = parse_setting(item, f"override {item!r}")
        raw[key] = value
    return raw


def resolve(raw: dict[str, str]) -> tuple[RunConfig, PhysParams, dict]:
    """Build the typed run configuration from raw strings; its t = 0 state must build."""
    kwargs = {"params": {}, "profile": {}, "config": {}, "extras": {"case": DEFAULT_CASE}}
    table_profile = raw.get("profile.kind") == "table"
    try:
        for key, text in raw.items():
            if key == "profile.table" and not table_profile:
                continue
            setting = SCHEMA[key]
            parts = text.split(",") if len(setting.fields) > 1 else [text]
            if len(parts) != len(setting.fields):
                raise ValueError(
                    f"{key} needs {len(setting.fields)} comma-separated values, got {text!r}"
                )
            for name, part in zip(setting.fields, parts):
                kwargs[setting.target][name] = setting.parse(part.strip(), key)
        if table_profile and "table" not in kwargs["profile"]:
            raise ValueError("profile.kind=table requires profile.table=PATH")
        params = PhysParams(**kwargs["params"])
        config = RunConfig(profile=InitProfile(**kwargs["profile"]), **kwargs["config"])
        initial_state(config, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, params, kwargs["extras"]


def format_config(raw: dict[str, str]) -> str:
    """Canonical text form of a raw config (sorted keys, one per line)."""
    return "".join(f"{k}={raw[k]}\n" for k in sorted(raw))
