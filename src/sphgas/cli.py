"""Command-line entry point: run, verify, sweep, report.

Exit codes (documented, distinct):
    0   success
    2   config parse or validation error (the representation probe included),
        or unreadable run outputs (report)
    3   solver abort (positivity failure, or a step too small to reach t_end)
    4   invariant-ledger failure (run or report)
    5   convergence-order window failure (verify)
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

import numpy as np

from .config import SCHEMA, ConfigError, format_config, load_config, parse_setting, resolve
from .diagnostics import (
    DiagnosticsSeries,
    anchor_roots,
    evaluate_series,
)
from .oracle import FIXTURE_CASES, convergence_order
from .solver import SolverAbort, run
from .state import load_snapshot, save_snapshot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_INVARIANT = 4
EXIT_ORDER = 5

SPATIAL_WINDOW = (1.8, 2.2)
TEMPORAL_WINDOW = (0.9, 1.1)


def _check_invariants(series: DiagnosticsSeries, config, e0: float) -> dict:
    """The always-true bound ledger, evaluated on a diagnostics series."""
    tol = 1e-8
    round_tol = 1e-12 * (1.0 + abs(e0))
    alpha1, alpha2 = anchor_roots(e0)
    e = series["E"]
    bal = series["balance_residual"]
    checks = {
        "energy_nonnegative": bool(np.all(e >= 0.0)),
        "dissipation_nonnegative": bool(
            all(np.all(series[c] >= 0.0) for c in ("D_vu2", "D_ux", "D_divru", "D_thx"))
        ),
        "energy_monotone_up_to_residual": bool(
            np.all(np.diff(e) <= bal[1:] + bal[:-1] + round_tol)
        ),
        "accumulators_monotone": bool(
            all(
                np.all(np.diff(series[c]) >= -round_tol)
                for c in ("acc_theta_vx2", "acc_uxx", "acc_thxx", "acc_ut", "acc_tht", "acc_tv_grad")
            )
        ),
        "positivity": bool(
            np.all(series["min_v"] > config.v_floor)
            and np.all(series["min_theta"] > config.theta_floor)
        ),
        "quadratic_form_pointwise": bool(np.all(series["b6_gap_min"] >= -1e-12)),
        "superlevel_bound": bool(
            np.all(series["omega_measure"] <= series["omega_bound"] + round_tol)
        ),
        "anchor_sandwich": bool(
            np.all(series["vbar_min"] >= alpha1 - tol)
            and np.all(series["vbar_max"] <= alpha2 + tol)
            and np.all(series["thbar_min"] >= alpha1 - tol)
            and np.all(series["thbar_max"] <= alpha2 + tol)
        ),
        "series_finite": bool(np.all(np.isfinite(series.data))),
    }
    return checks


def _write_run_outputs(out_dir, raw, result, params, config) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.resolved"), "w") as fh:
        fh.write(format_config(raw))
    result.series.to_csv(os.path.join(out_dir, "diagnostics.csv"))
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    for i, snap in enumerate(result.snapshots):
        save_snapshot(snap, params, os.path.join(snap_dir, f"snap_{i:06d}.csv"))
    e0 = float(result.series["E"][0])
    checks = _check_invariants(result.series, config, e0)
    summary = {
        "params": params.as_dict(),
        "E_initial": e0,
        "E_final": float(result.series["E"][-1]),
        "invariants": checks,
        **result.summary.as_dict(),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return checks


def _cmd_run(args) -> int:
    raw = load_config(args.config, args.set)
    config, params, _ = resolve(raw)
    try:
        result = run(config, params)
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    checks = _write_run_outputs(args.out, raw, result, params, config)
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    if not all(checks.values()):
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_verify(args) -> int:
    _, params, extras = resolve(load_config(args.config, args.set))
    case = FIXTURE_CASES[extras["case"]]

    spatial = convergence_order(case, params, [64, 128, 256], t_end=0.25, mode="spatial")
    temporal = convergence_order(
        case, params, [0.0032, 0.0016, 0.0008], t_end=0.25, mode="temporal",
        n_cells_fixed=512,
    )
    os.makedirs(args.out, exist_ok=True)
    table = spatial.format_table() + "\n\n" + temporal.format_table() + "\n"
    with open(os.path.join(args.out, "orders.txt"), "w") as fh:
        fh.write(table)
    print(table)

    ok = True
    verdict = {}
    for field in ("v", "u", "theta"):
        s_ok = (
            spatial.at_floor[field]
            or (spatial.monotone[field] and SPATIAL_WINDOW[0] <= spatial.orders[field] <= SPATIAL_WINDOW[1])
        )
        t_ok = (
            temporal.at_floor[field]
            or (temporal.monotone[field] and TEMPORAL_WINDOW[0] <= temporal.orders[field] <= TEMPORAL_WINDOW[1])
        )
        verdict[field] = {"spatial": bool(s_ok), "temporal": bool(t_ok)}
        ok = ok and s_ok and t_ok
        print(f"{'PASS' if s_ok else 'FAIL'} spatial order {field}")
        print(f"{'PASS' if t_ok else 'FAIL'} temporal order {field}")
    with open(os.path.join(args.out, "orders.json"), "w") as fh:
        json.dump(
            {
                "spatial": {f: spatial.orders[f] for f in spatial.orders},
                "temporal": {f: temporal.orders[f] for f in temporal.orders},
                "verdict": verdict,
            },
            fh, indent=2, sort_keys=True,
        )
    return EXIT_OK if ok else EXIT_ORDER


def _cmd_sweep(args) -> int:
    axes = []
    fixed = []
    for item in args.set:
        key, value = parse_setting(item, f"override {item!r}")
        arity = len(SCHEMA[key].fields)
        parts = value.split(",")
        if len(parts) % arity:
            raise ConfigError(f"{key} takes {arity} values per sweep point, got {value!r}")
        if len(parts) > arity:
            axes.append([(key, ",".join(parts[i:i + arity])) for i in range(0, len(parts), arity)])
        else:
            fixed.append(item)
    os.makedirs(args.out, exist_ok=True)
    manifest, argvs = {}, []  # each point is one `run`
    for i, combo in enumerate(itertools.product(*axes)):
        tag = "_".join(f"{k.replace('.', '-')}={v}" for k, v in combo) or "point"
        name = f"{i:03d}_{tag}"
        manifest[name] = fixed + [f"{k}={v}" for k, v in combo]
        argvs.append(["run", "--config", args.config, "--out", os.path.join(args.out, name)]
                     + [arg for item in manifest[name] for arg in ("--set", item)])
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    worst = EXIT_OK
    with ProcessPoolExecutor(max_workers=args.jobs) if args.jobs > 1 else nullcontext() as pool:
        for name, code in zip(manifest, pool.map(main, argvs) if pool else map(main, argvs)):
            print(f"point {name}: exit {code}")
            worst = max(worst, code)
    return worst


def _cmd_report(args) -> int:
    run_dir = args.out
    config, params, _ = resolve(load_config(os.path.join(run_dir, "config.resolved"), args.set))
    snap_dir = os.path.join(run_dir, "snapshots")
    stored_path = os.path.join(run_dir, "diagnostics.csv")
    try:
        names = sorted(f for f in os.listdir(snap_dir) if f.endswith(".csv"))
        states = [load_snapshot(os.path.join(snap_dir, name))[0] for name in names]
        stored = DiagnosticsSeries.from_csv(stored_path) if os.path.exists(stored_path) else None
        if not states:
            raise ValueError(f"no snapshots in {snap_dir}")
        series = evaluate_series(states, params, config)  # mixed grids raise ValueError
    except (OSError, ValueError) as exc:
        print(f"unreadable run output: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    max_dev = float("nan")
    if stored is not None:
        if stored.data.shape == series.data.shape:
            with np.errstate(invalid="ignore"):
                dev = np.abs(stored.data - series.data)
            dev[np.isnan(stored.data) & np.isnan(series.data)] = 0.0
            max_dev = float(np.max(dev))
        print(f"reproduction max deviation vs stored diagnostics: {max_dev!r}")

    e0 = float(series["E"][0])
    checks = _check_invariants(series, config, e0)
    checks["diagnostics_reproduced"] = bool(max_dev == 0.0) if not np.isnan(max_dev) else True
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump({"invariants": checks, "reproduction_max_dev": max_dev}, fh, indent=2, sort_keys=True)
    return EXIT_OK if all(checks.values()) else EXIT_INVARIANT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sphgas",
        description="Exterior-domain viscous gas simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, fn in (
        ("run", _cmd_run),
        ("verify", _cmd_verify),
        ("sweep", _cmd_sweep),
        ("report", _cmd_report),
    ):
        p = sub.add_parser(verb)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config key (repeatable; in sweep, a key of k values "
            "given m*k comma-separated values is an axis of m points)",
        )
        if verb == "sweep":
            p.add_argument("--jobs", type=int, default=1, help="parallel sweep points")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        if args.verb in ("run", "sweep") and args.config is None:
            raise ConfigError("--config is required")
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
