"""Command-line entry point: run, verify, sweep, report.

Exit codes (documented, distinct):
    0   success
    2   config parse or validation error (the representation probe, initial
        data at or below a floor and overflowing graded widths included), a
        bad command line, an output path that cannot be written, or unreadable
        run outputs (report; a missing config.resolved or diagnostics.csv included)
    3   solver abort (positivity failure, or a step too small to reach t_end);
        the snapshots taken so far stay, with no diagnostics.csv or summary.json
    4   invariant-ledger failure (run or report), or stored diagnostics that
        the snapshots do not reproduce, in value or in shape (report)
    5   convergence-order window failure (verify)
    141 stdout closed before every line was written, the code a shell gives
        a writer killed by SIGPIPE; each verb writes its files before its
        first stdout line, so only text is lost

:func:`main` alone maps a failure to its one stderr line and exit code.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from .config import SCHEMA, ConfigError, format_config, load_config, parse_setting, resolve
from .diagnostics import (
    DiagnosticsSeries,
    _check_series_header,
    anchor_roots,
    evaluate_series,
)
from .grid import build_mass_grid
from .oracle import FIXTURE_CASES, convergence_order
from .solver import SolverAbort, run
from .state import load_snapshot, save_snapshot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_INVARIANT = 4
EXIT_ORDER = 5
EXIT_PIPE = 141

SPATIAL_WINDOW = (1.8, 2.2)
TEMPORAL_WINDOW = (0.9, 1.1)


class UnreadableOutput(Exception):
    """Run outputs that ``report`` cannot read."""


def _check_invariants(series: DiagnosticsSeries, config, params) -> dict:
    """The always-true bound ledger, evaluated on a diagnostics series of a
    run with ``params``."""
    e0 = float(series["E"][0])
    tol = 1e-8
    round_tol = 1e-12 * (1.0 + abs(e0))
    # by Jensen, R phi(vbar) and cv phi(thbar) are at most E(0), phi(y) = y - ln y - 1
    v_lo, v_hi = anchor_roots(e0 / params.R)
    th_lo, th_hi = anchor_roots(e0 / params.cv)
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
        "quadratic_form_pointwise": bool(np.all(series["b6_gap_rel_min"] >= -1e-12)),
        "superlevel_bound": bool(
            np.all(series["omega_measure"] <= series["omega_bound"] + round_tol)
        ),
        "anchor_sandwich": bool(
            np.all(series["vbar_min"] >= v_lo - tol)
            and np.all(series["vbar_max"] <= v_hi + tol)
            and np.all(series["thbar_min"] >= th_lo - tol)
            and np.all(series["thbar_max"] <= th_hi + tol)
        ),
        "series_finite": bool(np.all(np.isfinite(series.data))),
    }
    return checks


def _ledger_exit(checks: dict, lines=()) -> int:
    """Print ``lines``, then the ledger's PASS/FAIL lines; the ledger's exit code."""
    for line in [*lines, *(f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in checks.items())]:
        print(line)
    return EXIT_OK if all(checks.values()) else EXIT_INVARIANT


# what a run writes besides config.resolved and its snapshots
_RUN_FILES = ("diagnostics.csv", "summary.json", "report.json")


def _is_snapshot(name) -> bool:
    """Whether a file in ``snapshots/`` is one that run writes."""
    return name.startswith("snap_") and name.endswith(".csv")


def _clear_earlier_run(out_dir, snap_dir) -> None:
    """Remove the files an earlier run into ``out_dir`` left (its snapshots,
    diagnostics, summary and report), so that none is mixed with this run's;
    nothing else is touched."""
    names = [os.path.join(snap_dir, f) for f in os.listdir(snap_dir) if _is_snapshot(f)]
    for path in names + [os.path.join(out_dir, f) for f in _RUN_FILES]:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


def _snapshot_writer(snap_dir, params):
    """run's per-sample callback: sample i goes to snap_{i:06d}.csv when taken."""
    index = itertools.count()

    def write(state):
        save_snapshot(state, params, os.path.join(snap_dir, f"snap_{next(index):06d}.csv"))

    return write


def _cmd_run(args) -> int:
    raw = load_config(args.config, args.set)
    config, params, _ = resolve(raw)
    out_dir = args.out
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    _clear_earlier_run(out_dir, snap_dir)
    with open(os.path.join(out_dir, "config.resolved"), "w") as fh:
        fh.write(format_config(raw))
    result = run(config, params, on_sample=_snapshot_writer(snap_dir, params))
    result.series.to_csv(os.path.join(out_dir, "diagnostics.csv"))
    checks = _check_invariants(result.series, config, params)
    summary = {
        "params": params.as_dict(),
        "E_initial": float(result.series["E"][0]),
        "E_final": float(result.series["E"][-1]),
        "invariants": checks,
        **result.summary.as_dict(),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return _ledger_exit(checks)


def _order_ok(report, field: str, window) -> bool:
    """A field passes at the rounding floor, or with errors falling
    monotonically at an order inside ``window``."""
    return bool(report.at_floor[field] or (
        report.monotone[field] and window[0] <= report.orders[field] <= window[1]
    ))


def _cmd_verify(args) -> int:
    _, params, extras = resolve(load_config(args.config, args.set))
    case = FIXTURE_CASES[extras["case"]]

    spatial = convergence_order(case, params, [64, 128, 256], t_end=0.25, mode="spatial")
    temporal = convergence_order(
        case, params, [0.0032, 0.0016, 0.0008], t_end=0.25, mode="temporal",
        n_cells_fixed=512,
    )
    verdict = {
        field: {"spatial": _order_ok(spatial, field, SPATIAL_WINDOW),
                "temporal": _order_ok(temporal, field, TEMPORAL_WINDOW)}
        for field in ("v", "u", "theta")
    }
    ok = all(all(modes.values()) for modes in verdict.values())
    os.makedirs(args.out, exist_ok=True)
    table = spatial.format_table() + "\n\n" + temporal.format_table() + "\n"
    with open(os.path.join(args.out, "orders.txt"), "w") as fh:
        fh.write(table)
    with open(os.path.join(args.out, "orders.json"), "w") as fh:
        json.dump(  # null for an order not fitted: at the floor or non-monotone
            {
                "spatial": {f: None if np.isnan(o) else o for f, o in spatial.orders.items()},
                "temporal": {f: None if np.isnan(o) else o for f, o in temporal.orders.items()},
                "verdict": verdict,
            },
            fh, indent=2, sort_keys=True, allow_nan=False,
        )
    print(table)
    for field, passed in verdict.items():
        for mode in ("spatial", "temporal"):
            print(f"{'PASS' if passed[mode] else 'FAIL'} {mode} order {field}")
    return EXIT_OK if ok else EXIT_ORDER


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
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
    # imported here, its one use, as it brings multiprocessing into every start
    from concurrent.futures import ProcessPoolExecutor

    worst = EXIT_OK
    # the fork start method starts every worker at the first submit, so the
    # pool is no larger than the points and the CPUs can use
    workers = min(args.jobs, len(argvs), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for name, code in zip(manifest, pool.map(main, argvs) if pool else map(main, argvs)):
            print(f"point {name}: exit {code}")
            worst = max(worst, code)
    return worst


def _cmd_report(args) -> int:
    run_dir = args.out
    snap_dir = os.path.join(run_dir, "snapshots")
    try:
        raw = load_config(os.path.join(run_dir, "config.resolved"))
        # the first snapshot is the initial state: the profile, and a table it names, go unread
        config, params, _ = resolve({k: v for k, v in raw.items() if SCHEMA[k].target != "profile"})
        grid = build_mass_grid(config.x_max, config.n_cells, config.grading)
        # its header checked first (an abort leaves no file, an older run other
        # columns), its body parsed after the fold, so that it is not held then
        diagnostics = os.path.join(run_dir, "diagnostics.csv")
        with open(diagnostics) as fh:
            _check_series_header(fh, diagnostics)
        del fh  # a closed file keeps the text it read ahead (17 KB at N=64) until freed
        names = sorted(filter(_is_snapshot, os.listdir(snap_dir)))
        if not names:
            raise ValueError(f"no snapshots in {snap_dir}")
        # a snapshot whose grid or header is not what config.resolved gives,
        # and times that do not increase, raise ValueError; one is held at a time
        states = (load_snapshot(os.path.join(snap_dir, name), grid, params) for name in names)
        series = evaluate_series(states, params, config)
        stored = DiagnosticsSeries.from_csv(diagnostics)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        raise UnreadableOutput(exc) from exc

    max_dev = None  # stays None when the shapes differ
    if stored.data.shape != series.data.shape:
        lines = [f"reproduction failed: stored diagnostics have shape {stored.data.shape}, "
                 f"the snapshots give {series.data.shape}; the shapes differ"]
    else:
        with np.errstate(invalid="ignore"):
            dev = np.abs(stored.data - series.data)
        dev[np.isnan(stored.data) & np.isnan(series.data)] = 0.0
        max_dev = float(np.max(dev))
        lines = [f"reproduction max deviation vs stored diagnostics: {max_dev!r}"]

    checks = _check_invariants(series, config, params)
    checks["diagnostics_reproduced"] = max_dev == 0.0
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump({"invariants": checks, "reproduction_max_dev": max_dev,
                   "samples": len(series), "E_initial": float(series["E"][0]),
                   "E_final": float(series["E"][-1])}, fh, indent=2, sort_keys=True)
    return _ledger_exit(checks, lines)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built once: a parser is a web of reference cycles,
    so one built per call would stay in memory until the garbage collector
    happened to run."""
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
        p.add_argument("--out", required=True, help="output directory")
        if verb != "report":
            p.add_argument("--config", required=verb != "verify", help="flat key=value config file")
            p.add_argument(
                "--set", action="append", default=[], metavar="KEY=VALUE",
                help="override a config key (repeatable; in sweep, a key of k values "
                "given m*k comma-separated values is an axis of m points)",
            )
        if verb == "sweep":
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel sweep points (at least 1; the pool is capped "
                           "at the point count and the CPU count)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the lines still buffered go nowhere, not to a second failed flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except ConfigError as exc:
        failure, code = f"config error: {exc}", EXIT_CONFIG
    except UnreadableOutput as exc:
        failure, code = f"unreadable run output: {exc}", EXIT_CONFIG
    except SolverAbort as exc:
        failure, code = f"solver abort: {exc}", EXIT_ABORT
    except OSError as exc:  # an output path that cannot be written
        failure, code = f"cannot write output: {exc}", EXIT_CONFIG
    print(failure, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
