"""Checks of sphgas outputs, computed apart from the program.

Every check reads the files a verb wrote and recomputes what it can with its
own arithmetic (quadrature, root finding, line fits); none compares against a
stored copy of an earlier output.  Each returns ``(ok, detail)``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy.optimize import brentq

ANCHOR_TOL = 1e-8
GAP_TOL = 1e-12
# The recomputed gap matches the stored one to this share of its value plus
# this share of the magnitude of the terms that cancel in it.
GAP_REL = 1e-9
GAP_ROUND = 1e-13
REPR_MAX = 0.05
SPATIAL_WINDOW = (1.8, 2.2)
TEMPORAL_WINDOW = (0.9, 1.1)


def read_snapshot(path) -> dict:
    """Fields of one snapshot file: edges x, u, r; cells v, theta; header."""
    with open(path) as fh:
        header = fh.readline()
        fh.readline()
        lines = fh.read().splitlines()
    meta = {k: float(v) for k, v in (tok.split("=") for tok in header[1:].split())}
    body = np.loadtxt(lines[:-1], delimiter=",", ndmin=2)
    last = lines[-1].split(",")
    return {
        **meta,
        "x": np.append(body[:, 0], float(last[0])),
        "v": body[:, 1],
        "u": np.append(body[:, 2], float(last[2])),
        "theta": body[:, 3],
        "r": np.append(body[:, 4], float(last[4])),
    }


def energy(s) -> float:
    """E = int R(v - ln v - 1) + u^2/2 + cv(theta - ln theta - 1).

    Cell fields by the midpoint rule, u^2 by the trapezoid rule on the edges.
    """
    h = np.diff(s["x"])
    v, th = s["v"], s["theta"]
    cells = s["R"] * (v - np.log(v) - 1.0) + s["cv"] * (th - np.log(th) - 1.0)
    return float(np.sum(cells * h) + 0.5 * np.trapezoid(s["u"] ** 2, s["x"]))


def sup_distance(s) -> float:
    """Max-norm distance of (v, u, theta) from the equilibrium (1, 0, 1)."""
    return float(max(np.max(np.abs(s["v"] - 1)), np.max(np.abs(s["u"])),
                     np.max(np.abs(s["theta"] - 1))))


def anchor_roots(e0: float) -> tuple[float, float]:
    """The roots y1 <= 1 <= y2 of y - ln y - 1 = e0."""
    if e0 <= 0:
        return 1.0, 1.0

    def f(y):
        return y - math.log(y) - 1.0 - e0

    return brentq(f, math.exp(-e0 - 1.0), 1.0, xtol=1e-14), brentq(f, 1.0, e0 + 2.0, xtol=1e-14)


def unit_averages(s) -> tuple[np.ndarray, np.ndarray]:
    """Averages of v and theta over every unit mass interval [k, k+1]."""
    x = s["x"]
    vbar, thbar = [], []
    for k in range(int(math.floor(x[-1] + 1e-12))):
        w = np.clip(np.minimum(x[1:], k + 1.0) - np.maximum(x[:-1], float(k)), 0.0, None)
        vbar.append(np.dot(w, s["v"]) / w.sum())
        thbar.append(np.dot(w, s["theta"]) / w.sum())
    return np.array(vbar), np.array(thbar)


def form_gap(s, mu: float, lam: float) -> tuple[float, float]:
    """min over cells of Q(a, b) - C_min (a^2 + b^2), with a = r^(n-1) u_x,
    b = v u / r at centers and C_min the smaller eigenvalue of Q's matrix.

    Also returns the largest sum of the magnitudes of the terms that cancel
    in the gap, the scale of its rounding error.
    """
    n = int(s["n"])
    beta = 2.0 * mu + lam
    m11, m12 = beta, (n - 1) * (beta - 2.0 * mu)
    m22 = (n - 1) * (beta * (n - 1) - 2.0 * mu * (n - 2))
    c_min = 0.5 * (m11 + m22) - math.hypot(0.5 * (m11 - m22), m12)
    h = np.diff(s["x"])
    r_c = (s["r"][:-1] ** n + 0.5 * n * s["v"] * h) ** (1.0 / n)
    a = r_c ** (n - 1) * np.diff(s["u"]) / h
    b = s["v"] * 0.5 * (s["u"][:-1] + s["u"][1:]) / r_c
    sq = beta * (a + (n - 1) * b) ** 2
    cross = 2.0 * mu * (n - 1) * (2.0 * b * (a + (n - 1) * b) - n * b**2)
    floor = c_min * (a**2 + b**2)
    scale = float(np.max(np.abs(sq) + np.abs(cross) + np.abs(floor)))
    return float(np.min(sq - cross - floor)), scale


def read_series(path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def check_run(out_dir, raw: dict[str, str], decay: bool) -> dict[str, tuple[bool, str]]:
    """Checks of one ``run`` output directory after ``report`` ran on it."""
    snap_dir = os.path.join(out_dir, "snapshots")
    snaps = [read_snapshot(os.path.join(snap_dir, f)) for f in sorted(os.listdir(snap_dir))]
    series = read_series(os.path.join(out_dir, "diagnostics.csv"))
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    first, last = snaps[0], snaps[-1]
    mu, lam, cv = float(raw["mu"]), float(raw["lambda"]), first["cv"]
    out = {}

    dev = report["reproduction_max_dev"]
    out["report_reproduces"] = (dev == 0.0, f"max deviation {dev!r}")

    e0, e1 = energy(first), energy(last)
    close = all(
        math.isclose(own, stored, rel_tol=1e-9, abs_tol=1e-15)
        for own, stored in ((e0, series["E"][0]), (e1, series["E"][-1]))
    )
    out["energy"] = (
        close and e1 < e0 and len(snaps) == len(series["E"]),
        f"E(0) {e0!r} vs {float(series['E'][0])!r}, E(end) {e1!r} vs {float(series['E'][-1])!r}",
    )

    lo_v, hi_v = float(np.min(first["v"])), float(np.max(first["v"]))
    lo_t, hi_t = float(np.min(first["theta"])), float(np.max(first["theta"]))
    mins_v = [summary["min_v"]] + [float(np.min(s["v"])) for s in snaps]
    maxs_v = [summary["max_v"]] + [float(np.max(s["v"])) for s in snaps]
    mins_t = [summary["min_theta"]] + [float(np.min(s["theta"])) for s in snaps]
    maxs_t = [summary["max_theta"]] + [float(np.max(s["theta"])) for s in snaps]
    out["bounds"] = (
        min(mins_v) > 0 and min(mins_t) > 0
        and min(mins_v) >= 0.5 * lo_v and max(maxs_v) <= 2.0 * hi_v
        and min(mins_t) >= 0.5 * lo_t and max(maxs_t) <= 2.0 * hi_t,
        f"v in [{min(mins_v)!r}, {max(maxs_v)!r}], theta in [{min(mins_t)!r}, {max(maxs_t)!r}]",
    )

    y1, y2 = anchor_roots(e0)
    averages = [unit_averages(s) for s in snaps]
    own = np.concatenate([np.concatenate(a) for a in averages])
    stored = np.concatenate([series[c] for c in ("vbar_min", "vbar_max", "thbar_min", "thbar_max")])
    both = np.concatenate([own, stored])
    out["anchors"] = (
        bool(np.all(both >= y1 - ANCHOR_TOL) and np.all(both <= y2 + ANCHOR_TOL)),
        f"averages in [{float(both.min())!r}, {float(both.max())!r}], roots [{y1!r}, {y2!r}]",
    )

    a = float(raw["superlevel.a"])
    bound = e0 / (cv * (a - math.log(a) - 1.0))
    own_measure = [float(np.sum(np.diff(s["x"])[s["theta"] > a])) for s in snaps]
    worst = max(own_measure + list(series["omega_measure"]))
    out["superlevel"] = (worst <= bound + 1e-12, f"measure {worst!r} <= {bound!r}")

    stored_min = float(np.min(series["b6_gap_min"]))
    agree, detail = True, []
    for snap, row in ((first, 0), (last, -1)):
        own_gap, scale = form_gap(snap, mu, lam)
        stored_gap = float(series["b6_gap_min"][row])
        tol = GAP_REL * abs(own_gap) + GAP_ROUND * scale
        agree = agree and abs(own_gap - stored_gap) <= tol and own_gap >= -GAP_TOL
        detail.append(f"row {row}: {own_gap!r} vs {stored_gap!r} (tol {tol:.3g})")
    out["form_gap"] = (
        agree and stored_min >= -GAP_TOL,
        f"stored min {stored_min!r}; " + ", ".join(detail),
    )

    rep = series["repr_residual"]
    out["representation"] = (
        bool(np.all(np.isfinite(rep))) and float(np.max(rep)) <= REPR_MAX,
        f"residual {float(np.max(rep))!r} <= {REPR_MAX}",
    )

    if decay:
        s0, s1 = sup_distance(first), sup_distance(last)
        out["decay"] = (s1 <= 0.1 * s0, f"sup distance {s0!r} -> {s1!r}")
    return out


def refit_orders(text: str) -> dict[str, dict[str, float]]:
    """Log-log slopes per mode and field, refitted from an orders.txt table.

    A field whose error does not shrink with the scale gets a NaN slope.
    """
    out = {}
    for block in text.split("mode=")[1:]:
        lines = block.strip().splitlines()
        fields = lines[1].split()[1:]
        rows = np.array([[float(t) for t in ln.split()] for ln in lines[2:] if not ln.startswith("order")])
        scales = rows[:, 0]
        order = np.argsort(scales)
        slopes = {}
        for j, f in enumerate(fields):
            err = rows[:, j + 1]
            mono = bool(np.all(np.diff(err[order]) > 0))
            slopes[f] = float(np.polyfit(np.log(scales), np.log(err), 1)[0]) if mono else float("nan")
        out[lines[0].strip()] = slopes
    return out


def check_verify(verify_dir) -> dict[str, tuple[bool, str]]:
    with open(os.path.join(verify_dir, "orders.txt")) as fh:
        slopes = refit_orders(fh.read())
    ok = True
    for mode, (lo, hi) in (("spatial", SPATIAL_WINDOW), ("temporal", TEMPORAL_WINDOW)):
        got = slopes.get(mode, {})
        ok = ok and len(got) == 3 and all(lo <= s <= hi for s in got.values())
    return {"verify_orders": (ok, json.dumps(slopes, sort_keys=True))}
