"""Manufactured solutions and convergence-order estimation.

The manufactured fields are tanh-window bumps with analytically coded
derivatives (no numerical differentiation anywhere in this module):

    psi(x) = [tanh((x-a)/w) - tanh((x-b)/w)] / 2

is smooth, equals 1 on the window interior and is *exactly* zero in floating
point once the argument saturates tanh (|x-a|/w >= 20), so the fields equal
the far-field state (1, 0, 1) outside a compact mass interval and are exactly
compatible with the boundary conditions.  The induced sources are the defect
of the exact fields in the reduced system, with the radius taken from the
volume integral; feeding them to the solver must reproduce the fields to the
scheme order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PhysParams, build_mass_grid
from .solver import RunConfig, _march
from .solver import step  # noqa: F401  (perfbench/spans.py wraps step in this namespace)
from .state import FlowState

__all__ = [
    "ManufacturedCase",
    "ConvergenceReport",
    "FIXTURE_CASES",
    "manufactured_source",
    "solve_case",
    "convergence_order",
    "fit_order",
]

# step starts one manufactured_source call evaluates for a fixed-step march;
# blocks of 4 to 16 cost about the same per time, and larger ones more
SOURCE_BLOCK = 8


def _logcosh(z):
    z = np.abs(z)
    return z + np.log1p(np.exp(-2.0 * z)) - np.log(2.0)


@dataclass(frozen=True)
class _Window:
    """tanh-window bump with value, two derivatives and the antiderivative."""

    a: float
    b: float
    w: float

    def __call__(self, x):
        """(psi, psi_x, psi_xx, int_0^x psi) at the points x."""
        za, zb = (x - self.a) / self.w, (x - self.b) / self.w
        ta, tb = np.tanh(za), np.tanh(zb)
        sa, sb = 1.0 / np.cosh(za) ** 2, 1.0 / np.cosh(zb) ** 2
        z0a, z0b = -self.a / self.w, -self.b / self.w
        return (
            0.5 * (ta - tb),
            0.5 * (sa - sb) / self.w,
            (tb * sb - ta * sa) / self.w**2,
            0.5 * self.w * ((_logcosh(za) - _logcosh(zb)) - (_logcosh(z0a) - _logcosh(z0b))),
        )


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form fields v*, u*, theta* and their induced sources.

    Each field is equilibrium plus amplitude * cos(freq * t) * psi(x); the
    window must keep 20 widths of clearance from x = 0 and x_max so the bump
    saturates to exactly (1, 0, 1) at the boundaries.
    """

    x_max: float = 10.0
    window_lo: float = 4.0
    window_hi: float = 6.0
    width: float = 0.2
    amp_v: float = 0.1
    amp_u: float = 0.1
    amp_theta: float = 0.1
    freq_v: float = 1.3
    freq_u: float = 0.7
    freq_theta: float = 1.1

    def __post_init__(self):
        if not (abs(self.amp_v) < 1 and abs(self.amp_theta) < 1):
            raise ValueError("amplitudes must keep v and theta positive")
        if self.window_lo < 20 * self.width or self.x_max - self.window_hi < 20 * self.width:
            raise ValueError("window must clear 20 widths from both boundaries")

    @property
    def _shape(self) -> _Window:
        return _Window(self.window_lo, self.window_hi, self.width)

    # -- exact fields -------------------------------------------------------

    def _fields(self, window, t):
        """(v, v_x, u, u_x, theta, theta_x, int_0^x (v - 1)) at time t and the
        points x of ``window``, which is ``self._shape(x)``."""
        s, sx, _, S = window
        av = self.amp_v * np.cos(self.freq_v * t)
        au = self.amp_u * np.cos(self.freq_u * t)
        at = self.amp_theta * np.cos(self.freq_theta * t)
        return 1.0 + av * s, av * sx, au * s, au * sx, 1.0 + at * s, at * sx, av * S

    def fields(self, x, t):
        v, _, u, _, theta, _, _ = self._fields(self._shape(x), t)
        return v, u, theta

    def exact_state(self, grid, params: PhysParams, t: float) -> FlowState:
        c = grid.n_cells
        v, u, theta = self.fields(np.concatenate((grid.cell_centers, grid.x_edges)), t)
        return FlowState(grid=grid, t=t, v=v[:c], u=u[c:], theta=theta[:c], n=params.n)

    # -- analytic derivative bundle -----------------------------------------

    def _bundle(self, x, window, t, n):
        """The fields, their x-derivatives and the radius at (x, t), from the
        window ``self._shape(x)``: (v, v_x, u, u_x, theta, theta_x, r)."""
        *fields, integral_v1 = self._fields(window, t)
        return (*fields, (1.0 + n * (x + integral_v1)) ** (1.0 / n))

    def exact_stress(self, x, t, params: PhysParams):
        """The reduced normal stress of the exact fields at (x, t)."""
        x = np.asarray(x, float)
        v, _, u, u_x, th, _, r = self._bundle(x, self._shape(x), t, params.n)
        return _stress(v, u, u_x, th, r, params)[2] / v

    def source_fn(self, params: PhysParams, grid, dt: float):
        """Solver hook of a march on ``grid`` with fixed step ``dt``: t -> read-only
        (S_v at centers, S_u at edges, S_theta at centers).  The first call, and
        one at the start after the last block's, evaluate SOURCE_BLOCK starts
        t, t + dt, ... in one call; any other time (a midpoint half step, a
        start after a halved step) is evaluated alone."""
        centers, edges = grid.cell_centers, grid.x_edges
        window = self._shape(np.concatenate((centers, edges)))
        block, last = {}, None

        def evaluate(t):
            rows = manufactured_source(self, params, centers, edges, t, window)
            for a in rows:
                a.flags.writeable = False
            return rows

        def hook(t):
            nonlocal block, last
            if t in block:
                return block[t]
            if last is not None and t != last + dt:
                return evaluate(t)
            times = [t]
            while len(times) < SOURCE_BLOCK:
                times.append(times[-1] + dt)
            last = times[-1]
            block = dict(zip(times, zip(*evaluate(np.array(times)[:, None]))))
            return block[t]

        return hook


def _stress(v, u, u_x, theta, r, params: PhysParams):
    """r^(n-1), A = (r^(n-1) u)_x and the stress sigma v = beta A - R theta."""
    n = params.n
    rp = r ** (n - 1)
    A = rp * u_x + (n - 1) * v * u / r
    return rp, A, params.beta * A - params.R * theta


def manufactured_source(case: ManufacturedCase, params: PhysParams, centers, edges, t,
                        window=None):
    """Defect of the exact fields in the reduced system: S_v and S_theta at
    ``centers``, S_u at ``edges``.

    S_v = v_t - (r^(n-1)u)_x,
    S_u = u_t - r^(n-1) sigma_x,
    S_theta = cv theta_t - kappa (r^(2(n-1)) theta_x / v)_x
              - (r^(n-1)u)_x sigma + 2 mu (n-1) (r^(n-2) u^2)_x.

    ``t`` is a time, or a (k, 1) column of times for one row per time, each
    with the bits of a call at that time alone.  ``window`` is
    ``case._shape`` of the centers followed by the edges, which does not
    depend on t; it is evaluated here when not given.
    """
    n, beta, R = params.n, params.beta, params.R
    x = np.concatenate((np.asarray(centers, dtype=float), np.asarray(edges, dtype=float)))
    if window is None:
        window = case._shape(x)
    v, v_x, u, u_x, th, th_x, r = case._bundle(x, window, t, n)
    rp, A, stress = _stress(v, u, u_x, th, r, params)  # at every point
    c, e = np.s_[..., :len(centers)], np.s_[..., len(centers):]

    # the time derivatives and second x-derivatives, each only where it is read:
    # u_t and u_xx at the edges, v_t, theta_t and theta_xx at the centers
    s, _, sxx, _ = window
    u_t = -case.amp_u * case.freq_u * np.sin(case.freq_u * t) * s[e]
    u_xx = case.amp_u * np.cos(case.freq_u * t) * sxx[e]
    v_t = -case.amp_v * case.freq_v * np.sin(case.freq_v * t) * s[c]
    th_t = -case.amp_theta * case.freq_theta * np.sin(case.freq_theta * t) * s[c]
    th_xx = case.amp_theta * np.cos(case.freq_theta * t) * sxx[c]

    # at the edges, sigma_x from A_x, using r_x = v r^(1-n)
    ve, vxe, ue, uxe, re = v[e], v_x[e], u[e], u_x[e], r[e]
    v2 = ve**2
    A_x = (
        (n - 1) * ve * uxe / re
        + rp[e] * u_xx
        + (n - 1) * (vxe * ue + ve * uxe) / re
        - (n - 1) * v2 * ue / re ** (n + 1)
    )
    sigma_x = (beta * A_x - R * th_x[e]) / ve - stress[e] * vxe / v2
    s_u = u_t - rp[e] * sigma_x

    # at the centers, the conduction flux divergence (r^(2(n-1)) theta_x / v)_x
    # and (r^(n-2) u^2)_x
    vc, vxc, uc, rc, thxc = v[c], v_x[c], u[c], r[c], th_x[c]
    r_n2, r_2n2 = rc ** (n - 2), rc ** (2 * (n - 1))
    flux_x = (
        2.0 * (n - 1) * r_n2 * thxc
        + r_2n2 * th_xx / vc
        - r_2n2 * thxc * vxc / vc**2
    )
    ru2_x = (n - 2) * vc * uc**2 / rc**2 + 2.0 * r_n2 * uc * u_x[c]

    s_v = v_t - A[c]
    s_theta = (params.cv * th_t - params.kappa * flux_x - A[c] * (stress[c] / vc)
               + 2.0 * params.mu * (n - 1) * ru2_x)
    return s_v, s_u, s_theta


# ---------------------------------------------------------------------------
# driving the solver on a case

def solve_case(case: ManufacturedCase, params: PhysParams, n_cells: int, dt: float,
               t_end: float, scheme_order: int = 1):
    """Integrate the sourced system from the exact initial data with a fixed
    step; returns (final_state, exact_final, max-norm errors per field)."""
    grid = build_mass_grid(case.x_max, n_cells, "uniform")
    state = case.exact_state(grid, params, 0.0)
    config = RunConfig(t_end=t_end, scheme_order=scheme_order)
    for state, _ in _march(state, params, config, dt=dt, sources=case.source_fn(params, grid, dt)):
        pass
    exact = case.exact_state(grid, params, state.t)
    return state, exact, _max_errors(state, {f: getattr(exact, f) for f in ("v", "u", "theta")})


def _max_errors(state: FlowState, ref: dict) -> dict:
    """Max-norm distance of each field of ``state`` from ``ref[field]``."""
    return {f: float(np.max(np.abs(getattr(state, f) - r))) for f, r in ref.items()}


ERROR_FLOOR = 1e-12


def fit_order(scales, errors) -> tuple[float, bool, bool]:
    """Least-squares log-log slope; returns (order, at_floor, monotone).

    A non-monotone error sequence is reported as such (order = nan), never
    silently fitted; the same for error sequences at the rounding floor.
    """
    scales = np.asarray(scales, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.max(errors) < ERROR_FLOOR:
        return float("nan"), True, True
    monotone = bool(np.all(np.diff(errors[np.argsort(-scales)]) < 0))
    if not monotone:
        return float("nan"), False, False
    slope = float(np.polyfit(np.log(scales), np.log(errors), 1)[0])
    return slope, False, True


@dataclass(frozen=True)
class ConvergenceReport:
    mode: str
    scales: np.ndarray  # dx for the spatial mode, dt for the temporal one
    errors: dict  # field -> array of max-norm errors
    orders: dict  # field -> fitted slope (nan when floor or non-monotone)
    at_floor: dict
    monotone: dict

    def format_table(self) -> str:
        lines = [f"mode={self.mode}"]
        header = "scale      " + "  ".join(f"{f:>12}" for f in self.errors)
        lines.append(header)
        for i, s in enumerate(self.scales):
            lines.append(
                f"{s:<10.4g} "
                + "  ".join(f"{self.errors[f][i]:12.4e}" for f in self.errors)
            )
        lines.append(
            "order      "
            + "  ".join(
                f"{'floor':>12}" if self.at_floor[f]
                else (f"{'non-mono':>12}" if not self.monotone[f] else f"{self.orders[f]:12.3f}")
                for f in self.errors
            )
        )
        return "\n".join(lines)


def convergence_order(case: ManufacturedCase, params: PhysParams, resolutions,
                      t_end: float = 0.25, mode: str = "spatial",
                      n_cells_fixed: int = 512,
                      scheme_order: int = 1) -> ConvergenceReport:
    """Observed convergence orders of the sourced solver on a case.

    mode="spatial":  ``resolutions`` are cell counts, dt ~ dx^2 (errors vs the
                     exact fields isolate the second-order space
                     discretization under the first-order scheme);
    mode="temporal": ``resolutions`` are time steps at a fixed fine grid;
                     errors are measured against a same-grid reference, which
                     removes the fixed spatial error floor from the slope.
                     The reference is the Richardson extrapolation
                     (2^p u(h/2) - u(h)) / (2^p - 1) of the finest step
                     h = min(resolutions) and one more run at h/2.  It
                     assumes that the leading time error is C h^p with
                     p = ``scheme_order``, the scheme's formal order, and
                     cancels that term.
    """
    if len(resolutions) < 3:
        raise ValueError("need at least three resolutions")
    errors = {"v": [], "u": [], "theta": []}
    scales = []
    if mode == "spatial":
        n0 = int(resolutions[0])
        base_dt = 0.5 * (case.x_max / n0) ** 2
        for n_cells in resolutions:
            n_cells = int(n_cells)
            dt = base_dt * (n0 / n_cells) ** 2
            _, _, err = solve_case(case, params, n_cells, dt, t_end, scheme_order)
            for f in errors:
                errors[f].append(err[f])
            scales.append(case.x_max / n_cells)
    elif mode == "temporal":
        scales = [float(dt) for dt in resolutions]
        states = [solve_case(case, params, n_cells_fixed, dt, t_end, scheme_order)[0]
                  for dt in scales]
        h = min(scales)
        half, _, _ = solve_case(case, params, n_cells_fixed, h / 2, t_end, scheme_order)
        fine, gain = states[scales.index(h)], 2.0 ** scheme_order
        ref = {f: (gain * getattr(half, f) - getattr(fine, f)) / (gain - 1.0) for f in errors}
        for state in states:
            for f, e in _max_errors(state, ref).items():
                errors[f].append(e)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    scales = np.asarray(scales)
    orders, floor, mono = {}, {}, {}
    for f in errors:
        errors[f] = np.asarray(errors[f])
        orders[f], floor[f], mono[f] = fit_order(scales, errors[f])
    return ConvergenceReport(
        mode=mode, scales=scales, errors=errors, orders=orders,
        at_floor=floor, monotone=mono,
    )


FIXTURE_CASES = {
    "smooth_bump": ManufacturedCase(),
    "equilibrium": ManufacturedCase(amp_v=0.0, amp_u=0.0, amp_theta=0.0),
}
