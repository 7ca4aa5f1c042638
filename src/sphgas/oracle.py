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
from .solver import RunConfig, step
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


def _logcosh(z):
    z = np.abs(z)
    return z + np.log1p(np.exp(-2.0 * z)) - np.log(2.0)


@dataclass(frozen=True)
class _Window:
    """tanh-window bump with value, two derivatives and the antiderivative."""

    a: float
    b: float
    w: float

    def value(self, x):
        return 0.5 * (np.tanh((x - self.a) / self.w) - np.tanh((x - self.b) / self.w))

    def dx(self, x):
        za, zb = (x - self.a) / self.w, (x - self.b) / self.w
        return 0.5 * (1.0 / np.cosh(za) ** 2 - 1.0 / np.cosh(zb) ** 2) / self.w

    def dxx(self, x):
        za, zb = (x - self.a) / self.w, (x - self.b) / self.w
        sa, sb = 1.0 / np.cosh(za) ** 2, 1.0 / np.cosh(zb) ** 2
        return (np.tanh(zb) * sb - np.tanh(za) * sa) / self.w**2

    def antideriv(self, x):
        za, zb = (x - self.a) / self.w, (x - self.b) / self.w
        z0a, z0b = -self.a / self.w, -self.b / self.w
        return 0.5 * self.w * (
            (_logcosh(za) - _logcosh(zb)) - (_logcosh(z0a) - _logcosh(z0b))
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

    def fields(self, x, t):
        s = self._shape.value(x)
        return (
            1.0 + self.amp_v * np.cos(self.freq_v * t) * s,
            self.amp_u * np.cos(self.freq_u * t) * s,
            1.0 + self.amp_theta * np.cos(self.freq_theta * t) * s,
        )

    def exact_state(self, grid, params: PhysParams, t: float) -> FlowState:
        v, _, theta = self.fields(grid.cell_centers, t)
        _, u, _ = self.fields(grid.x_edges, t)
        return FlowState(grid=grid, t=t, v=v, u=u, theta=theta, n=params.n)

    # -- analytic derivative bundle -----------------------------------------

    def _bundle(self, x, t, n):
        """All pointwise quantities entering the sources at (x, t)."""
        sh = self._shape
        s, sx, sxx, S = sh.value(x), sh.dx(x), sh.dxx(x), sh.antideriv(x)
        cv_, cu, ct = np.cos(self.freq_v * t), np.cos(self.freq_u * t), np.cos(self.freq_theta * t)
        sv, su, st = np.sin(self.freq_v * t), np.sin(self.freq_u * t), np.sin(self.freq_theta * t)

        v = 1.0 + self.amp_v * cv_ * s
        v_x = self.amp_v * cv_ * sx
        v_t = -self.amp_v * self.freq_v * sv * s
        u = self.amp_u * cu * s
        u_x = self.amp_u * cu * sx
        u_xx = self.amp_u * cu * sxx
        u_t = -self.amp_u * self.freq_u * su * s
        th = 1.0 + self.amp_theta * ct * s
        th_x = self.amp_theta * ct * sx
        th_xx = self.amp_theta * ct * sxx
        th_t = -self.amp_theta * self.freq_theta * st * s

        integral_v = x + self.amp_v * cv_ * S
        r = (1.0 + n * integral_v) ** (1.0 / n)
        return v, v_x, v_t, u, u_x, u_xx, u_t, th, th_x, th_xx, th_t, r

    def sources(self, x, t, params: PhysParams):
        """(S_v, S_u, S_theta) at the points x and time t."""
        return manufactured_source(self, params, x, t)

    def exact_stress(self, x, t, params: PhysParams):
        """The reduced normal stress of the exact fields at (x, t)."""
        n = params.n
        v, v_x, _, u, u_x, _, _, th, _, _, _, r = self._bundle(np.asarray(x, float), t, n)
        A = r ** (n - 1) * u_x + (n - 1) * v * u / r
        return (params.beta * A - params.R * th) / v

    def source_fn(self, params: PhysParams):
        """Solver hook: (x_centers, x_edges, t) -> (S_v, S_u, S_theta)."""

        def hook(xc, xe, t):
            s_v, s_u, s_t = manufactured_source(self, params, np.concatenate((xc, xe)), t)
            m = len(xc)
            return s_v[:m], s_u[m:], s_t[:m]

        return hook


def manufactured_source(case: ManufacturedCase, params: PhysParams, x, t):
    """Defect of the exact fields in the reduced system at points ``x``.

    S_v = v_t - (r^(n-1)u)_x,
    S_u = u_t - r^(n-1) sigma_x,
    S_theta = cv theta_t - kappa (r^(2(n-1)) theta_x / v)_x
              - (r^(n-1)u)_x sigma + 2 mu (n-1) (r^(n-2) u^2)_x.
    """
    n, beta, R = params.n, params.beta, params.R
    x = np.asarray(x, dtype=float)
    v, v_x, v_t, u, u_x, u_xx, u_t, th, th_x, th_xx, th_t, r = case._bundle(x, t, n)

    rp = r ** (n - 1)
    # A = (r^(n-1) u)_x and its x-derivative, using r_x = v r^(1-n)
    A = rp * u_x + (n - 1) * v * u / r
    A_x = (
        (n - 1) * v * u_x / r
        + rp * u_xx
        + (n - 1) * (v_x * u + v * u_x) / r
        - (n - 1) * v**2 * u / r ** (n + 1)
    )
    sigma = (beta * A - R * th) / v
    sigma_x = (beta * A_x - R * th_x) / v - (beta * A - R * th) * v_x / v**2

    # conduction flux divergence (r^(2(n-1)) theta_x / v)_x
    flux_x = (
        2.0 * (n - 1) * r ** (n - 2) * th_x
        + r ** (2 * (n - 1)) * th_xx / v
        - r ** (2 * (n - 1)) * th_x * v_x / v**2
    )

    ru2_x = (n - 2) * v * u**2 / r**2 + 2.0 * r ** (n - 2) * u * u_x

    s_v = v_t - A
    s_u = u_t - rp * sigma_x
    s_theta = params.cv * th_t - params.kappa * flux_x - A * sigma + 2.0 * params.mu * (n - 1) * ru2_x
    return s_v, s_u, s_theta


# ---------------------------------------------------------------------------
# driving the solver on a case

def solve_case(case: ManufacturedCase, params: PhysParams, n_cells: int, dt: float,
               t_end: float, scheme_order: int = 1):
    """Integrate the sourced system from the exact initial data with a fixed
    step; returns (final_state, exact_final, max-norm errors per field)."""
    grid = build_mass_grid(case.x_max, n_cells, "uniform")
    state = case.exact_state(grid, params, 0.0)
    config = RunConfig(
        x_max=case.x_max, n_cells=n_cells, t_end=t_end, cadence=t_end,
        scheme_order=scheme_order,
    )
    hook = case.source_fn(params)
    t_eps = 1e-12 * t_end
    while state.t < t_end - t_eps:
        h = min(dt, t_end - state.t)
        state, _ = step(state, params, h, config, sources=hook)
    exact = case.exact_state(grid, params, state.t)
    errors = {
        "v": float(np.max(np.abs(state.v - exact.v))),
        "u": float(np.max(np.abs(state.u - exact.u))),
        "theta": float(np.max(np.abs(state.theta - exact.theta))),
    }
    return state, exact, errors


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
                     errors are measured against a same-grid reference run at
                     an eightfold smaller step, which removes the fixed
                     spatial error floor from the slope.
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
        dt_ref = min(float(d) for d in resolutions) / 8.0
        ref, _, _ = solve_case(case, params, n_cells_fixed, dt_ref, t_end, scheme_order)
        for dt in resolutions:
            state, _, _ = solve_case(case, params, n_cells_fixed, float(dt), t_end, scheme_order)
            errors["v"].append(float(np.max(np.abs(state.v - ref.v))))
            errors["u"].append(float(np.max(np.abs(state.u - ref.u))))
            errors["theta"].append(float(np.max(np.abs(state.theta - ref.theta))))
            scales.append(float(dt))
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
