"""Semi-implicit staggered time integrator for the reduced exterior-flow system.

One step advances, in order,

    u:      explicit pressure gradient, implicit viscous operator
            beta * r^(n-1) d_x( (r^(n-1) u)_x / v ) with geometry and v
            frozen at the old state (tridiagonal solve),
    v:      v += dt * (r^(n-1) u_new)_x,
    r:      recomputed from v by quadrature (the canonical value; a shadow
            copy integrated by r_t = u is kept as a consistency diagnostic),
    theta:  implicit conduction kappa * d_x( r^(2(n-1)) theta_x / v )
            (tridiagonal solve), explicit work and dissipation sources
            sigma * (r^(n-1)u)_x - 2 mu (n-1) (r^(n-2) u^2)_x.

Both implicit solves are written in delta form (solve for the increment), so
a state with identically zero right-hand sides — the equilibrium (1, 0, 1) —
is reproduced bit-exactly.  The viscous and conductive operators are the
stiff part, hence implicit; the acoustic part is explicit and limited by the
step control of :func:`select_dt`.  A step that pushes v or theta below the
configured floors is rejected and retried with half the step.

scheme_order=1 is the plain IMEX Euler update; scheme_order=2 replaces it by
a midpoint variant (half-step predictor, trapezoidal diffusion, midpoint
coefficients and sources).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .grid import PhysParams, build_mass_grid, radius_from_volume
from .state import FlowState, InitProfile, edge_weight, make_initial_data

__all__ = [
    "RunConfig",
    "StepReport",
    "RunSummary",
    "RunResult",
    "PositivityError",
    "select_dt",
    "step",
    "run",
]


class PositivityError(RuntimeError):
    """A step could not keep v and theta above their floors."""

    def __init__(self, message, t, dt, min_v, min_theta):
        super().__init__(message)
        self.t = t
        self.dt = dt
        self.min_v = min_v
        self.min_theta = min_theta


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the physical constants."""

    x_max: float = 20.0
    n_cells: int = 400
    grading: str | float = "uniform"
    profile: InitProfile = field(default_factory=InitProfile)
    t_end: float = 1.0
    dt_initial: float = 1.0
    cfl_fraction: float = 0.4
    v_floor: float = 1e-6
    theta_floor: float = 1e-6
    scheme_order: int = 1
    cadence: float = 0.1
    max_rejects: int = 12
    probe_k: int = 4
    probe_x: float = 3.0
    superlevel_a: float = 1.5

    def __post_init__(self):
        if not (0 < self.t_end < np.inf):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not (self.x_max >= 1):  # the diagnostics average over unit mass intervals
            raise ValueError(f"X_max must be at least 1, got {self.x_max}")
        if not (self.n_cells >= 4):
            raise ValueError(f"need at least 4 cells, got N={self.n_cells}")
        if not (0 < self.v_floor < 1 and 0 < self.theta_floor < 1):  # far field: v = theta = 1
            raise ValueError("positivity floors must lie in (0, 1)")
        if not (0 < self.cfl_fraction <= 1):
            raise ValueError(f"cfl_fraction must lie in (0, 1], got {self.cfl_fraction}")
        if not (self.cadence > 0):
            raise ValueError(f"cadence must be positive, got {self.cadence}")
        if self.scheme_order not in (1, 2):
            raise ValueError(f"scheme_order must be 1 or 2, got {self.scheme_order}")
        if not (self.dt_initial > 0):
            raise ValueError("dt_initial must be positive")
        if self.grading != "uniform" and not (1.0 <= float(self.grading) <= 1.2):
            raise ValueError(f"geometric ratio must lie in [1, 1.2], got {self.grading}")
        if not (self.superlevel_a > 1.0):
            raise ValueError(f"superlevel threshold must exceed 1, got {self.superlevel_a}")


@dataclass(frozen=True)
class StepReport:
    dt: float
    rejections: int
    max_residual: float  # worst residual of the two tridiagonal solves


@dataclass
class RunSummary:
    """Whole-run extremes tracked per accepted step (not just per sample)."""

    n_steps: int = 0
    n_rejections: int = 0
    min_v: float = np.inf
    max_v: float = -np.inf
    min_theta: float = np.inf
    max_theta: float = -np.inf
    max_step_rel_change: float = 0.0
    max_solve_residual: float = 0.0
    r_shadow_max_dev: float = 0.0
    sup_norm_initial: float = 0.0
    sup_norm_final: float = 0.0

    def as_dict(self) -> dict:
        return {k: float(getattr(self, k)) for k in self.__dataclass_fields__}


@dataclass(frozen=True)
class RunResult:
    series: object  # DiagnosticsSeries (typed loosely to avoid an import cycle)
    snapshots: list
    summary: RunSummary


def select_dt(state: FlowState, params: PhysParams, config: RunConfig) -> float:
    """Acoustic step limit: cfl * min over cells of dx*v / (r^(n-1) * c).

    The sound-like scale is c = sqrt(R * theta * (1 + R/cv)); the edge weight
    of each cell is taken at its larger (outer) radius.  Capped by dt_initial.
    """
    w = edge_weight(state)
    w_cell = np.maximum(w[:-1], w[1:])
    c = np.sqrt(params.R * state.theta * (1.0 + params.R / params.cv))
    dt = config.cfl_fraction * float(np.min(state.grid.cell_widths * state.v / (w_cell * c)))
    return min(dt, config.dt_initial)


def _solve_tridiag(sub, diag, sup, rhs):
    """Direct tridiagonal solve by LAPACK ?gtsv; returns (solution, max-norm
    residual).  Raises like ``solve_banded``, which calls the same routine."""
    x, info = dgtsv(sub, diag, sup, rhs)[3:]
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    resid = diag * x
    resid[:-1] += sup * x[1:]
    resid[1:] += sub * x[:-1]
    return x, float(np.max(np.abs(resid - rhs)))


def _velocity_solve(state, params, dt, w, v, theta, s_u=None, implicit_weight=1.0):
    """Velocity update in delta form; returns (u_new, solve residual).

    The viscous operator L u = w * d_x( beta * (w u)_x / v ) uses the frozen
    edge weight ``w`` and cell fields ``v``, ``theta``.  Independent of
    ``implicit_weight`` the right-hand side is dt * (L u_old - pressure
    gradient + source); the weight only enters the matrix (1 = backward
    Euler, 0.5 = trapezoidal).
    """
    g = state.grid
    h, he = g.cell_widths, g.edge_gaps
    beta, R = params.beta, params.R

    cl = beta / (h * v)  # cellwise viscous conductance
    scale = dt * w[1:-1] / he  # per interior edge
    kw = implicit_weight
    sub = -kw * scale * cl[:-1] * w[:-2]
    sup = -kw * scale * cl[1:] * w[2:]
    diag = 1.0 + kw * scale * (cl[:-1] + cl[1:]) * w[1:-1]

    flux_old = cl * np.diff(w * state.u)  # beta * (w u)_x / v per cell
    p = R * theta / v
    rhs = scale * (np.diff(flux_old) - np.diff(p))
    if s_u is not None:
        rhs = rhs + dt * s_u[1:-1]

    # the couplings to the boundary edges multiply known zero deltas
    delta, resid = _solve_tridiag(sub[1:], diag, sup[:-1], rhs)
    u_new = np.zeros_like(state.u)
    u_new[1:-1] = state.u[1:-1] + delta
    return u_new, resid


def _theta_solve(grid, params, dt, theta_old, source, v_cond, r_cond, s_theta=None,
                 implicit_weight=1.0):
    """Temperature update in delta form; returns (theta_new, solve residual).

    Conduction coefficients are built from ``v_cond`` and ``r_cond``; the
    boundary flux at x = 0 vanishes (mirror ghost) and the last cell is pinned
    to theta = 1.
    """
    h, he = grid.cell_widths, grid.edge_gaps
    n_cells = grid.n_cells
    kappa, cv = params.kappa, params.cv

    w2 = r_cond[1:-1] ** (2 * (params.n - 1))
    v_edge = 0.5 * (v_cond[:-1] + v_cond[1:])
    K = kappa * w2 / (v_edge * he)  # conductance per interior edge

    kw = implicit_weight
    sub = np.zeros(n_cells)
    sup = np.zeros(n_cells)
    diag = np.full(n_cells, cv / dt)
    diag[:-1] += kw * K / h[:-1]
    sup[:-1] -= kw * K / h[:-1]
    diag[1:] += kw * K / h[1:]
    sub[1:] -= kw * K / h[1:]

    flux_old = K * np.diff(theta_old)
    div_old = np.zeros(n_cells)
    div_old[:-1] += flux_old / h[:-1]
    div_old[1:] -= flux_old / h[1:]
    rhs = div_old + source
    if s_theta is not None:
        rhs = rhs + s_theta
    # far-field pin on the last cell: theta_new = 1 exactly
    diag[-1] = 1.0
    sub[-1] = 0.0
    rhs[-1] = 1.0 - theta_old[-1]

    delta, resid = _solve_tridiag(sub[1:], diag, sup[:-1], rhs)
    return theta_old + delta, resid


def _substep_imex(state: FlowState, params: PhysParams, dt: float, sources=None):
    """One first-order IMEX update; returns (fields | None, bad_fields, resid)
    with fields = (v, u, theta, r)."""
    g = state.grid
    n = state.n
    w = edge_weight(state)
    s_v = s_u = s_t = None
    if sources is not None:
        s_v, s_u, s_t = sources(g.cell_centers, g.x_edges, state.t)

    u_new, res_u = _velocity_solve(state, params, dt, w, state.v, state.theta, s_u=s_u)
    G_new = np.diff(w * u_new) / g.cell_widths
    v_new = state.v + dt * G_new
    if s_v is not None:
        v_new = v_new + dt * s_v
    v_new[-1] = 1.0
    if not np.all(v_new > 0):
        return None, (v_new, u_new, None), res_u
    r_new = radius_from_volume(g, v_new, n)

    sigma = (params.beta * G_new - params.R * state.theta) / state.v
    ru2 = state.r ** (n - 2) * u_new**2
    source = sigma * G_new - 2.0 * params.mu * (n - 1) * np.diff(ru2) / g.cell_widths
    theta_new, res_t = _theta_solve(
        g, params, dt, state.theta, source, v_new, r_new, s_theta=s_t
    )
    return (v_new, u_new, theta_new, r_new), None, max(res_u, res_t)


def _substep_midpoint(state: FlowState, params: PhysParams, dt: float, sources=None):
    """Midpoint variant: half-step predictor, then trapezoidal diffusion with
    midpoint coefficients and sources over the full step."""
    g = state.grid
    n = state.n
    half_fields, bad, res0 = _substep_imex(state, params, 0.5 * dt, sources=sources)
    if half_fields is None:
        return None, bad, res0
    if not np.all(half_fields[2] > 0):
        return None, half_fields, res0
    half = FlowState._trusted(g, state.t + 0.5 * dt, *half_fields, n)

    s_v = s_u = s_t = None
    if sources is not None:
        s_v, s_u, s_t = sources(g.cell_centers, g.x_edges, half.t)

    w_h = edge_weight(half)
    u_new, res_u = _velocity_solve(
        state, params, dt, w_h, half.v, half.theta, s_u=s_u, implicit_weight=0.5
    )
    u_mid = 0.5 * (state.u + u_new)
    G_mid = np.diff(w_h * u_mid) / g.cell_widths
    v_new = state.v + dt * G_mid
    if s_v is not None:
        v_new = v_new + dt * s_v
    v_new[-1] = 1.0
    if not np.all(v_new > 0):
        return None, (v_new, u_new, None), res_u

    sigma = (params.beta * G_mid - params.R * half.theta) / half.v
    ru2 = half.r ** (n - 2) * u_mid**2
    source = sigma * G_mid - 2.0 * params.mu * (n - 1) * np.diff(ru2) / g.cell_widths
    theta_new, res_t = _theta_solve(
        g, params, dt, state.theta, source, half.v, half.r, s_theta=s_t,
        implicit_weight=0.5,
    )
    r_new = radius_from_volume(g, v_new, n)
    return (v_new, u_new, theta_new, r_new), None, max(res_u, res_t)


def step(state: FlowState, params: PhysParams, dt: float,
         config: RunConfig | None = None, sources=None) -> tuple[FlowState, StepReport]:
    """Advance one time step, rejecting and halving dt on floor violations."""
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    cfg = config if config is not None else RunConfig(t_end=dt, cadence=dt)
    rejections = 0
    while True:
        if cfg.scheme_order == 1:
            fields, bad, resid = _substep_imex(state, params, dt, sources=sources)
        else:
            fields, bad, resid = _substep_midpoint(state, params, dt, sources=sources)
        if (
            fields is not None
            and np.min(fields[0]) > cfg.v_floor
            and np.min(fields[2]) > cfg.theta_floor
        ):
            new_state = FlowState._trusted(state.grid, state.t + dt, *fields, state.n)
            return new_state, StepReport(dt=dt, rejections=rejections, max_residual=resid)
        rejections += 1
        if rejections > cfg.max_rejects:
            probe = fields if fields is not None else bad
            mv = float(np.min(probe[0])) if probe[0] is not None else np.nan
            mt = float(np.min(probe[2])) if probe[2] is not None else np.nan
            raise PositivityError(
                f"positivity failure at t={state.t}: dt halved {rejections} times "
                f"(min v={mv:.3e}, min theta={mt:.3e})",
                t=state.t, dt=dt, min_v=mv, min_theta=mt,
            )
        dt *= 0.5


def run(config: RunConfig, params: PhysParams) -> RunResult:
    """Integrate to t_end, sampling diagnostics at the configured cadence.

    Samples are taken at step times: the state is recorded whenever t reaches
    the next multiple of ``cadence`` (plus always at t = 0 and t_end).  The
    diagnostics series is a pure function of the sampled states, so the
    ``report`` command can reproduce it exactly from stored snapshots.
    """
    from .diagnostics import evaluate_series

    grid = build_mass_grid(config.x_max, config.n_cells, config.grading)
    state = make_initial_data(grid, config.profile, params)
    summary = RunSummary()
    scale, sup_norm = _track(summary, state)
    summary.sup_norm_initial = sup_norm

    samples = [state]
    next_sample = config.cadence
    r_shadow = state.r.copy()
    t_eps = 1e-12 * config.t_end
    while state.t < config.t_end - t_eps:
        dt = min(select_dt(state, params, config), config.t_end - state.t)
        new_state, report = step(state, params, dt, config)
        r_shadow = r_shadow + report.dt * new_state.u
        r_shadow[0] = 1.0
        summary.r_shadow_max_dev = max(
            summary.r_shadow_max_dev, float(np.max(np.abs(r_shadow - new_state.r)))
        )
        change = max(
            float(np.max(np.abs(new_state.v - state.v))),
            float(np.max(np.abs(new_state.u - state.u))),
            float(np.max(np.abs(new_state.theta - state.theta))),
        )
        summary.n_steps += 1
        summary.n_rejections += report.rejections
        summary.max_solve_residual = max(summary.max_solve_residual, report.max_residual)
        summary.max_step_rel_change = max(summary.max_step_rel_change, change / scale)
        state = new_state
        scale, sup_norm = _track(summary, state)
        if state.t >= min(next_sample, config.t_end) - t_eps:
            samples.append(state)
            next_sample = (np.floor((state.t + t_eps) / config.cadence) + 1.0) * config.cadence
    if samples[-1] is not state:
        samples.append(state)

    summary.sup_norm_final = sup_norm
    series = evaluate_series(samples, params, config)
    return RunResult(series=series, snapshots=samples, summary=summary)


def _track(summary: RunSummary, state: FlowState) -> tuple[float, float]:
    """Fold the extremes of one state into ``summary``.

    Returns (max of |v|, |u|, |theta|; max-norm distance from (1, 0, 1)).
    Both follow from the same five reductions because v and theta are
    positive, and rounding is monotone: max|v - 1| = max(max v - 1, 1 - min v).
    """
    min_v, max_v = float(np.min(state.v)), float(np.max(state.v))
    min_t, max_t = float(np.min(state.theta)), float(np.max(state.theta))
    max_u = float(np.max(np.abs(state.u)))
    summary.min_v = min(summary.min_v, min_v)
    summary.max_v = max(summary.max_v, max_v)
    summary.min_theta = min(summary.min_theta, min_t)
    summary.max_theta = max(summary.max_theta, max_t)
    scale = max(max_v, max_u, max_t)
    sup_norm = max(max_v - 1.0, 1.0 - min_v, max_u, max_t - 1.0, 1.0 - min_t)
    return scale, sup_norm
