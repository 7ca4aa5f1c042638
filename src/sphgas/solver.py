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

Outputs are bit-reproducible, so an edit to the step kernel must keep the
order of every floating-point operation.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError  # the class scipy.linalg re-exports

from .diagnostics import DiagnosticsSeries, _check_probe
from .grid import PhysParams, build_mass_grid, radius_from_volume
from .state import FlowState, InitProfile, _diff, _mean, edge_weight, make_initial_data

__all__ = [
    "RunConfig",
    "StepReport",
    "RunSummary",
    "RunResult",
    "SolverAbort",
    "PositivityError",
    "initial_state",
    "select_dt",
    "step",
    "run",
]


_T_TOL = 1e-12  # a time within this fraction of t_end has reached t_end
_MAX_REJECTS = 12  # halvings of one step before a positivity failure
_MAX_STEPS = 10**8  # a step that needs more repeats than this to reach t_end is small
_MAX_SMALL_STEPS = 1000  # consecutive small steps before the march aborts
_MAX_CELLS = 10**6  # largest N a config may ask for

# the ufunc reductions behind ndarray.min/max, called without the method's
# argument handling; the step calls them a dozen times
_amin = np.minimum.reduce
_amax = np.maximum.reduce


def _load_dgtsv():
    """LAPACK's dgtsv, from the compiled module behind ``scipy.linalg.lapack``.

    The module is loaded from its file under its own name, which skips the
    package imports of ``scipy.linalg``: they take most of a cold start, the
    module a few milliseconds.  A module already imported is reused.  Where
    the file is missing or does not load, the public import gives the routine.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        try:
            # find_spec locates a top-level package without importing it
            root = importlib.util.find_spec("scipy").submodule_search_locations[0]
            suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader))
            loader.exec_module(module)
        except (AttributeError, ImportError):  # no scipy package, or no such file
            from scipy.linalg.lapack import dgtsv
            return dgtsv
        sys.modules[name] = module
    return module.dgtsv


dgtsv = _load_dgtsv()


class SolverAbort(RuntimeError):
    """The time march cannot go on to t_end."""


class PositivityError(SolverAbort):
    """A step could not keep v and theta above their floors."""


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
    probe_k: int = 4
    probe_x: float = 3.0
    superlevel_a: float = 1.5

    def __post_init__(self):
        if not (0 < self.t_end < np.inf):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not (4 <= self.n_cells <= _MAX_CELLS):
            raise ValueError(f"N must lie in [4, {_MAX_CELLS}], got N={self.n_cells}")
        if not (1 <= self.x_max <= self.n_cells):  # caps the unit mass intervals of a sample at the cell count
            raise ValueError(f"X_max must lie in [1, N={self.n_cells}], got {self.x_max}")
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
        if not (self.superlevel_a > 1.0):
            raise ValueError(f"superlevel threshold must exceed 1, got {self.superlevel_a}")
        _check_probe(self.probe_k, self.probe_x, self.x_max)


@dataclass(frozen=True)
class StepReport:
    dt: float
    rejections: int
    max_residual: float  # worst residual of the two tridiagonal solves


@dataclass
class RunSummary:
    """Whole-run extremes tracked per accepted step (not just per sample), and
    the sup-norm max(sup_v, sup_u, sup_theta) of the series' first and last rows."""

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
    series: DiagnosticsSeries
    summary: RunSummary


def initial_state(config: RunConfig, params: PhysParams) -> FlowState:
    """The t = 0 state of a run; ValueError unless it can be built and its v
    and theta lie above their floors, as every accepted step's do."""
    with np.errstate(over="ignore"):  # an overflow leaves a value FlowState rejects
        grid = build_mass_grid(config.x_max, config.n_cells, config.grading)
        state = make_initial_data(grid, config.profile, params)
    min_v, min_theta = float(_amin(state.v)), float(_amin(state.theta))
    if not (min_v > config.v_floor and min_theta > config.theta_floor):
        raise ValueError(f"initial data at or below the floors {config.v_floor}, "
                         f"{config.theta_floor}: min v={min_v!r}, min theta={min_theta!r}")
    return state


def select_dt(state: FlowState, params: PhysParams, config: RunConfig) -> float:
    """Acoustic step limit: cfl * min over cells of dx*v / (r^(n-1) * c), with
    c = sqrt(R * theta * gamma) and the edge weight at the cell's outer edge,
    the larger (r^n grows by n * v * dx per cell, far more than an ulp, so
    rounding keeps r increasing).  Capped by dt_initial.
    """
    w_cell = edge_weight(state)[1:]
    c = np.sqrt(params.R * state.theta * params.gamma)
    dt = config.cfl_fraction * float(_amin(state.grid.cell_widths * state.v / (w_cell * c)))
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
    resid -= rhs
    return x, float(_amax(np.abs(resid, out=resid)))


def _velocity_solve(state, params, dt, w, v, theta, s_u=None, implicit_weight=1.0):
    """Velocity update in delta form; returns (u_new, solve residual).

    The viscous operator L u = w * d_x( beta * (w u)_x / v ) uses the frozen
    edge weight ``w`` and cell fields ``v``, ``theta``.  Independent of
    ``implicit_weight`` the right-hand side is dt * (L u_old - pressure
    gradient + source); the weight only enters the matrix (1 = backward
    Euler, 0.5 = trapezoidal), and a weight of 1 is not multiplied in.
    """
    g = state.grid
    h, he = g.cell_widths, g.edge_gaps

    cl = params.beta / (h * v)  # cellwise viscous conductance
    scale = dt * w[1:-1] / he  # per interior edge
    ks = scale if implicit_weight == 1.0 else implicit_weight * scale
    # the bands leave out the couplings to the boundary edges' zero deltas
    nks = -ks
    sub = nks[1:] * cl[1:-1] * w[1:-2]
    sup = nks[:-1] * cl[1:-1] * w[2:-1]
    diag = 1.0 + ks * (cl[:-1] + cl[1:]) * w[1:-1]

    flux_old = cl * _diff(w * state.u)  # beta * (w u)_x / v per cell
    p = params.R * theta / v
    rhs = scale * (_diff(flux_old) - _diff(p))
    if s_u is not None:
        rhs += dt * s_u[1:-1]

    delta, resid = _solve_tridiag(sub, diag, sup, rhs)
    u_new = np.zeros(state.u.shape)
    np.add(state.u[1:-1], delta, out=u_new[1:-1])
    return u_new, resid


def _theta_solve(grid, params, dt, theta_old, source, v_cond, r_cond, s_theta=None,
                 implicit_weight=1.0):
    """Temperature update in delta form; returns (theta_new, solve residual).

    Conduction coefficients are built from ``v_cond`` and ``r_cond``; the
    boundary flux at x = 0 vanishes (mirror ghost) and the last cell is pinned
    to theta = 1.
    """
    h, he = grid.cell_widths, grid.edge_gaps

    w2 = r_cond[1:-1] ** (2 * (params.n - 1))
    K = params.kappa * w2 / (_mean(v_cond) * he)  # conductance per interior edge

    kK = K if implicit_weight == 1.0 else implicit_weight * K
    # per edge, minus its conductance into the cell on its right / left; as
    # (-k) / h is exactly -(k / h), diag still adds the conductances
    nkK = -kK
    sub, sup = nkK / h[1:], nkK / h[:-1]
    diag = np.empty(h.size)
    np.subtract(params.cv / dt, sup, out=diag[:-1])
    diag[1:-1] -= sub[:-1]

    flux_old = K * _diff(theta_old)
    rhs = np.zeros(h.size)
    rhs[:-1] += flux_old / h[:-1]
    rhs[1:] -= flux_old / h[1:]
    rhs += source
    if s_theta is not None:
        rhs += s_theta
    # far-field pin on the last cell: theta_new = 1 exactly
    diag[-1] = 1.0
    sub[-1] = 0.0
    rhs[-1] = 1.0 - theta_old[-1]

    delta, resid = _solve_tridiag(sub, diag, sup, rhs)
    return theta_old + delta, resid


def _heat_source(params, coef: FlowState, G, u):
    """Heat source sigma G - 2 mu (n-1) (r^(n-2) u^2)_x, sigma = (beta G - R theta) / v,
    with v, theta, r from ``coef``; at n = 2, r^0 is exactly 1 and is skipped."""
    n = coef.n
    sigma = (params.beta * G - params.R * coef.theta) / coef.v
    ru2 = u**2 if n == 2 else coef.r ** (n - 2) * u**2
    return sigma * G - 2.0 * params.mu * (n - 1) * _diff(ru2) / coef.grid.cell_widths


def _volume_update(state: FlowState, dt: float, w, u, s_v):
    """The velocity divergence G = (w u)_x and the volume v + dt G (+ dt S_v)
    from ``state``, pinned to v = 1 in the far-field cell; returns (G, v)."""
    G = _diff(w * u) / state.grid.cell_widths
    v = state.v + dt * G
    if s_v is not None:
        v += dt * s_v
    v[-1] = 1.0
    return G, v


def _substep_imex(state: FlowState, params: PhysParams, dt: float, sources=None,
                  v_floor=0.0):
    """One first-order IMEX update; returns ((v, u, theta, r), resid), with
    theta = r = None unless min v > ``v_floor`` (so NaN is rejected too)."""
    g = state.grid
    n = state.n
    w = edge_weight(state)
    s_v = s_u = s_t = None
    if sources is not None:
        s_v, s_u, s_t = sources(state.t)

    u_new, res_u = _velocity_solve(state, params, dt, w, state.v, state.theta, s_u=s_u)
    G_new, v_new = _volume_update(state, dt, w, u_new, s_v)
    if not (_amin(v_new) > v_floor):
        return (v_new, u_new, None, None), res_u
    r_new = radius_from_volume(g, v_new, n)

    source = _heat_source(params, state, G_new, u_new)
    theta_new, res_t = _theta_solve(
        g, params, dt, state.theta, source, v_new, r_new, s_theta=s_t
    )
    return (v_new, u_new, theta_new, r_new), max(res_u, res_t)


def _substep_midpoint(state: FlowState, params: PhysParams, dt: float, sources=None,
                      v_floor=0.0):
    """Midpoint variant: half-step predictor, then trapezoidal diffusion with
    midpoint coefficients and sources over the full step.  The predictor need
    only keep v and theta positive; the full step's v must exceed ``v_floor``
    as in :func:`_substep_imex`."""
    g = state.grid
    n = state.n
    half_fields, res0 = _substep_imex(state, params, 0.5 * dt, sources=sources)
    if half_fields[2] is None or not (_amin(half_fields[2]) > 0):
        return half_fields, res0  # rejected by the theta test in step
    half = FlowState._trusted(g, state.t + 0.5 * dt, *half_fields, n)

    s_v = s_u = s_t = None
    if sources is not None:
        s_v, s_u, s_t = sources(half.t)

    w_h = edge_weight(half)
    u_new, res_u = _velocity_solve(
        state, params, dt, w_h, half.v, half.theta, s_u=s_u, implicit_weight=0.5
    )
    u_mid = 0.5 * (state.u + u_new)
    G_mid, v_new = _volume_update(state, dt, w_h, u_mid, s_v)
    if not (_amin(v_new) > v_floor):
        return (v_new, u_new, None, None), res_u

    source = _heat_source(params, half, G_mid, u_mid)
    theta_new, res_t = _theta_solve(
        g, params, dt, state.theta, source, half.v, half.r, s_theta=s_t,
        implicit_weight=0.5,
    )
    r_new = radius_from_volume(g, v_new, n)
    return (v_new, u_new, theta_new, r_new), max(res_u, res_t)


def step(state: FlowState, params: PhysParams, dt: float,
         config: RunConfig = RunConfig(), sources=None) -> tuple[FlowState, StepReport]:
    """Advance one time step, rejecting and halving dt on floor violations.

    The substep tests v against its floor before it forms r and theta, so
    only theta is tested here.  ``sources``, when given, maps t to (S_v at
    centers, S_u at edges, S_theta at centers) on the state's grid.
    """
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    substep = _substep_imex if config.scheme_order == 1 else _substep_midpoint
    for rejections in range(_MAX_REJECTS + 1):
        (v, u, theta, r), resid = substep(state, params, dt, sources, config.v_floor)
        if theta is not None and _amin(theta) > config.theta_floor:
            new_state = FlowState._trusted(state.grid, state.t + dt, v, u, theta, r, state.n)
            return new_state, StepReport(dt=dt, rejections=rejections, max_residual=resid)
        dt *= 0.5
    mt = float(theta.min()) if theta is not None else np.nan
    raise PositivityError(
        f"positivity failure at t={state.t}: dt halved {_MAX_REJECTS + 1} times "
        f"(min v={float(v.min()):.3e}, min theta={mt:.3e})"
    )


def _march(state: FlowState, params: PhysParams, config: RunConfig, dt=None, sources=None):
    """Yield (state, StepReport) for every accepted step up to config.t_end.

    Steps are ``select_dt`` long, or ``dt`` when given; the last one is
    clipped to t_end.  A step is small when _MAX_STEPS of it fall short of
    the time left.  SolverAbort is raised before a step that does not
    advance t (0, NaN, or lost in rounding), and before the _MAX_SMALL_STEPS-th
    small step in a row, so a violent transient may pass but a stall may not.
    ValueError unless ``state`` has the dimension of ``params``.
    """
    if state.n != params.n:
        raise ValueError(f"a state of dimension n={state.n}, parameters of n={params.n}")
    t_end = config.t_end
    t_stop = t_end - _T_TOL * t_end
    small = 0
    while state.t < t_stop:
        left = t_end - state.t
        h = min(select_dt(state, params, config) if dt is None else dt, left)
        if not (state.t + h > state.t):
            raise SolverAbort(f"step {h:.3e} at t={state.t} does not advance t, so it "
                              f"cannot reach t_end={t_end}")
        small = small + 1 if h * _MAX_STEPS < left else 0
        if small == _MAX_SMALL_STEPS:
            raise SolverAbort(f"step {h:.3e} at t={state.t} cannot reach t_end={t_end} "
                              f"in {_MAX_STEPS} steps, nor could the {small - 1} before it")
        state, report = step(state, params, h, config, sources=sources)
        yield state, report


def run(config: RunConfig, params: PhysParams, on_sample=None) -> RunResult:
    """Integrate to t_end, sampling diagnostics at the configured cadence.

    Samples are taken at step times: the state is recorded whenever t reaches
    the next multiple of ``cadence`` (plus always at t = 0 and t_end).  Each
    sample is folded into the diagnostics series as it is taken, so the run
    holds one block of samples and keeps none.  ``on_sample``, when given, is
    called with each sample as it is taken.  The series is a pure function of
    the sampled states, so the ``report`` command can reproduce it exactly
    from stored snapshots.
    """
    # imported per call, as perfbench's tracer wraps it in its home module
    from .diagnostics import evaluate_series

    summary = RunSummary()
    samples = _samples(config, params, summary, on_sample or (lambda state: None))
    series = evaluate_series(samples, params, config)
    ends = np.maximum.reduce([series[c][[0, -1]] for c in ("sup_v", "sup_u", "sup_theta")])
    summary.sup_norm_initial, summary.sup_norm_final = map(float, ends)
    return RunResult(series=series, summary=summary)


def _samples(config: RunConfig, params: PhysParams, summary: RunSummary, on_sample):
    """Yield the sampled states of the march, each after handing it to
    ``on_sample``, and fold every accepted step into ``summary``, which is
    written when the march reaches t_end; ``run`` adds the sup-norms."""
    state = initial_state(config, params)
    # the fold: whole-run extremes of v and theta, and the running maxima
    min_v, max_v, min_t, max_t, max_u = _extremes(state)
    scale = max(max_v, max_u, max_t)
    lo_v, hi_v, lo_t, hi_t = min_v, max_v, min_t, max_t
    n_steps = n_rejections = 0
    max_resid = max_rel_change = max_dev = 0.0
    r_shadow = state.r.copy()
    # a step's differences new - old of v, u and theta, and r_shadow - r, side
    # by side, so one abs serves all four and one max the first three
    nc = state.grid.n_cells
    diffs = np.empty(4 * nc + 2)
    d_v, d_u, d_t = diffs[:nc], diffs[nc:2 * nc + 1], diffs[2 * nc + 1:3 * nc + 1]
    d_change, d_r = diffs[:3 * nc + 1], diffs[3 * nc + 1:]

    next_sample = config.cadence
    t_eps = _T_TOL * config.t_end
    steps = _march(state, params, config)
    while True:
        on_sample(state)
        yield state
        # an overflow makes the step 0 or NaN, and the march aborts; an invalid
        # operation makes a field NaN, which fails its floor test, so the step
        # halves until PositivityError; numpy's error state is restored before
        # each yield, so the caller keeps its own
        with np.errstate(over="ignore", invalid="ignore"):
            for new_state, report in steps:
                r_shadow += report.dt * new_state.u
                r_shadow[0] = 1.0
                np.subtract(new_state.v, state.v, out=d_v)
                np.subtract(new_state.u, state.u, out=d_u)
                np.subtract(new_state.theta, state.theta, out=d_t)
                np.subtract(r_shadow, new_state.r, out=d_r)
                np.abs(diffs, out=diffs)
                max_dev = max(max_dev, _amax(d_r))
                n_steps += 1
                n_rejections += report.rejections
                max_resid = max(max_resid, report.max_residual)
                max_rel_change = max(max_rel_change, _amax(d_change) / scale)
                state = new_state
                min_v, max_v, min_t, max_t, max_u = _extremes(state)
                lo_v, hi_v = min(lo_v, min_v), max(hi_v, max_v)
                lo_t, hi_t = min(lo_t, min_t), max(hi_t, max_t)
                scale = max(max_v, max_u, max_t)
                if state.t >= min(next_sample, config.t_end) - t_eps:
                    next_sample = (np.floor((state.t + t_eps) / config.cadence) + 1.0) * config.cadence
                    break
            else:  # the march reached t_end, whose state was the last sample
                summary.n_steps, summary.n_rejections = n_steps, n_rejections
                summary.min_v, summary.max_v = float(lo_v), float(hi_v)
                summary.min_theta, summary.max_theta = float(lo_t), float(hi_t)
                summary.max_step_rel_change = float(max_rel_change)
                summary.max_solve_residual = float(max_resid)
                summary.r_shadow_max_dev = float(max_dev)
                return


def _extremes(state: FlowState):
    """(min v, max v, min theta, max theta, max |u|) of one state."""
    v, theta = state.v, state.theta
    return _amin(v), _amax(v), _amin(theta), _amax(theta), _amax(np.abs(state.u))
