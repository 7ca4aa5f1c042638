"""Semi-implicit staggered time integrator for the reduced exterior-flow system.

One step advances, in order,

    u:      explicit pressure gradient, implicit viscous operator
            beta * r^(n-1) d_x( (r^(n-1) u)_x / v ) with geometry and v
            frozen at the old state (tridiagonal solve),
    v:      v += dt * (r^(n-1) u_new)_x,
    r:      recomputed from v by quadrature,
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

The step kernel (:class:`_Kernel`) binds a grid, parameter set and config:
the grid's widths, gaps and their shifted views, beta, R, gamma, kappa, c_v,
2 mu (n-1), the exponents of r, the CFL fraction, the step cap, the floors
and the scheme.  A march binds one when it starts and hands it to every
:func:`select_dt` and :func:`step` call, so it goes with the march however
the march ends; a call without a kernel binds its own.  Per state, h v,
R theta and w = r^(n-1) are formed once and shared by the CFL limit, the
velocity solve and the heat source; the floor tests' minima of v and theta
go to the run's summary in the :class:`StepReport`, and the summary's other
per-step maxima come from one reduction.

Outputs are bit-reproducible, so an edit to the step kernel must keep the
order of every floating-point operation.  Within that rule a temporary may be
updated in place: ``t = a * b; t *= c`` is ``a * b * c``, and as IEEE
addition and multiplication commute, ``t = b + c; t *= a`` is
``a * (b + c)``; a subtraction or division keeps its operands' order.  An
array that enters a state is always fresh, never a view of a temporary or of
another state.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError  # the class scipy.linalg re-exports

from .diagnostics import DiagnosticsSeries, _check_probe
from .grid import PhysParams, build_mass_grid, radius_from_volume
from .state import FlowState, InitProfile, _mean, make_initial_data

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
_max_at = np.maximum.reduceat


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


class StepReport(NamedTuple):
    """What an accepted step took and left: its length, its halvings, the
    worst residual of its tridiagonal solves, and the new state's least v
    and theta, which passed the floors."""

    dt: float
    rejections: int
    max_residual: float
    min_v: float
    min_theta: float


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


def _solve_tridiag(sub, diag, sup, rhs):
    """Direct tridiagonal solve by LAPACK ?gtsv; returns (solution, max-norm
    residual).  Raises like ``solve_banded``, which calls the same routine."""
    x, info = dgtsv(sub, diag, sup, rhs)[3:]
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    resid = diag * x
    band = sup * x[1:]
    resid[:-1] += band
    np.multiply(sub, x[:-1], out=band)
    resid[1:] += band
    resid -= rhs
    return x, float(_amax(np.abs(resid, out=resid)))


class _Kernel:
    """The step of one grid, parameter set and config, bound once (see the
    module docstring for what it holds and shares)."""

    def __init__(self, grid, params: PhysParams, config: RunConfig):
        self.grid = grid
        h = self.h = grid.cell_widths
        self.he = grid.edge_gaps
        self.h_lo, self.h_hi = h[:-1], h[1:]  # the widths left and right of each interior edge
        n = self.n = params.n
        self.n1, self.n2, self.n_cond = n - 1, n - 2, 2 * (n - 1)
        # the constants that multiply or divide arrays, as 0-d arrays: numpy
        # then takes its array path, without converting a Python float on
        # every call, and gives the same float64 results
        self.beta, self.R, self.gamma, self.kappa, self.c_dissip = map(
            np.array, (params.beta, params.R, params.gamma, params.kappa,
                       2.0 * params.mu * (n - 1)))
        self.cv = params.cv
        self.cfl, self.dt_cap = config.cfl_fraction, config.dt_initial
        self.v_floor, self.theta_floor = config.v_floor, config.theta_floor
        self.midpoint = config.scheme_order == 2
        self._last = (None, None)  # (state, its products)

    def _coefficients(self, v, theta, r):
        """(h v, R theta, w = r^(n-1)) of the cell fields ``v``, ``theta`` and
        the edge radii ``r``; at n = 2 w is r itself, which r ** 1 returns exactly."""
        return self.h * v, self.R * theta, (r if self.n == 2 else r ** self.n1)

    def _products(self, state):
        """The coefficients of ``state``; those of the last state asked for are
        kept, so the step after ``select_dt`` reuses them."""
        if self._last[0] is state:
            return self._last[1]
        products = self._coefficients(state.v, state.theta, state.r)
        self._last = (state, products)
        return products

    def select_dt(self, state: FlowState) -> float:
        hv, rtheta, w = self._products(state)
        q = rtheta * self.gamma
        np.sqrt(q, out=q)  # the sound speed c
        q *= w[1:]
        np.divide(hv, q, out=q)
        dt = self.cfl * float(_amin(q))
        return min(dt, self.dt_cap)

    def step(self, state: FlowState, dt: float, sources) -> tuple[FlowState, StepReport]:
        if not (dt > 0):
            raise ValueError(f"dt must be positive, got {dt}")
        substep = self._midpoint if self.midpoint else self._imex
        theta_floor = self.theta_floor
        for rejections in range(_MAX_REJECTS + 1):
            (v, u, theta, r), resid, min_v = substep(state, dt, sources, self.v_floor)
            if theta is not None:
                min_theta = _amin(theta)
                if min_theta > theta_floor:
                    new_state = FlowState._trusted(self.grid, state.t + dt, v, u, theta, r, self.n)
                    return new_state, StepReport(dt, rejections, resid, min_v, min_theta)
            dt *= 0.5
        mt = float(theta.min()) if theta is not None else np.nan
        raise PositivityError(
            f"positivity failure at t={state.t}: dt halved {_MAX_REJECTS + 1} times "
            f"(min v={float(v.min()):.3e}, min theta={mt:.3e})"
        )

    def _velocity(self, u_old, dt, w, hv, rtheta, v, s_u, implicit_weight=1.0):
        """Velocity update in delta form; returns (u_new, solve residual).

        The viscous operator L u = w * d_x( beta * (w u)_x / v ) uses the
        frozen edge weight ``w`` and the products ``hv`` = h v and ``rtheta``
        = R theta of the cell fields ``v``, ``theta``.  Independent of
        ``implicit_weight`` the right-hand side is dt * (L u_old - pressure
        gradient + source); the weight only enters the matrix (1 = backward
        Euler, 0.5 = trapezoidal), and a weight of 1 is not multiplied in.
        """
        cl = self.beta / hv  # cellwise viscous conductance
        w_in = w[1:-1]
        scale = dt * w_in
        scale /= self.he  # per interior edge
        ks = scale if implicit_weight == 1.0 else implicit_weight * scale
        # the bands leave out the couplings to the boundary edges' zero deltas
        nks = -ks
        cl_in = cl[1:-1]
        sub = nks[1:] * cl_in
        sub *= w_in[:-1]
        sup = nks[:-1] * cl_in
        sup *= w_in[1:]
        diag = cl[:-1] + cl[1:]
        diag *= ks
        diag *= w_in
        diag += 1.0

        flux_old = w * u_old
        flux_old = flux_old[1:] - flux_old[:-1]
        flux_old *= cl  # beta * (w u)_x / v per cell
        p = rtheta / v
        rhs = flux_old[1:] - flux_old[:-1]
        rhs -= p[1:] - p[:-1]
        rhs *= scale
        if s_u is not None:
            rhs += dt * s_u[1:-1]

        delta, resid = _solve_tridiag(sub, diag, sup, rhs)
        u_new = np.zeros(u_old.shape)
        np.add(u_old[1:-1], delta, out=u_new[1:-1])
        return u_new, resid

    def _volume(self, v_old, dt, w, u, s_v):
        """The velocity divergence G = (w u)_x and the volume v + dt G (+ dt S_v),
        pinned to v = 1 in the far-field cell; returns (G, v)."""
        wu = w * u
        G = wu[1:] - wu[:-1]
        G /= self.h
        v = dt * G
        v += v_old
        if s_v is not None:
            v += dt * s_v
        v[-1] = 1.0
        return G, v

    def _heat(self, G, u, v, rtheta, r):
        """Heat source sigma G - 2 mu (n-1) (r^(n-2) u^2)_x, sigma = (beta G - R theta) / v,
        with v, R theta, r of the coefficient state; at n = 2, r^0 is exactly 1
        and is skipped."""
        sigma = self.beta * G
        sigma -= rtheta
        sigma /= v
        sigma *= G
        ru2 = u**2 if self.n == 2 else r ** self.n2 * u**2
        d = ru2[1:] - ru2[:-1]
        d *= self.c_dissip
        d /= self.h
        sigma -= d
        return sigma

    def _theta(self, dt, theta_old, source, v_cond, r_cond, s_theta, implicit_weight=1.0):
        """Temperature update in delta form; returns (theta_new, solve residual).

        Conduction coefficients are built from ``v_cond`` and ``r_cond``; the
        boundary flux at x = 0 vanishes (mirror ghost) and the last cell is
        pinned to theta = 1.
        """
        h_lo, h_hi = self.h_lo, self.h_hi
        K = r_cond[1:-1] ** self.n_cond
        K *= self.kappa
        m = _mean(v_cond)
        m *= self.he
        K /= m  # conductance per interior edge

        kK = K if implicit_weight == 1.0 else implicit_weight * K
        # per edge, minus its conductance into the cell on its right / left; as
        # (-k) / h is exactly -(k / h), diag still adds the conductances
        nkK = -kK
        sub, sup = nkK / h_hi, nkK / h_lo
        nc = theta_old.size
        diag = np.empty(nc)
        np.subtract(self.cv / dt, sup, out=diag[:-1])
        diag[1:-1] -= sub[:-1]

        flux_old = theta_old[1:] - theta_old[:-1]
        flux_old *= K
        rhs = np.zeros(nc)
        part = flux_old / h_lo
        rhs[:-1] += part
        np.divide(flux_old, h_hi, out=part)
        rhs[1:] -= part
        rhs += source
        if s_theta is not None:
            rhs += s_theta
        # far-field pin on the last cell: theta_new = 1 exactly
        diag[-1] = 1.0
        sub[-1] = 0.0
        rhs[-1] = 1.0 - theta_old[-1]

        delta, resid = _solve_tridiag(sub, diag, sup, rhs)
        return theta_old + delta, resid

    def _imex(self, state: FlowState, dt: float, sources, v_floor):
        """One first-order IMEX update; returns ((v, u, theta, r), resid, min v),
        with theta = r = None unless min v > ``v_floor`` (so NaN is rejected too)."""
        s_v = s_u = s_t = None
        if sources is not None:
            s_v, s_u, s_t = sources(state.t)
        hv, rtheta, w = self._products(state)
        v_old = state.v

        u_new, res_u = self._velocity(state.u, dt, w, hv, rtheta, v_old, s_u)
        G_new, v_new = self._volume(v_old, dt, w, u_new, s_v)
        min_v = _amin(v_new)
        if not (min_v > v_floor):
            return (v_new, u_new, None, None), res_u, min_v
        r_new = radius_from_volume(self.grid, v_new, self.n)

        source = self._heat(G_new, u_new, v_old, rtheta, state.r)
        theta_new, res_t = self._theta(dt, state.theta, source, v_new, r_new, s_t)
        return (v_new, u_new, theta_new, r_new), max(res_u, res_t), min_v

    def _midpoint(self, state: FlowState, dt: float, sources, v_floor):
        """Midpoint variant: half-step predictor, then trapezoidal diffusion with
        midpoint coefficients and sources over the full step.  The predictor need
        only keep v and theta positive; the full step's v must exceed ``v_floor``
        as in :meth:`_imex`."""
        half_fields, res0, min_v = self._imex(state, 0.5 * dt, sources, 0.0)
        v_h, _, theta_h, r_h = half_fields
        if theta_h is None or not (_amin(theta_h) > 0):
            return half_fields, res0, min_v  # rejected by the theta test in step

        s_v = s_u = s_t = None
        if sources is not None:
            s_v, s_u, s_t = sources(state.t + 0.5 * dt)

        hv_h, rtheta_h, w_h = self._coefficients(v_h, theta_h, r_h)
        u_new, res_u = self._velocity(
            state.u, dt, w_h, hv_h, rtheta_h, v_h, s_u, implicit_weight=0.5
        )
        u_mid = state.u + u_new
        u_mid *= 0.5
        G_mid, v_new = self._volume(state.v, dt, w_h, u_mid, s_v)
        min_v = _amin(v_new)
        if not (min_v > v_floor):
            return (v_new, u_new, None, None), res_u, min_v

        source = self._heat(G_mid, u_mid, v_h, rtheta_h, r_h)
        theta_new, res_t = self._theta(
            dt, state.theta, source, v_h, r_h, s_t, implicit_weight=0.5,
        )
        r_new = radius_from_volume(self.grid, v_new, self.n)
        return (v_new, u_new, theta_new, r_new), max(res0, res_u, res_t), min_v


def _kernel(state: FlowState, params: PhysParams, config: RunConfig, kernel=None) -> _Kernel:
    """``kernel``, or when None a new one of ``state``'s grid, ``params`` and
    ``config``.  ValueError unless ``state`` has the dimension of ``params``."""
    if kernel is None:
        kernel = _Kernel(state.grid, params, config)
    if state.n != kernel.n:
        raise ValueError(f"a state of dimension n={state.n}, parameters of n={kernel.n}")
    return kernel


def select_dt(state: FlowState, params: PhysParams, config: RunConfig, *,
              kernel=None) -> float:
    """Acoustic step limit: cfl * min over cells of dx*v / (r^(n-1) * c), with
    c = sqrt(R * theta * gamma) and the edge weight at the cell's outer edge,
    the larger (r^n grows by n * v * dx per cell, far more than an ulp, so
    rounding keeps r increasing).  Capped by dt_initial.  ``kernel`` is a
    march's bound kernel of these arguments; without one the call binds its own.
    """
    return _kernel(state, params, config, kernel).select_dt(state)


def step(state: FlowState, params: PhysParams, dt: float,
         config: RunConfig = RunConfig(), sources=None, *,
         kernel=None) -> tuple[FlowState, StepReport]:
    """Advance one time step, rejecting and halving dt on floor violations.

    The substep tests v against its floor before it forms r and theta, so
    only theta is tested here.  ``sources``, when given, maps t to (S_v at
    centers, S_u at edges, S_theta at centers) on the state's grid.
    ``kernel`` is as for :func:`select_dt`.  ValueError unless ``state`` has
    the dimension of ``params``.
    """
    return _kernel(state, params, config, kernel).step(state, dt, sources)


def _march(state: FlowState, params: PhysParams, config: RunConfig, dt=None, sources=None):
    """Yield (state, StepReport) for every accepted step up to config.t_end.

    Steps are ``select_dt`` long, or ``dt`` when given; the last one is
    clipped to t_end.  A step is small when _MAX_STEPS of it fall short of
    the time left.  SolverAbort is raised before a step that does not
    advance t (0, NaN, or lost in rounding), and before the _MAX_SMALL_STEPS-th
    small step in a row, so a violent transient may pass but a stall may not.
    ValueError unless ``state`` has the dimension of ``params``.
    """
    kernel = _kernel(state, params, config)
    t_end = config.t_end
    t_stop = t_end - _T_TOL * t_end
    small = 0
    while state.t < t_stop:
        left = t_end - state.t
        h = min(select_dt(state, params, config, kernel=kernel) if dt is None else dt, left)
        if not (state.t + h > state.t):
            raise SolverAbort(f"step {h:.3e} at t={state.t} does not advance t, so it "
                              f"cannot reach t_end={t_end}")
        small = small + 1 if h * _MAX_STEPS < left else 0
        if small == _MAX_SMALL_STEPS:
            raise SolverAbort(f"step {h:.3e} at t={state.t} cannot reach t_end={t_end} "
                              f"in {_MAX_STEPS} steps, nor could the {small - 1} before it")
        state, report = step(state, params, h, config, sources=sources, kernel=kernel)
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
    ``on_sample``, and fold the initial state and every accepted step
    into ``summary``; ``run`` adds the sup-norms."""
    state = initial_state(config, params)
    # the fold: whole-run extremes of v and theta, and the running maxima
    s = summary
    s.min_v, s.max_v = _amin(state.v), _amax(state.v)
    s.min_theta, s.max_theta = _amin(state.theta), _amax(state.theta)
    scale = max(s.max_v, _amax(np.abs(state.u)), s.max_theta)
    # per step, side by side: the differences new - old of v, u and theta,
    # and the new v, theta and u; one abs serves them all (v and theta are
    # positive), and one reduceat gives the maxima of the three differences
    # together, of v, of theta and of |u|
    nc = state.grid.n_cells
    ends = np.cumsum([nc, nc + 1, nc, nc, nc, nc + 1])
    fold = np.empty(ends[-1])
    d_v, d_u, d_t, new_v, new_t, new_u = np.split(fold, ends[:-1])
    starts = np.concatenate(([0], ends[2:-1]))

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
                np.subtract(new_state.v, state.v, d_v)
                np.subtract(new_state.u, state.u, d_u)
                np.subtract(new_state.theta, state.theta, d_t)
                np.copyto(new_v, new_state.v)
                np.copyto(new_t, new_state.theta)
                np.copyto(new_u, new_state.u)
                np.abs(fold, fold)
                change, max_v, max_t, max_u = _max_at(fold, starts).tolist()
                s.n_steps += 1
                s.n_rejections += report.rejections
                s.max_solve_residual = max(s.max_solve_residual, report.max_residual)
                s.max_step_rel_change = max(s.max_step_rel_change, change / scale)
                s.min_v = min(s.min_v, report.min_v)  # the floor tests' minima
                s.min_theta = min(s.min_theta, report.min_theta)
                s.max_v, s.max_theta = max(s.max_v, max_v), max(s.max_theta, max_t)
                state = new_state
                scale = max(max_v, max_u, max_t)
                if state.t >= min(next_sample, config.t_end) - t_eps:
                    next_sample = (np.floor((state.t + t_eps) / config.cadence) + 1.0) * config.cadence
                    break
            else:  # the march reached t_end, whose state was the last sample
                return
