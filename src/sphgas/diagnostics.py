"""Runtime functionals of the flow and the identities they must satisfy.

Everything here is a pure function of sampled states.  The series produced by
:func:`evaluate_series` contains, per sample time:

* the entropy-type energy E = int R(v - ln v - 1) + u^2/2 + cv(theta - ln theta - 1),
* the four nonnegative dissipation integrals
  int v u^2/(r^2 theta), int r^(2(n-1)) u_x^2/(v theta),
  int (r^(n-1)u)_x^2/(v theta), int r^(2(n-1)) theta_x^2/(v theta^2),
* the running defect of the exact energy-dissipation identity
  d/dt int U + int [beta (r^(n-1)u)_x^2/(v theta)
  - 2 mu (n-1) (r^(n-2)u^2)_x/theta + kappa r^(2(n-1)) theta_x^2/(v theta^2)] = 0
  (the boundary flux vanishes under u(0)=0, theta_x(0)=0 and the far field),
* L2 and sup norms of (v-1, u, theta-1) and weighted gradient norms,
* the weighted functionals f(t) = int r^(2(n-1)) theta_x^2/(v theta^2) and
  g(t) = int v u^2/(r^2 theta) + int r^(2(n-1)) u_x^2/(v theta),
* the measure of the temperature superlevel set with its energy bound,
* the pointwise gap of the viscous quadratic form,
* unit-interval averages of v and theta (Jensen anchors),
* five running dissipation accumulators plus the total variation in time of
  the gradient norms,
* the relative defect of the local representation formula for v at the probe.

Time integrals use the trapezoid rule over the sampling cadence; the time
derivative accumulators use backward difference quotients between samples.
"""

from __future__ import annotations

import itertools
from array import array
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .grid import MassGrid, PhysParams
from .state import FlowState, Gradients, discrete_gradients, stress_sigma

__all__ = [
    "DiagnosticsSeries",
    "SERIES_COLUMNS",
    "energy_functional",
    "dissipation_rate",
    "energy_balance_residual",
    "viscous_form_gap",
    "quadratic_form",
    "pointwise_form_gap",
    "cell_averages",
    "anchor_roots",
    "superlevel_measure",
    "superlevel_bound",
    "cutoff_phi",
    "local_representation",
    "RepresentationResult",
    "norm_report",
    "evaluate_series",
]


# ---------------------------------------------------------------------------
# pointwise building blocks
#
# Every kernel below runs along the last axis: one FlowState has 1-D fields,
# a block of samples (``_Samples``) one sample per row of each field.

def _u_sq_centers(u):
    """u^2 averaged onto centers (average of squares keeps positivity)."""
    return 0.5 * (u[..., :-1] ** 2 + u[..., 1:] ** 2)


def _derived(state, params: PhysParams):
    """What every functional of a state reads, formed once: the gradient
    bundle, u^2 at centers, and the weights r^(2(n-1)) at centers and at
    interior edges."""
    gr = discrete_gradients(state)
    p = 2 * (params.n - 1)
    return gr, _u_sq_centers(state.u), gr.r_centers**p, state.r[..., 1:-1] ** p


def _conduction_integral(state, w_edges):
    """int r^(2(n-1)) theta_x^2/(v theta^2) on the native interior-edge
    values of theta_x, with the center gaps as quadrature weights."""
    he = state.grid.edge_gaps
    theta_x = (state.theta[..., 1:] - state.theta[..., :-1]) / he
    v_e = 0.5 * (state.v[..., :-1] + state.v[..., 1:])
    th_e = 0.5 * (state.theta[..., :-1] + state.theta[..., 1:])
    return (w_edges * theta_x**2 / (v_e * th_e**2) * he).sum(axis=-1)


def _energy(state, params: PhysParams, u2):
    v, th = state.v, state.theta
    U = params.R * (v - np.log(v) - 1.0) + 0.5 * u2 + params.cv * (th - np.log(th) - 1.0)
    return (U * state.grid.cell_widths).sum(axis=-1)


def energy_functional(state: FlowState, params: PhysParams) -> float:
    """Entropy-type energy, zero exactly at the equilibrium (1, 0, 1)."""
    return float(_energy(state, params, _u_sq_centers(state.u)))


def dissipation_rate(state: FlowState, params: PhysParams) -> np.ndarray:
    """The four nonnegative dissipation integrals, in the order
    (v u^2/(r^2 theta), r^(2(n-1)) u_x^2/(v theta), (r^(n-1)u)_x^2/(v theta),
    r^(2(n-1)) theta_x^2/(v theta^2))."""
    return _dissipation(state, *_derived(state, params))


def _dissipation(state, gr: Gradients, u2, w_centers, w_edges) -> np.ndarray:
    """:func:`dissipation_rate` from the derived fields of :func:`_derived`."""
    h = state.grid.cell_widths
    v, th = state.v, state.theta
    d1 = (v * u2 / (gr.r_centers**2 * th) * h).sum(axis=-1)
    d2 = (w_centers * gr.u_x**2 / (v * th) * h).sum(axis=-1)
    d3 = (gr.div_ru**2 / (v * th) * h).sum(axis=-1)
    return np.array([d1, d2, d3, _conduction_integral(state, w_edges)])


def _cumtrapz(f, t):
    """Running trapezoid integral of the samples ``f`` over the times ``t``,
    starting from 0 at t[0]."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(t))))


def _balance_residual(t, E, phi):
    """|E(t) + int_0^t (dissipation bracket phi) - E(0)| at every sample."""
    return np.abs(E + _cumtrapz(phi, t) - E[0])


def energy_balance_residual(history, params: PhysParams) -> float:
    """|E(t_end) + int_0^t_end (dissipation bracket) - E(0)| over a history of
    states at increasing times; the time integral is a trapezoid over the
    samples, exactly as in the ``balance_residual`` series column."""
    col = _sample_columns(history, params)
    if len(col["t"]) < 2:
        raise ValueError("need at least two states to form a balance residual")
    return float(_balance_residual(col["t"], col["E"], col["balance_phi"])[-1])


# ---------------------------------------------------------------------------
# viscous quadratic form

def viscous_form_gap(params: PhysParams) -> float:
    """Smallest eigenvalue C of the quadratic form Q(a, b) with
    a = r^(n-1) u_x and b = v u / r,

        Q = beta (a + (n-1) b)^2 - 2 mu (n-1) [2 b (a + (n-1) b) - n b^2],

    so that Q >= C (a^2 + b^2) pointwise.  Positive for all admissible
    viscosities."""
    n, beta, mu, lam = params.n, params.beta, params.mu, params.lam
    m11 = beta
    m12 = (n - 1) * lam
    m22 = (n - 1) * (beta * (n - 1) - 2.0 * mu * (n - 2))
    # stable 2x2 symmetric eigenvalue: no cancellation in the discriminant
    half_tr = 0.5 * (m11 + m22)
    disc = np.hypot(0.5 * (m11 - m22), m12)
    return float(half_tr - disc)


def quadratic_form(a, b, params: PhysParams):
    """Q(a, b) as above (vectorised)."""
    n, beta, mu = params.n, params.beta, params.mu
    s = a + (n - 1) * b
    return beta * s**2 - 2.0 * mu * (n - 1) * (2.0 * b * s - n * b**2)


def pointwise_form_gap(state: FlowState, params: PhysParams) -> float:
    """min over centers of Q(a, b) - C_min (a^2 + b^2); nonnegative up to
    floating-point rounding."""
    return float(_form_gap(params, discrete_gradients(state)))


def _form_gap(params: PhysParams, gr: Gradients):
    """:func:`pointwise_form_gap` from the state's gradient bundle ``gr``."""
    a = gr.r_pow_ux
    b = gr.geom_vu / (params.n - 1)
    gap = quadratic_form(a, b, params) - viscous_form_gap(params) * (a**2 + b**2)
    return gap.min(axis=-1)


# ---------------------------------------------------------------------------
# Jensen anchors and superlevel sets

def _clipped_weights(grid: MassGrid, lo: float, hi: float) -> np.ndarray:
    """Per-cell overlap widths with the interval [lo, hi]."""
    return np.clip(
        np.minimum(grid.x_edges[1:], hi) - np.maximum(grid.x_edges[:-1], lo),
        0.0,
        None,
    )


def cell_averages(state: FlowState, k: int) -> tuple[float, float]:
    """Midpoint-quadrature averages of v and theta over the unit mass
    interval [k, k+1]."""
    g = state.grid
    if not (0 <= k and k + 1 <= g.x_max + 1e-12):
        raise ValueError(f"interval [{k}, {k + 1}] lies outside the grid")
    w = _clipped_weights(g, float(k), float(k + 1))
    total = w.sum()
    return float(np.dot(w, state.v) / total), float(np.dot(w, state.theta) / total)


def anchor_roots(cbar: float, tol: float = 1e-12) -> tuple[float, float]:
    """The two roots alpha1 <= 1 <= alpha2 of y - ln y - 1 = cbar, by
    bisection to absolute tolerance ``tol``."""
    if cbar < 0:
        raise ValueError(f"the bound must be nonnegative, got {cbar}")
    if cbar == 0.0:
        return 1.0, 1.0

    def f(y):
        return y - np.log(y) - 1.0 - cbar

    def bisect(lo, hi):
        f_lo = f(lo)
        for _ in range(200):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            f_mid = f(mid)
            if (f_mid > 0) == (f_lo > 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    lower_bracket = min(0.5, np.exp(-(cbar + 1.0)))
    # once the bracket underflows to 0 the root lies below the smallest double
    alpha1 = bisect(lower_bracket, 1.0) if lower_bracket > 0.0 else 0.0
    alpha2 = bisect(1.0, 2.0 * cbar + 2.0)
    return float(alpha1), float(alpha2)


def superlevel_measure(state: FlowState, a: float) -> float:
    """Total width of cells whose temperature exceeds the threshold a > 1."""
    if not (a > 1.0):
        raise ValueError(f"threshold must exceed 1, got {a}")
    return float(np.sum(state.grid.cell_widths[state.theta > a]))


def superlevel_bound(energy: float, a: float, params: PhysParams) -> float:
    """Explicit energy bound E / (cv (a - ln a - 1)) on the superlevel measure."""
    if not (a > 1.0):
        raise ValueError(f"threshold must exceed 1, got {a}")
    return float(energy / (params.cv * (a - np.log(a) - 1.0)))


# ---------------------------------------------------------------------------
# local representation of the specific volume

def cutoff_phi(x, k: int):
    """Piecewise-linear localizer: 1 below k, decaying to 0 on [k, k+1]."""
    if int(k) != k or k < 1:
        raise ValueError(f"cut-off level must be an integer >= 1, got {k}")
    x = np.asarray(x, dtype=float)
    return np.clip(k + 1.0 - x, 0.0, 1.0) if x.ndim else float(np.clip(k + 1.0 - x, 0.0, 1.0))


@dataclass(frozen=True)
class RepresentationResult:
    times: np.ndarray
    B: np.ndarray
    Y: np.ndarray
    v_repr: np.ndarray
    v_actual: np.ndarray
    residual: float  # max relative deviation over the sampled times


_EXP_SAFE = 708.0  # exp(x) and exp(-x) are normal doubles for |x| up to this


def _integral_linear_exp(h0, h1, ell0, ell1, dtau):
    """Exact integral of (linear h) * exp(-(linear ell)) over a segment.

    integral_0^dtau [h0 + (h1-h0) s/dtau] exp(-[ell0 + (ell1-ell0) s/dtau]) ds.
    Exact when the exponent is genuinely linear, which makes the equilibrium
    representation identity hold to rounding.  Vectorised over segments.
    """
    z = ell1 - ell0
    small = np.abs(z) < 1e-6
    # where exp(-z) would overflow or exp(-ell0) underflow, their product is
    # formed in one exponent, exp(-ell1), below
    fold = ~small & ((z < -_EXP_SAFE) | (ell0 > _EXP_SAFE))
    z_safe = np.where(small | fold, 1.0, z)
    em = np.exp(-z_safe)
    a0 = np.where(small, 1.0 - z / 2 + z**2 / 6 - z**3 / 24, -np.expm1(-z_safe) / z_safe)
    a1 = np.where(
        small,
        0.5 - z / 3 + z**2 / 8 - z**3 / 30,
        (1.0 - (1.0 + z_safe) * em) / z_safe**2,
    )
    out = dtau * np.exp(-ell0) * (h0 * a0 + (h1 - h0) * a1)
    if fold.any():
        h0, h1, ell0, ell1, dtau, z = (
            np.broadcast_to(a, fold.shape)[fold] for a in (h0, h1, ell0, ell1, dtau, z)
        )
        e0, e1 = np.exp(-ell0), np.exp(-ell1)
        out[fold] = dtau * (h0 * (e0 - e1) / z + (h1 - h0) * (e0 - (1.0 + z) * e1) / z**2)
    return out


def _trapz_tail(x_nodes, f_nodes, lo):
    """Trapezoid integral of the piecewise-linear interpolant from lo to the
    last node; x_nodes[0] < lo."""
    idx = int(np.searchsorted(x_nodes, lo, side="right"))
    f_lo = float(np.interp(lo, x_nodes, f_nodes))
    xs = np.concatenate(([lo], x_nodes[idx:]))
    fs = np.concatenate(([f_lo], f_nodes[idx:]))
    return float(np.trapezoid(fs, xs))


def _check_probe(k, x_probe, x_max):
    """Raise ValueError unless [k, k+1] lies in [0, x_max] and max(k-2, 0) < x_probe < k."""
    if not (k >= 1 and k + 1 <= x_max + 1e-12):
        raise ValueError(f"cut-off interval [{k}, {k + 1}] outside the grid [0, {x_max}]")
    if not (max(k - 2, 0.0) < x_probe < k):
        raise ValueError(
            f"probe {x_probe} must lie in ({max(k - 2, 0)}, {k}) for cut-off level {k}"
        )


def _probe_scalars(first, params: PhysParams, k: int, x_probe: float):
    """The function taking a state of ``first``'s history to its five probe
    scalars: ln B, S (the integral of sigma over [k, k+1]), W (the tail
    integral of phi r^-n u^2), and theta and v at the probe point.

    The tail integrals depend on the probe point through the localizer; they
    are evaluated at ``x_probe`` throughout (Y is really Y(x_probe, t)).
    """
    g = first.grid
    n = params.n
    _check_probe(k, x_probe, g.x_max)
    xe, xc = g.x_edges, g.cell_centers
    phi_e = cutoff_phi(xe, k)
    w_unit = _clipped_weights(g, float(k), float(k + 1))
    u0 = first.u
    r0_pow = first.r ** (1 - n)
    ln_v0 = np.log(float(np.interp(x_probe, xc, first.v)))

    def scalars(st):
        tail = phi_e * (r0_pow * u0 - st.r ** (1 - n) * st.u)
        return (
            ln_v0 + _trapz_tail(xe, tail, x_probe) / params.beta,
            float(np.dot(w_unit, stress_sigma(st, params))),
            _trapz_tail(xe, phi_e * st.r ** (-n) * st.u**2, x_probe),
            np.interp(x_probe, xc, st.theta),
            np.interp(x_probe, xc, st.v),
        )

    return scalars


def _representation(times, probe, params: PhysParams):
    """ln B, ln Y, the represented v and the solved v at the probe point from
    the sample times and the five probe scalars of each sample, flat in
    sample order (see :func:`_probe_scalars`).

    With Z = B Y, the represented v is Z(t_i) + (R/beta) c_i, where c_i is the
    integral over [0, t_i] of theta(s) Z(t_i)/Z(s) at the probe.  Each segment
    [t_j, t_{j+1}] is integrated once, exactly for linear theta and ln Z, with
    its exponent measured from the right end; the correction is then carried
    forward by c_0 = 0 and c_i = (Z_i/Z_{i-1}) c_{i-1} + seg_{i-1}, so the cost
    is linear in the number of samples.
    """
    ln_B, S, W, theta_probe, v_actual = np.array(probe).reshape(-1, 5).T.copy()
    n, beta = params.n, params.beta
    ln_Y = (_cumtrapz(S, times) - (n - 1) * _cumtrapz(W, times)) / beta
    ln_Z = ln_B + ln_Y

    segs = _integral_linear_exp(
        theta_probe[:-1], theta_probe[1:], ln_Z[:-1] - ln_Z[1:], 0.0, np.diff(times)
    )
    growth = np.exp(np.diff(ln_Z))
    corr = np.zeros(len(times))
    for i in range(1, len(times)):
        corr[i] = growth[i - 1] * corr[i - 1] + segs[i - 1]
    v_repr = np.exp(ln_Z) + (params.R / beta) * corr
    return ln_B, ln_Y, v_repr, v_actual


def _representation_trajectory(history, params: PhysParams, k: int, x_probe: float):
    """The sample times, then ln B, ln Y, the represented v and the solved v
    at the probe point, from one pass over ``history``."""
    samples = iter(history)
    first = next(samples, None)
    if first is None:
        raise ValueError("no samples to evaluate")
    scalars = _probe_scalars(first, params, k, x_probe)
    t, probe = array("d"), array("d")
    for st in itertools.chain([first], samples):
        t.append(st.t)
        probe.extend(scalars(st))
    times = np.array(t)
    return (times, *_representation(times, probe, params))


def local_representation(history, params: PhysParams, k: int, x_probe: float) -> RepresentationResult:
    """Evaluate the closed-form representation of v at the probe point against
    the solved field, over the whole sampled history (any iterable of
    states)."""
    times, ln_B, ln_Y, v_repr, v_actual = _representation_trajectory(
        history, params, k, x_probe
    )
    rel = np.abs(v_repr - v_actual) / np.abs(v_actual)
    return RepresentationResult(
        times=times,
        B=np.exp(ln_B),
        Y=np.exp(ln_Y),
        v_repr=v_repr,
        v_actual=v_actual,
        residual=float(np.max(rel)),
    )


# ---------------------------------------------------------------------------
# per-sample report and the assembled series

def _second_derivative(x, f):
    """Three-point second derivative on a possibly non-uniform axis
    (interior points only)."""
    dm = x[1:-1] - x[:-2]
    dp = x[2:] - x[1:-1]
    return 2.0 * (
        f[..., :-2] / (dm * (dm + dp)) - f[..., 1:-1] / (dm * dp) + f[..., 2:] / (dp * (dm + dp))
    )


def _report(state, params: PhysParams, prev=None) -> dict:
    """The body of :func:`norm_report`, along the last axis: scalars for one
    state, one entry per row for a block of samples (``prev`` then holds the
    rows one sample earlier)."""
    g = state.grid
    h = g.cell_widths
    v, th = state.v, state.theta
    gr, u2, w_centers, w_edges = _derived(state, params)

    def integral(f, weights=h):
        return (f * weights).sum(axis=-1)

    D = _dissipation(state, gr, u2, w_centers, w_edges)
    out = {
        "E": _energy(state, params, u2),
        "D_vu2": D[0],
        "D_ux": D[1],
        "D_divru": D[2],
        "D_thx": D[3],
        "l2_v": np.sqrt(integral((v - 1.0) ** 2)),
        "l2_u": np.sqrt(integral(u2)),
        "l2_theta": np.sqrt(integral((th - 1.0) ** 2)),
        "l2_rvx": np.sqrt(integral((gr.r_pow * gr.v_x) ** 2)),
        "l2_rux": np.sqrt(integral(gr.r_pow_ux**2)),
        "l2_rthx": np.sqrt(integral((gr.r_pow * gr.theta_x) ** 2)),
        "sup_v": np.abs(v - 1.0).max(axis=-1),
        "sup_u": np.abs(state.u).max(axis=-1),
        "sup_theta": np.abs(th - 1.0).max(axis=-1),
        "min_v": v.min(axis=-1),
        "max_v": v.max(axis=-1),
        "min_theta": th.min(axis=-1),
        "max_theta": th.max(axis=-1),
        "f_thx": D[3],
        "g_u": D[0] + D[1],
        "grad2_v": integral(gr.v_x**2),
        "grad2_u": integral(gr.u_x**2),
        "grad2_theta": integral(gr.theta_x**2),
        # the three-term dissipation bracket of the exact energy identity
        "balance_phi": params.beta * D[2]
        - 2.0 * params.mu * (params.n - 1) * integral(gr.div_ru2 / th)
        + params.kappa * D[3],
        "b6_gap_min": _form_gap(params, gr),
        # second-derivative integrands (standard three-point stencils)
        "int_r_uxx2": integral(w_edges * _second_derivative(g.x_edges, state.u) ** 2, g.edge_gaps),
        "int_r_thxx2": integral(
            w_centers[..., 1:-1] * _second_derivative(g.cell_centers, th) ** 2, h[1:-1]
        ),
        "int_theta_vx2": integral((1.0 + th) * gr.v_x**2),
    }
    if prev is None:
        out["int_ut2"] = out["int_tht2"] = np.zeros(np.shape(out["E"]))
    else:
        dtau = np.asarray(state.t - prev.t)[..., None]
        du = (state.u - prev.u) / dtau
        out["int_ut2"] = integral(_u_sq_centers(du))
        out["int_tht2"] = integral(((th - prev.theta) / dtau) ** 2)
    return out


def norm_report(state: FlowState, params: PhysParams, prev: FlowState | None = None) -> dict:
    """Instantaneous functionals of one state (plus difference-quotient
    integrals against ``prev`` when given)."""
    return {key: float(val) for key, val in _report(state, params, prev).items()}


# Consecutive samples on one grid, stacked: FlowState's attributes with t of
# shape (rows,) and one sample per row of each field.
_Samples = namedtuple("_Samples", "grid t v u theta r n")


# Rows per block: rows * (N + 1) stays near this, which bounds the temporaries.
_BLOCK_ELEMENTS = 4096


def _sample_columns(samples, params: PhysParams, each=None) -> dict:
    """Every :func:`norm_report` entry (each sample against the one before
    it) and the times ``t`` as columns, from one pass over ``samples``.

    The first sample goes through :func:`_report` alone, then blocks of
    ``rows`` samples, each stacked with the sample before it, whose rows
    serve as ``prev``.  Only the block being filled is held, and nothing is
    evaluated before it is full or the samples end.  The samples must share
    one grid (ValueError otherwise).  ``each``, when given, is called with
    every sample in turn as its block is evaluated.
    """
    samples = iter(samples)
    first = next(samples, None)
    if first is None:
        raise ValueError("no samples to evaluate")
    g, n = first.grid, first.n
    rows = max(1, _BLOCK_ELEMENTS // (g.n_cells + 1))
    t = array("d")
    keys = None
    reports = []  # one array per block, a row per key

    def fold(st):
        t.append(st.t)
        if each is not None:
            each(st)

    def keep(report):
        nonlocal keys
        keys = list(report)
        reports.append(np.array(list(report.values())))

    def evaluate(block):
        """Fold in the samples of ``block`` after its first, which is the
        sample before them; the very first sample goes alone, before them."""
        if not reports:
            fold(block[0])
            keep(_report(_Samples(g, *_stack(block[:1]), n), params))
        for st in block[1:]:
            fold(st)
        if len(block) > 1:
            tb, v, u, theta, r = _stack(block)
            cur = _Samples(g, tb[1:], v[1:], u[1:], theta[1:], r[1:], n)
            prev = _Samples(g, tb[:-1], v[:-1], u[:-1], theta[:-1], r[:-1], n)
            keep(_report(cur, params, prev))

    block = [first]
    for st in samples:
        if st.grid is not g and not np.array_equal(st.grid.x_edges, g.x_edges):
            raise ValueError("samples on different grids")
        block.append(st)
        if len(block) > rows:
            evaluate(block)
            block = block[-1:]
    if len(block) > 1 or not reports:
        evaluate(block)
    col = dict(zip(keys, np.concatenate(reports, axis=1)))
    col["t"] = np.array(t)
    return col


def _stack(states):
    """t, v, u, theta and r of ``states``, one row per state."""
    return [np.array([getattr(st, name) for st in states]) for name in ("t", "v", "u", "theta", "r")]


SERIES_COLUMNS = [
    "t",
    "E",
    "D_vu2",
    "D_ux",
    "D_divru",
    "D_thx",
    "balance_residual",
    "l2_v",
    "l2_u",
    "l2_theta",
    "l2_rvx",
    "l2_rux",
    "l2_rthx",
    "sup_v",
    "sup_u",
    "sup_theta",
    "min_v",
    "max_v",
    "min_theta",
    "max_theta",
    "f_thx",
    "g_u",
    "omega_measure",
    "omega_bound",
    "b6_gap_min",
    "vbar_min",
    "vbar_max",
    "thbar_min",
    "thbar_max",
    "acc_theta_vx2",
    "acc_uxx",
    "acc_thxx",
    "acc_ut",
    "acc_tht",
    "acc_tv_grad",
    "repr_residual",
]


@dataclass(frozen=True)
class DiagnosticsSeries:
    """Column-oriented time series of all runtime functionals."""

    data: np.ndarray  # shape (n_samples, len(SERIES_COLUMNS))

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[1] != len(SERIES_COLUMNS):
            raise ValueError("series data does not match the documented columns")

    def __len__(self) -> int:
        return self.data.shape[0]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[:, SERIES_COLUMNS.index(name)]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(SERIES_COLUMNS) + "\n")
            for row in self.data:
                fh.write(",".join(map(repr, row.tolist())) + "\n")

    @classmethod
    def from_csv(cls, path) -> "DiagnosticsSeries":
        width = len(SERIES_COLUMNS)
        values = array("d")
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if header != SERIES_COLUMNS:
                raise ValueError(f"{path}: unexpected series columns")
            for line in fh:
                if line.strip():
                    row = [float(tok) for tok in line.split(",")]
                    if len(row) != width:
                        raise ValueError(f"{path}: a row of {len(row)} values, not {width}")
                    values.extend(row)
        if not values:
            raise ValueError(f"{path}: no rows")
        return cls(data=np.array(values).reshape(-1, width))


def evaluate_series(samples, params: PhysParams, config) -> DiagnosticsSeries:
    """Assemble the full diagnostics series from sampled states.

    ``samples`` is any iterable of states on one grid (ValueError otherwise),
    read once: the samples are folded in a block at a time as they arrive,
    and only the block being filled is held.  The time integrals (balance
    residual, accumulators and the representation) are then formed over
    whole columns.
    ``config`` provides the superlevel threshold and the representation
    probe, which must fit the grid (ValueError otherwise).
    """
    samples = iter(samples)
    first = next(samples, None)
    if first is None:
        raise ValueError("no samples to evaluate")
    g = first.grid
    probe_scalars = _probe_scalars(first, params, config.probe_k, config.probe_x)
    unit_w = [_clipped_weights(g, float(k), float(k + 1)) for k in range(int(g.x_max + 1e-12))]
    unit_total = np.array([w.sum() for w in unit_w])
    a = config.superlevel_a
    extremes, probe = array("d"), array("d")

    def per_sample(st):
        vbar = np.array([np.dot(w, st.v) for w in unit_w]) / unit_total
        thbar = np.array([np.dot(w, st.theta) for w in unit_w]) / unit_total
        extremes.extend((superlevel_measure(st, a), vbar.min(), vbar.max(), thbar.min(), thbar.max()))
        probe.extend(probe_scalars(st))

    col = _sample_columns(itertools.chain([first], samples), params, each=per_sample)
    t = col["t"]
    (col["omega_measure"], col["vbar_min"], col["vbar_max"], col["thbar_min"],
     col["thbar_max"]) = np.array(extremes).reshape(-1, 5).T.copy()
    col["omega_bound"] = np.array([superlevel_bound(E, a, params) for E in col["E"]])

    dt = np.diff(t)
    col["balance_residual"] = _balance_residual(t, col["E"], col["balance_phi"])
    col["acc_theta_vx2"] = _cumtrapz(col["int_theta_vx2"], t)
    col["acc_uxx"] = _cumtrapz(col["int_r_uxx2"], t)
    col["acc_thxx"] = _cumtrapz(col["int_r_thxx2"], t)
    col["acc_ut"] = np.concatenate(([0.0], np.cumsum(col["int_ut2"][1:] * dt)))
    col["acc_tht"] = np.concatenate(([0.0], np.cumsum(col["int_tht2"][1:] * dt)))
    tv = sum(np.abs(np.diff(col[c])) for c in ("grad2_v", "grad2_u", "grad2_theta"))
    col["acc_tv_grad"] = np.concatenate(([0.0], np.cumsum(tv)))

    _, _, v_repr, v_actual = _representation(t, probe, params)
    col["repr_residual"] = np.abs(v_repr - v_actual) / np.abs(v_actual)
    return DiagnosticsSeries(data=np.column_stack([col[c] for c in SERIES_COLUMNS]))
