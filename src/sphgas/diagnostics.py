"""Runtime functionals of the flow and the identities they must satisfy.

Everything here is a pure function of sampled states.  The series produced by
:func:`evaluate_series` contains, per sample time:

* the entropy-type energy E = int R phi(v) + u^2/2 + cv phi(theta) (:func:`_phi`),
* the four nonnegative dissipation integrals D_vu2 = int v u^2/(r^2 theta),
  D_ux = int r^(2(n-1)) u_x^2/(v theta), D_divru = int (r^(n-1)u)_x^2/(v theta)
  and D_thx = int r^(2(n-1)) theta_x^2/(v theta^2); the paper's weighted
  functionals are f(t) = D_thx and g(t) = D_vu2 + D_ux,
* the running defect of the exact energy-dissipation identity
  d/dt int U + int [beta (r^(n-1)u)_x^2/(v theta)
  - 2 mu (n-1) (r^(n-2)u^2)_x/theta + kappa r^(2(n-1)) theta_x^2/(v theta^2)] = 0
  (the boundary flux vanishes under u(0)=0, theta_x(0)=0 and the far field),
* L2 and sup norms of (v-1, u, theta-1) and weighted gradient norms,
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

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .grid import MassGrid, PhysParams, running_integral
from .state import FlowState, Gradients, _diff, _mean, discrete_gradients, stress_sigma

__all__ = [
    "DiagnosticsSeries",
    "SERIES_COLUMNS",
    "viscous_form_gap",
    "quadratic_form",
    "anchor_roots",
    "superlevel_measure",
    "superlevel_bound",
    "cutoff_phi",
    "norm_report",
    "evaluate_series",
]


# ---------------------------------------------------------------------------
# pointwise building blocks
#
# Every kernel below runs along the last axis: one FlowState has 1-D fields,
# a block of samples (a FlowState too) one sample per row of each field.

def _cumtrapz(f, t):
    """Running trapezoid integral of the samples ``f`` over the times ``t``,
    starting from 0 at t[0]."""
    return np.concatenate(([0.0], np.cumsum(_mean(f) * np.diff(t))))


def _phi(y):
    """The paper's convex phi(y) = y - ln y - 1 >= 0, zero only at y = 1."""
    return y - np.log(y) - 1.0


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


def _form_gap(params: PhysParams, gr: Gradients):
    """min over centers of Q(a, b) - C_min (a^2 + b^2), from the state's
    gradient bundle ``gr``; nonnegative up to floating-point rounding."""
    a = gr.r_pow_ux
    b = gr.geom_vu / (params.n - 1)
    gap = quadratic_form(a, b, params) - viscous_form_gap(params) * (a**2 + b**2)
    return gap.min(axis=-1)


# ---------------------------------------------------------------------------
# Jensen anchors and superlevel sets

def _unit_integrals(grid: MassGrid):
    """The function taking a cell field to its midpoint-quadrature integrals
    over the unit mass intervals [k, k+1] inside the grid, k = 0, 1, ...,
    along the last axis: differences of its running integral read at the
    integers, whose cells and offsets are found once per grid."""
    xe = grid.x_edges
    ints = np.arange(int(grid.x_max + 1e-12) + 1, dtype=float)
    cell = np.minimum(np.searchsorted(xe, ints, side="right") - 1, grid.n_cells - 1)
    offset = ints - xe[cell]

    def integrals(f):
        return np.diff(running_integral(grid, f)[..., cell] + f[..., cell] * offset, axis=-1)

    return integrals


_ANCHOR_TOL = 1e-12  # absolute tolerance of the roots in anchor_roots


def anchor_roots(cbar: float) -> tuple[float, float]:
    """The two roots alpha1 <= 1 <= alpha2 of phi(y) = cbar; 0 and inf for an
    infinite bound.  Each is bisected to absolute tolerance :data:`_ANCHOR_TOL`
    between y = 1, where phi < cbar, and an outer end where phi > cbar is known
    unevaluated: 0 for alpha1, cbar + 2 + ln(1 + cbar) for alpha2.  The outer
    end is returned: alpha1 is never above its exact root, alpha2 never below."""
    if cbar < 0:
        raise ValueError(f"the bound must be nonnegative, got {cbar}")
    if cbar == 0.0:
        return 1.0, 1.0
    if cbar == np.inf:  # no bisection: its midpoints would be inf - inf
        return 0.0, np.inf

    def bisect(outside):
        inside = 1.0
        for _ in range(200):
            if abs(outside - inside) <= _ANCHOR_TOL:
                break
            mid = inside + 0.5 * (outside - inside)
            if _phi(mid) > cbar:
                outside = mid
            else:
                inside = mid
        return float(outside)

    return bisect(0.0), bisect(cbar + 2.0 + np.log1p(cbar))


def _threshold(a: float) -> float:
    """The superlevel threshold a: finite, above 1, and with phi(a), the bound's
    divisor, positive, which rounding can break up to 1 + 1.5e-8 (ValueError otherwise)."""
    if not (1.0 < a < np.inf and _phi(a) > 0.0):
        raise ValueError(f"superlevel threshold must be finite with phi(a) > 0 (a > 1), got {a!r}")
    return a


def superlevel_measure(state, a: float):
    """Total width of cells whose temperature exceeds the threshold a > 1,
    along the last axis (one per row for a block of samples)."""
    return (state.grid.cell_widths * (state.theta > _threshold(a))).sum(axis=-1)


def superlevel_bound(energy, a: float, params: PhysParams):
    """Explicit energy bound E / (cv phi(a)) on the superlevel measure,
    elementwise for an array of energies."""
    return energy / (params.cv * _phi(_threshold(a)))


# ---------------------------------------------------------------------------
# local representation of the specific volume

def cutoff_phi(x, k: int):
    """Piecewise-linear localizer: 1 below k, decaying to 0 on [k, k+1]."""
    if int(k) != k or k < 1:
        raise ValueError(f"cut-off level must be an integer >= 1, got {k}")
    x = np.asarray(x, dtype=float)
    return np.clip(k + 1.0 - x, 0.0, 1.0) if x.ndim else float(np.clip(k + 1.0 - x, 0.0, 1.0))


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
    # each form sees z only where it is kept, and a harmless stand-in elsewhere
    zs, z_safe = np.where(small, z, 0.0), np.where(small | fold, 1.0, z)
    em = np.exp(-z_safe)
    a0 = np.where(small, 1.0 - zs / 2 + zs**2 / 6 - zs**3 / 24, -np.expm1(-z_safe) / z_safe)
    a1 = np.where(small, 0.5 - zs / 3 + zs**2 / 8 - zs**3 / 30,
                  (1.0 - (1.0 + z_safe) * em) / _square(z_safe))
    out = dtau * np.exp(-ell0) * (h0 * a0 + (h1 - h0) * a1)
    if fold.any():
        h0, h1, ell0, ell1, dtau, z = (
            np.broadcast_to(a, fold.shape)[fold] for a in (h0, h1, ell0, ell1, dtau, z)
        )
        e0, e1 = np.exp(-ell0), np.exp(-ell1)
        out[fold] = dtau * (h0 * (e0 - e1) / z + (h1 - h0) * (e0 - (1.0 + z) * e1) / _square(z))
    return out


def _square(z):
    """z**2, inf without a warning past |z| = 1.3e154, where a quotient by it is 0."""
    with np.errstate(over="ignore"):
        return z**2


def _interp_at(nodes, x: float):
    """The function taking a field on ``nodes`` to its linear interpolant at
    x, along the last axis, by np.interp's own arithmetic: the end value
    outside the nodes, the node value on a node, and
    slope * (x - x_j) + f_j between x_j and x_(j+1)."""
    j = int(np.searchsorted(nodes, x, side="right")) - 1
    if j < 0 or j == nodes.size - 1 or nodes[j] == x:
        j = max(j, 0)
        return lambda f: f[..., j]
    gap, offset = nodes[j + 1] - nodes[j], x - nodes[j]
    return lambda f: (f[..., j + 1] - f[..., j]) / gap * offset + f[..., j]


def _check_probe(k, x_probe, x_max):
    """Raise ValueError unless [k, k+1] lies in [0, x_max] and max(k-2, 0) < x_probe < k."""
    if not (k >= 1 and k + 1 <= x_max + 1e-12):
        raise ValueError(f"cut-off interval [{k}, {k + 1}] outside the grid [0, {x_max}]")
    if not (max(k - 2, 0.0) < x_probe < k):
        raise ValueError(
            f"probe {x_probe} must lie in ({max(k - 2, 0)}, {k}) for cut-off level {k}"
        )


def _probe_scalars(first, params: PhysParams, k: int, x_probe: float):
    """The function taking a state of ``first``'s history, or a block of its
    samples, to its five probe scalars (one per row for a block): ln B, S
    (the integral of sigma over [k, k+1]), W (the tail integral of
    phi r^-n u^2), and theta and v at the probe point.

    The tail integrals, trapezoid rules over the edges right of the probe
    point, depend on it through the localizer; they are evaluated at
    ``x_probe`` throughout (Y is really Y(x_probe, t)).
    """
    g = first.grid
    n = params.n
    _check_probe(k, x_probe, g.x_max)
    xe = g.x_edges
    # the edges from the last one left of the probe point on
    tail = slice(int(np.searchsorted(xe, x_probe, side="right")) - 1, None)
    nodes = np.concatenate(([x_probe], xe[tail][1:]))
    edge_at_probe = _interp_at(xe[tail], x_probe)
    center_at_probe = _interp_at(g.cell_centers, x_probe)
    unit = _unit_integrals(g)
    phi = cutoff_phi(xe[tail], k)
    ru0 = (first.r ** (1 - n) * first.u)[tail]
    ln_v0 = np.log(center_at_probe(first.v))

    def tail_integral(f):  # f on the edges of ``tail``
        f = np.concatenate((edge_at_probe(f)[..., None], f[..., 1:]), axis=-1)
        return np.trapezoid(f, nodes, axis=-1)

    def scalars(st):
        r, u = st.r[..., tail], st.u[..., tail]
        return (
            ln_v0 + tail_integral(phi * (ru0 - r ** (1 - n) * u)) / params.beta,
            unit(stress_sigma(st, params))[..., k],
            tail_integral(phi * r ** (-n) * u**2),
            center_at_probe(st.theta),
            center_at_probe(st.v),
        )

    return scalars


def _representation(times, ln_B, S, W, theta_probe, params: PhysParams):
    """ln Y and the represented v at the probe point, from the sample times
    and the first four probe columns (see :func:`_probe_scalars`).

    With Z = B Y, the represented v is Z(t_i) + (R/beta) c_i, where c_i is the
    integral over [0, t_i] of theta(s) Z(t_i)/Z(s) at the probe.  Each segment
    [t_j, t_{j+1}] is integrated once, exactly for linear theta and ln Z, with
    its exponent measured from the right end; the correction is then carried
    forward by c_0 = 0 and c_i = (Z_i/Z_{i-1}) c_{i-1} + seg_{i-1}, so the cost
    is linear in the number of samples.
    """
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
    return ln_Y, v_repr


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


def _report(state, params: PhysParams, prev) -> dict:
    """The body of :func:`norm_report`, along the last axis: scalars for one
    state, one entry per row for a block of samples, with ``prev`` the state
    or rows one sample earlier."""
    g = state.grid
    h, he = g.cell_widths, g.edge_gaps
    v, th = state.v, state.theta
    gr = discrete_gradients(state)
    u2 = _mean(state.u**2)  # u^2 averaged onto centers, so it stays nonnegative
    p = 2 * (params.n - 1)
    w_centers, w_edges = gr.r_centers**p, state.r[..., 1:-1] ** p  # r^(2(n-1))

    def integral(f, weights=h):
        return (f * weights).sum(axis=-1)

    # the four nonnegative dissipation integrals
    d_vu2 = integral(v * u2 / (gr.r_centers**2 * th))
    d_ux = integral(w_centers * gr.u_x**2 / (v * th))
    d_divru = integral(gr.div_ru**2 / (v * th))
    # on the native interior-edge values of theta_x, with the center gaps as weights
    d_thx = integral(w_edges * (_diff(th) / he) ** 2 / (_mean(v) * _mean(th) ** 2), he)
    out = {
        "E": integral(params.R * _phi(v) + 0.5 * u2 + params.cv * _phi(th)),
        "D_vu2": d_vu2,
        "D_ux": d_ux,
        "D_divru": d_divru,
        "D_thx": d_thx,
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
        "grad2_v": integral(gr.v_x**2),
        "grad2_u": integral(gr.u_x**2),
        "grad2_theta": integral(gr.theta_x**2),
        # the three-term dissipation bracket of the exact energy identity
        "balance_phi": params.beta * d_divru
        - 2.0 * params.mu * (params.n - 1) * integral(gr.div_ru2 / th)
        + params.kappa * d_thx,
        "b6_gap_min": _form_gap(params, gr),
        # second-derivative integrands (standard three-point stencils)
        "int_r_uxx2": integral(w_edges * _second_derivative(g.x_edges, state.u) ** 2, he),
        "int_r_thxx2": integral(
            w_centers[..., 1:-1] * _second_derivative(g.cell_centers, th) ** 2, h[1:-1]
        ),
        "int_theta_vx2": integral((1.0 + th) * gr.v_x**2),
    }
    dtau = np.asarray(state.t - prev.t)[..., None]
    # a quotient squared past the float range is inf in acc_ut or acc_tht: series_finite fails
    with np.errstate(over="ignore"):
        out["int_ut2"] = integral(_mean(((state.u - prev.u) / dtau) ** 2))
        out["int_tht2"] = integral(((th - prev.theta) / dtau) ** 2)
    return out


def _before(state: FlowState) -> FlowState:
    """A copy of ``state`` at t = -inf, against which its difference
    quotients are 0 / inf = 0."""
    return FlowState._trusted(state.grid, -np.inf, state.v, state.u, state.theta, state.r, state.n)


def norm_report(state: FlowState, params: PhysParams, prev: FlowState | None = None) -> dict:
    """Instantaneous functionals of one state, with difference-quotient
    integrals against ``prev`` (0 without it)."""
    prev = _before(state) if prev is None else prev
    return {key: float(val) for key, val in _report(state, params, prev).items()}


# Rows per block: rows * (N + 1) stays near this, which bounds the temporaries.
_BLOCK_ELEMENTS = 4096


_PROBE_COLUMNS = ("probe_ln_B", "probe_S", "probe_W", "probe_theta", "probe_v")


def _sample_columns(samples, params: PhysParams, config) -> dict:
    """Every per-sample column, from one pass over ``samples``: the
    :func:`norm_report` entries (each sample against the one before it),
    the time, the superlevel measure, the extremes of the unit-interval
    averages (Jensen anchors) and the probe scalars.

    The samples are read in batches of up to ``rows``, each stacked with the
    sample before it into a block for :func:`_block_columns`.  Before the
    first sample stands its copy at t = -inf (:func:`_before`), as in
    norm_report without ``prev``.  Only the block being read is held, and
    nothing is evaluated before it is full or the samples end.  The samples must share one grid and the dimension of
    ``params``, their times must increase strictly, and ``config``'s probe
    must fit the grid (ValueError otherwise).
    """
    samples = iter(samples)
    first = next(samples, None)
    if first is None:
        raise ValueError("no samples to evaluate")
    g = first.grid
    rows = max(1, _BLOCK_ELEMENTS // (g.n_cells + 1))
    unit = _unit_integrals(g)
    probe = _probe_scalars(first, params, config.probe_k, config.probe_x)
    reports = []  # one array per block, a row per key
    block = [_before(first), first, *islice(samples, rows - 1)]
    while len(block) > 1:
        keys, report = _block_columns(block, g, params, config, unit, probe)
        reports.append(report)
        block = block[-1:]
        block += islice(samples, rows)
    return dict(zip(keys, np.concatenate(reports, axis=1)))


def _block_columns(block, g, params: PhysParams, config, unit, probe):
    """The keys of the columns and their values, a row per key, for the
    samples of ``block`` after its first, each against the sample before it.
    A function of its own, so that nothing of the block outlives the call."""
    n = params.n
    for st in block:
        if st.grid is not g and not np.array_equal(st.grid.x_edges, g.x_edges):
            raise ValueError("samples on different grids")
        if st.n != n:
            raise ValueError(f"samples of dimension n={st.n}, parameters of n={n}")
    t, v, u, theta, r = _stack(block)
    bad = np.flatnonzero(~(np.diff(t) > 0))  # NaN fails too
    if bad.size:
        raise ValueError(f"sample time {t[bad[0] + 1]} does not follow {t[bad[0]]}")
    state = FlowState._trusted(g, t[1:], v[1:], u[1:], theta[1:], r[1:], n)
    prev = FlowState._trusted(g, t[:-1], v[:-1], u[:-1], theta[:-1], r[:-1], n)
    out = _report(state, params, prev)
    # 1 + the integral of f - 1 keeps equilibrium averages at exactly 1
    vbar, thbar = 1.0 + unit(state.v - 1.0), 1.0 + unit(state.theta - 1.0)
    out.update(
        t=state.t,
        omega_measure=superlevel_measure(state, config.superlevel_a),
        vbar_min=vbar.min(axis=-1),
        vbar_max=vbar.max(axis=-1),
        thbar_min=thbar.min(axis=-1),
        thbar_max=thbar.max(axis=-1),
    )
    out.update(zip(_PROBE_COLUMNS, probe(state)))
    return list(out), np.array(list(out.values()))


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


def _check_series_header(fh, path) -> None:
    """ValueError naming ``path`` unless the next line of ``fh`` is the header
    :meth:`DiagnosticsSeries.to_csv` writes, SERIES_COLUMNS and a newline."""
    if fh.readline() != ",".join(SERIES_COLUMNS) + "\n":
        raise ValueError(f"{path}: unexpected series columns")


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
        """Read a series as :meth:`to_csv` wrote it, rows by numpy's reader;
        any other file (a blank line or no final newline included) raises
        ValueError naming ``path``."""
        with open(path) as fh:
            _check_series_header(fh, path)
            *rows, end = fh.read().split("\n")  # end: what follows the final newline
        if not (rows or end):  # numpy warns of an empty input
            raise ValueError(f"{path}: no rows")
        if end or not all(rows):  # no final newline, or an empty line
            raise ValueError(f"{path}: a blank line or no final newline")
        try:
            data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if data.shape[1] != len(SERIES_COLUMNS):
            raise ValueError(f"{path}: a row of {data.shape[1]} values, not {len(SERIES_COLUMNS)}")
        return cls(data=data)


def evaluate_series(samples, params: PhysParams, config) -> DiagnosticsSeries:
    """Assemble the full diagnostics series from sampled states.

    ``samples`` is any iterable of states on one grid, of the dimension of
    ``params`` and at strictly increasing times (ValueError otherwise), read
    once: the samples are folded in a block at a time as they arrive,
    and only the block being filled is held.  The time integrals (balance
    residual, accumulators and the representation) are then formed over
    whole columns.
    ``config`` provides the superlevel threshold and the representation
    probe, which must fit the grid (ValueError otherwise).
    """
    col = _sample_columns(samples, params, config)
    t = col["t"]
    col["omega_bound"] = superlevel_bound(col["E"], config.superlevel_a, params)

    dt = np.diff(t)
    col["balance_residual"] = np.abs(col["E"] + _cumtrapz(col["balance_phi"], t) - col["E"][0])
    col["acc_theta_vx2"] = _cumtrapz(col["int_theta_vx2"], t)
    col["acc_uxx"] = _cumtrapz(col["int_r_uxx2"], t)
    col["acc_thxx"] = _cumtrapz(col["int_r_thxx2"], t)
    col["acc_ut"] = np.concatenate(([0.0], np.cumsum(col["int_ut2"][1:] * dt)))
    col["acc_tht"] = np.concatenate(([0.0], np.cumsum(col["int_tht2"][1:] * dt)))
    tv = sum(np.abs(np.diff(col[c])) for c in ("grad2_v", "grad2_u", "grad2_theta"))
    col["acc_tv_grad"] = np.concatenate(([0.0], np.cumsum(tv)))

    _, v_repr = _representation(t, *(col[c] for c in _PROBE_COLUMNS[:4]), params)
    v_actual = col["probe_v"]
    col["repr_residual"] = np.abs(v_repr - v_actual) / np.abs(v_actual)
    return DiagnosticsSeries(data=np.column_stack([col[c] for c in SERIES_COLUMNS]))
