import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphgas import (
    FlowState,
    InitProfile,
    PhysParams,
    RunConfig,
    anchor_roots,
    build_mass_grid,
    cutoff_phi,
    make_initial_data,
    norm_report,
    run,
    superlevel_measure,
    viscous_form_gap,
)
from sphgas.diagnostics import (
    _BLOCK_ELEMENTS,
    SERIES_COLUMNS,
    DiagnosticsSeries,
    _integral_linear_exp,
    _interp_at,
    _phi,
    _probe_scalars,
    _representation,
    _sample_columns,
    _stack,
    _unit_integrals,
    evaluate_series,
    quadratic_form,
    superlevel_bound,
)
from sphgas.state import Gradients, discrete_gradients, stress_sigma

from conftest import smooth_test_state


def equilibrium(x_max=10.0, n_cells=100, params=None):
    params = params or PhysParams()
    g = build_mass_grid(x_max, n_cells)
    return make_initial_data(g, InitProfile(kind="equilibrium"), params)


def energy(st, params):
    return norm_report(st, params)["E"]


def dissipation(st, params):
    """The four dissipation integrals of ``st``, in the order of the series."""
    rep = norm_report(st, params)
    return np.array([rep[k] for k in ("D_vu2", "D_ux", "D_divru", "D_thx")])


class TestEnergyFunctional:
    def test_equilibrium_zero(self, params):
        assert energy(equilibrium(), params) == 0.0

    def test_kinetic_slab(self, params):
        """u = c on a block of edges gives the quadrature value of c^2/2."""
        g = build_mass_grid(10.0, 100)
        c = 0.3
        u = np.zeros(101)
        a, b = 20, 40  # edges x=2.0 .. 4.0
        u[a:b + 1] = c
        st = FlowState(grid=g, t=0.0, v=np.ones(100), u=u, theta=np.ones(100), n=params.n)
        # independent sum: cells fully inside carry c^2/2 h, the two boundary
        # cells carry half of that from the average of squares
        h = g.cell_widths[0]
        expect = 0.5 * c**2 * (b - a) * h + 2 * (0.25 * c**2 * h)
        assert energy(st, params) == pytest.approx(expect, rel=1e-13)

    def test_bump_matches_fine_quadrature(self, params):
        """Midpoint quadrature of the continuum profile at 10x resolution."""
        prof = InitProfile(kind="gaussian_bump", amp_v=0.2, amp_u=0.1,
                           amp_theta=0.15, center=4.0, width=1.0)
        g = build_mass_grid(16.0, 160)
        st = make_initial_data(g, prof, params)
        E = energy(st, params)

        gf = build_mass_grid(16.0, 1600)
        xf = gf.cell_centers
        bump = lambda x: np.exp(-(((x - 4.0) / 1.0) ** 2))
        v = 1.0 + 0.2 * bump(xf)
        u = 0.1 * bump(xf)
        th = 1.0 + 0.15 * bump(xf)
        U = (params.R * (v - np.log(v) - 1) + 0.5 * u**2
             + params.cv * (th - np.log(th) - 1))
        E_oracle = np.sum(U * gf.cell_widths)
        assert E == pytest.approx(E_oracle, rel=1e-4)

    def test_nonnegative_on_random_states(self, grid, params):
        rng = np.random.default_rng(2)
        for _ in range(25):
            st = FlowState(
                grid=grid, t=0.0,
                v=rng.uniform(0.2, 3.0, grid.n_cells),
                u=np.concatenate(([0.0], rng.normal(0, 1, grid.n_cells))),
                theta=rng.uniform(0.2, 3.0, grid.n_cells),
                n=params.n,
            )
            assert energy(st, params) >= 0.0


class TestDissipationRate:
    def test_equilibrium_all_zero(self, params):
        assert np.array_equal(dissipation(equilibrium(), params), np.zeros(4))

    def test_pure_temperature_gradient(self, grid, params):
        st = smooth_test_state(grid, params.n)
        st = replace(st, u=np.zeros(grid.n_cells + 1))
        d = dissipation(st, params)
        assert d[0] == 0.0 and d[1] == 0.0 and d[2] == 0.0
        assert d[3] > 0.0

    def test_all_nonnegative(self, grid, params):
        st = smooth_test_state(grid, params.n)
        assert np.all(dissipation(st, params) >= 0.0)

    def test_matches_fine_quadrature(self, params):
        """Fourth component against a 10x-resolution quadrature of the
        continuum fields (the others are analogous center sums)."""
        def theta_of(x):
            return 1.0 + 0.1 * np.cos(0.7 * x) * np.exp(-((x - 4.0) ** 2) / 2.0)

        def v_of(x):
            return 1.0 + 0.1 * np.exp(-((x - 4.0) ** 2))

        vals = []
        for n_cells in (100, 1000):
            g = build_mass_grid(10.0, n_cells)
            st = smooth_test_state(g, 2)
            st = replace(st, u=np.zeros(n_cells + 1))
            vals.append(dissipation(st, params)[3])
        assert vals[0] == pytest.approx(vals[1], rel=2e-3)


class TestEnergyBalance:
    def test_equilibrium_residual_zero(self, params):
        states = [replace(equilibrium(), t=t) for t in (0.0, 0.5, 1.0)]
        series = evaluate_series(states, params, RunConfig(x_max=10.0, n_cells=100))
        assert np.all(series["balance_residual"] == 0.0)

    def test_matches_series_column_exactly(self, bump_history):
        """The run's column is evaluated again from its states bit for bit,
        and matches a trapezoid rule over the per-state reports."""
        res, config, p, states = bump_history
        column = res.series["balance_residual"]
        assert np.array_equal(evaluate_series(states, p, config)["balance_residual"], column)
        reps = [norm_report(st, p) for st in states]
        E = np.array([r["E"] for r in reps])
        phi = np.array([r["balance_phi"] for r in reps])
        expect = abs(E[-1] + np.trapezoid(phi, [st.t for st in states]) - E[0])
        assert column[-1] == pytest.approx(expect, rel=1e-12, abs=1e-15)

    def test_residual_converges_under_refinement(self, params):
        """Halving dx and dt shrinks the defect by at least 1.7x."""
        prof = InitProfile(kind="gaussian_bump", amp_v=0.1, amp_u=0.1,
                           amp_theta=0.1, center=4.0, width=1.0)
        resid = []
        for n_cells, cfl in ((80, 0.4), (160, 0.2)):
            cfg = RunConfig(x_max=16.0, n_cells=n_cells, profile=prof,
                            t_end=1.0, cadence=1e-9, cfl_fraction=cfl)
            res = run(cfg, params)
            resid.append(res.series["balance_residual"][-1])
        assert resid[0] / resid[1] >= 1.7

    def test_sourced_run_balances_against_source_work(self, params):
        """With manufactured sources the defect equals the source work pumped
        through the energy multipliers, up to discretization error."""
        from sphgas.oracle import ManufacturedCase, manufactured_source
        from sphgas.solver import _march

        case = ManufacturedCase()
        gaps = []
        for n_cells, dt in ((100, 2e-3), (200, 5e-4)):
            g = build_mass_grid(case.x_max, n_cells)
            state = case.exact_state(g, params, 0.0)
            cfg = RunConfig(x_max=case.x_max, n_cells=n_cells, t_end=0.2, cadence=1.0)
            hook = case.source_fn(params, g, dt)
            states = [state] + [s for s, _ in _march(state, params, cfg, dt=dt, sources=hook)]
            resid = evaluate_series(states, params, cfg)["balance_residual"][-1]

            work = []
            for s in states:
                sv, su, stheta = manufactured_source(case, params, g.cell_centers, g.x_edges, s.t)
                su_c = 0.5 * (su[:-1] * s.u[:-1] + su[1:] * s.u[1:])
                w = (params.R * (1 - 1 / s.v) * sv + su_c + (1 - 1 / s.theta) * stheta)
                work.append(np.sum(w * g.cell_widths))
            t = np.array([s.t for s in states])
            W = np.sum(0.5 * (np.array(work)[1:] + np.array(work)[:-1]) * np.diff(t))
            gaps.append(abs(resid - abs(W)))
        assert gaps[0] < 0.02 * abs(W) + 1e-8
        assert gaps[1] < 0.6 * gaps[0]

    @staticmethod
    def _closed_form_errors(key, integrand):
        """|norm_report[key] - exact| on the exact states of
        ManufacturedCase(amp_theta=0.8, amp_u=0.5) at n = 3, t = 0 and
        N = 100, 200, 400, with ``exact`` the quad integral over [0, x_max]
        of integrand(v, u, u_x, theta, theta_x, r, params); and ``exact``."""
        from scipy.integrate import quad

        from sphgas.oracle import ManufacturedCase

        case, p, t = ManufacturedCase(amp_theta=0.8, amp_u=0.5), PhysParams(n=3), 0.0

        def f(x):
            v, _, u, u_x, th, th_x, r = case._bundle(x, case._shape(x), t, p.n)
            return integrand(v, u, u_x, th, th_x, r, p)

        lo, hi = case.window_lo, case.window_hi
        cuts = [0.0, lo - 1.0, lo, lo + 1.0, hi - 1.0, hi, hi + 1.0, case.x_max]
        exact = sum(quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                    for a, b in zip(cuts, cuts[1:]))
        errors = []
        for n_cells in (100, 200, 400):
            g = build_mass_grid(case.x_max, n_cells, "uniform")
            errors.append(abs(norm_report(case.exact_state(g, p, t), p)[key] - exact))
        return np.array(errors), exact

    def test_bracket_converges_to_its_closed_form_at_n3(self):
        """balance_phi of exact manufactured states converges at second order
        to the integral of beta A^2/(v theta) - 2 mu (n-1) (r^(n-2) u^2)_x/theta
        + kappa r^(2(n-1)) theta_x^2/(v theta^2), with A = (r^(n-1) u)_x and
        r_x = v r^(1-n).  At n = 2 a one-window case integrates the mu term to
        0, since u and theta are both functions of psi; at n = 3 with theta far
        from 1 it does not, so its sign is seen."""

        def bracket(v, u, u_x, th, th_x, r, p):
            n = p.n
            A = r ** (n - 1) * u_x + (n - 1) * v * u / r
            ru2_x = (n - 2) * v * u**2 / r**2 + 2.0 * r ** (n - 2) * u * u_x
            return (p.beta * A**2 / (v * th) - 2.0 * p.mu * (n - 1) * ru2_x / th
                    + p.kappa * r ** (2 * (n - 1)) * th_x**2 / (v * th**2))

        errors, _ = self._closed_form_errors("balance_phi", bracket)
        orders = np.log2(errors[:-1] / errors[1:])
        assert np.all((1.8 <= orders) & (orders <= 2.2)), (errors, orders)

    @pytest.mark.parametrize("key, integrand", [
        ("D_vu2", lambda v, u, u_x, th, th_x, r, p: v * u**2 / (r**2 * th)),
        ("D_ux", lambda v, u, u_x, th, th_x, r, p: r ** (2 * (p.n - 1)) * u_x**2 / (v * th)),
        ("D_divru", lambda v, u, u_x, th, th_x, r, p:
            (r ** (p.n - 1) * u_x + (p.n - 1) * v * u / r) ** 2 / (v * th)),
        ("D_thx", lambda v, u, u_x, th, th_x, r, p:
            r ** (2 * (p.n - 1)) * th_x**2 / (v * th**2)),
    ])
    def test_dissipation_converges_to_its_closed_form_at_n3(self, key, integrand):
        """Each dissipation integral of exact manufactured states converges
        at second order to the integral of its integrand, with
        A = (r^(n-1) u)_x = r^(n-1) u_x + (n-1) v u / r."""
        errors, _ = self._closed_form_errors(key, integrand)
        orders = np.log2(errors[:-1] / errors[1:])
        assert np.all((1.8 <= orders) & (orders <= 2.2)), (errors, orders)

    def test_energy_matches_its_closed_form_at_n3(self):
        """E of exact manufactured states is a midpoint sum of a smooth
        integrand that vanishes with all its derivatives at both ends, so it
        converges faster than any power: no order is fitted, its relative
        error is below 1e-8 at every N."""

        def density(v, u, u_x, th, th_x, r, p):
            return p.R * (v - np.log(v) - 1.0) + 0.5 * u**2 + p.cv * (th - np.log(th) - 1.0)

        errors, exact = self._closed_form_errors("E", density)
        assert np.all(errors / exact < 1e-8), (errors, exact)


class TestViscousFormGap:
    def test_reference_value_n2(self):
        p = PhysParams(mu=1.0, lam=0.0, n=2)
        assert viscous_form_gap(p) == pytest.approx(2.0, abs=1e-12)

    def test_zero_at_origin(self, params):
        assert quadratic_form(0.0, 0.0, params) == 0.0

    @given(
        mu=st.floats(0.1, 10.0),
        lam_frac=st.floats(-0.99, 3.0),
        n=st.integers(2, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_positive_and_matches_eigen_oracle(self, mu, lam_frac, n):
        """C_min is the smallest eigenvalue of the form's matrix and stays
        positive for every admissible viscosity pair."""
        lam = lam_frac * 2.0 * mu / n  # admissible iff lam_frac > -1
        p = PhysParams(mu=mu, lam=lam, n=n)
        c = viscous_form_gap(p)
        assert c > 0.0
        m = np.array([
            [p.beta, (n - 1) * p.lam],
            [(n - 1) * p.lam, (n - 1) * (p.beta * (n - 1) - 2 * p.mu * (n - 2))],
        ])
        assert c == pytest.approx(np.linalg.eigvalsh(m)[0], rel=1e-10, abs=1e-12)

    def test_pointwise_bound_random_samples(self):
        p = PhysParams(mu=1.0, lam=0.0, n=3)
        c = viscous_form_gap(p)
        rng = np.random.default_rng(9)
        a, b = rng.normal(0, 3, 10_000), rng.normal(0, 3, 10_000)
        q = quadratic_form(a, b, p)
        assert np.all(q >= c * (a**2 + b**2) - 1e-10)

    def test_pointwise_gap_on_states(self, grid, params):
        st = smooth_test_state(grid, params.n)
        assert norm_report(st, params)["b6_gap_min"] >= -1e-12


def _unit_averages(grid):
    """The unit-interval averages of a cell field, as the series forms them."""
    integrals = _unit_integrals(grid)
    return lambda f: 1.0 + integrals(f - 1.0)


def _overlap_averages(grid):
    """Reference: the unit-interval averages from each cell's overlap width
    with [k, k+1], dotted with the field and divided by the total width."""
    xe = grid.x_edges
    weights = [
        np.clip(np.minimum(xe[1:], k + 1.0) - np.maximum(xe[:-1], float(k)), 0.0, None)
        for k in range(int(grid.x_max + 1e-12))
    ]
    return lambda f: np.array([np.dot(w, f) for w in weights]) / [w.sum() for w in weights]


class TestCellAverages:
    def test_constant_field(self, params):
        st = equilibrium()
        v = np.full(100, 1.7)
        v[-1] = 1.7
        st = FlowState(grid=st.grid, t=0.0, v=v, u=st.u, theta=st.theta, n=2)
        vbar = _unit_averages(st.grid)(st.v)
        assert vbar[3] == pytest.approx(1.7, rel=1e-14)

    def test_equilibrium_averages(self, params):
        st = equilibrium()
        averages = _unit_averages(st.grid)
        assert np.all(averages(st.v) == 1.0) and np.all(averages(st.theta) == 1.0)

    def test_bump_matches_fine_quadrature(self, params):
        prof = InitProfile(kind="gaussian_bump", amp_v=0.2, amp_theta=0.1,
                           center=4.0, width=1.0)
        coarse = make_initial_data(build_mass_grid(10.0, 100), prof, params)
        fine = make_initial_data(build_mass_grid(10.0, 1000), prof, params)
        avg_c, avg_f = _unit_averages(coarse.grid), _unit_averages(fine.grid)
        for field in ("v", "theta"):
            c = avg_c(getattr(coarse, field))
            f = avg_f(getattr(fine, field))
            assert c[3:5] == pytest.approx(f[3:5], rel=1e-4)

    def test_interval_outside_grid(self, params):
        """Only the unit intervals inside [0, x_max] are averaged."""
        for x_max in (5.0, 5.5):
            st = equilibrium(x_max=x_max, n_cells=50)
            assert len(_unit_averages(st.grid)(st.v)) == 5

    @pytest.mark.parametrize("x_max, n_cells, grading", [
        (40.0, 800, "uniform"), (40.0, 800, 1.004), (5.5, 50, "uniform"),
    ])
    def test_matches_overlap_weights(self, x_max, n_cells, grading):
        """Differences of the running integral equal the overlap-weighted
        averages to rounding, for one field and for a block of them."""
        g = build_mass_grid(x_max, n_cells, grading)
        rng = np.random.default_rng(7)
        fields_ = rng.uniform(0.5, 2.0, (3, n_cells))
        block = _unit_averages(g)(fields_)
        reference = _overlap_averages(g)
        for row, f in zip(block, fields_):
            assert np.array_equal(_unit_averages(g)(f), row)
            assert np.max(np.abs(row / reference(f) - 1.0)) <= 1e-14

    def test_building_holds_no_weight_table(self):
        """The function holds a few numbers per unit interval: under 1 MB at
        N = X_max = 4000, where a weight per cell and interval is 128 MB."""
        g = build_mass_grid(4000.0, 4000)
        tracemalloc.start()
        try:
            integrals = _unit_integrals(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert integrals(np.ones(4000)).shape == (4000,)


class TestAnchorRoots:
    def test_zero_bound_degenerate(self):
        assert anchor_roots(0.0) == (1.0, 1.0)

    def test_known_upper_root(self):
        a1, a2 = anchor_roots(1.0 - np.log(2.0))
        assert a2 == pytest.approx(2.0, abs=1e-10)
        # lower root frozen from an independent bisection oracle
        assert a1 == pytest.approx(0.40637573995995985, abs=1e-10)

    def test_roots_satisfy_equation(self):
        for c in (0.01, 0.5, 3.0):
            a1, a2 = anchor_roots(c)
            assert a1 - np.log(a1) - 1 == pytest.approx(c, abs=1e-9)
            assert a2 - np.log(a2) - 1 == pytest.approx(c, abs=1e-9)
            assert 0 < a1 < 1 < a2

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            anchor_roots(-0.1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lower_root_below_the_double_range(self):
        """Past cbar ~ 745 the lower root underflows; it is returned as 0."""
        a1, a2 = anchor_roots(6.3e5)
        assert a1 == 0.0
        assert a2 - np.log(a2) - 1 == pytest.approx(6.3e5, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_bound(self):
        """E(0)/R overflows for a finite E(0) when R is tiny; the roots
        are then the ends of (0, inf), without an invalid operation."""
        assert anchor_roots(np.inf) == (0.0, np.inf)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [32.5, 40.0, 100.0, 744.0, 8.9e307])
    def test_large_bound(self, c):
        """From cbar = 32.5 phi(y) - cbar rounds to 0 at y = exp(-(cbar + 1)),
        and 2 cbar + 2 overflows above 9e307: neither end is evaluated, the
        lower root stays at or below its bound exp(-cbar) and the upper root
        on its far side from 1."""
        a1, a2 = anchor_roots(c)
        assert 0.0 <= a1 <= np.exp(-c)
        assert _phi(a2) >= c
        assert _phi(a2) == pytest.approx(c, rel=1e-12)

    @given(e1=st.floats(-12.0, np.log10(1.7e308)), e2=st.floats(-12.0, np.log10(1.7e308)))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_bound(self, e1, e2):
        """Bounds drawn log-uniform over [1e-12, 1.7e308]: each pair of roots
        brackets 1 from the far side of its exact roots, and the roots move
        apart as the bound grows (to within the accuracy of either root)."""
        lo, hi = sorted((10.0**e1, 10.0**e2))
        roots = [anchor_roots(c) for c in (lo, hi)]
        for c, (a1, a2) in zip((lo, hi), roots):
            assert 0.0 <= a1 <= 1.0 <= a2 < np.inf
            assert a1 == 0.0 or _phi(a1) > c
            assert _phi(a2) >= c
        if hi - lo < 1e-9:
            return
        (a1_lo, a2_lo), (a1_hi, a2_hi) = roots
        assert a1_hi <= a1_lo + 1e-9
        assert a2_hi >= a2_lo - max(1e-9, 2.0 * np.spacing(a2_lo))


class TestSuperlevel:
    def test_equilibrium_empty(self, params):
        assert superlevel_measure(equilibrium(), 2.0) == 0.0

    def test_indicator_slab(self, params):
        g = build_mass_grid(10.0, 100)
        theta = np.ones(100)
        theta[30:50] = 3.0  # mass width 2.0
        st = FlowState(grid=g, t=0.0, v=np.ones(100), u=np.zeros(101), theta=theta, n=2)
        assert superlevel_measure(st, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_block_gives_one_measure_per_row(self, params):
        g = build_mass_grid(10.0, 100)
        states = []
        for lo, hi in ((30, 50), (0, 7), (60, 100)):
            theta = np.ones(100)
            theta[lo:hi] = 3.0
            states.append(FlowState(grid=g, t=0.0, v=np.ones(100), u=np.zeros(101),
                                    theta=theta, n=2))
        block = superlevel_measure(FlowState._trusted(g, *_stack(states), 2), 2.0)
        assert list(block) == [superlevel_measure(st, 2.0) for st in states]
        assert block == pytest.approx([2.0, 0.7, 4.0], rel=1e-14)

    def test_threshold_validation(self, params):
        with pytest.raises(ValueError):
            superlevel_measure(equilibrium(), 1.0)
        with pytest.raises(ValueError):
            superlevel_bound(1.0, 0.5, params)
        # above 1, but phi(a) rounds to 0, which the bound would divide by
        for a in (1.0000000000000002, 1.00000001):
            with pytest.raises(ValueError, match="phi"):
                superlevel_bound(1.0, a, params)
        assert 0.0 < superlevel_bound(1.0, 1.0000001, params) < np.inf

    def test_energy_bound_holds_exactly(self, grid, params):
        rng = np.random.default_rng(4)
        for _ in range(20):
            st = FlowState(
                grid=grid, t=0.0,
                v=rng.uniform(0.3, 2.0, grid.n_cells),
                u=np.concatenate(([0.0], rng.normal(0, 0.5, grid.n_cells))),
                theta=rng.uniform(0.3, 4.0, grid.n_cells),
                n=params.n,
            )
            a = 1.5
            E = energy(st, params)
            assert superlevel_measure(st, a) <= superlevel_bound(E, a, params) + 1e-12

    def test_bound_equals_its_closed_form_at_cv_other_than_one(self):
        """E / (cv (a - ln a - 1)), written out here, for the function and
        for the omega_bound column of a run, at cv = 2.5."""
        params, a = PhysParams(cv=2.5), 1.5
        E = np.array([0.0, 0.04, 1.0, 7.5])
        np.testing.assert_allclose(superlevel_bound(E, a, params),
                                   E / (2.5 * (a - np.log(a) - 1.0)), rtol=1e-15)
        profile = InitProfile(kind="gaussian_bump", amp_v=0.1, amp_u=0.1, amp_theta=0.3)
        config = RunConfig(x_max=12.0, n_cells=48, profile=profile, t_end=0.2, superlevel_a=a)
        series = run(config, params).series
        assert series["E"][0] > 0.0
        np.testing.assert_allclose(series["omega_bound"],
                                   series["E"] / (2.5 * (a - np.log(a) - 1.0)), rtol=1e-15)


class TestCutoffPhi:
    def test_plateau(self):
        assert cutoff_phi(3.5, 4) == 1.0

    def test_ramp_midpoint(self):
        assert cutoff_phi(4.5, 4) == 0.5

    def test_beyond_support(self):
        assert cutoff_phi(6.0, 4) == 0.0

    def test_vectorised(self):
        x = np.array([0.0, 4.0, 4.25, 5.0, 7.0])
        assert np.array_equal(cutoff_phi(x, 4), [1.0, 1.0, 0.75, 0.0, 0.0])

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            cutoff_phi(1.0, 0)


def _probe_representation(states, params, k=4, x_probe=3.0):
    """The times, ln B, ln Y, the represented v and the solved v at the
    probe, from the probe scalars of each state."""
    probe = _probe_scalars(states[0], params, k, x_probe)
    times = np.array([st.t for st in states])
    ln_B, S, W, theta, v = np.array([probe(st) for st in states]).T
    ln_Y, v_repr = _representation(times, ln_B, S, W, theta, params)
    return times, ln_B, ln_Y, v_repr, v


class TestLocalRepresentation:
    def test_equilibrium_exact(self, params):
        cfg = RunConfig(x_max=10.0, n_cells=100, t_end=2.0, cadence=0.2)
        states = []
        res = run(cfg, params, on_sample=states.append)
        assert np.max(res.series["repr_residual"]) <= 1e-12
        times, ln_B, ln_Y, _, _ = _probe_representation(states, params)
        # Y decays like exp(-R t / beta) on the unit interval at equilibrium
        expect_Y = np.exp(-params.R * times / params.beta)
        assert np.allclose(np.exp(ln_Y), expect_Y, rtol=1e-12)
        assert np.allclose(np.exp(ln_B), 1.0, rtol=1e-14)

    def test_log_y_falls_linearly_under_a_constant_w(self):
        """With S = 0 and a constant W > 0 at n = 3, ln Y(t) =
        -(n-1) W (t - t0) / beta: the tail's u^2 term can only draw Y down."""
        p = PhysParams(n=3)
        times = np.array([0.5, 0.75, 1.5, 2.0, 3.25])
        ones, W = np.ones_like(times), 0.4
        ln_Y, _ = _representation(times, 0.0 * ones, 0.0 * ones, W * ones, ones, p)
        expect = -(p.n - 1) * W * (times - times[0]) / p.beta
        assert np.allclose(ln_Y, expect, rtol=1e-14, atol=0.0)

    def test_initial_time_recovers_v0(self, bump_history):
        _, _, p, states = bump_history
        v_repr = _probe_representation(states, p)[3]
        xc = states[0].grid.cell_centers
        assert v_repr[0] == pytest.approx(np.interp(3.0, xc, states[0].v), rel=1e-13)

    def test_probe_validation(self, bump_history):
        _, _, p, states = bump_history
        with pytest.raises(ValueError):
            _probe_scalars(states[0], p, 4, 4.5)  # probe right of k
        with pytest.raises(ValueError):
            _probe_scalars(states[0], p, 40, 38.5)  # interval outside

    def test_probe_scalars_keep_the_per_state_formulas(self, bump_history):
        """theta, v, ln B and W at the probe carry the bits of np.interp and
        of np.trapezoid over [x_probe, edges right of it]; S is the overlap-
        weighted integral of sigma over [k, k+1] to rounding.  A block of the
        samples gives each state's scalars in its row."""
        _, config, p, states = bump_history
        k, x = config.probe_k, config.probe_x
        g = states[0].grid
        xe, xc = g.x_edges, g.cell_centers
        phi = cutoff_phi(xe, k)
        idx = int(np.searchsorted(xe, x, side="right"))
        w_unit = np.clip(np.minimum(xe[1:], k + 1.0) - np.maximum(xe[:-1], float(k)), 0.0, None)

        def tail(f):
            return np.trapezoid(np.concatenate(([np.interp(x, xe, f)], f[idx:])),
                                np.concatenate(([x], xe[idx:])))

        probe = _probe_scalars(states[0], p, k, x)
        ru0 = states[0].r ** (1 - p.n) * states[0].u
        ln_v0 = np.log(np.interp(x, xc, states[0].v))
        block = probe(FlowState._trusted(g, *_stack(states), p.n))
        for i, st in enumerate(states):
            ln_B, S, W, theta, v = probe(st)
            assert [row[i] for row in block] == [ln_B, S, W, theta, v]
            assert ln_B == ln_v0 + tail(phi * (ru0 - st.r ** (1 - p.n) * st.u)) / p.beta
            assert W == tail(phi * st.r ** (-p.n) * st.u**2)
            assert theta == np.interp(x, xc, st.theta) and v == np.interp(x, xc, st.v)
            assert S == pytest.approx(np.dot(w_unit, stress_sigma(st, p)), rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, 0.05, 0.3, 0.35, 0.95, 1.0, 2.0])
    def test_interpolation_at_a_point_is_np_interp(self, x):
        """Left of the nodes, on a node, between two and right of them."""
        nodes = np.array([0.1, 0.3, 0.7, 1.0])
        f = np.array([[2.0, -1.0, 0.25, 3.0], [1.0, 1.5, 1.0 / 3.0, -7.0]])
        at_x = _interp_at(nodes, x)
        for row in f:
            assert at_x(row) == np.interp(x, nodes, row)
        assert np.array_equal(at_x(f), [np.interp(x, nodes, row) for row in f])

    def test_residual_shrinks_under_refinement(self, params):
        prof = InitProfile(kind="gaussian_bump", amp_v=0.15, amp_u=0.15,
                           amp_theta=0.15, center=4.0, width=1.0)
        resid = []
        for n_cells, cfl, cad in ((80, 0.4, 0.05), (160, 0.2, 0.025)):
            cfg = RunConfig(x_max=16.0, n_cells=n_cells, profile=prof,
                            t_end=1.5, cadence=cad, cfl_fraction=cfl)
            resid.append(np.max(run(cfg, params).series["repr_residual"]))
        assert resid[1] < 0.6 * resid[0]

    @pytest.mark.parametrize("history", ["bump_run", "every_step"])
    def test_linear_recurrence_matches_quadratic_reference(self, history, bump_history):
        """The correction carried forward sample by sample equals the one
        integrated again from t = 0 at every sample."""
        if history == "bump_run":
            _, _, p, states = bump_history
        else:
            p = PhysParams()
            prof = InitProfile(kind="gaussian_bump", amp_v=0.15, amp_u=0.15,
                               amp_theta=0.15, center=4.0, width=1.0)
            states = []
            run(RunConfig(x_max=8.0, n_cells=40, profile=prof, t_end=4.0, cadence=1e-9),
                p, on_sample=states.append)
            assert len(states) > 200
        times, ln_B, ln_Y, v_repr, _ = _probe_representation(states, p)
        xc = states[0].grid.cell_centers
        theta = np.array([np.interp(3.0, xc, s.theta) for s in states])
        ln_Z = ln_B + ln_Y
        dt = np.diff(times)
        reference = np.empty(len(states))
        reference[0] = np.exp(ln_Z[0])
        for i in range(1, len(states)):
            ell = ln_Z[: i + 1] - ln_Z[i]
            segs = _integral_linear_exp(theta[:i], theta[1 : i + 1], ell[:-1], ell[1:], dt[:i])
            reference[i] = np.exp(ln_Z[i]) + (p.R / p.beta) * np.sum(segs)
        assert np.max(np.abs(v_repr - reference)) <= 1e-13

    @pytest.mark.parametrize("ell0, ell1", [(2600.0, 0.0), (720.0, 700.0), (-3.0, 2600.0)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_segment_integral_at_the_ends_of_the_double_range(self, ell0, ell1):
        """exp(-z) overflows or exp(-ell0) underflows on their own; the
        segment integral stays finite and matches a fine trapezoid rule."""
        h0, h1, dtau = np.array([2.0]), np.array([0.5]), np.array([0.1])
        s = np.linspace(0.0, dtau[0], 2_000_001)
        f = (h0 + (h1 - h0) * s / dtau) * np.exp(-(ell0 + (ell1 - ell0) * s / dtau))
        seg = _integral_linear_exp(h0, h1, np.array([ell0]), ell1, dtau)
        assert seg[0] == pytest.approx(np.trapezoid(f, s), rel=1e-6)

    def test_segment_integral_evaluates_each_form_only_where_kept(self):
        """The small-z series is not formed at z = 1e200, where its powers
        overflow, and the square of that z overflows to inf without a
        warning: the integral of exp(-z s / dtau) is dtau / z there."""
        ones, dtau = np.ones(2), np.array([0.5, 0.5])
        seg = _integral_linear_exp(ones, ones, np.zeros(2), np.array([1e-8, 1e200]), dtau)
        assert seg[0] == pytest.approx(0.5 * (1.0 - 0.5e-8), rel=1e-15)
        assert seg[1] == 0.5 / 1e200


class TestNormReport:
    def test_equilibrium_all_zero(self, params):
        rep = norm_report(equilibrium(), params)
        for key in ("l2_v", "l2_u", "l2_theta", "l2_rvx", "l2_rux", "l2_rthx",
                    "sup_v", "sup_u", "sup_theta", "D_vu2", "D_ux", "D_thx"):
            assert rep[key] == 0.0
        assert rep["min_v"] == rep["max_v"] == 1.0
        assert rep["min_theta"] == rep["max_theta"] == 1.0

    def test_l2_of_smoothed_step(self, params):
        """L2 norm of a v-disturbance against a 10x quadrature oracle."""
        g = build_mass_grid(10.0, 100)
        shape = lambda x: 0.1 * np.exp(-((x - 5.0) ** 2) * 2.0)
        st = FlowState(grid=g, t=0.0, v=1.0 + shape(g.cell_centers),
                       u=np.zeros(101), theta=np.ones(100), n=2)
        rep = norm_report(st, params)
        gf = build_mass_grid(10.0, 1000)
        oracle = np.sqrt(np.sum(shape(gf.cell_centers) ** 2 * gf.cell_widths))
        assert rep["l2_v"] == pytest.approx(oracle, rel=1e-4)

    def test_f_invariant_under_temperature_scaling(self, grid, params):
        """f depends on theta only through (ln theta)_x, so scaling theta by
        a constant leaves it unchanged (exactly for binary scalings)."""
        st = smooth_test_state(grid, params.n)
        f0 = norm_report(st, params)["D_thx"]
        f2 = norm_report(replace(st, theta=2.0 * st.theta), params)["D_thx"]
        assert f2 == f0
        rng = np.random.default_rng(1)
        c = rng.uniform(0.3, 3.0)
        fc = norm_report(replace(st, theta=c * st.theta), params)["D_thx"]
        assert fc == pytest.approx(f0, rel=1e-12)

    def test_time_quotients_need_prev(self, grid, params):
        st = smooth_test_state(grid, params.n)
        assert norm_report(st, params)["int_ut2"] == 0.0
        prev = replace(st, t=-0.1)
        rep = norm_report(st, params, prev=prev)
        assert rep["int_ut2"] == 0.0  # same fields, zero quotient


def _block_rows(states):
    return max(1, _BLOCK_ELEMENTS // (states[0].grid.n_cells + 1))


def _synthetic_history(n, count):
    """``count`` distinct smooth states at increasing times on one grid."""
    g = build_mass_grid(10.0, 120)
    return [
        replace(smooth_test_state(g, n, amp=0.1 + 0.002 * k), t=0.05 * k)
        for k in range(count)
    ]


class TestSampleBlocks:
    """The series evaluates the per-state kernels over blocks of samples;
    every row must equal the per-state value exactly, across block edges."""

    @pytest.mark.parametrize("length", ["1", "B", "B+1", "B+2", "all"])
    @pytest.mark.parametrize("history", ["bump_run", "n3"])
    def test_columns_equal_norm_report_row_by_row(self, bump_history, history, length):
        if history == "bump_run":
            _, config, params, states = bump_history
        else:
            _, config, _, _ = bump_history
            params = PhysParams(n=3)
            states = _synthetic_history(3, 40)
        B = _block_rows(states)
        m = {"1": 1, "B": B, "B+1": B + 1, "B+2": B + 2, "all": len(states)}[length]
        assert m <= len(states)
        states = states[:m]
        col = _sample_columns(states, params, config)
        series = evaluate_series(states, params, config)
        for i, (prev, st) in enumerate(zip([None] + states[:-1], states)):
            # the sample again, last in a short history that keeps the first
            # sample (the probe reads it), so in a block of other rows
            short = states[:1] + states[max(i - 1, 1) : i + 1]
            again = {k: v[-1] for k, v in _sample_columns(short, params, config).items()}
            assert set(again) == set(col)
            assert norm_report(st, params, prev).items() <= again.items(), i
            for key, val in again.items():
                assert col[key][i] == val, (key, i)
                if key in SERIES_COLUMNS:
                    assert series[key][i] == val, (key, i)
            assert series["omega_bound"][i] == superlevel_bound(
                col["E"][i], config.superlevel_a, params
            ), i
        # a generator is read once, in order, for the same series bit for bit
        pulled = []

        def stream():
            for st in states:
                pulled.append(st)
                yield st

        gen = stream()
        streamed = evaluate_series(gen, params, config)
        assert next(gen, None) is None
        assert len(pulled) == m and all(a is b for a, b in zip(pulled, states))
        assert streamed.data.shape == series.data.shape
        assert streamed.data.tobytes() == series.data.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_gradients_of_a_stacked_block_equal_per_state_bundles(self, n):
        a, b = _synthetic_history(n, 2)
        bundle = discrete_gradients(FlowState._trusted(a.grid, *_stack([a, b]), n))
        for row, st in enumerate((a, b)):
            single = discrete_gradients(st)
            for f in fields(Gradients):
                assert np.array_equal(getattr(bundle, f.name)[row], getattr(single, f.name))

    def test_no_samples_rejected(self, bump_history):
        _, config, params, _ = bump_history
        with pytest.raises(ValueError, match="no samples to evaluate"):
            evaluate_series([], params, config)

    def test_samples_on_different_grids_rejected(self, bump_history):
        _, config, params, states = bump_history
        other = make_initial_data(build_mass_grid(16.0, 80), InitProfile(), params)
        with pytest.raises(ValueError, match="different grids"):
            evaluate_series([states[0], other], params, config)

    def test_samples_of_another_dimension_rejected(self, bump_history):
        """States of n = 2 with parameters of n = 3 would mix the two
        dimensions in one row; every sample is checked, the first and one
        in a later block."""
        _, config, params, states = bump_history
        with pytest.raises(ValueError, match="dimension n=2, parameters of n=3"):
            evaluate_series(states, replace(params, n=3), config)
        assert len(states) > _block_rows(states) + 1
        with pytest.raises(ValueError, match="dimension n=3, parameters of n=2"):
            evaluate_series(states[:-1] + [replace(states[-1], n=3)], params, config)

    @pytest.mark.parametrize("time", ["repeated", "nan"])
    def test_times_that_do_not_increase_rejected(self, bump_history, time):
        """The times of a block, the sample before it included, must
        increase strictly: the first new sample of the second block here
        repeats the time of the last of the first, or is NaN."""
        _, config, params, states = bump_history
        B = _block_rows(states)
        t = states[B - 1].t if time == "repeated" else np.nan
        bad = states[:B] + [replace(states[B], t=t)] + states[B + 1:]
        with pytest.raises(ValueError, match=f"sample time {t} does not follow"):
            evaluate_series(bad, params, config)


class TestSeriesInvariants:
    def test_sup_norm_strictly_decays(self, bump_run):
        res, _, _ = bump_run
        s = res.series
        sup = np.maximum.reduce([s["sup_v"], s["sup_u"], s["sup_theta"]])
        assert sup[-1] < sup[0]

    def test_energy_monotone_up_to_residual(self, bump_run):
        res, _, _ = bump_run
        E = res.series["E"]
        bal = res.series["balance_residual"]
        assert np.all(np.diff(E) <= bal[1:] + bal[:-1] + 1e-12)

    def test_accumulators_monotone(self, bump_run):
        res, _, _ = bump_run
        for c in ("acc_theta_vx2", "acc_uxx", "acc_thxx", "acc_ut", "acc_tht",
                  "acc_tv_grad"):
            assert np.all(np.diff(res.series[c]) >= -1e-14)

    def test_superlevel_bound_every_sample(self, bump_run):
        res, _, _ = bump_run
        assert np.all(
            res.series["omega_measure"] <= res.series["omega_bound"] + 1e-12
        )

    def test_anchor_sandwich_every_sample(self, bump_run):
        res, _, _ = bump_run
        e0 = float(res.series["E"][0])
        a1, a2 = anchor_roots(e0)
        s = res.series
        assert np.all(s["vbar_min"] >= a1 - 1e-8)
        assert np.all(s["vbar_max"] <= a2 + 1e-8)
        assert np.all(s["thbar_min"] >= a1 - 1e-8)
        assert np.all(s["thbar_max"] <= a2 + 1e-8)

    def test_pointwise_form_gap_every_sample(self, bump_run):
        res, _, _ = bump_run
        assert np.all(res.series["b6_gap_min"] >= -1e-12)

    def test_series_csv_round_trip(self, bump_run, tmp_path):
        res, _, _ = bump_run
        path = tmp_path / "series.csv"
        res.series.to_csv(path)
        loaded = DiagnosticsSeries.from_csv(path)
        nan_mask = np.isnan(res.series.data)
        assert np.array_equal(loaded.data[~nan_mask], res.series.data[~nan_mask])
        assert np.array_equal(np.isnan(loaded.data), nan_mask)


WIDTH = len(SERIES_COLUMNS)
# the header of a file written while f and g had columns of their own
_FG = SERIES_COLUMNS.index("omega_measure")
OLD_HEADER = SERIES_COLUMNS[:_FG] + ["f_thx", "g_u"] + SERIES_COLUMNS[_FG:]


class TestSeriesCsv:
    """A malformed diagnostics.csv raises ValueError naming the file."""

    def write(self, tmp_path, header, rows):
        path = tmp_path / "diagnostics.csv"
        path.write_text("\n".join([",".join(header), *rows]) + "\n")
        return path

    def row(self, value=0.5):
        return ",".join([repr(value)] * len(SERIES_COLUMNS))

    @pytest.mark.parametrize("shape", [(3, WIDTH - 1), (3, WIDTH + 1), (WIDTH,)])
    def test_data_of_the_wrong_width_rejected(self, shape):
        with pytest.raises(ValueError, match="does not match the documented columns"):
            DiagnosticsSeries(np.zeros(shape))

    @pytest.mark.parametrize("blank", ["", "  "], ids=["empty", "whitespace"])
    def test_blank_lines_refused(self, tmp_path, blank):
        """to_csv writes no blank line, so a file with one, empty or
        whitespace-only, is not read."""
        path = self.write(tmp_path, SERIES_COLUMNS, [self.row(1.5), blank, self.row(-2.0)])
        with pytest.raises(ValueError) as err:
            DiagnosticsSeries.from_csv(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("header, rows, message", [
        (SERIES_COLUMNS, ["1,2,3"], f"a row of 3 values, not {WIDTH}"),
        (SERIES_COLUMNS, ["0.5," * WIDTH + "0.5"], f"a row of {WIDTH + 1} values, not {WIDTH}"),
        (SERIES_COLUMNS, ["x" + ",0.5" * (WIDTH - 1)], "could not convert"),
        # an empty body is refused before numpy's reader, which would warn
        pytest.param(SERIES_COLUMNS, [], "no rows", marks=pytest.mark.filterwarnings("error")),
        pytest.param(SERIES_COLUMNS, ["", " "], "a blank line",
                     marks=pytest.mark.filterwarnings("error")),
        (SERIES_COLUMNS[::-1], ["0.5" + ",0.5" * (WIDTH - 1)], "unexpected series columns"),
        ([], [], "unexpected series columns"),
        (OLD_HEADER, ["0.5" + ",0.5" * (len(OLD_HEADER) - 1)], "unexpected series columns"),
        (SERIES_COLUMNS, ["0.5" + ",0.5" * (WIDTH - 1), "1,2,3"], f"from {WIDTH} to 3"),
        # to_csv ends every row with a newline, and writes nothing after the last
        (SERIES_COLUMNS, ["0.5" + ",0.5" * (WIDTH - 1), ""], "a blank line or no final newline"),
        ([*SERIES_COLUMNS[:-1], SERIES_COLUMNS[-1] + " "], ["0.5" + ",0.5" * (WIDTH - 1)],
         "unexpected series columns"),
    ])
    def test_malformed_file_rejected(self, tmp_path, header, rows, message):
        path = self.write(tmp_path, header, rows)
        with pytest.raises(ValueError, match=message) as err:
            DiagnosticsSeries.from_csv(path)
        assert str(path) in str(err.value)
