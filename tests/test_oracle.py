import numpy as np
import pytest

from sphgas import PhysParams, build_mass_grid
from sphgas.oracle import (
    FIXTURE_CASES,
    ConvergenceReport,
    ManufacturedCase,
    convergence_order,
    fit_order,
    manufactured_source,
    solve_case,
)


@pytest.fixture(scope="module")
def case():
    return ManufacturedCase()


@pytest.fixture(scope="module")
def params():
    return PhysParams()


class TestCaseDefinition:
    def test_fields_compatible_at_boundaries(self, case, params):
        g = build_mass_grid(case.x_max, 177)
        v, u, th = case.fields(g.x_edges, 0.4)
        assert u[0] == 0.0 and u[-1] == 0.0
        assert v[0] == 1.0 and v[-1] == 1.0
        assert th[0] == 1.0 and th[-1] == 1.0

    def test_positive_fields(self, case):
        x = np.linspace(0, case.x_max, 2000)
        for t in (0.0, 1.0, 2.5):
            v, _, th = case.fields(x, t)
            assert np.all(v > 0) and np.all(th > 0)

    def test_window_clearance_enforced(self):
        with pytest.raises(ValueError):
            ManufacturedCase(window_lo=1.0)  # 1 < 20 * 0.2
        with pytest.raises(ValueError):
            ManufacturedCase(amp_v=1.5)

    def test_antiderivative_consistent(self, case):
        """The coded antiderivative of the window matches dense quadrature."""
        x = np.linspace(0.0, case.x_max, 200001)
        value, _, _, antideriv = case._shape(x)
        dense = np.concatenate(([0.0], np.cumsum(
            0.5 * (value[1:] + value[:-1]) * np.diff(x)
        )))
        probe = np.array([2.0, 4.5, 5.0, 7.0, 10.0])
        idx = np.searchsorted(x, probe)
        assert np.allclose(antideriv[idx], dense[idx], atol=1e-10)


class TestWindow:
    def test_evaluator_matches_written_out_formulas(self, case):
        """The one evaluator gives the window terms bit for bit as each is
        written out on its own."""
        a, b, w = case.window_lo, case.window_hi, case.width

        def logcosh(z):
            z = np.abs(z)
            return z + np.log1p(np.exp(-2.0 * z)) - np.log(2.0)

        x = np.concatenate((np.linspace(0.0, case.x_max, 1001), [4.0, 5.0, 6.0]))
        za, zb = (x - a) / w, (x - b) / w
        value, dx, dxx, antideriv = case._shape(x)
        assert np.array_equal(value, 0.5 * (np.tanh((x - a) / w) - np.tanh((x - b) / w)))
        assert np.array_equal(dx, 0.5 * (1.0 / np.cosh(za) ** 2 - 1.0 / np.cosh(zb) ** 2) / w)
        assert np.array_equal(
            dxx, (np.tanh(zb) * (1.0 / np.cosh(zb) ** 2) - np.tanh(za) * (1.0 / np.cosh(za) ** 2)) / w**2
        )
        assert np.array_equal(
            antideriv,
            0.5 * w * ((logcosh(za) - logcosh(zb)) - (logcosh(-a / w) - logcosh(-b / w))),
        )


class TestManufacturedSource:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_grid_bound_hook_equals_fresh_source(self, case, n):
        """The hook's once-per-grid window changes no bit of the sources, at
        t = 0, a generic t and a midpoint half-step t."""
        p = PhysParams(n=n)
        g = build_mass_grid(case.x_max, 177)
        hook = case.source_fn(p, g)
        t, dt = 0.37, 1.6e-3
        for tt in (0.0, t, t + 0.5 * dt):
            s_v, s_u, s_t = hook(tt)
            at_centers = manufactured_source(case, p, g.cell_centers, tt)
            at_edges = manufactured_source(case, p, g.x_edges, tt)
            assert np.array_equal(s_v, at_centers[0])
            assert np.array_equal(s_u, at_edges[1])
            assert np.array_equal(s_t, at_centers[2])

    def test_equilibrium_case_sources_vanish(self, params):
        eq = FIXTURE_CASES["equilibrium"]
        x = np.linspace(0, eq.x_max, 301)
        for t in (0.0, 0.8):
            sv, su, st = manufactured_source(eq, params, x, t)
            assert np.all(sv == 0.0)
            assert np.all(su == 0.0)
            assert np.all(st == 0.0)

    def test_static_volume_case_momentum_source(self, params):
        """Time-independent v, u = 0, theta = 1: only the momentum equation
        is forced, by S_u = r^{n-1} R (1/v)_x written out by hand."""
        case = ManufacturedCase(amp_u=0.0, amp_theta=0.0, freq_v=0.0)
        x = np.linspace(0.1, case.x_max - 0.1, 401)
        sv, su, st = manufactured_source(case, params, x, 0.7)
        assert np.max(np.abs(sv)) == 0.0
        assert np.max(np.abs(st)) < 1e-13

        value, dx, _, antideriv = case._shape(x)
        v = 1.0 + case.amp_v * value
        v_x = case.amp_v * dx
        n = params.n
        r = (1.0 + n * (x + case.amp_v * antideriv)) ** (1.0 / n)
        expect = -r ** (n - 1) * params.R * v_x / v**2  # = -r^{n-1} sigma_x
        assert np.allclose(su, expect, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_sources_match_symbolic_oracle(self, n):
        """Full symbolic differentiation of the same closed-form fields."""
        sympy = pytest.importorskip("sympy")
        p = PhysParams(mu=0.8, lam=0.3, R=1.1, cv=1.4, kappa=0.9, n=n)
        case = ManufacturedCase()
        x, t = sympy.symbols("x t", positive=True)

        def window(xx):
            a, b, w = case.window_lo, case.window_hi, case.width
            return (sympy.tanh((xx - a) / w) - sympy.tanh((xx - b) / w)) / 2

        def anti(xx):
            a, b, w = case.window_lo, case.window_hi, case.width
            lc = lambda z: sympy.log(sympy.cosh(z))
            return (w / 2) * ((lc((xx - a) / w) - lc((xx - b) / w))
                              - (lc(-a / w) - lc(-b / w)))

        v = 1 + case.amp_v * sympy.cos(case.freq_v * t) * window(x)
        u = case.amp_u * sympy.cos(case.freq_u * t) * window(x)
        th = 1 + case.amp_theta * sympy.cos(case.freq_theta * t) * window(x)
        integral_v = x + case.amp_v * sympy.cos(case.freq_v * t) * anti(x)
        r = (1 + n * integral_v) ** sympy.Rational(1, n)

        beta, R, cv, kappa, mu = p.beta, p.R, p.cv, p.kappa, p.mu
        A = sympy.diff(r ** (n - 1) * u, x)
        sigma = (beta * A - R * th) / v
        s_v = sympy.diff(v, t) - A
        s_u = sympy.diff(u, t) - r ** (n - 1) * sympy.diff(sigma, x)
        s_th = (cv * sympy.diff(th, t)
                - kappa * sympy.diff(r ** (2 * (n - 1)) * sympy.diff(th, x) / v, x)
                - A * sigma
                + 2 * mu * (n - 1) * sympy.diff(r ** (n - 2) * u**2, x))
        fns = [sympy.lambdify((x, t), expr, "numpy") for expr in (s_v, s_u, s_th)]

        xs = np.linspace(3.2, 6.8, 41)  # inside the window, tanh unsaturated
        for tt in (0.0, 0.37, 1.9):
            got = manufactured_source(case, p, xs, tt)
            for g_arr, fn in zip(got, fns):
                want = fn(xs, tt)
                assert np.allclose(g_arr, want, rtol=1e-9, atol=1e-11)


class TestSolveCase:
    def test_single_step_accuracy(self, case, params):
        """One sourced step stays close to the exact fields (the order claims
        live in the convergence study)."""
        _, _, err = solve_case(case, params, 200, 1e-3, 1e-3)
        assert max(err.values()) < 5e-4

    def test_error_decreases_with_resolution(self, case, params):
        _, _, coarse = solve_case(case, params, 64, 4e-3, 0.2)
        _, _, fine = solve_case(case, params, 128, 1e-3, 0.2)
        for f in ("v", "u", "theta"):
            assert fine[f] < coarse[f]


class TestFitOrder:
    def test_clean_second_order(self):
        h = np.array([0.4, 0.2, 0.1])
        order, floor, mono = fit_order(h, 3.0 * h**2)
        assert order == pytest.approx(2.0, abs=1e-12)
        assert not floor and mono

    def test_floor_detection(self):
        order, floor, mono = fit_order([0.4, 0.2, 0.1], [1e-15, 2e-15, 1.5e-15])
        assert floor and np.isnan(order)

    def test_non_monotone_flagged_not_fitted(self):
        order, floor, mono = fit_order([0.4, 0.2, 0.1], [1e-3, 2e-3, 5e-4])
        assert not mono and np.isnan(order) and not floor


class TestConvergenceOrder:
    def test_spatial_window(self, case, params):
        rep = convergence_order(case, params, [64, 128, 256], t_end=0.25, mode="spatial")
        for f in ("v", "u", "theta"):
            assert rep.monotone[f]
            assert 1.8 <= rep.orders[f] <= 2.2

    def test_temporal_window(self, case, params):
        rep = convergence_order(
            case, params, [0.0032, 0.0016, 0.0008], t_end=0.25,
            mode="temporal", n_cells_fixed=512,
        )
        for f in ("v", "u", "theta"):
            assert rep.monotone[f]
            assert 0.9 <= rep.orders[f] <= 1.1

    @pytest.mark.parametrize("n", [2, 3])
    def test_sourced_midpoint_beats_euler(self, case, n):
        """The sourced midpoint scheme: errors fall with dt for every field
        and end below the first-order scheme's.  No order window is set."""
        params = PhysParams(n=n)
        reps = {
            order: convergence_order(case, params, [0.02, 0.01, 0.005], mode="temporal",
                                     n_cells_fixed=128, scheme_order=order)
            for order in (1, 2)
        }
        for f in ("v", "u", "theta"):
            assert reps[2].monotone[f] and not reps[2].at_floor[f]
            assert reps[2].errors[f][-1] < reps[1].errors[f][-1]

    def test_equilibrium_reports_floor(self, params):
        rep = convergence_order(
            FIXTURE_CASES["equilibrium"], params, [32, 64, 128],
            t_end=0.1, mode="spatial",
        )
        assert all(rep.at_floor.values())
        table = rep.format_table()
        assert "floor" in table

    def test_requires_three_resolutions(self, case, params):
        with pytest.raises(ValueError):
            convergence_order(case, params, [32, 64])

    def test_unknown_mode_rejected(self, case, params):
        with pytest.raises(ValueError, match="unknown mode 'spectral'"):
            convergence_order(case, params, [32, 64, 128], mode="spectral")

    def test_report_table_format(self, case, params):
        rep = ConvergenceReport(
            mode="spatial",
            scales=np.array([0.2, 0.1]),
            errors={"v": np.array([1e-2, 2.5e-3])},
            orders={"v": 2.0},
            at_floor={"v": False},
            monotone={"v": True},
        )
        text = rep.format_table()
        assert "mode=spatial" in text and "2.000" in text
