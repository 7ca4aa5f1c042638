import numpy as np
import pytest

from sphgas import (
    InitProfile,
    PhysParams,
    PositivityError,
    RunConfig,
    build_mass_grid,
    make_initial_data,
    run,
    select_dt,
    step,
)
from scipy.linalg import LinAlgError

from sphgas import radius_from_volume
from sphgas.solver import _solve_tridiag
from sphgas.state import div_ru

from conftest import smooth_test_state


def equilibrium_state(x_max=10.0, n_cells=100, n=2):
    g = build_mass_grid(x_max, n_cells)
    return make_initial_data(g, InitProfile(kind="equilibrium"), PhysParams(n=n))


class TestSelectDt:
    def test_cfl_scaling_linear(self, params):
        st = equilibrium_state()
        c1 = RunConfig(t_end=1.0, cfl_fraction=0.2)
        c2 = RunConfig(t_end=1.0, cfl_fraction=0.4)
        assert select_dt(st, params, c2) == pytest.approx(
            2.0 * select_dt(st, params, c1), rel=1e-14
        )

    def test_equilibrium_formula(self, params):
        """Independent evaluation of the documented step formula."""
        st = equilibrium_state(x_max=10.0, n_cells=100)
        cfg = RunConfig(t_end=1.0, cfl_fraction=0.3)
        dx = 10.0 / 100
        r_outer = np.sqrt(1.0 + 2.0 * 10.0)  # n = 2 at the far edge
        sound = np.sqrt(params.R * (1.0 + params.R / params.cv))
        expect = 0.3 * dx / (r_outer * sound)
        assert select_dt(st, params, cfg) == pytest.approx(expect, rel=1e-12)

    def test_hot_gas_halves_step(self, params):
        st = equilibrium_state()
        hot = st.with_fields(theta=4.0 * st.theta)
        hot = hot.with_fields(theta=np.where(np.arange(100) == 99, 1.0, hot.theta))
        cfg = RunConfig(t_end=1.0)
        # quadrupled temperature doubles the sound scale
        ratio = select_dt(st, params, cfg) / select_dt(st.with_fields(theta=4.0 * st.theta), params, cfg)
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_cap_by_dt_initial(self, params):
        st = equilibrium_state()
        cfg = RunConfig(t_end=1.0, dt_initial=1e-6)
        assert select_dt(st, params, cfg) == 1e-6


class TestStep:
    def test_equilibrium_fixed_point_exact(self, params):
        st = equilibrium_state()
        new, report = step(st, params, 0.01)
        assert np.array_equal(new.v, st.v)
        assert np.array_equal(new.u, st.u)
        assert np.array_equal(new.theta, st.theta)
        assert report.rejections == 0

    def test_equilibrium_fixed_point_scheme2(self, params):
        st = equilibrium_state()
        cfg = RunConfig(t_end=1.0, scheme_order=2)
        new, _ = step(st, params, 0.01, cfg)
        assert np.array_equal(new.v, st.v)
        assert np.array_equal(new.theta, st.theta)

    def test_volume_grows_with_positive_divergence(self, params):
        """One step moves v exactly by dt * (r^{n-1} u_new)_x."""
        g = build_mass_grid(10.0, 100)
        xe = g.x_edges
        u = 0.05 * np.exp(-((xe - 5.0) ** 2))
        u[0] = 0.0
        u[-1] = 0.0
        st = make_initial_data(g, InitProfile(kind="equilibrium"), params).with_fields(u=u)
        new, _ = step(st, params, 1e-3)
        G_new = div_ru(new.with_fields(v=st.v, u=new.u))  # old geometry, new velocity
        dv = new.v - st.v
        inner = slice(0, g.n_cells - 1)  # the pinned last cell is excluded
        assert np.all(np.sign(dv[inner]) == np.sign(np.round(G_new[inner], 12)))

    def test_positivity_rejection_then_abort(self, params):
        """A state pushed far beyond the floors rejects and finally aborts."""
        g = build_mass_grid(4.0, 40)
        xc, xe = g.cell_centers, g.x_edges
        v = np.full(40, 1e-5)
        v[-1] = 1.0
        theta = np.ones(40)
        u = np.zeros(41)
        from sphgas import FlowState

        st = FlowState(grid=g, t=0.0, v=v, u=u, theta=theta, n=2)
        cfg = RunConfig(t_end=1.0, v_floor=1e-3, theta_floor=1e-6, max_rejects=3)
        with pytest.raises(PositivityError):
            step(st, params, 1.0, cfg)

    def test_rejection_recovers_with_smaller_dt(self, params):
        """A too-large step is retried; the report counts the rejections."""
        g = build_mass_grid(10.0, 100)
        xc = g.cell_centers
        theta = 1.0 + 8.0 * np.exp(-((xc - 5.0) ** 2) * 4.0)  # strong pressure kick
        theta[-1] = 1.0
        st = make_initial_data(g, InitProfile(kind="equilibrium"), params).with_fields(theta=theta)
        cfg = RunConfig(t_end=1.0, v_floor=0.9, max_rejects=40)
        new, report = step(st, params, 0.5, cfg)
        assert report.rejections > 0
        assert report.dt < 0.5
        assert np.min(new.v) > 0.9

    def test_rejects_nonpositive_dt(self, params):
        st = equilibrium_state()
        with pytest.raises(ValueError):
            step(st, params, 0.0)


class TestSolverStates:
    """States built by the solver skip revalidation; they must still carry
    the radius of their own v and read-only fields."""

    @staticmethod
    def assert_coherent(st):
        assert np.array_equal(st.r, radius_from_volume(st.grid, st.v, st.n))
        for a in (st.v, st.u, st.theta, st.r):
            assert not a.flags.writeable

    @pytest.mark.parametrize("order", [1, 2])
    def test_step_state(self, params, order):
        st = smooth_test_state(build_mass_grid(10.0, 100), params.n)
        new, _ = step(st, params, 1e-3, RunConfig(t_end=1.0, scheme_order=order))
        self.assert_coherent(new)

    @pytest.mark.parametrize("order", [1, 2])
    def test_run_snapshots(self, params3, order):
        prof = InitProfile(kind="gaussian_bump", amp_v=0.1, amp_u=0.1,
                           amp_theta=0.1, center=4.0, width=1.0)
        cfg = RunConfig(x_max=10.0, n_cells=60, profile=prof, t_end=0.2,
                        cadence=0.05, scheme_order=order)
        for st in run(cfg, params3).snapshots:
            self.assert_coherent(st)

    def test_tridiagonal_zero_pivot_raises(self):
        off = np.zeros(2)
        with pytest.raises(LinAlgError):
            _solve_tridiag(off, np.array([1.0, 0.0, 1.0]), off, np.ones(3))


class TestRun:
    def test_equilibrium_diagnostics_identically_zero(self, params):
        cfg = RunConfig(x_max=10.0, n_cells=80, t_end=1.0, cadence=0.25)
        res = run(cfg, params)
        s = res.series
        assert np.all(s["E"] == 0.0)
        assert np.all(s["l2_v"] == 0.0)
        assert np.all(s["sup_u"] == 0.0)
        assert res.summary.max_step_rel_change == 0.0

    def test_deterministic(self, params):
        prof = InitProfile(kind="gaussian_bump", amp_v=0.1, amp_u=0.1,
                           amp_theta=0.1, center=4.0, width=1.0)
        cfg = RunConfig(x_max=12.0, n_cells=96, profile=prof, t_end=0.5, cadence=0.1)
        r1 = run(cfg, params)
        r2 = run(cfg, params)
        assert np.array_equal(r1.series.data, r2.series.data)
        assert np.array_equal(r1.snapshots[-1].v, r2.snapshots[-1].v)

    def test_samples_cover_endpoints(self, params):
        cfg = RunConfig(x_max=10.0, n_cells=80, t_end=1.0, cadence=0.3)
        res = run(cfg, params)
        t = res.series["t"]
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(t) > 0)

    def test_radius_shadow_tracks_quadrature(self, params):
        """r integrated by r_t = u stays within O(dt + dx^2) of the canonical
        quadrature radius, and tightens under refinement."""
        prof = InitProfile(kind="gaussian_bump", amp_v=0.1, amp_u=0.1,
                           amp_theta=0.1, center=4.0, width=1.0)
        devs = []
        for n_cells, cfl in ((60, 0.4), (120, 0.2)):
            cfg = RunConfig(x_max=12.0, n_cells=n_cells, profile=prof,
                            t_end=0.5, cadence=0.1, cfl_fraction=cfl)
            devs.append(run(cfg, params).summary.r_shadow_max_dev)
        assert devs[0] < 0.02
        assert devs[1] < 0.6 * devs[0]

    def test_r_floor_and_positivity_tracking(self, params3):
        prof = InitProfile(kind="gaussian_bump", amp_v=-0.3, amp_u=0.1,
                           amp_theta=-0.2, center=3.0, width=0.8)
        cfg = RunConfig(x_max=10.0, n_cells=100, profile=prof, t_end=0.5, cadence=0.1)
        res = run(cfg, params3)
        assert all(np.min(s.r) >= 1.0 for s in res.snapshots)
        assert res.summary.min_v > 0.0
        assert res.summary.min_theta > 0.0

    def test_scheme2_tighter_balance_than_scheme1(self, params):
        """The midpoint variant closes the energy identity at least as well
        as IMEX Euler at the same step."""
        prof = InitProfile(kind="gaussian_bump", amp_v=0.1, amp_u=0.1,
                           amp_theta=0.1, center=4.0, width=1.0)
        resid = {}
        for order in (1, 2):
            cfg = RunConfig(x_max=12.0, n_cells=120, profile=prof, t_end=0.5,
                            cadence=0.01, scheme_order=order)
            resid[order] = run(cfg, params).series["balance_residual"][-1]
        assert resid[2] < resid[1]


class TestSourcedStep:
    def test_zero_sources_change_nothing(self, params):
        """The sourced update with identically zero sources equals the plain
        update on every entry."""
        g = build_mass_grid(10.0, 100)
        st = smooth_test_state(g, params.n)
        cfg = RunConfig(t_end=1.0)

        def zeros(xc, xe, t):
            return np.zeros(xc.size), np.zeros(xe.size), np.zeros(xc.size)

        plain, _ = step(st, params, 1e-3, cfg)
        sourced, _ = step(st, params, 1e-3, cfg, sources=zeros)
        assert np.array_equal(plain.v, sourced.v)
        assert np.array_equal(plain.u, sourced.u)
        assert np.array_equal(plain.theta, sourced.theta)
