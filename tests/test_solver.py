import importlib.machinery
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sphgas import (
    InitProfile,
    PhysParams,
    PositivityError,
    RunConfig,
    SolverAbort,
    build_mass_grid,
    make_initial_data,
    run,
    select_dt,
    step,
)
from numpy.linalg import LinAlgError

from sphgas import radius_from_volume, solver
from sphgas.solver import (
    _MAX_SMALL_STEPS, _march, _solve_tridiag, _substep_imex, _substep_midpoint,
)
from sphgas.state import div_ru, edge_weight

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
        hot = replace(st, theta=4.0 * st.theta)
        hot = replace(hot, theta=np.where(np.arange(100) == 99, 1.0, hot.theta))
        cfg = RunConfig(t_end=1.0)
        # quadrupled temperature doubles the sound scale
        ratio = select_dt(st, params, cfg) / select_dt(
            replace(st, theta=4.0 * st.theta), params, cfg
        )
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
        st = replace(make_initial_data(g, InitProfile(kind="equilibrium"), params), u=u)
        new, _ = step(st, params, 1e-3)
        G_new = div_ru(replace(new, v=st.v, u=new.u))  # old geometry, new velocity
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
        cfg = RunConfig(t_end=1.0, v_floor=1e-3, theta_floor=1e-6)
        with pytest.raises(PositivityError):
            step(st, params, 1.0, cfg)

    def test_rejection_recovers_with_smaller_dt(self, params):
        """A too-large step is retried; the report counts the rejections."""
        g = build_mass_grid(10.0, 100)
        xc = g.cell_centers
        theta = 1.0 + 8.0 * np.exp(-((xc - 5.0) ** 2) * 4.0)  # strong pressure kick
        theta[-1] = 1.0
        st = replace(make_initial_data(g, InitProfile(kind="equilibrium"), params), theta=theta)
        cfg = RunConfig(t_end=1.0, v_floor=0.9)
        new, report = step(st, params, 0.5, cfg)
        assert report.rejections > 0
        assert report.dt < 0.5
        assert np.min(new.v) > 0.9

    def test_rejects_nonpositive_dt(self, params):
        st = equilibrium_state()
        with pytest.raises(ValueError):
            step(st, params, 0.0)

    @pytest.mark.parametrize("amp_v, width, dt, half_ok", [
        (-0.9, 0.5, 0.2, False),  # v leaves the positive cone in the half step
        (0.0, 1.0, 0.1, True),  # the half step passes, the full step does not
    ], ids=["half_step", "full_step"])
    def test_midpoint_rejects_and_halves(self, amp_v, width, dt, half_ok):
        """Both exits of the midpoint substep hand a rejected state to step,
        which retries once at half the step."""
        params = PhysParams(n=2)
        profile = InitProfile(kind="gaussian_bump", amp_v=amp_v, amp_u=-20.0,
                              center=4.0, width=width)
        st = make_initial_data(build_mass_grid(10.0, 16), profile, params)
        half, _ = _substep_imex(st, params, 0.5 * dt)
        assert (half[2] is not None) == half_ok
        assert _substep_midpoint(st, params, dt)[0][2] is None
        _, report = step(st, params, dt, RunConfig(x_max=10, n_cells=16, scheme_order=2))
        assert report.rejections == 1
        assert report.dt == 0.5 * dt


class TestMarch:
    def test_fixed_dt_matches_step_and_clips_last_step(self, params):
        start = smooth_test_state(build_mass_grid(10.0, 40), 2)
        cfg = RunConfig(t_end=0.025, scheme_order=2)
        marched = list(_march(start, params, cfg, dt=0.01))
        assert [report.dt for _, report in marched] == [0.01, 0.01, 0.025 - 0.02]
        assert marched[-1][0].t == cfg.t_end
        state = start
        for new, _ in marched:
            state, _ = step(state, params, min(0.01, cfg.t_end - state.t), cfg)
            for name in ("t", "v", "u", "theta", "r"):
                assert np.array_equal(getattr(new, name), getattr(state, name))

    @pytest.mark.parametrize("dt, dt_initial", [
        (1e-300, 1.0), (0.0, 1.0), (np.nan, 1.0), (None, 1e-300),
    ])
    def test_step_too_small_aborts_before_stepping(self, params, dt, dt_initial):
        """A step of 0 or NaN aborts before it is taken; steps that advance t
        but could not reach t_end in 10^8 steps abort before the
        _MAX_SMALL_STEPS-th of them in a row."""
        st = equilibrium_state(n_cells=16)
        march = _march(st, params, RunConfig(t_end=1.0, dt_initial=dt_initial), dt=dt)
        taken = []
        with pytest.raises(SolverAbort, match="cannot reach t_end"):
            for new, _ in march:
                taken.append(new.t)
        h = dt_initial if dt is None else dt
        assert len(taken) == (_MAX_SMALL_STEPS - 1 if h > 0 else 0)
        assert taken == sorted(set(taken))

    def test_state_of_another_dimension_rejected(self, params):
        """A state of n = 3 with parameters of n = 2 is refused before the
        first step, which would mix the two dimensions."""
        march = _march(equilibrium_state(n_cells=16, n=3), params, RunConfig(t_end=1.0))
        with pytest.raises(ValueError, match="dimension n=3, parameters of n=2"):
            next(march)

    def test_step_lost_in_rounding_aborts_before_stepping(self, params):
        st = replace(equilibrium_state(n_cells=16), t=0.5)
        march = _march(st, params, RunConfig(t_end=1.0), dt=1e-20)
        with pytest.raises(SolverAbort, match="does not advance t"):
            next(march)


_DIMS = pytest.mark.parametrize("n", [2, 3, 4], ids=["n2", "n3", "n4"])
_SCHEMES = pytest.mark.parametrize("order", [1, 2], ids=["scheme1", "scheme2"])


class TestSolverStates:
    """States built by the solver skip revalidation; they must still carry
    the radius of their own v and read-only fields.  The kernel takes r^(n-1)
    and r^(n-2) without a power at n = 2; both shortcuts must be exact."""

    @staticmethod
    def assert_coherent(st):
        assert np.array_equal(st.r, radius_from_volume(st.grid, st.v, st.n))
        assert np.array_equal(edge_weight(st), st.r ** (st.n - 1))
        if st.n == 2:
            assert np.all(st.r ** (st.n - 2) == 1.0)
        for a in (st.v, st.u, st.theta, st.r):
            assert not a.flags.writeable

    @_SCHEMES
    @_DIMS
    def test_step_state(self, n, order):
        st = smooth_test_state(build_mass_grid(10.0, 100), n)
        new, _ = step(st, PhysParams(n=n), 1e-3, RunConfig(t_end=1.0, scheme_order=order))
        self.assert_coherent(new)

    @_SCHEMES
    @_DIMS
    def test_run_snapshots(self, n, order):
        prof = InitProfile(kind="gaussian_bump", amp_v=0.1, amp_u=0.1,
                           amp_theta=0.1, center=4.0, width=1.0)
        cfg = RunConfig(x_max=10.0, n_cells=60, profile=prof, t_end=0.2,
                        cadence=0.05, scheme_order=order)
        states = []
        run(cfg, PhysParams(n=n), on_sample=states.append)
        for st in states:
            self.assert_coherent(st)

    def test_tridiagonal_zero_pivot_raises(self):
        off = np.zeros(2)
        with pytest.raises(LinAlgError):
            _solve_tridiag(off, np.array([1.0, 0.0, 1.0]), off, np.ones(3))


class TestLapackBinding:
    """The solver loads dgtsv from scipy's compiled LAPACK module by its file,
    without importing scipy.linalg."""

    @pytest.mark.parametrize("n", [4, 64, 800])
    def test_solutions_equal_the_public_binding_bit_for_bit(self, n):
        from scipy.linalg.lapack import dgtsv

        rng = np.random.default_rng(n)
        sub, sup = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
        diag = 2.0 + rng.uniform(0.0, 1.0, n)  # diagonally dominant
        rhs = rng.standard_normal(n)
        ours, theirs = solver.dgtsv(sub, diag, sup, rhs), dgtsv(sub, diag, sup, rhs)
        assert ours[4] == theirs[4] == 0
        assert ours[3].tobytes() == theirs[3].tobytes()

    def test_a_loaded_module_is_reused(self, monkeypatch):
        routine = object()
        monkeypatch.setitem(sys.modules, "scipy.linalg._flapack", SimpleNamespace(dgtsv=routine))
        assert solver._load_dgtsv() is routine

    def test_a_missing_extension_file_falls_back_to_the_public_import(self, monkeypatch):
        from scipy.linalg.lapack import dgtsv

        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
        assert solver._load_dgtsv() is dgtsv
        # the direct load, had it run, would have registered the module
        assert "scipy.linalg._flapack" not in sys.modules


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
        s1, s2 = [], []
        r1 = run(cfg, params, on_sample=s1.append)
        r2 = run(cfg, params, on_sample=s2.append)
        assert np.array_equal(r1.series.data, r2.series.data)
        assert np.array_equal(s1[-1].v, s2[-1].v)

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
        states = []
        res = run(cfg, params3, on_sample=states.append)
        assert all(np.min(s.r) >= 1.0 for s in states)
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


def _reference_summary(config, params):
    """The whole-run summary recomputed plainly, step by step, from the
    states that ``_march`` yields."""
    grid = build_mass_grid(config.x_max, config.n_cells, config.grading)
    states = [make_initial_data(grid, config.profile, params)]
    reports = []
    for state, report in _march(states[0], params, config):
        states.append(state)
        reports.append(report)

    def max_abs(a):
        return float(np.max(np.abs(a)))

    def sup_norm(st):
        return max(max_abs(st.v - 1.0), max_abs(st.u), max_abs(st.theta - 1.0))

    r_shadow = states[0].r.copy()
    dev = rel_change = 0.0
    for old, new, report in zip(states, states[1:], reports):
        r_shadow = r_shadow + report.dt * new.u
        r_shadow[0] = 1.0
        dev = max(dev, max_abs(r_shadow - new.r))
        change = max(max_abs(new.v - old.v), max_abs(new.u - old.u),
                     max_abs(new.theta - old.theta))
        scale = max(max_abs(old.v), max_abs(old.u), max_abs(old.theta))
        rel_change = max(rel_change, change / scale)
    return {
        "n_steps": len(reports),
        "n_rejections": sum(report.rejections for report in reports),
        "min_v": min(float(np.min(st.v)) for st in states),
        "max_v": max(float(np.max(st.v)) for st in states),
        "min_theta": min(float(np.min(st.theta)) for st in states),
        "max_theta": max(float(np.max(st.theta)) for st in states),
        "max_step_rel_change": rel_change,
        "max_solve_residual": max(report.max_residual for report in reports),
        "r_shadow_max_dev": dev,
        "sup_norm_initial": sup_norm(states[0]),
        "sup_norm_final": sup_norm(states[-1]),
    }


class TestInitialState:
    @pytest.mark.parametrize("amps, floors", [
        ((-0.5, 0.0, 0.0), {"v_floor": 0.9}),
        ((0.0, 0.0, -0.5), {"theta_floor": 0.9}),
    ], ids=["v", "theta"])
    def test_run_rejects_a_start_below_a_floor(self, params, amps, floors):
        """The t = 0 state must lie above the floors, as every accepted step
        does; run raises before it takes a sample."""
        prof = InitProfile(kind="gaussian_bump", amp_v=amps[0], amp_u=amps[1],
                           amp_theta=amps[2], center=4.0, width=1.0)
        cfg = RunConfig(x_max=10.0, n_cells=16, profile=prof, t_end=0.5, **floors)
        taken = []
        with pytest.raises(ValueError, match="initial data at or below the floors"):
            run(cfg, params, on_sample=taken.append)
        assert taken == []


class TestRunSummary:
    """``run`` folds every accepted step into its summary; the fold must
    give, bit for bit, what a plain per-step recomputation gives."""

    @pytest.mark.parametrize("order, amps, floors, rejections", [
        (1, (0.1, 0.1, 0.1), (1e-6, 1e-6), False),
        (1, (0.0, 0.0, 0.5), (1e-6, 1e-6), False),  # theta changes most per step
        (2, (0.1, 0.1, 0.1), (1e-6, 1e-6), False),
        (2, (-0.69, -2.49, -0.36), (0.34, 0.6), True),
    ], ids=["scheme1", "scheme1_hot", "scheme2", "scheme2_rejections"])
    def test_fold_equals_per_step_recomputation(self, params, order, amps, floors, rejections):
        prof = InitProfile(kind="gaussian_bump", amp_v=amps[0], amp_u=amps[1],
                           amp_theta=amps[2], center=4.0, width=0.5)
        cfg = RunConfig(x_max=10.0, n_cells=40, profile=prof, t_end=0.3, cadence=0.1,
                        v_floor=floors[0], theta_floor=floors[1], cfl_fraction=1.0,
                        scheme_order=order)
        summary = run(cfg, params).summary
        expected = _reference_summary(cfg, params)
        assert (expected["n_rejections"] > 0) == rejections
        assert summary.as_dict() == expected


class TestSourcedStep:
    def test_zero_sources_change_nothing(self, params):
        """The sourced update with identically zero sources equals the plain
        update on every entry."""
        g = build_mass_grid(10.0, 100)
        st = smooth_test_state(g, params.n)
        cfg = RunConfig(t_end=1.0)

        def zeros(t):
            return np.zeros(g.n_cells), np.zeros(g.n_cells + 1), np.zeros(g.n_cells)

        plain, _ = step(st, params, 1e-3, cfg)
        sourced, _ = step(st, params, 1e-3, cfg, sources=zeros)
        assert np.array_equal(plain.v, sourced.v)
        assert np.array_equal(plain.u, sourced.u)
        assert np.array_equal(plain.theta, sourced.theta)

    @_SCHEMES
    @pytest.mark.parametrize("field", ["v", "theta"])
    def test_attempt_inside_floor_is_retried_at_half_step(self, params, field, order):
        """A sink drives v (or theta) from 1 to about 0.3 in the first attempt,
        inside (0, floor] for a floor of 0.5: that attempt is rejected, and
        the retry at half the step, which ends near 0.65, is accepted."""
        g = build_mass_grid(8.0, 16)
        st = make_initial_data(g, InitProfile(kind="equilibrium"), params)
        sink = np.zeros(g.n_cells)
        sink[:-1] = -0.7 if field == "v" else -1.05  # theta changes by dt * S / cv

        def sources(t):
            zero = np.zeros(g.n_cells)
            s_v, s_t = (sink, zero) if field == "v" else (zero, sink)
            return s_v, np.zeros(g.n_cells + 1), s_t

        substep = _substep_imex if order == 1 else _substep_midpoint
        first = substep(st, params, 1.0, sources)[0]  # tested against 0 only
        assert 0.0 < np.min(first[0 if field == "v" else 2]) <= 0.5
        if field == "v":  # rejected before r and theta are formed
            assert substep(st, params, 1.0, sources, 0.5)[0][2:] == (None, None)
        floors = {"v_floor": 0.5} if field == "v" else {"theta_floor": 0.5}
        cfg = RunConfig(x_max=8.0, n_cells=16, scheme_order=order, **floors)
        new, report = step(st, params, 1.0, cfg, sources=sources)
        assert (report.rejections, report.dt) == (1, 0.5)
        assert np.min(getattr(new, field)) > 0.5

    @_SCHEMES
    def test_nan_volume_source_ends_in_positivity_error(self, params, order):
        """A NaN in S_v makes every attempt's v NaN; no attempt passes the
        floor test, and the error names the last attempt's min v and theta."""
        g = build_mass_grid(8.0, 16)
        st = smooth_test_state(g, params.n)
        s_v = np.zeros(g.n_cells)
        s_v[3] = np.nan

        def sources(t):
            return s_v, np.zeros(g.n_cells + 1), np.zeros(g.n_cells)

        cfg = RunConfig(x_max=8.0, n_cells=16, scheme_order=order)
        with pytest.raises(PositivityError, match=r"\(min v=nan, min theta=nan\)"):
            step(st, params, 1e-3, cfg, sources=sources)
