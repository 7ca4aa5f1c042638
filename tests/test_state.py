from dataclasses import replace

import numpy as np
import pytest

from sphgas import (
    FlowState,
    InitProfile,
    MassGrid,
    PhysParams,
    build_mass_grid,
    discrete_gradients,
    make_initial_data,
    stress_sigma,
)
from sphgas.state import load_snapshot, save_snapshot

from conftest import smooth_test_state


class TestFlowState:
    def test_radius_cache_coherent(self, grid, params):
        st = smooth_test_state(grid, params.n)
        from sphgas import radius_from_volume

        assert np.array_equal(st.r, radius_from_volume(grid, st.v, params.n))

    def test_rejects_nonpositive_fields(self, grid):
        nc = grid.n_cells
        ok = dict(grid=grid, t=0.0, u=np.zeros(nc + 1), n=2)
        with pytest.raises(ValueError):
            FlowState(v=np.zeros(nc), theta=np.ones(nc), **ok)
        with pytest.raises(ValueError):
            FlowState(v=np.ones(nc), theta=-np.ones(nc), **ok)

    @pytest.mark.parametrize("field", ["v", "u", "theta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_fields(self, grid, field, bad):
        nc = grid.n_cells
        fields = dict(v=np.ones(nc), u=np.zeros(nc + 1), theta=np.ones(nc))
        fields[field][3] = bad
        with pytest.raises(ValueError):
            FlowState(grid=grid, t=0.0, n=2, **fields)

    @pytest.mark.parametrize("field, size", [("v", -1), ("u", -1), ("theta", 1)])
    def test_rejects_mismatched_shapes(self, grid, field, size):
        """A field one entry short or long of the grid's cells or edges."""
        nc = grid.n_cells
        fields = dict(v=np.ones(nc), u=np.zeros(nc + 1), theta=np.ones(nc))
        fields[field] = np.ones(fields[field].size + size)
        with pytest.raises(ValueError, match="do not match grid with"):
            FlowState(grid=grid, t=0.0, n=2, **fields)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_overflowing_radius(self, grid):
        """Finite v whose volume integral overflows gives an infinite r."""
        nc = grid.n_cells
        with pytest.raises(ValueError, match="radius"):
            FlowState(grid=grid, t=0.0, v=np.full(nc, 1e308), u=np.zeros(nc + 1),
                      theta=np.ones(nc), n=2)

    def test_rejects_moving_inner_edge(self, grid):
        nc = grid.n_cells
        u = np.zeros(nc + 1)
        u[0] = 0.1
        with pytest.raises(ValueError):
            FlowState(grid=grid, t=0.0, v=np.ones(nc), u=u, theta=np.ones(nc), n=2)

    def test_fields_immutable(self, grid, params):
        st = smooth_test_state(grid, params.n)
        with pytest.raises(ValueError):
            st.v[0] = 2.0


class TestMakeInitialData:
    def test_equilibrium(self, grid, params):
        st = make_initial_data(grid, InitProfile(kind="equilibrium"), params)
        assert np.all(st.v == 1.0)
        assert np.all(st.u == 0.0)
        assert np.all(st.theta == 1.0)
        assert st.t == 0.0

    def test_bump_amplitude_extremes(self, params):
        # center on a cell center so the peak value is hit exactly
        g = build_mass_grid(16.0, 160)
        center = float(g.cell_centers[40])
        prof = InitProfile(kind="gaussian_bump", amp_v=-0.2, amp_theta=0.2,
                           center=center, width=1.0)
        st = make_initial_data(g, prof, params)
        assert np.min(st.v) == pytest.approx(0.8, abs=1e-12)
        assert np.max(st.theta) == pytest.approx(1.2, abs=1e-12)

    def test_far_field_and_boundary(self, grid, params):
        prof = InitProfile(kind="gaussian_bump", amp_v=0.3, amp_u=0.2,
                           amp_theta=0.1, center=4.0, width=0.8)
        st = make_initial_data(grid, prof, params)
        assert st.u[0] == 0.0
        assert st.u[-1] == 0.0
        assert st.v[-1] == 1.0
        assert st.theta[-1] == 1.0

    def test_vanishing_temperature_rejected(self):
        with pytest.raises(ValueError):
            InitProfile(kind="gaussian_bump", amp_theta=-1.0, center=4.0, width=1.0)

    def test_table_reaching_zero_rejected(self, grid, params):
        x = np.linspace(0, grid.x_max, 20)
        table = np.column_stack([x, np.full_like(x, -0.5), 0 * x, np.ones_like(x)])
        with pytest.raises(ValueError):
            make_initial_data(grid, InitProfile(kind="table", table=table), params)

    def test_table_profile(self, grid, params):
        x = np.linspace(0, grid.x_max, 40)
        table = np.column_stack([x, 1.0 + 0.1 * np.sin(x), 0.05 * x * np.exp(-x), 1.0 + 0 * x])
        st = make_initial_data(grid, InitProfile(kind="table", table=table), params)
        mid = grid.n_cells // 2
        assert st.v[mid] == pytest.approx(
            np.interp(grid.cell_centers[mid], x, table[:, 1]), rel=1e-12
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            InitProfile(kind="sawtooth")


class TestStressSigma:
    def test_equilibrium_is_minus_R(self, grid, params):
        st = make_initial_data(grid, InitProfile(kind="equilibrium"), params)
        assert np.allclose(stress_sigma(st, params), -params.R, rtol=0, atol=0)

    def test_divergence_unit_gives_beta_minus_R(self, params):
        # u profile with (r^{n-1} u)_x = 1 exactly: u = (x at edges) / r^{n-1}
        g = build_mass_grid(8.0, 64)
        v = np.ones(g.n_cells)
        from sphgas import radius_from_volume

        r = radius_from_volume(g, v, params.n)
        u = g.x_edges / r ** (params.n - 1)
        st = FlowState(grid=g, t=0.0, v=v, u=u, theta=np.ones(g.n_cells), n=params.n)
        assert np.allclose(stress_sigma(st, params), params.beta - params.R, atol=1e-12)

    def test_inverse_homogeneity_in_v_at_rest(self, grid, params):
        """sigma = -R theta / v exactly when u = 0; scaling v by 2 halves it."""
        rng = np.random.default_rng(5)
        v = rng.uniform(0.5, 2.0, grid.n_cells)
        theta = rng.uniform(0.5, 2.0, grid.n_cells)
        u = np.zeros(grid.n_cells + 1)
        st1 = FlowState(grid=grid, t=0.0, v=v, u=u, theta=theta, n=params.n)
        st2 = FlowState(grid=grid, t=0.0, v=2.0 * v, u=u, theta=theta, n=params.n)
        assert np.array_equal(stress_sigma(st1, params), -params.R * theta / v)
        assert np.array_equal(stress_sigma(st2, params), stress_sigma(st1, params) / 2.0)

    def test_matches_fine_grid_oracle(self, params):
        """Center stress converges to the continuum value at second order."""
        def continuum_sigma(x):
            # fields of smooth_test_state at amp=0.1 with u = 0: sigma = -R th / v
            v = 1.0 + 0.1 * np.exp(-((x - 4.0) ** 2))
            th = 1.0 + 0.1 * np.cos(0.7 * x) * np.exp(-((x - 4.0) ** 2) / 2.0)
            return -params.R * th / v

        errs = []
        for n_cells in (50, 100, 200):
            g = build_mass_grid(10.0, n_cells)
            st = smooth_test_state(g, params.n)
            st = replace(st, u=np.zeros(n_cells + 1))
            errs.append(
                np.max(np.abs(stress_sigma(st, params) - continuum_sigma(g.cell_centers)))
            )
        assert errs[0] < 1e-12 and errs[2] < 1e-12  # exact: no u, pointwise formula

    def test_manufactured_stress_refines_second_order(self, params):
        """Against the analytic stress of a manufactured case (moving gas)."""
        from sphgas.oracle import ManufacturedCase

        case = ManufacturedCase()
        t = 0.3
        errs = []
        for n_cells in (100, 200, 400):
            g = build_mass_grid(case.x_max, n_cells)
            st = case.exact_state(g, params, t)
            exact = case.exact_stress(g.cell_centers, t, params)
            errs.append(np.max(np.abs(stress_sigma(st, params) - exact)))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0


class TestDiscreteGradients:
    def test_constant_fields_zero_gradients(self, grid, params):
        st = make_initial_data(grid, InitProfile(kind="equilibrium"), params)
        gr = discrete_gradients(st)
        for field in (gr.v_x, gr.u_x, gr.theta_x, gr.div_ru, gr.div_ru2):
            assert np.all(field == 0.0)

    def test_linear_velocity_exact_slope(self, params):
        g = build_mass_grid(5.0, 40)
        u = 0.3 * g.x_edges
        u[0] = 0.0
        st = FlowState(grid=g, t=0.0, v=np.ones(40), u=u, theta=np.ones(40), n=params.n)
        assert np.allclose(discrete_gradients(st).u_x, 0.3, rtol=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_product_rule_identity_refines(self, n):
        """(r^{n-1}u)_x  =  r^{n-1} u_x + (n-1) v u / r  + O(dx^2)."""
        errs = []
        for n_cells in (100, 200, 400):
            g = build_mass_grid(10.0, n_cells)
            st = smooth_test_state(g, n)
            gr = discrete_gradients(st)
            resid = gr.div_ru - (gr.r_pow_ux + gr.geom_vu)
            errs.append(np.max(np.abs(resid)))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_squared_velocity_identity_refines(self, n):
        """(r^{n-2}u^2)_x = 2 u (r^{n-1}u)_x / r - n u^2 v / r^2 + O(dx^2)."""
        errs = []
        for n_cells in (100, 200, 400):
            g = build_mass_grid(10.0, n_cells)
            st = smooth_test_state(g, n)
            gr = discrete_gradients(st)
            u_c = 0.5 * (st.u[:-1] + st.u[1:])
            rhs = 2.0 * u_c * gr.div_ru / gr.r_centers - n * u_c**2 * st.v / gr.r_centers**2
            errs.append(np.max(np.abs(gr.div_ru2 - rhs)))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0


class TestSnapshotIO:
    def test_round_trip_exact(self, grid, params, tmp_path):
        st = replace(smooth_test_state(grid, params.n), t=1.25)
        path = tmp_path / "snap.csv"
        save_snapshot(st, params, path)
        loaded = load_snapshot(path, grid, params)
        assert loaded.t == st.t
        assert np.array_equal(loaded.v, st.v)
        assert np.array_equal(loaded.u, st.u)
        assert np.array_equal(loaded.theta, st.theta)
        assert np.array_equal(loaded.r, st.r)
        other = tmp_path / "other.csv"
        save_snapshot(st, replace(params, mu=2.0 * params.mu), other)
        with pytest.raises(ValueError, match=r"other\.csv: malformed snapshot: header is not '# t=<t> "):
            load_snapshot(other, grid, params)

    def test_golden_bytes(self, tmp_path):
        """The snapshot layout, byte for byte, that readers of the CSV rely on:
        a metadata comment, the column header, one row per edge with repr
        floats, and empty cell columns on the outer edge row."""
        grid = MassGrid(x_edges=np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
        st = FlowState(grid=grid, t=0.125, v=np.array([3.0, 5.0, 7.0, 9.0]),
                       u=np.array([0.0, 2.5e-07, -0.125, 0.1, 0.0]),
                       theta=np.array([1.25, 0.5, 2.0, 1.0]), n=2)
        path = tmp_path / "snap.csv"
        save_snapshot(st, PhysParams(), path)
        assert path.read_bytes() == (
            b"# t=0.125 mu=1.0 lambda=0.0 R=1.0 cv=1.5 kappa=1.0 n=2.0\n"
            b"x,v,u,theta,r\n"
            b"0.0,3.0,0.0,1.25,1.0\n"
            b"0.5,5.0,2.5e-07,0.5,2.0\n"
            b"1.0,7.0,-0.125,2.0,3.0\n"
            b"1.5,9.0,0.1,1.0,4.0\n"
            b"2.0,,0.0,,5.0\n"
        )

    @staticmethod
    def _saved_lines(grid, params, tmp_path):
        st = replace(smooth_test_state(grid, params.n), t=1.25)
        path = tmp_path / "snap.csv"
        save_snapshot(st, params, path)
        return st, path, path.read_text().splitlines(keepends=True)

    def test_rows_of_six_and_four_fields_rejected(self, grid, params, tmp_path):
        """One row with a field too many and another with one too few keep
        the total field count, and are still rejected."""
        _, path, lines = self._saved_lines(grid, params, tmp_path)
        row3, row7 = lines[3].rstrip("\n").split(","), lines[7].rstrip("\n").split(",")
        lines[3] = ",".join(row3 + [row7.pop()]) + "\n"
        lines[7] = ",".join(row7) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=r"snap\.csv: malformed snapshot: truncated"):
            load_snapshot(path, grid, params)

    def test_whitespace_only_lines_refused(self, grid, params, tmp_path):
        """save_snapshot writes no whitespace-only line, so a file with one
        is not read, whether inside the body or after its last row."""
        _, path, lines = self._saved_lines(grid, params, tmp_path)
        for spoilt in (lines[:5] + [" \t\n"] + lines[5:], lines + ["\n", "  \n"]):
            path.write_text("".join(spoilt))
            with pytest.raises(ValueError, match=r"snap\.csv: malformed snapshot: truncated"):
                load_snapshot(path, grid, params)
