import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphgas import PhysParams, build_mass_grid, radius_from_volume


class TestPhysParams:
    def test_defaults_admissible(self):
        p = PhysParams()
        assert p.beta == 2 * p.mu + p.lam > 0
        assert p.gamma == 1 + p.R / p.cv

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": 0.0},
            {"mu": -1.0},
            {"lam": -1.1, "n": 2},  # 2mu + n lam = -0.2
            {"R": 0.0},
            {"cv": -2.0},
            {"kappa": 0.0},
            {"n": 1},
        ],
    )
    def test_inadmissible_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PhysParams(**kwargs)

    def test_negative_lambda_admissible_when_bulk_positive(self):
        p = PhysParams(mu=1.0, lam=-0.9, n=2)
        assert p.beta > 0


class TestBuildMassGrid:
    def test_uniform_partition(self):
        g = build_mass_grid(1.0, 4)
        assert np.array_equal(g.x_edges, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_uniform_widths(self):
        g = build_mass_grid(2.0, 4)
        assert np.allclose(g.cell_widths, 0.5)
        assert g.x_max == 2.0

    def test_edge_text_formed_once_and_exact(self):
        g = build_mass_grid(1.0, 4, grading=1.1)
        assert g.edge_text is g.edge_text
        assert g.edge_text[0] == "0.0"
        assert [float(x) for x in g.edge_text] == g.x_edges.tolist()

    def test_geometric_ratio(self):
        g = build_mass_grid(1.0, 4, grading=1.1)
        # hand oracle: widths w0 * 1.1^i normalised by the geometric series
        w0 = 1.0 / sum(1.1**i for i in range(4))
        expect = w0 * 1.1 ** np.arange(4)
        assert np.allclose(g.cell_widths, expect, rtol=1e-14)
        assert g.x_edges[-1] == 1.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            build_mass_grid(0.0, 10)
        with pytest.raises(ValueError):
            build_mass_grid(-1.0, 10)
        with pytest.raises(ValueError):
            build_mass_grid(1.0, 3)
        with pytest.raises(ValueError):
            build_mass_grid(1.0, 10, grading=1.5)
        with pytest.raises(ValueError):
            build_mass_grid(1.0, 10, grading="log")

    @given(
        x_max=st.floats(0.5, 100),
        n_cells=st.integers(4, 200),
        ratio=st.floats(1.0, 1.2),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_properties(self, x_max, n_cells, ratio):
        g = build_mass_grid(x_max, n_cells, grading=ratio)
        assert g.n_cells == n_cells
        assert g.x_edges[0] == 0.0
        assert np.all(g.cell_widths > 0)
        assert np.isclose(g.cell_widths.sum(), x_max, rtol=1e-12)


class TestRadiusFromVolume:
    def test_constant_volume_n3(self):
        g = build_mass_grid(7.0, 70)
        r = radius_from_volume(g, np.ones(70), 3)
        assert r[-1] == pytest.approx(22.0 ** (1 / 3), rel=1e-14)

    def test_inner_edge_is_one(self, grid):
        r = radius_from_volume(grid, np.full(grid.n_cells, 0.7), 2)
        assert r[0] == 1.0

    def test_constant_volume_n2(self):
        g = build_mass_grid(1.0, 10)
        r = radius_from_volume(g, np.full(10, 2.0), 2)
        assert r[-1] == pytest.approx(np.sqrt(5.0), rel=1e-14)

    def test_rejects_nonpositive_volume(self, grid):
        for bad in (0.0, -1.0, np.nan):  # NaN is not positive either
            v = np.ones(grid.n_cells)
            v[3] = bad
            with pytest.raises(ValueError, match="must be positive"):
                radius_from_volume(grid, v, 2)

    def test_monotone_and_above_one(self, grid):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.uniform(0.2, 3.0, grid.n_cells)
            r = radius_from_volume(grid, v, 3)
            assert np.all(np.diff(r) > 0)
            assert np.all(r >= 1.0)

    def test_doubling_volume_doubles_rn_minus_one(self, grid):
        """r^n - 1 is linear in v; the doubled accumulator is exact, the
        round trip through the n-th root costs only rounding."""
        rng = np.random.default_rng(3)
        v = rng.uniform(0.5, 2.0, grid.n_cells)
        for n in (2, 3):
            a = radius_from_volume(grid, v, n) ** n - 1.0
            b = radius_from_volume(grid, 2.0 * v, n) ** n - 1.0
            assert np.allclose(2.0 * a, b, rtol=1e-13, atol=1e-13)

    def test_smooth_volume_refines_second_order(self):
        """For v = (1+3x)^(-1/3) and n = 2 the exact radius is (1+3x)^(1/3)
        (density rho0(y) = y); the midpoint quadrature converges to it at
        second order."""
        gaps = []
        for n_cells in (25, 50, 100):
            g = build_mass_grid(5.0, n_cells)
            v = (1.0 + 3.0 * g.cell_centers) ** (-1.0 / 3.0)
            r_exact = (1.0 + 3.0 * g.x_edges) ** (1.0 / 3.0)
            gaps.append(np.max(np.abs(radius_from_volume(g, v, 2) - r_exact)))
        assert gaps[0] / gaps[1] > 3.0
        assert gaps[1] / gaps[2] > 3.0
