import numpy as np
import pytest

from sphgas import InitProfile, PhysParams, RunConfig, build_mass_grid, run


@pytest.fixture
def params():
    return PhysParams()


@pytest.fixture
def params3():
    return PhysParams(n=3)


@pytest.fixture
def grid():
    return build_mass_grid(10.0, 100)


@pytest.fixture(scope="session")
def bump_history():
    """Small disturbed run shared by diagnostics tests (n=2, modest grid):
    the result, its config and parameters, and the sampled states."""
    profile = InitProfile(
        kind="gaussian_bump", amp_v=0.15, amp_u=0.15, amp_theta=0.15,
        center=4.0, width=1.0,
    )
    config = RunConfig(
        x_max=16.0, n_cells=160, profile=profile, t_end=1.5, cadence=0.05,
    )
    p = PhysParams()
    states = []
    return run(config, p, on_sample=states.append), config, p, states


@pytest.fixture(scope="session")
def bump_run(bump_history):
    """The result, config and parameters of :func:`bump_history`."""
    return bump_history[:3]


def smooth_test_state(grid, n, amp=0.1):
    """Deterministic smooth non-equilibrium state for operator tests."""
    from sphgas import FlowState

    xc, xe = grid.cell_centers, grid.x_edges
    v = 1.0 + amp * np.exp(-((xc - 4.0) ** 2))
    theta = 1.0 + amp * np.cos(0.7 * xc) * np.exp(-((xc - 4.0) ** 2) / 2.0)
    u = amp * np.sin(xe) * np.exp(-((xe - 4.0) ** 2) / 2.0)
    u[0] = 0.0
    return FlowState(grid=grid, t=0.0, v=v, u=u, theta=theta, n=n)
