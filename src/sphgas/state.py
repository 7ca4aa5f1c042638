"""Discrete flow state, admissible initial data, and discrete operators.

Staggering convention: velocity u and radius r live on cell edges, specific
volume v and temperature theta on cell centers.  This pairing makes the mass
update v_t = D_c(r^(n-1) u) and the momentum stress gradient discrete
adjoints, which is what keeps the discrete energy balance tight.

Boundary handling: the inner edge carries u = 0 and a mirrored temperature
ghost (zero heat flux); the outermost cell is pinned to the far-field state
(v, u, theta) = (1, 0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import MassGrid, PhysParams, _readonly, radius_from_volume, running_integral

__all__ = [
    "FlowState",
    "InitProfile",
    "Gradients",
    "make_initial_data",
    "stress_sigma",
    "discrete_gradients",
    "save_snapshot",
    "load_snapshot",
]


@dataclass(frozen=True)
class FlowState:
    """Immutable snapshot of (v, u, theta) at time t, with the cached radius.

    v, theta are per-cell (positive and finite), u per-edge (finite) with
    u[0] = 0, and the radius they give is finite.  ``n`` is the spatial
    dimension; r is always reconstructed from v, never stored independently,
    so the cache cannot drift out of coherence.

    The public constructor checks all of this.  The solver builds its states
    through :meth:`_trusted` instead, which skips the checks: it hands over
    only fields that passed the step's positivity tests, a velocity whose
    inner entry was never written (so u[0] = 0 exactly), and the radius that
    ``radius_from_volume`` computed from that same v, each a fresh contiguous
    float array that the state then owns.  Given a time per row, it builds a
    block of consecutive samples on one grid instead, one per row along the
    last axis, which the diagnostics kernels evaluate row by row.
    """

    grid: MassGrid
    t: float
    v: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    n: int
    r: np.ndarray = field(init=False)

    def __post_init__(self):
        nc = self.grid.n_cells
        v = np.asarray(self.v, dtype=float)
        u = np.asarray(self.u, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        if v.shape != (nc,) or theta.shape != (nc,) or u.shape != (nc + 1,):
            raise ValueError(
                f"field shapes {v.shape}, {u.shape}, {theta.shape} do not match "
                f"grid with {nc} cells"
            )
        if not np.all((v > 0) & (v < np.inf)):
            raise ValueError("specific volume must stay positive and finite")
        if not np.all((theta > 0) & (theta < np.inf)):
            raise ValueError("temperature must stay positive and finite")
        if not np.all(np.isfinite(u)):
            raise ValueError("velocity must stay finite")
        if u[0] != 0.0:
            raise ValueError("velocity at the inner boundary edge must vanish")
        with np.errstate(over="ignore"):  # an overflow is rejected just below
            r = radius_from_volume(self.grid, v, self.n)
        if not np.all(np.isfinite(r)):
            raise ValueError("radius must stay finite")
        object.__setattr__(self, "v", _readonly(v))
        object.__setattr__(self, "u", _readonly(u))
        object.__setattr__(self, "theta", _readonly(theta))
        object.__setattr__(self, "r", _readonly(r))

    @classmethod
    def _trusted(cls, grid, t, v, u, theta, r, n) -> "FlowState":
        """A state from checked solver fields and their radius, unvalidated;
        the arrays are made read-only in place, not copied, and ``t`` as given."""
        for a in (v, u, theta, r):
            a.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(grid=grid, t=t, v=v, u=u, theta=theta, n=n, r=r)
        return state


@dataclass(frozen=True)
class InitProfile:
    """Initial-data profile: equilibrium, a gaussian bump, or a table.

    Amplitudes perturb (v-1, u, theta-1); ``center`` and ``width`` are in mass
    coordinate.  Table profiles carry columns (x, v, u, theta) interpolated
    onto the grid.
    """

    kind: str = "equilibrium"
    amp_v: float = 0.0
    amp_u: float = 0.0
    amp_theta: float = 0.0
    center: float = 4.0
    width: float = 1.0
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("equilibrium", "gaussian_bump", "table"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "gaussian_bump":
            if not (self.width > 0):
                raise ValueError("bump width must be positive")
            # admissibility at the continuum peak, not the grid sampling of it
            if 1.0 + self.amp_v <= 0.0:
                raise ValueError(
                    f"v amplitude {self.amp_v} reaches zero at the bump peak"
                )
            if 1.0 + self.amp_theta <= 0.0:
                raise ValueError(
                    f"theta amplitude {self.amp_theta} reaches zero at the bump peak"
                )
        if self.kind == "table":
            tab = np.asarray(self.table if self.table is not None else [], dtype=float)
            if tab.ndim != 2 or tab.shape[1] != 4:
                raise ValueError("table profile requires rows of x, v, u, theta")
            if not np.all(np.isfinite(tab)):
                raise ValueError("table entries must be finite")
            if not np.all(tab[1:, 0] > tab[:-1, 0]):
                raise ValueError("table x must be strictly increasing")
            if not (np.all(tab[:, 1] > 0) and np.all(tab[:, 3] > 0)):
                raise ValueError("table v and theta must be positive on every row")


def _bump(x: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-(((x - center) / width) ** 2))


def make_initial_data(grid: MassGrid, profile: InitProfile, params: PhysParams) -> FlowState:
    """Initial FlowState at t = 0 satisfying boundary and far-field values.

    InitProfile admits only profiles that keep v and theta positive, and
    the FlowState constructor checks that again.
    """
    xc, xe = grid.cell_centers, grid.x_edges
    if profile.kind == "equilibrium":
        v = np.ones(grid.n_cells)
        theta = np.ones(grid.n_cells)
        u = np.zeros(grid.n_cells + 1)
    elif profile.kind == "gaussian_bump":
        v = 1.0 + profile.amp_v * _bump(xc, profile.center, profile.width)
        theta = 1.0 + profile.amp_theta * _bump(xc, profile.center, profile.width)
        u = profile.amp_u * _bump(xe, profile.center, profile.width)
    else:
        tab = np.asarray(profile.table, dtype=float)
        tx = tab[:, 0]
        v = np.interp(xc, tx, tab[:, 1])
        u = np.interp(xe, tx, tab[:, 2])
        theta = np.interp(xc, tx, tab[:, 3])
    # compatibility at the boundary and the far field
    u[0] = 0.0
    u[-1] = 0.0
    v[-1] = 1.0
    theta[-1] = 1.0
    return FlowState(grid=grid, t=0.0, v=v, u=u, theta=theta, n=params.n)


def edge_weight(state: FlowState) -> np.ndarray:
    """r^(n-1) at edges — the geometric weight of the reduced equations;
    at n = 2 r itself, which r ** 1 returns exactly."""
    return state.r if state.n == 2 else state.r ** (state.n - 1)


def _diff(f: np.ndarray) -> np.ndarray:
    """Differences of neighbours along the last axis."""
    return f[..., 1:] - f[..., :-1]


def div_ru(state: FlowState) -> np.ndarray:
    """(r^(n-1) u)_x at cell centers (the native staggered difference)."""
    return _diff(edge_weight(state) * state.u) / state.grid.cell_widths


def stress_sigma(state: FlowState, params: PhysParams) -> np.ndarray:
    """Reduced normal stress beta*(r^(n-1)u)_x/v - R*theta/v at centers."""
    return (params.beta * div_ru(state) - params.R * state.theta) / state.v


@dataclass(frozen=True)
class Gradients:
    """Center-collocated first derivatives and the split of (r^(n-1)u)_x.

    ``div_ru`` is the native staggered divergence; ``r_pow_ux`` and
    ``geom_vu`` are the two terms of the identity
    (r^(n-1)u)_x = r^(n-1) u_x + (n-1) v u / r, and ``div_ru2`` is the
    staggered derivative of r^(n-2) u^2 feeding the heat equation.
    ``r_centers`` is r at the centers and ``r_pow`` is r^(n-1) there.
    """

    v_x: np.ndarray
    u_x: np.ndarray
    theta_x: np.ndarray
    div_ru: np.ndarray
    r_pow_ux: np.ndarray
    geom_vu: np.ndarray
    div_ru2: np.ndarray
    r_centers: np.ndarray
    r_pow: np.ndarray


def _center_gradient(xc: np.ndarray, f: np.ndarray, mirror_left: bool = False) -> np.ndarray:
    """Centered differences at interior centers, one-sided at the ends.

    ``mirror_left`` treats the field as even across x = 0 (zero-gradient
    boundary), matching the temperature condition.
    """
    g = np.empty_like(f)
    g[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (xc[2:] - xc[:-2])
    g[..., 0] = (f[..., 1] - f[..., 0]) / (xc[1] + xc[0] if mirror_left else xc[1] - xc[0])
    g[..., -1] = (f[..., -1] - f[..., -2]) / (xc[-1] - xc[-2])
    return g


def discrete_gradients(state: FlowState) -> Gradients:
    """All first-derivative fields used by the diagnostics.  Space is the
    last axis: an object with FlowState's attributes and one sample per row
    of each field gets each row's bundle, bit for bit the per-state one."""
    g = state.grid
    xc, h = g.cell_centers, g.cell_widths
    n = state.n
    u_c = 0.5 * (state.u[..., :-1] + state.u[..., 1:])
    # r^n at the left edge plus the half cell to the center, by the edges' quadrature
    rn_left = 1.0 + n * running_integral(g, state.v)[..., :-1]
    r_c = (rn_left + n * state.v * (0.5 * h)) ** (1.0 / n)
    r_pow = r_c ** (n - 1)
    u_x = _diff(state.u) / h
    ru2 = state.r ** (n - 2) * state.u**2
    return Gradients(
        v_x=_center_gradient(xc, state.v),
        u_x=u_x,
        theta_x=_center_gradient(xc, state.theta, mirror_left=True),
        div_ru=div_ru(state),
        r_pow_ux=r_pow * u_x,
        geom_vu=(n - 1) * state.v * u_c / r_c,
        div_ru2=_diff(ru2) / h,
        r_centers=r_c,
        r_pow=r_pow,
    )


_SNAP_COLUMNS = "x,v,u,theta,r"


def save_snapshot(state: FlowState, params: PhysParams, path) -> None:
    """Write one state as CSV: columns x, v, u, theta, r at the edges.

    Row j carries edge quantities u[j], r[j] and the values of cell j for v
    and theta; the final edge row leaves v and theta empty.  The header
    comment carries t and the physical parameters; floats are written with
    repr so the file round-trips losslessly.  The x column is the grid's
    ``edge_text``, which each grid formats once.
    """
    meta = {"t": state.t, **params.as_dict()}
    x = state.grid.edge_text
    u, r = state.u.tolist(), state.r.tolist()
    rows = [
        f"{xj},{vj!r},{uj!r},{thj!r},{rj!r}\n"
        for xj, vj, uj, thj, rj in zip(x, state.v.tolist(), u, state.theta.tolist(), r)
    ]
    rows.append(f"{x[-1]},,{u[-1]!r},,{r[-1]!r}\n")
    with open(path, "w") as fh:
        fh.write("# " + " ".join(f"{k}={float(v)!r}" for k, v in meta.items()) + "\n")
        fh.write(_SNAP_COLUMNS + "\n" + "".join(rows))


def load_snapshot(path, grid: MassGrid | None = None) -> tuple[FlowState, PhysParams]:
    """Read a snapshot written by :func:`save_snapshot`; a malformed file
    raises ValueError naming ``path``.

    The body is split once, and the v, u and theta columns are each
    converted in one call; the r column is not read, as the state
    recomputes it.  ``grid`` is reused when its edges equal the file's x
    column, so the states of one run share one grid: a file whose x column
    is the ``edge_text`` of ``grid``, as :func:`save_snapshot` wrote it,
    reuses ``grid`` without converting x.
    """
    with open(path) as fh:
        header = fh.readline()
        cols = fh.readline().strip()
        lines = fh.read().rstrip("\n").split("\n")
    if not header.startswith("#"):
        raise ValueError(f"{path}: missing metadata header")
    if cols != _SNAP_COLUMNS:
        raise ValueError(f"{path}: unexpected columns {cols!r}")
    commas = set(map(str.count, lines, [","] * len(lines)))
    if commas != {4}:  # skip whitespace-only lines, then count again
        lines = [line for line in lines if line.strip()]
        commas = set(map(str.count, lines, [","] * len(lines)))
    fields = ",".join(lines).split(",")
    try:
        if commas - {4} or fields[-4] or fields[-2]:
            raise ValueError("truncated: short rows or no outer edge row")
        meta = {k: float(val) for k, _, val in (tok.partition("=") for tok in header[1:].split())}
        if not meta["n"].is_integer():  # int() would truncate 3.7 and overflow on inf
            raise ValueError(f"dimension must be an integer, got n={meta['n']!r}")
        params = PhysParams(
            mu=meta["mu"], lam=meta["lambda"], R=meta["R"],
            cv=meta["cv"], kappa=meta["kappa"], n=int(meta["n"]),
        )
        x = tuple(fields[0::5])
        if grid is None or x != grid.edge_text:
            xe = np.array(x, dtype=float)
            if grid is None or not np.array_equal(xe, grid.x_edges):
                grid = MassGrid(x_edges=xe)
        u = np.array(fields[2::5], dtype=float)
        v = np.array(fields[1:-5:5], dtype=float)
        theta = np.array(fields[3:-5:5], dtype=float)
        state = FlowState(grid=grid, t=meta["t"], v=v, u=u, theta=theta, n=params.n)
    except (IndexError, KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed snapshot: {exc}") from exc
    return state, params
