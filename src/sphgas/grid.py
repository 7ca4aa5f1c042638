"""Mass-coordinate grid and the geometric maps between mass, radius and density.

The flow outside the unit ball is described in a Lagrangian mass coordinate
x = integral_1^r0 y^(n-1) rho0(y) dy, which turns the moving exterior domain
into the fixed half line (0, inf).  The grid truncates that half line at
``x_max`` and staggers the unknowns: specific volume and temperature live on
cell centers, velocity and radius on cell edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "PhysParams",
    "MassGrid",
    "build_mass_grid",
    "radius_from_volume",
]


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of the viscous polytropic ideal gas.

    ``lam`` is the second viscosity coefficient (written ``lambda`` in config
    files).  Admissibility requires mu > 0 and 2*mu + n*lam > 0, which makes
    the effective viscosity beta = 2*mu + lam positive as well.
    """

    mu: float = 1.0
    lam: float = 0.0
    R: float = 1.0
    cv: float = 1.5
    kappa: float = 1.0
    n: int = 2

    def __post_init__(self):
        if not (self.mu > 0):
            raise ValueError(f"shear viscosity must be positive, got mu={self.mu}")
        if not (int(self.n) == self.n and self.n >= 2):
            raise ValueError(f"dimension must be an integer >= 2, got n={self.n}")
        if not (2.0 * self.mu + self.n * self.lam > 0):
            raise ValueError(
                f"inadmissible viscosities: 2*mu + n*lambda = "
                f"{2.0 * self.mu + self.n * self.lam} <= 0"
            )
        for name in ("R", "cv", "kappa"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        assert self.beta > 0

    @property
    def beta(self) -> float:
        """Effective viscosity 2*mu + lam multiplying the velocity divergence."""
        return 2.0 * self.mu + self.lam

    @property
    def gamma(self) -> float:
        """Adiabatic exponent 1 + R/cv of the polytropic gas."""
        return 1.0 + self.R / self.cv

    def as_dict(self) -> dict:
        return {
            "mu": self.mu,
            "lambda": self.lam,
            "R": self.R,
            "cv": self.cv,
            "kappa": self.kappa,
            "n": self.n,
        }


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MassGrid:
    """Truncated mass-coordinate grid on [0, x_max].

    ``x_edges`` has N+1 ascending entries starting at 0; cells are the
    intervals between consecutive edges.
    """

    x_edges: np.ndarray
    cell_centers: np.ndarray = field(init=False)
    cell_widths: np.ndarray = field(init=False)
    edge_gaps: np.ndarray = field(init=False)

    def __post_init__(self):
        e = np.asarray(self.x_edges, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise ValueError("x_edges must be a 1-d array with at least two entries")
        if e[0] != 0.0:
            raise ValueError(f"first edge must be 0, got {e[0]}")
        w = np.diff(e)
        if np.any(w <= 0):
            raise ValueError("edges must be strictly increasing")
        object.__setattr__(self, "x_edges", _readonly(e))
        object.__setattr__(self, "cell_centers", _readonly(0.5 * (e[:-1] + e[1:])))
        object.__setattr__(self, "cell_widths", _readonly(w))
        # spacing between neighbouring cell centers, used by edge gradients
        object.__setattr__(self, "edge_gaps", _readonly(0.5 * (w[:-1] + w[1:])))

    @property
    def n_cells(self) -> int:
        return self.cell_widths.size

    @property
    def x_max(self) -> float:
        return float(self.x_edges[-1])

    @cached_property
    def edge_text(self) -> tuple[str, ...]:
        """The repr of every edge, formed once per grid: a snapshot's x column."""
        return tuple(map(repr, self.x_edges.tolist()))


def build_mass_grid(x_max: float, n_cells: int, grading: str | float = "uniform") -> MassGrid:
    """Build a grid of ``n_cells`` cells on [0, x_max].

    ``grading`` is either ``"uniform"`` or a geometric width ratio in
    [1, 1.2]; with ratio q the widths follow w0 * q**i, normalised to sum to
    ``x_max``.
    """
    if not (x_max > 0):
        raise ValueError(f"x_max must be positive, got {x_max}")
    if n_cells < 4:
        raise ValueError(f"need at least 4 cells, got {n_cells}")
    n_cells = int(n_cells)
    if isinstance(grading, str):
        if grading != "uniform":
            raise ValueError(f"unknown grading {grading!r}")
        ratio = 1.0
    else:
        ratio = float(grading)
        if not (1.0 <= ratio <= 1.2):
            raise ValueError(f"geometric ratio must lie in [1, 1.2], got {ratio}")
    if ratio == 1.0:
        edges = np.linspace(0.0, x_max, n_cells + 1)
    else:
        widths = ratio ** np.arange(n_cells)
        widths *= x_max / widths.sum()
        edges = np.concatenate(([0.0], np.cumsum(widths)))
        edges[-1] = x_max
    return MassGrid(x_edges=edges)


def radius_from_volume(grid: MassGrid, v: np.ndarray, n: int) -> np.ndarray:
    """Radius at every edge from the specific volume field.

    Integrates r^n = 1 + n * integral_0^x v by the midpoint rule over cells
    (exact for cellwise-constant v), so r(0) = 1 and r is strictly increasing.
    """
    v = np.asarray(v, dtype=float)
    h = grid.cell_widths
    if v.shape != h.shape:
        raise ValueError(f"v must have one value per cell, got shape {v.shape}")
    if not (np.minimum.reduce(v) > 0):  # NaN fails too
        raise ValueError("specific volume must be positive everywhere")
    rn = np.empty(h.size + 1)
    rn[0] = 1.0
    quad = np.add.accumulate(v * h, out=rn[1:])  # then 1 + n * quad, in place
    quad *= n
    quad += 1.0
    rn **= 1.0 / n
    return rn


def radius_at_centers(grid: MassGrid, v: np.ndarray, n: int) -> np.ndarray:
    """Radius at cell centers, by the same midpoint quadrature as the edges;
    cells run along the last axis of ``v``, so each row of a 2-D ``v`` gets
    its own radii."""
    v = np.asarray(v, dtype=float)
    h = grid.cell_widths
    rn_left = np.empty_like(v)
    rn_left[..., 0] = 1.0
    rn_left[..., 1:] = 1.0 + n * np.cumsum(v[..., :-1] * h[:-1], axis=-1)
    return (rn_left + n * v * (0.5 * h)) ** (1.0 / n)
