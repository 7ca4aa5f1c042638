"""Spherically symmetric viscous heat-conducting gas in Lagrangian mass
coordinates on an exterior domain, with a verification harness for the
energy-dissipation identity, the local representation of the specific volume,
and the long-time decay diagnostics."""

from .grid import (
    MassGrid,
    PhysParams,
    build_mass_grid,
    radius_from_volume,
)
from .state import (
    FlowState,
    InitProfile,
    discrete_gradients,
    make_initial_data,
    stress_sigma,
)
from .solver import (
    PositivityError,
    RunConfig,
    RunResult,
    SolverAbort,
    StepReport,
    run,
    select_dt,
    step,
)
from .diagnostics import (
    DiagnosticsSeries,
    anchor_roots,
    cutoff_phi,
    evaluate_series,
    norm_report,
    superlevel_measure,
    viscous_form_gap,
)
from .oracle import ManufacturedCase, convergence_order, manufactured_source

__all__ = [
    "MassGrid",
    "PhysParams",
    "build_mass_grid",
    "radius_from_volume",
    "FlowState",
    "InitProfile",
    "discrete_gradients",
    "make_initial_data",
    "stress_sigma",
    "PositivityError",
    "RunConfig",
    "RunResult",
    "SolverAbort",
    "StepReport",
    "run",
    "select_dt",
    "step",
    "DiagnosticsSeries",
    "anchor_roots",
    "cutoff_phi",
    "evaluate_series",
    "norm_report",
    "superlevel_measure",
    "viscous_form_gap",
    "ManufacturedCase",
    "convergence_order",
    "manufactured_source",
]

__version__ = "0.1.0"
