"""Optimal stopping of discounted Brownian motion with quadratic reward.

The library computes the free boundary of the perpetual problem

    sup_tau  E[ e^{-r tau} sum_i lambda_i X_i(tau)^2 ],

where X is d-dimensional Brownian motion, by collocating an integral
equation in the Martin kernels e^{a . x}, |a|^2 = 2r, and certifies the
result through independent Green-kernel, analytic, and Monte Carlo
routes.
"""

from .grids import SphereGrid, make_circle_grid, make_sphere_grid
from .kernels import KillingConfig, martin_kernel
from .martin_solver import SolveReport, solve_boundary
from .problem import (
    ClassCheckReport,
    QuadraticProblem,
    StarBoundary,
    class_membership_check,
    symmetric_radius,
)
from .verification import (
    MCConfig,
    VerificationReport,
    majorant_gap_scan,
    mc_value,
    run_verification,
    value,
)

__version__ = "0.1.0"

__all__ = [
    "QuadraticProblem",
    "StarBoundary",
    "ClassCheckReport",
    "class_membership_check",
    "symmetric_radius",
    "SphereGrid",
    "make_circle_grid",
    "make_sphere_grid",
    "SolveReport",
    "solve_boundary",
    "KillingConfig",
    "martin_kernel",
    "MCConfig",
    "VerificationReport",
    "run_verification",
    "value",
    "mc_value",
    "majorant_gap_scan",
    "__version__",
]
