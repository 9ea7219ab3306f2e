"""Optimal stopping of discounted Brownian motion with quadratic reward.

The library computes the free boundary of the perpetual problem

    sup_tau  E[ e^{-r tau} sum_i lambda_i X_i(tau)^2 ],

where X is d-dimensional Brownian motion, by collocating an integral
equation in the Martin kernels e^{a . x}, |a|^2 = 2r, and certifies the
result through independent Green-kernel, analytic, and Monte Carlo
routes.

Importing the package loads `grids` and `problem` only.  The other
public names load on first access: `SolveReport` and `solve_boundary`
with `martin_solver` (and scipy.linalg), `KillingConfig` and
`martin_kernel` with `kernels` (and scipy.special), and `MCConfig`,
`VerificationReport`, `run_verification`, `value`, `mc_value` and
`majorant_gap_scan` with `verification`.  The three submodules also
load when read as attributes, as in `quadstop.verification`.  A
`quadstop solve` process thus never compiles the certification, and
`quadstop verify` never loads the solver.
"""

import importlib

from .grids import SphereGrid, make_circle_grid, make_sphere_grid
from .problem import (
    ClassCheckReport,
    QuadraticProblem,
    StarBoundary,
    class_membership_check,
    symmetric_radius,
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

# name -> the submodule that defines it, imported on first access;
# a submodule's own name maps to itself
_LAZY = {
    "martin_solver": "martin_solver",
    "SolveReport": "martin_solver",
    "solve_boundary": "martin_solver",
    "kernels": "kernels",
    "KillingConfig": "kernels",
    "martin_kernel": "kernels",
    "verification": "verification",
    "MCConfig": "verification",
    "VerificationReport": "verification",
    "run_verification": "verification",
    "value": "verification",
    "mc_value": "verification",
    "majorant_gap_scan": "verification",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = importlib.import_module("." + _LAZY[name], __name__)
    obj = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = obj
    return obj


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
