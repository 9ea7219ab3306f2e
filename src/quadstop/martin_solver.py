"""Solver for the discretized Martin-kernel boundary equations.

In affine polar coordinates the condition "the integral of
e^{a.y} (r - L)g over the continuation set vanishes for every a with
|a|^2 = 2r" reduces, direction by direction, to

    sum_i w_i m_d(rho_i, gamma(omega_i, omega'_j); beta) = 0,

where m_d(rho, gamma; beta) = int_0^rho e^{gamma s}(s^2 - beta^2)
s^{d-1} ds is the radial moment and gamma couples a boundary node
omega_i to a test direction omega'_j.  The solver assembles the square
system on a sphere grid, with the grid's own nodes as test directions.
m_d is a difference of two Kummer functions,
int_0^rho e^{gamma s} s^n ds = rho^{n+1} M(n+1, n+2, gamma rho)/(n+1)
(DLMF 13.4.1), one formula for every sign and size of gamma rho that
does not cancel near gamma = 0; its rho-derivative is the integrand.
Levenberg-Marquardt on that analytic Jacobian drives the radii,
projecting onto [beta(1+1e-6), RADIUS_CAP beta] after every step, with
RADIUS_CAP the bound `class_membership_check` holds the radii to.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lstsq
from scipy.special import hyp1f1

from .grids import SphereGrid
from .problem import RADIUS_CAP, QuadraticProblem, StarBoundary, symmetric_radius

__all__ = [
    "SolveConfig",
    "SolveReport",
    "radial_moment",
    "radial_moment_drho",
    "solve_boundary",
]

_INIT_FACTOR = 1.3    # a cold start puts every radius at _INIT_FACTOR * beta
_DAMPING = 1e-3       # initial Levenberg parameter
_STEP_TOL = 1e-11     # stop when an accepted step moves no radius by more


@dataclass(frozen=True)
class SolveConfig:
    max_iterations: int = 200
    residual_tol: float = 1e-9      # relative to the row scale max_j sum_i w_i |m_d|
    # anisotropic lambda makes the cold-start crawl (exponential residual
    # curvature keeps the damping high), so continuation is the default
    homotopy_steps: int = 4

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.residual_tol <= 0.0:
            raise ValueError("residual_tol must be > 0")
        if self.homotopy_steps < 0:
            raise ValueError("homotopy_steps must be >= 0")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve.

    iterations counts Levenberg-Marquardt steps (Jacobian evaluations),
    summed over the homotopy stages.  The residual is always that of
    the target problem, also when an intermediate stage failed.
    """

    converged: bool
    iterations: int
    residual_inf_norm: float
    step_inf_norm: float
    residual_scale: float
    homotopy_trace: tuple = field(default=())


def _gamma_matrix(p: QuadraticProblem, nodes) -> np.ndarray:
    """gamma(omega_i, omega'_j): nodes in rows, the same nodes as test directions in columns."""
    return np.sqrt(2.0 * p.r) * (nodes / p.sqrt_lam) @ nodes.T


def radial_moment(d: int, rho, gam, beta: float):
    """m_d(rho, gamma; beta) = int_0^rho e^{gamma s}(s^2 - beta^2) s^{d-1} ds.

    rho^{d+2} M(d+2, d+3, gamma rho)/(d+2) - beta^2 rho^d M(d, d+1, gamma rho)/d
    with M Kummer's function.  Arrays broadcast; scalars give a float.
    """
    if d not in (2, 3):
        raise ValueError("radial_moment supports d in {2, 3}")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0):
        raise ValueError("rho must be >= 0")
    z = rho * np.asarray(gam, dtype=float)
    out = (rho ** (d + 2) * hyp1f1(d + 2, d + 3, z) / (d + 2)
           - beta * beta * rho ** d * hyp1f1(d, d + 1, z) / d)
    return float(out) if np.ndim(out) == 0 else out


def radial_moment_drho(d: int, rho, gam, beta: float):
    """d m_d / d rho = e^{gamma rho} (rho^2 - beta^2) rho^{d-1}."""
    if d not in (2, 3):
        raise ValueError("radial_moment supports d in {2, 3}")
    rho = np.asarray(rho, dtype=float)
    gam = np.asarray(gam, dtype=float)
    out = np.exp(gam * rho) * (rho * rho - beta * beta) * rho ** (d - 1)
    return float(out) if np.ndim(out) == 0 else out


def _residual_parts(p, weights, gam_matrix, rho):
    m = radial_moment(p.d, rho[:, None], gam_matrix, p.beta)
    res = weights @ m
    scale = float(np.max(np.abs(m).T @ weights))
    return res, scale


def _lm_solve(p, grid, rho0, cfg):
    """Levenberg-Marquardt descent of the weighted residual with projection.

    Each test equation carries the square root of its direction's
    quadrature weight: the least-squares objective then discretizes the
    continuous family of conditions over the direction sphere.  Without
    the weights the anisotropy of a product grid makes J'R rough even
    for smooth residuals, and the (rank-deficient, smoothing) system
    cannot remove the injected high-frequency content.  The damping
    metric is likewise taken per unit node weight so that, at finite mu,
    the damped step of a rotation-symmetric problem stays rotation
    symmetric; both reduce to the plain Levenberg-Marquardt equations on
    uniform grids.  Convergence is still judged on the unweighted
    residual against residual_tol.
    """
    beta = p.beta
    lo = beta * (1.0 + 1e-6)
    hi = RADIUS_CAP * beta
    gm = _gamma_matrix(p, grid.nodes)
    w = grid.weights
    rw = np.sqrt(w)
    rho = np.clip(np.asarray(rho0, dtype=float), lo, hi)
    res, scale = _residual_parts(p, w, gm, rho)
    obj = (rw * res) @ (rw * res)
    mu = _DAMPING
    step_inf = np.inf
    iterations = 0
    while np.max(np.abs(res)) > cfg.residual_tol * scale and iterations < cfg.max_iterations:
        iterations += 1
        dm = radial_moment_drho(p.d, rho[:, None], gm, beta)
        jac = rw[:, None] * (w[:, None] * dm).T
        col_sq = (jac * jac).sum(axis=0)
        # damping metric: diag(J'J) per unit node weight (identical to
        # diag(J'J) on uniform grids).  Raw column norms carry the square
        # of the node weight, and damping against that injects 1/w_i
        # ripple on anisotropic product grids; see _lm_solve docstring.
        dmp = col_sq * (w.mean() / w)
        rhs = np.concatenate([-(rw * res), np.zeros(rho.size)])
        accepted = False
        for _ in range(60):
            # damped step min ||J delta + R||^2 + delta' (mu D + 1e-30 I) delta,
            # solved in augmented form: the kernel smooths, so J is badly
            # conditioned and forming J'J would square that
            aug = np.vstack([jac, np.diag(np.sqrt(mu * dmp + 1e-30))])
            delta = lstsq(aug, rhs, lapack_driver="gelsy")[0]
            cand = np.clip(rho + delta, lo, hi)
            res_c, scale_c = _residual_parts(p, w, gm, cand)
            obj_c = (rw * res_c) @ (rw * res_c)
            if obj_c < obj:
                step_inf = float(np.max(np.abs(cand - rho)))
                rho, res, scale, obj = cand, res_c, scale_c, obj_c
                mu = max(mu / 3.0, 1e-14)
                accepted = True
                break
            mu *= 4.0
        if not accepted or step_inf <= _STEP_TOL:
            break
    residual_inf = float(np.max(np.abs(res)))
    report = SolveReport(
        converged=residual_inf <= cfg.residual_tol * scale,
        iterations=iterations,
        residual_inf_norm=residual_inf,
        step_inf_norm=float(step_inf),
        residual_scale=scale,
    )
    return rho, report


def solve_boundary(p: QuadraticProblem, grid: SphereGrid,
                   cfg: SolveConfig | None = None):
    """Solve the discrete boundary equations; returns (StarBoundary, SolveReport).

    Cold start at _INIT_FACTOR * beta, or, with homotopy_steps > 0, a
    warm-started continuation from the symmetric problem with the same
    coefficient sum (beta is invariant along that path) to the target
    coefficients.  Non-convergence is reported, never raised.
    """
    if cfg is None:
        cfg = SolveConfig()
    if p.d != grid.d:
        raise ValueError("problem dimension %d != grid dimension %d" % (p.d, grid.d))
    if cfg.homotopy_steps == 0:
        rho, report = _lm_solve(p, grid, np.full(grid.n, _INIT_FACTOR * p.beta), cfg)
        return StarBoundary(grid, rho), report

    lam_target = p.lam
    lam_start = np.full(p.d, lam_target.mean())
    # symmetric-problem boundary in affine polar radius: rho = sqrt(lambda) R
    rho = np.full(grid.n, float(np.sqrt(lam_start[0]) * symmetric_radius(p.d, p.r)))
    trace = []
    iterations = 0
    for k in range(1, cfg.homotopy_steps + 1):
        t = k / cfg.homotopy_steps
        lam_k = (1.0 - t) * lam_start + t * lam_target
        p_k = QuadraticProblem(p.r, tuple(lam_k))
        rho, report = _lm_solve(p_k, grid, rho, cfg)
        iterations += report.iterations
        trace.append((tuple(lam_k), report.residual_inf_norm))
        if not report.converged:
            break
    report = replace(report, iterations=iterations, homotopy_trace=tuple(trace))
    if k < cfg.homotopy_steps:
        # an intermediate stage failed: judge its radii against the target problem
        gm = _gamma_matrix(p, grid.nodes)
        res, scale = _residual_parts(p, grid.weights, gm, rho)
        report = replace(report, residual_inf_norm=float(np.max(np.abs(res))),
                         residual_scale=scale)
    return StarBoundary(grid, rho), report
