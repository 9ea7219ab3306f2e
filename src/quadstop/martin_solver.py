"""Solver for the discretized Martin-kernel boundary equations.

In affine polar coordinates the condition "the integral of
e^{a.y} (r - L)g over the continuation set vanishes for every a with
|a|^2 = 2r" reduces, direction by direction, to

    sum_i w_i m_d(rho_i, gamma(omega_i, omega'_j); beta) = 0,

where m_d(rho, gamma; beta) = int_0^rho e^{gamma s}(s^2 - beta^2)
s^{d-1} ds is the radial moment and gamma couples a boundary node
omega_i to a test direction omega'_j.  The solver assembles the square
(or optionally 2x overdetermined) system on a sphere grid, evaluates
m_d and its rho-derivative in closed form (series near gamma = 0,
where the closed form loses all precision to gamma^{-(d+2)}
cancellation), and drives the radii with Levenberg-Marquardt on the
analytic Jacobian, projecting onto [beta(1+1e-6), cap] after every
step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lstsq

from .grids import SphereGrid, make_circle_grid, make_sphere_grid
from .problem import QuadraticProblem, StarBoundary, symmetric_radius

__all__ = [
    "SphereGrid",
    "SolveConfig",
    "SolveReport",
    "make_circle_grid",
    "make_sphere_grid",
    "radial_moment",
    "radial_moment_drho",
    "solve_boundary",
]


@dataclass(frozen=True)
class SolveConfig:
    max_iterations: int = 200
    residual_tol: float = 1e-9      # relative to the row scale max_j sum_i w_i |m_d|
    step_tol: float = 1e-11
    damping: float = 1e-3           # initial Levenberg parameter
    init_factor: float = 1.3        # start radii at init_factor * beta
    # anisotropic lambda makes the cold-start crawl (exponential residual
    # curvature keeps the damping high), so continuation is the default
    homotopy_steps: int = 4
    series_switch: float = 2.0      # |gamma| rho below this -> series branch
    rho_cap_factor: float = 50.0
    overdetermined: bool = False    # 2x test directions, least squares

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("residual_tol", "step_tol", "damping", "series_switch"):
            if getattr(self, name) <= 0.0:
                raise ValueError("%s must be > 0" % name)
        if self.init_factor <= 1.0:
            raise ValueError("init_factor must be > 1 (radii must start above beta)")
        if self.homotopy_steps < 0:
            raise ValueError("homotopy_steps must be >= 0")
        if self.rho_cap_factor <= 1.0:
            raise ValueError("rho_cap_factor must be > 1")


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


def _gamma_matrix(p: QuadraticProblem, nodes, test_nodes) -> np.ndarray:
    """gamma(omega_i, omega'_j) with nodes in rows, test directions in columns."""
    return np.sqrt(2.0 * p.r) * (nodes / p.sqrt_lam) @ test_nodes.T


def _en_closed(n: int, rho, gam):
    """int_0^rho e^{gamma s} s^n ds in closed form; needs gamma != 0."""
    invg = 1.0 / gam
    acc = np.zeros(np.broadcast(rho, gam).shape)
    c = 1.0
    for k in range(n + 1):
        acc += c * rho ** (n - k) * invg ** (k + 1)
        if k < n:
            c = -c * (n - k)
    # c is now (-1)^n n!
    return np.exp(gam * rho) * acc - c * invg ** (n + 1)


def radial_moment(d: int, rho, gam, beta: float, series_switch: float = 2.0):
    """m_d(rho, gamma; beta) = int_0^rho e^{gamma s}(s^2 - beta^2) s^{d-1} ds.

    Closed form (E_{d+1} - beta^2 E_{d-1} with E_n the incomplete
    exponential moments) when |gamma| rho >= series_switch; Taylor
    series in gamma below, where the closed form cancels catastrophically.
    Arrays broadcast.
    """
    if d not in (2, 3):
        raise ValueError("radial_moment supports d in {2, 3}")
    rho_b, gam_b = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                       np.asarray(gam, dtype=float))
    scalar = rho_b.ndim == 0
    rho_b = np.atleast_1d(rho_b).astype(float)
    gam_b = np.atleast_1d(gam_b).astype(float)
    if np.any(rho_b < 0.0):
        raise ValueError("rho must be >= 0")
    out = np.empty(rho_b.shape)
    ser = np.abs(gam_b) * rho_b < series_switch
    if ser.any():
        rs, gs = rho_b[ser], gam_b[ser]
        acc = np.zeros_like(rs)
        coef = np.ones_like(gs)  # gamma^m / m!
        b2 = beta * beta
        for m in range(34):
            acc += coef * (rs ** (d + m + 2) / (d + m + 2) - b2 * rs ** (d + m) / (d + m))
            coef = coef * gs / (m + 1)
        out[ser] = acc
    cl = ~ser
    if cl.any():
        rc, gc = rho_b[cl], gam_b[cl]
        out[cl] = _en_closed(d + 1, rc, gc) - beta * beta * _en_closed(d - 1, rc, gc)
    return float(out[0]) if scalar else out


def radial_moment_drho(d: int, rho, gam, beta: float):
    """d m_d / d rho = e^{gamma rho} (rho^2 - beta^2) rho^{d-1}."""
    if d not in (2, 3):
        raise ValueError("radial_moment supports d in {2, 3}")
    rho = np.asarray(rho, dtype=float)
    gam = np.asarray(gam, dtype=float)
    out = np.exp(gam * rho) * (rho * rho - beta * beta) * rho ** (d - 1)
    return float(out) if np.ndim(out) == 0 else out


def _test_grid_for(grid: SphereGrid, overdetermined: bool) -> SphereGrid:
    if not overdetermined:
        return grid
    if grid.d == 2:
        return make_circle_grid(2 * grid.n)
    n_lat, n_lon = grid.lat_shape
    return make_sphere_grid(n_lat, 2 * n_lon)


def _residual_parts(p, weights, gam_matrix, rho, series_switch):
    m = radial_moment(p.d, rho[:, None], gam_matrix, p.beta, series_switch)
    res = weights @ m
    scale = float(np.max(np.abs(m).T @ weights))
    return res, scale


def _lm_solve(p, grid, test_grid, rho0, cfg):
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
    hi = cfg.rho_cap_factor * beta
    gm = _gamma_matrix(p, grid.nodes, test_grid.nodes)
    w = grid.weights
    rw = np.sqrt(test_grid.weights)
    rho = np.clip(np.asarray(rho0, dtype=float), lo, hi)
    res, scale = _residual_parts(p, w, gm, rho, cfg.series_switch)
    obj = (rw * res) @ (rw * res)
    mu = cfg.damping
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
            res_c, scale_c = _residual_parts(p, w, gm, cand, cfg.series_switch)
            obj_c = (rw * res_c) @ (rw * res_c)
            if obj_c < obj:
                step_inf = float(np.max(np.abs(cand - rho)))
                rho, res, scale, obj = cand, res_c, scale_c, obj_c
                mu = max(mu / 3.0, 1e-14)
                accepted = True
                break
            mu *= 4.0
        if not accepted or step_inf <= cfg.step_tol:
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

    Cold start at init_factor * beta, or, with homotopy_steps > 0, a
    warm-started continuation from the symmetric problem with the same
    coefficient sum (beta is invariant along that path) to the target
    coefficients.  Non-convergence is reported, never raised.
    """
    if cfg is None:
        cfg = SolveConfig()
    if p.d != grid.d:
        raise ValueError("problem dimension %d != grid dimension %d" % (p.d, grid.d))
    test_grid = _test_grid_for(grid, cfg.overdetermined)

    if cfg.homotopy_steps == 0:
        rho, report = _lm_solve(p, grid, test_grid, np.full(grid.n, cfg.init_factor * p.beta), cfg)
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
        rho, report = _lm_solve(p_k, grid, test_grid, rho, cfg)
        iterations += report.iterations
        trace.append((tuple(lam_k), report.residual_inf_norm))
        if not report.converged:
            break
    report = replace(report, iterations=iterations, homotopy_trace=tuple(trace))
    if k < cfg.homotopy_steps:
        # an intermediate stage failed: judge its radii against the target problem
        gm = _gamma_matrix(p, grid.nodes, test_grid.nodes)
        res, scale = _residual_parts(p, grid.weights, gm, rho, cfg.series_switch)
        report = replace(report, residual_inf_norm=float(np.max(np.abs(res))),
                         residual_scale=scale)
    return StarBoundary(grid, rho), report
