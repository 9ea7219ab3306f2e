"""Solver for the discretized Martin-kernel boundary equations.

In affine polar coordinates the condition "the integral of
e^{a.y} (r - L)g over the continuation set vanishes for every a with
|a|^2 = 2r" reduces, direction by direction, to

    sum_i w_i m_d(rho_i, gamma(omega_i, omega'_j); beta) = 0,

where m_d(rho, gamma; beta) = int_0^rho e^{gamma s}(s^2 - beta^2)
s^{d-1} ds is the radial moment and gamma couples a boundary node
omega_i to a test direction omega'_j.  The discretization takes the
grid's own nodes as test directions.  For the diagonal reward gamma is
invariant under every coordinate flip, and so are these equations and
their solution; the solver therefore takes one radius per reflection
orbit of the grid (`SphereGrid.reflection_orbits`) as unknowns and one
representative node per orbit as test direction, with every sum over
boundary nodes still taken over the whole grid.  The square system on
the orbits has the nodal Levenberg-Marquardt iterates (see `_lm_solve`)
at n x n_orbits moments per assembly instead of n^2.
With z = gamma rho, m_d = rho^{d+2} F_{d+1}(z) - beta^2 rho^d F_{d-1}(z)
for the integer-order moments F_k(z) = int_0^1 e^{zt} t^k dt, which are
elementary: one e^z gives both, through a Taylor series and a downward
recurrence for |z| <= 2.5 and through the closed form with the
truncated exponential series beyond (see _power_moments).  Neither
regime cancels near gamma = 0; the rho-derivative of m_d is the
integrand.
Levenberg-Marquardt on that analytic Jacobian drives the radii,
projecting onto [beta(1+1e-6), RADIUS_CAP beta] after every step, with
RADIUS_CAP the bound `class_membership_check` holds the radii to.  The
step is damped in the quadrature metric sum_i w_i delta_i^2 of the
unknowns, the L^2 regularizer of this first-kind equation.  The
damping follows the gain ratio of each accepted step (Nielsen's rule,
Madsen, Nielsen & Tingleff 2004, section 3.2) against the second-order
model of the residual, and a trial that model predicts to rise is
refused before its residual is evaluated.  Each trial adds to the
damped velocity v the geodesic acceleration a/2 (Transtrum, Machta &
Sethna 2011; Transtrum & Sethna 2012) while 2|a| <= 0.75 |v| in the same
metric: a solves the same damped system with the residual's second
derivative along v on the right, which is exact and cheap here because
each radius enters the equations through its own nodes only, so the
Hessian is diagonal and d^2 m_d/d rho^2 is the integrand times its
log-derivative.  Without it the steps crawl through the ill-posed modes
of the smoothing kernel; with it they follow the curved valley.  A
trial's damped matrix, of full rank by its damping rows, is factored
once by `lstsq`, a QR through scipy, and v and a are solved on that.
`solve_boundary` solves the canonical problem of `QuadraticProblem.canonical`
(r = 1/2, mean lambda 1), whose stopping set is the target's up to a
dilation, and maps its radii and residuals back.  It continues in lambda
over equal stages, each started at the secant prediction from the two
before it and at the damping the stage before it ended at; only the
target stage is solved to _RESIDUAL_TOL, the stages before it to
_STAGE_TOL.  Where the grid has a half grid (`grids.half_grid`: every
other angle of each circle, at least 64 nodes) those earlier stages run
on it, and the target starts from their interpolated secant prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .grids import SphereGrid, half_grid
from .problem import RADIUS_CAP, QuadraticProblem, StarBoundary, symmetric_radius

__all__ = [
    "SolveReport",
    "radial_moment",
    "radial_moment_drho",
    "solve_boundary",
]

_INIT_FACTOR = 1.3    # a cold start puts every radius at _INIT_FACTOR * beta
_MAX_ITERATIONS = 200  # Levenberg-Marquardt steps per stage
_DAMPING = 1e-3       # Levenberg parameter at the start of a solve's first stage
# the tolerances act on the canonical problem, the same at every r and scale of lambda
_STEP_TOL = 1e-11     # stop when an accepted step moves no canonical radius by more
_RESIDUAL_TOL = 1e-9  # converged when max |R| <= _RESIDUAL_TOL * max_j sum_i w_i |m_d|
_STAGE_TOL = 1e-6     # the same test for a homotopy stage before the target
_ACCEL_RATIO = 0.75   # a trial takes v + a/2 while 2|a| <= _ACCEL_RATIO |v|
_SERIES_MAX = 2.5     # |gamma rho| up to which the radial moments take the Taylor series
_SERIES_TERMS = 27    # the first term left out is below 1e-17 of F_{d+1} at |z| = 2.5
# Taylor coefficients 1/(n! (n+d+2)) of F_{d+1}, highest power first
_SERIES = {d: np.array([1.0 / (math.factorial(n) * (n + d + 2))
                        for n in reversed(range(_SERIES_TERMS))]) for d in (2, 3)}


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve.

    iterations counts Levenberg-Marquardt steps (Jacobian evaluations),
    summed over the stages, and stage_iterations splits it by stage, in
    stage order; stage_nodes gives the node count of the grid each stage
    ran on: the half grid's (`half_grid`, at least 64 nodes) for the
    stages before the target where solve_boundary uses it, the solve's
    grid's for the target and for every stage on smaller grids.
    accelerated_steps counts those steps whose accepted step carried the
    geodesic acceleration.  homotopy_trace holds (lambdas, residual inf-norm) of
    every stage run, the cold start's one stage included, each residual
    on the grid its stage ran on.  converged, stop and step_inf_norm are
    the last stage's, converged judged against _STAGE_TOL for a stage
    before the target and _RESIDUAL_TOL for the target; stop is why that
    stage ended, one of STOP_REASONS, and step_inf_norm is None when it
    accepted no step.  The residual is always that of the target
    problem, also when an earlier stage failed.
    """

    converged: bool
    stop: str
    iterations: int
    stage_iterations: tuple
    stage_nodes: tuple
    accelerated_steps: int
    residual_inf_norm: float
    step_inf_norm: float | None
    residual_scale: float
    homotopy_trace: tuple


# why a stage ended: its tolerance met, _MAX_ITERATIONS steps taken, no trial of a
# step descending, or an accepted step moving no canonical radius by more than _STEP_TOL
STOP_REASONS = ("converged", "step cap", "no descending trial", "step below tolerance")


def radial_moment(d: int, rho, gam, beta: float):
    """m_d(rho, gamma; beta) = int_0^rho e^{gamma s}(s^2 - beta^2) s^{d-1} ds.

    rho^{d+2} F_{d+1}(z) - beta^2 rho^d F_{d-1}(z) with z = gamma rho and
    F_k(z) = int_0^1 e^{zt} t^k dt (see _power_moments).  Arrays
    broadcast; scalars give a float.  Where a term overflows, and past
    z ~ 709.78, where e^z does, m is inf or nan.
    """
    if d not in (2, 3):
        raise ValueError("radial_moment supports d in {2, 3}")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0):
        raise ValueError("rho must be >= 0")
    f_lo, out = _power_moments(d, rho * np.asarray(gam, dtype=float))
    rho_d = rho * rho if d == 2 else rho * rho * rho
    with np.errstate(over="ignore", invalid="ignore"):
        out *= rho_d * rho * rho
        f_lo *= beta * beta * rho_d
        out -= f_lo
    return float(out) if np.ndim(out) == 0 else out


def _power_moments(d: int, z):
    """(F_{d-1}(z), F_{d+1}(z)) with F_k(z) = int_0^1 e^{zt} t^k dt = M(k+1, k+2, z)/(k+1).

    One e^z per entry serves both.  For |z| > _SERIES_MAX it is the closed
    form F_k = (k! - e^z S_k(x))/x^{k+1} with x = -z and
    S_k(x) = k! e_k(x) = sum_{j<=k} k!/j! x^j, e_k the exponential series
    cut after x^k (DLMF 8.4.7, 13.6.5).  It is evaluated as
    k!/x^{k+1} - e^z (S_k/x^{k+1}), finite wherever e^z is, and the
    rounding of the common factor 1/x^{k+1} is not amplified where the
    two terms cancel (z just below -_SERIES_MAX).  S_{d-1} is a Horner
    sum and S_{k+1} = (k+1) S_k + x^{k+1} gives S_{d+1}.  For
    |z| <= _SERIES_MAX, F_{d+1} is its Taylor series
    sum_n z^n/(n! (n+d+2)) and F_{d-1} follows by two steps of
    F_{k-1} = (e^z - z F_k)/k, which scale the error of F_{d+1} by
    |z|^2/(d(d+1)) <= 1.05.
    """
    shape = np.shape(z)
    z = np.ravel(z)
    f_lo = np.empty(z.size)
    f_hi = np.empty(z.size)
    # integer indices: applying a mixed boolean mask is several times slower
    series = np.abs(z) <= _SERIES_MAX
    at_s = np.flatnonzero(series)
    at_c = np.flatnonzero(~series)
    zs = z[at_s]
    f = np.full(zs.shape, _SERIES[d][0])
    for c in _SERIES[d][1:]:
        f *= zs
        f += c
    f_hi[at_s] = f
    e = np.exp(zs)
    f *= zs
    np.subtract(e, f, out=f)
    f *= zs / (d + 1)
    np.subtract(e, f, out=f)
    f /= d
    f_lo[at_s] = f
    zc = z[at_c]
    x = -zc
    xx = x * x
    x_d = xx if d == 2 else xx * x
    s = x + 1.0 if d == 2 else (x + 2.0) * x + 2.0  # S_{d-1}
    with np.errstate(over="ignore"):
        e = np.exp(zc)
    r = 1.0 / x_d
    f_lo[at_c] = math.factorial(d - 1) * r - e * (s * r)
    s *= d
    s += x_d
    s *= d + 1
    s += x_d * x  # S_{d+1}
    r /= xx
    f_hi[at_c] = math.factorial(d + 1) * r - e * (s * r)
    return f_lo.reshape(shape), f_hi.reshape(shape)


def radial_moment_drho(d: int, rho, gam, beta: float):
    """d m_d / d rho = e^{gamma rho} (rho^2 - beta^2) rho^{d-1}."""
    if d not in (2, 3):
        raise ValueError("radial_moment_drho supports d in {2, 3}")
    rho = np.asarray(rho, dtype=float)
    gam = np.asarray(gam, dtype=float)
    out = np.exp(gam * rho) * (rho * rho - beta * beta) * (rho if d == 2 else rho * rho)
    return float(out) if np.ndim(out) == 0 else out


def lstsq(a):
    """The least-squares solver b -> R^-1 Q'b of a x = b, from one economic QR a = QR.

    No column pivoting and no rank cutoff: a must have full column rank,
    as `_OrbitSystem.step`'s damped matrices have by their positive
    diagonal damping rows.
    """
    q, r = scipy.linalg.qr(a, mode="economic", check_finite=False)
    return lambda b: scipy.linalg.solve_triangular(r, q.T @ b, check_finite=False)


class _OrbitSystem:
    """The Martin equations of one problem, reduced to the grid's reflection orbits.

    Unknowns are one radius per orbit and test directions one
    representative node per orbit; every sum over boundary nodes still
    runs over all n nodes, so one assembly costs n x n_orbits moments.
    """

    def __init__(self, p, grid, orbits):
        reps, self.orbit_of = orbits
        self.p = p
        self.w = grid.weights
        # members[o, i] = 1 for the nodes i of orbit o
        self.members = np.zeros((reps.size, grid.n))
        self.members[self.orbit_of, np.arange(grid.n)] = 1.0
        # row o stands for the |o| equal equations of its orbit, each of weight w_o
        self.row_w = np.sqrt(np.bincount(self.orbit_of) * self.w[reps])
        # gamma(omega_i, omega'_o): all nodes in rows, representatives in columns
        self.gam = np.sqrt(2.0 * p.r) * (grid.nodes / p.sqrt_lam) @ grid.nodes[reps].T

    def residual(self, x):
        """(R_o, scale): R at each representative and max_j sum_i w_i |m_d|."""
        m = radial_moment(self.p.d, x[self.orbit_of][:, None], self.gam, self.p.beta)
        return self.w @ m, float(np.max(np.abs(m).T @ self.w))

    def linearization(self, x):
        """(J, K): the weighted reduced Jacobian and second derivative.

        J[o, q] = sqrt(|o| w_o) sum_{i in q} w_i dm(i, o), the nodal
        Jacobian's row at o's representative with the columns of q's
        members summed.  Each radius enters R through its own nodes
        only, so the Hessian of every R_o is diagonal, and
        K[o, q] = sqrt(|o| w_o) sum_{i in q} w_i d2m(i, o) holds it: the
        weighted second derivative of R along v is K v^2.  The rho-
        derivative of dm = e^{gamma rho}(rho^2 - beta^2) rho^{d-1} is
        d2m = dm (gamma + 2 rho/(rho^2 - beta^2) + (d - 1)/rho), so K
        costs no exp beyond J's.
        """
        d, beta = self.p.d, self.p.beta
        rho = x[self.orbit_of][:, None]
        wdm = self.w[:, None] * radial_moment_drho(d, rho, self.gam, beta)
        jac = self.row_w[:, None] * (self.members @ wdm).T
        wdm *= self.gam + (2.0 * rho / (rho * rho - beta * beta) + (d - 1) / rho)
        return jac, self.row_w[:, None] * (self.members @ wdm).T

    def step(self, res, jac, curv, mu):
        """(h, accelerated): the trial step of damping mu and whether it is accelerated.

        The velocity v minimizes
        ||J v + sqrt(|o| w_o) R||^2 + mu s sum_o |o| w_o v_o^2, with
        s = |J|_F^2 / sum_i w_i making the damping scale with J'J.
        |J|_F is summed over J divided by the power of two _pow2_below
        picks, so it is exact and finite where the sum of J^2 would
        overflow (e^{gamma rho} near the largest double).  The
        geodesic acceleration a solves the same damped problem with
        K v^2, the second derivative of the weighted residual along v,
        in place of the residual (Transtrum & Sethna 2012).  The step is
        v + a/2 when 2|a| <= _ACCEL_RATIO |v| in the metric of the
        damping, and v otherwise.  Both are solved in augmented form,
        on one QR (`lstsq`) of [J; D] with D = diag(sqrt(mu s |o| w_o)):
        the kernel smooths, so J is badly conditioned and forming J'J
        would square that.  D is positive, so [J; D] has full column rank
        whatever the rank of J.
        """
        u = _pow2_below(jac)
        ju = jac / u
        damp = u * math.sqrt(mu * float((ju * ju).sum()) / self.w.sum())
        solve = lstsq(np.vstack([jac, np.diag(damp * self.row_w)]))
        zeros = np.zeros(res.size)
        v = solve(np.concatenate([-(self.row_w * res), zeros]))
        a = solve(np.concatenate([-(curv @ (v * v)), zeros]))
        wa, wv = self.row_w * a, self.row_w * v
        if 4.0 * (wa @ wa) <= _ACCEL_RATIO ** 2 * (wv @ wv):
            return v + 0.5 * a, True
        return v, False


def _pow2_below(a):
    """The power of two at or below max |a|, and 1 where that is 0 or not finite.

    Dividing by it is exact and puts the largest entry in [1, 2), so
    squares and sums of squares of the quotient do not overflow.
    """
    top = float(np.max(np.abs(a)))
    return math.ldexp(1.0, math.frexp(top)[1] - 1) if 0.0 < top < math.inf else 1.0


class _Stage(NamedTuple):
    """The outcome of one _lm_solve run (see there)."""

    x: np.ndarray
    res: np.ndarray
    scale: float
    iterations: int
    step_inf: float
    stop: str
    accelerated: int
    mu: float


def _lm_solve(p, grid, orbits, x0, tol, mu):
    """Levenberg-Marquardt descent of the weighted residual with projection.

    Each test equation carries the square root of its direction's
    quadrature weight: the least-squares objective then discretizes the
    continuous family of conditions over the direction sphere.  Without
    the weights the anisotropy of a product grid makes J'R rough even
    for smooth residuals, and the (rank-deficient, smoothing) system
    cannot remove the injected high-frequency content.  The step is
    damped in the same quadrature metric, by mu |J|_F^2 / sum_i w_i
    times sum_i w_i delta_i^2 (Hansen 1998, the L^2 regularizer of a
    first-kind equation); both reduce to the plain Levenberg equations
    on uniform grids.  Convergence is still judged on the unweighted
    residual: it stops once max |R| <= tol * scale, with tol
    _RESIDUAL_TOL for the target problem and _STAGE_TOL for a homotopy
    stage before it.

    The unknowns are the radii of the grid's reflection orbits, x0 and
    the result one per orbit.  For a diagonal reward gamma is invariant
    under every coordinate flip, so at a flip-symmetric state the
    residual is equal across each orbit of test directions, and the
    nodal damped step, the unique minimizer of a flip-invariant
    problem, is itself symmetric.  Restricted to symmetric steps, the
    nodal objective is sum_o |o| w_o R_o^2 and the nodal damping term
    is mu s sum_o |o| w_o delta_o^2 (s as in _OrbitSystem.step).  The
    reduced step is therefore the nodal step, iterate for iterate up to
    rounding, and the largest residual over the representatives is the
    largest over all test directions.

    Every trial adds to the damped velocity v the second-order
    correction a/2 of geodesic acceleration (Transtrum, Machta & Sethna
    2011; Transtrum & Sethna 2012), while 2|a| <= _ACCEL_RATIO |v| (see
    _OrbitSystem.step), and takes v alone otherwise.  a is computed on
    every trial, from the same damped matrix as v.  The velocity alone
    follows the linear model and crawls along the curved valley of the
    ill-posed modes; the correction follows the valley's curvature,
    which the exact second derivative K gives at no extra residual
    evaluation.  Each trial thus costs one QR of the damped matrix, and
    one residual unless the model refuses it.

    The damping starts at mu and follows Nielsen's gain-ratio rule
    (H. B. Nielsen, IMM-REP-1999-05; Madsen, Nielsen & Tingleff 2004,
    section 3.2), with the model the accelerated step is built from.
    With b the weighted residual, F = |b|^2 the objective and h the
    projected step, the second-order model predicts the fall
    F - |b + J h + K h^2 / 2|^2.  F, the trial's objective and that
    fall are all taken in units of u^2, u = _pow2_below(b) at the
    stage's starting point, and an accepted trial's objective is the
    next step's F.  u is a power of two, so every comparison and the
    gain ratio are the same to the last bit as in plain units.  F only
    falls within the stage, so |b/u| stays below 2 sqrt(n_orbits), and
    none of them overflows where |b|^2 would.  A trial whose predicted
    fall is not positive is refused without evaluating its residual;
    otherwise it is accepted when its objective is finite and below F.
    The gain ratio g is the actual fall over the predicted one, folded
    at 1 to
    gain = max(1 - |1 - g|, 0): a fall well past the predicted one
    shows a model as far off as one well short of it, and after an
    accelerated step the linear model's prediction is off by the
    curvature the correction follows, so judging by it (or leaving
    g > 1 unfolded) divides mu by 3 into trials the model no longer
    describes.  An accepted step scales mu by
    max(1/3, 1 - (2 gain - 1)^3), down to a floor of 1e-14; a refused or
    rejected trial multiplies mu by nu, which starts at 2 for every step
    and doubles with each rejection.  A trial step whose objective
    overflows (e^{gamma rho} past the largest double) is rejected like
    one that does not descend.  A trial whose step rounds away, leaving
    the radii unchanged, ends the step unaccepted: a larger mu only
    shrinks it, and mu would overflow within the 60 trials a step may
    take.

    Returns the _Stage (x, res, scale, iterations, step_inf, stop,
    accelerated, mu): the radii, the residual R and its scale there, the
    steps taken (at most _MAX_ITERATIONS), the inf-norm of the last
    accepted step (inf if none was), why the stage stopped (one of
    STOP_REASONS), the number of accepted steps that were accelerated,
    and the damping the stage ended at, which solve_boundary hands to
    the next stage.
    """
    lo = p.beta * (1.0 + 1e-6)
    hi = RADIUS_CAP * p.beta
    system = _OrbitSystem(p, grid, orbits)
    rw = system.row_w
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    res, scale = system.residual(x)
    unit = _pow2_below(rw * res)
    b = rw * res / unit
    obj = float(b @ b)
    step_inf = np.inf
    iterations = accelerated = 0
    while True:
        if np.max(np.abs(res)) <= tol * scale:
            stop = "converged"
            break
        if step_inf <= _STEP_TOL:
            stop = "step below tolerance"
            break
        if iterations == _MAX_ITERATIONS:
            stop = "step cap"
            break
        iterations += 1
        jac, curv = system.linearization(x)
        accepted = False
        nu = 2.0
        for _ in range(60):
            h, fast = system.step(res, jac, curv, mu)
            cand = x + h
            if np.array_equal(cand, x):
                break  # the step rounds away, and a larger mu only shrinks it
            cand = np.clip(cand, lo, hi)
            h = cand - x
            model = (rw * res + jac @ h + 0.5 * (curv @ (h * h))) / unit
            predicted = obj - model @ model
            if predicted > 0.0:
                res_c, scale_c = system.residual(cand)
                with np.errstate(over="ignore"):
                    b_c = rw * res_c / unit
                    obj_c = b_c @ b_c
                if np.isfinite(obj_c) and obj_c < obj:
                    # the gain ratio, folded at 1: a fall past the predicted one
                    # misjudges the step as much as one that falls short of it
                    gain = max(1.0 - abs(1.0 - (obj - obj_c) / predicted), 0.0)
                    step_inf = float(np.max(np.abs(h)))
                    x, res, scale, obj = cand, res_c, scale_c, obj_c
                    mu = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 1e-14)
                    accepted = True
                    accelerated += fast
                    break
            mu *= nu
            nu *= 2.0
        if not accepted:
            stop = "no descending trial"
            break
    return _Stage(x, res, scale, iterations, float(step_inf), stop, accelerated, mu)


def solve_boundary(p: QuadraticProblem, grid: SphereGrid, *, homotopy_steps: int = 4):
    """Solve the discrete boundary equations; returns (StarBoundary, SolveReport).

    Solves the canonical problem (q, c) = p.canonical() and maps the
    result back: radii and step times c, residuals and their scale
    times c^(d+2), so the solve takes the same steps at every r and
    every scale of lambda.  Runs _lm_solve once per stage and stops
    after the first stage that does not converge.  The stages continue
    in max(homotopy_steps, 1) equal steps t from the symmetric problem
    along lambda = 1 - t + t lambda_q (beta is invariant along that
    path) to q, whose coefficients the last stage hits exactly.  They
    start at the symmetric problem's analytic radius, or, with
    homotopy_steps = 0, cold at _INIT_FACTOR * beta: that is one stage,
    q itself.  Anisotropic lambda makes the cold start crawl
    (exponential residual curvature keeps the damping high), so
    continuation is the default.  The trace gives each stage's
    coefficients in p's units.  The steps being equal, stage k+1
    starts at the secant prediction 2 x_k - x_{k-1} from the radii of
    the two stages before it (the first stage at the starting radii
    themselves), and at the damping mu stage k ended at.  The first
    stage starts at _DAMPING, so a one-stage solve is unchanged by
    this.  Nielsen's rule lowers mu by at most 3 times per accepted
    step, so a stage restarted at _DAMPING spends its first steps
    shedding a damping the stage before it already shed, one
    continuation step away (Allgower & Georg 1990, ch. 2).
    Only the target's radii are returned, so the stages
    before it stop at _STAGE_TOL and only the target is solved to
    _RESIDUAL_TOL: past about 1e-7 the Levenberg-Marquardt steps crawl
    through the ill-posed modes of the smoothing kernel.  For the same
    reason the stages before the target run on `half_grid(grid)`, every
    other angle of each circle and a quarter of the moments per
    assembly, when there is one (at least HALF_GRID_MIN_NODES nodes) and
    there are at least two stages; the target starts at the
    interpolated secant prediction and is solved on grid as before
    (nested iteration, Hackbusch 1985, ch. 5).  A half-grid stage that
    stops short ends the solve like any other stage: its radii,
    interpolated onto grid, are returned and judged against the target.
    Non-convergence is reported, never raised; a problem whose c^(d+2)
    overflows a float raises ValueError before any solving.
    """
    if homotopy_steps < 0:
        raise ValueError("homotopy_steps must be >= 0")
    if p.d != grid.d:
        raise ValueError("problem dimension %d != grid dimension %d" % (p.d, grid.d))
    orbits = grid.reflection_orbits()
    reps, orbit_of = orbits
    q, c = p.canonical()
    try:
        unit = c ** (p.d + 2)  # of the radial moments, residuals and their scale
    except OverflowError:
        raise ValueError("the residual unit c^(d+2) overflows at c = sqrt(mean(lambda) / (2r))"
                         " = %.3g: rescale lambda or r" % c) from None
    n_stages = max(homotopy_steps, 1)
    coarse = half_grid(grid) if n_stages > 1 else None
    if coarse is None:
        stage_grid, stage_orbits, to_target = grid, orbits, lambda x: x
    else:
        stage_grid, prolong = coarse
        stage_orbits = stage_grid.reflection_orbits()
        # radii per half-grid orbit, to its nodes, interpolated, to the grid's orbits
        to_target = lambda x: prolong(x[stage_orbits[1]])[reps]
    x = np.full(stage_orbits[0].size, symmetric_radius(p.d, 0.5) if homotopy_steps
                else _INIT_FACTOR * q.beta)
    trace, stage_iterations, stage_nodes = [], [], []
    accelerated = 0
    mu = _DAMPING
    x_prev = x  # 2x - x is x exactly: stage 1 starts at x itself
    for k in range(1, n_stages + 1):
        t = k / n_stages
        tol = _RESIDUAL_TOL if k == n_stages else _STAGE_TOL
        # secant predictor: the stages are equal steps in t
        x_start = 2.0 * x - x_prev
        x_prev = x
        if k == n_stages:
            x_start = to_target(x_start)
            stage_grid, stage_orbits = grid, orbits
        q_t = QuadraticProblem(0.5, tuple((1.0 - t) + t * q.lam))
        stage = _lm_solve(q_t, stage_grid, stage_orbits, x_start, tol, mu)
        x, res, scale, mu = stage.x, stage.res, stage.scale, stage.mu
        stage_iterations.append(stage.iterations)
        stage_nodes.append(stage_grid.n)
        accelerated += stage.accelerated
        trace.append((tuple(((1.0 - t) * p.lam.mean() + t * p.lam).tolist()),
                      unit * float(np.max(np.abs(res)))))
        if stage.stop != "converged":
            break
    if k < n_stages:
        # a stage before the target failed: judge its radii, on grid, against the target
        x = to_target(x)
        res, scale = _OrbitSystem(q, grid, orbits).residual(x)
    report = SolveReport(
        converged=stage.stop == "converged",
        stop=stage.stop,
        iterations=sum(stage_iterations),
        stage_iterations=tuple(stage_iterations),
        stage_nodes=tuple(stage_nodes),
        accelerated_steps=accelerated,
        residual_inf_norm=unit * float(np.max(np.abs(res))),
        step_inf_norm=None if stage.step_inf == np.inf else c * stage.step_inf,
        residual_scale=unit * scale,
        homotopy_trace=tuple(trace),
    )
    return StarBoundary(grid, c * x[orbit_of]), report
