"""Reference computations the tests compare the package against.

Nothing here is on the package's production path (`solve_boundary`,
`run_verification` and the CLI).  Each function is an independent route
to a quantity the package computes, or a property the paper's calculus
predicts:

* kernel constructions: the heat kernel, discrete mixtures of Martin
  kernels (r-harmonic functions), Green-kernel ratios in log space and
  the hyperplane-integral identity;
* the resolvent kernel as the Laplace transform of the heat kernel;
* the symmetric d = 2 stopping radius from the discrete radial obstacle
  problem, solved by policy iteration;
* the Green measure of a rectangle and its strong-Markov decomposition;
* the d = 3 excess E(x) at any point x, by importance-sampled Monte
  Carlo over the boundary's piecewise-constant surface;
* the finiteness ratio g / I_0;
* the radial moment through Kummer's function, and the audit of an
  alternative published form of it;
* the damped least-squares solver through scipy.linalg's `qr` and
  `solve_triangular`, whose bits `martin_solver.lstsq` keeps, and the
  boundary CSV through `np.savetxt`, whose bytes `save_boundary_csv`
  keeps;
* the walk-on-spheres radii of `_SafeBalls`, carried from disc to disc,
  with the curve evaluated by numpy's polyval, and its clearance grid
  node by node;
* the curve point nearest a point by Newton's method with second
  derivatives, which the package's Gauss-Newton iterates do without;
* the coordinate flips of a grid found from its node coordinates, which
  the package reads off the grid's shape;
* small conveniences with no caller in the package: K_nu unscaled and
  in log form, affine polar coordinates of a point, the excess
  generator (r - L)g and its negative set, the d = 2 boundary curve and
  its first two derivatives, the full n x n Martin residual and
  Jacobian of a given boundary, with every grid node a test direction,
  and the radial moment and its rho-derivative at (rho, gamma), with
  the exponential e^{gamma rho} they take evaluated here.

One-dimensional integrals go through `quad`, scipy's QUADPACK with its
accuracy warnings raised as errors, so a reference never returns a value
its integrator did not certify.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.special as sps
from numpy.polynomial.polynomial import polyval
from scipy import integrate
from scipy.linalg import qr, solve_banded, solve_triangular

from quadstop.dataio import SCHEMA_VERSION
from quadstop.kernels import (KillingConfig, bessel_K_scaled, green_kernel_radial,
                              green_kernel_radial_ds, martin_kernel)
from quadstop.martin_solver import radial_moment, radial_moment_drho
from quadstop.problem import QuadraticProblem, StarBoundary, symmetric_radius
from quadstop.verification import (_BLOCK_ENTRIES, _GL16_W, _GL16_X, _WALK_SAMPLES, MCConfig,
                                   _chunked_mean)


def quad(f, a, b, epsrel=1e-12, epsabs=0.0, **kw):
    """scipy.integrate.quad's value, with IntegrationWarning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        return integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, **kw)[0]


# ---------------------------------------------------------------------------
# conveniences with no caller in the package

def bessel_K(order, u):
    """K_nu(u) = e^{-u} (e^u K_nu(u)); underflows to 0.0 past u ~ 745."""
    out = bessel_K_scaled(order, u) * np.exp(-np.asarray(u, dtype=float))
    return float(out) if np.ndim(out) == 0 else out


def bessel_K_log(order, u):
    """log K_nu(u), finite far past the underflow point."""
    out = np.log(bessel_K_scaled(order, u)) - np.asarray(u, dtype=float)
    return float(out) if np.ndim(out) == 0 else out


def _point(x, d, name="point"):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != d or not np.all(np.isfinite(x)):
        raise ValueError("%s must be a finite vector of dimension %d" % (name, d))
    return x


def to_polar(p: QuadraticProblem, x):
    """Inverse of p.to_cartesian: (omega, rho) with rho = sqrt(g(x)).

    At x = 0 the angle is undefined; omega = e_1 is returned with rho = 0.0.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (p.d,):
        raise ValueError("to_polar expects a single point of dimension %d" % p.d)
    z = p.sqrt_lam * x
    rho = float(np.sqrt(z @ z))
    if rho == 0.0:
        omega = np.zeros(p.d)
        omega[0] = 1.0
        return omega, 0.0
    return z / rho, rho


def excess_generator(p: QuadraticProblem, x):
    """(r - L)g at x for L = Laplacian/2: equals r (g(x) - beta^2)."""
    return p.r * (p.reward(x) - p.beta_sq)


def negative_set_contains(p: QuadraticProblem, x):
    """Whether x lies in the negative set g(x) <= beta^2 of (r - L)g."""
    out = p.reward(x) <= p.beta_sq
    return bool(out) if np.ndim(out) == 0 else out


def gamma(p: QuadraticProblem, omega, omega_prime) -> float:
    """Coupling sqrt(2r) sum_k omega_k omega'_k / sqrt(lambda_k)."""
    omega = np.asarray(omega, dtype=float)
    omega_prime = np.asarray(omega_prime, dtype=float)
    if omega.shape != (p.d,) or omega_prime.shape != (p.d,):
        raise ValueError("direction vectors must have dimension %d" % p.d)
    return float(np.sqrt(2.0 * p.r) * (omega / p.sqrt_lam) @ omega_prime)


def gamma_matrix(p: QuadraticProblem, nodes) -> np.ndarray:
    """gamma(omega_i, omega'_j) with every node both a boundary node (row) and a test direction."""
    nodes = np.asarray(nodes, dtype=float)
    return np.sqrt(2.0 * p.r) * (nodes / p.sqrt_lam) @ nodes.T


def flip_permutations(grid):
    """{axis: perm} for each coordinate flip that maps the grid's nodes onto nodes (to 1e-9).

    perm is the node index of every node's mirror image, found by a
    dense distance match of the coordinates.
    """
    perms = {}
    for axis in range(grid.d):
        flipped = grid.nodes.copy()
        flipped[:, axis] *= -1.0
        dist = np.linalg.norm(flipped[:, None, :] - grid.nodes[None, :, :], axis=2)
        if np.all(dist.min(axis=1) <= 1e-9):
            perms[axis] = np.argmin(dist, axis=1)
    return perms


def _exp(rho, gam):
    """e^{gamma rho}, inf where it overflows."""
    with np.errstate(over="ignore"):
        return np.exp(np.asarray(rho, dtype=float) * np.asarray(gam, dtype=float))


def moment(d, rho, gam, beta):
    """radial_moment at (rho, gamma), with the e^{gamma rho} it takes evaluated here."""
    return radial_moment(d, rho, gam, beta, _exp(rho, gam))


def moment_drho(d, rho, gam, beta):
    """radial_moment_drho at (rho, gamma), with the e^{gamma rho} it takes evaluated here."""
    return radial_moment_drho(d, rho, beta, _exp(rho, gam))


def scipy_lstsq(a):
    """b -> R^-1 Q'b from scipy.linalg's economic QR a = QR and triangular solve.

    What `martin_solver.lstsq` computed before it called LAPACK itself,
    with scipy's argument checks and workspace queries on every call.
    """
    q, r = qr(a, mode="economic", check_finite=False)
    return lambda b: solve_triangular(r, q.T @ b, check_finite=False)


def savetxt_boundary_csv(path, p: QuadraticProblem, b: StarBoundary) -> None:
    """The boundary CSV of `dataio.save_boundary_csv`, written row by row by np.savetxt."""
    fmt = "%.17g"
    if p.d == 2:
        columns, index, fmts = "theta,rho,x1,x2", [b.grid.angles], [fmt]
    else:
        lat, lon = np.divmod(np.arange(b.grid.n), b.grid.lat_shape[1])
        columns, index, fmts = "lat_index,lon_index,rho,x1,x2,x3", [lat, lon], ["%d", "%d"]
    header = "# schema_version=%d\n# problem r=%s lambdas=%s\n%s" % (
        SCHEMA_VERSION, fmt % p.r, ",".join(fmt % v for v in p.lam), columns)
    np.savetxt(path, np.column_stack(index + [b.radii, b.cartesian_points(p)]),
               fmt=fmts + [fmt] * (p.d + 1), delimiter=",", header=header, comments="")


def assemble_residual(p: QuadraticProblem, b: StarBoundary) -> np.ndarray:
    """R_j = sum_i w_i m_d(rho_i, gamma_ij; beta), one entry per test direction (all n nodes)."""
    if p.d != b.grid.d:
        raise ValueError("problem dimension %d != grid dimension %d" % (p.d, b.grid.d))
    m = moment(p.d, b.radii[:, None], gamma_matrix(p, b.grid.nodes), p.beta)
    return b.grid.weights @ m


def assemble_jacobian(p: QuadraticProblem, b: StarBoundary) -> np.ndarray:
    """J[j, i] = w_i * d m_d / d rho at (rho_i, gamma_ij), the full n x n matrix."""
    if p.d != b.grid.d:
        raise ValueError("problem dimension %d != grid dimension %d" % (p.d, b.grid.d))
    dm = moment_drho(p.d, b.radii[:, None], gamma_matrix(p, b.grid.nodes), p.beta)
    return (b.grid.weights[:, None] * dm).T


def assemble_second_derivative(p: QuadraticProblem, b: StarBoundary, v) -> np.ndarray:
    """R_vv[j] = sum_i w_i v_i^2 d^2 m_d / d rho^2 at (rho_i, gamma_ij), the nodal one.

    The rho-derivative of e^{gamma rho}(rho^2 - beta^2) rho^{d-1} term by
    term: gamma (rho^2 - beta^2) rho^{d-1} + 2 rho^d + (d-1)(rho^2 - beta^2) rho^{d-2}.
    """
    if p.d != b.grid.d:
        raise ValueError("problem dimension %d != grid dimension %d" % (p.d, b.grid.d))
    d, rho, gm = p.d, b.radii[:, None], gamma_matrix(p, b.grid.nodes)
    q = rho * rho - p.beta ** 2
    d2m = np.exp(gm * rho) * (gm * q * rho ** (d - 1) + 2.0 * rho ** d
                              + (d - 1) * q * rho ** (d - 2))
    return (b.grid.weights * np.asarray(v, dtype=float) ** 2) @ d2m


# ---------------------------------------------------------------------------
# kernel constructions

@dataclass(frozen=True)
class DiscreteMixture:
    """Finite nonnegative mixture of Martin directions."""

    atoms: tuple  # of (direction vector a, weight)

    def __post_init__(self):
        norm = []
        for direction, weight in self.atoms:
            w = float(weight)
            if not (np.isfinite(w) and w >= 0.0):
                raise ValueError("mixture weights must be finite and >= 0")
            norm.append((np.asarray(direction, dtype=float), w))
        object.__setattr__(self, "atoms", tuple(norm))

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, w in self.atoms))


def transition_density(cfg: KillingConfig, t: float, x, y):
    """Heat kernel (2 pi t)^{-d/2} exp(-|x-y|^2 / (2t))."""
    if not (np.isfinite(t) and t > 0.0):
        raise ValueError("time t must be finite and > 0, got %r" % (t,))
    x = _point(x, cfg.d, "x")
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != cfg.d:
        raise ValueError("y has dimension %d, expected %d" % (y.shape[-1], cfg.d))
    q = ((y - x) ** 2).sum(axis=-1)
    out = (2.0 * np.pi * t) ** (-0.5 * cfg.d) * np.exp(-q / (2.0 * t))
    return float(out) if np.ndim(out) == 0 else out


def green_kernel_log_radial(cfg: KillingConfig, s):
    """log of green_kernel_radial, finite far beyond kernel underflow."""
    s = np.asarray(s, dtype=float)
    if s.size and (not np.all(np.isfinite(s)) or np.any(s <= 0.0)):
        raise ValueError("distance must be finite and > 0 (diagonal is singular)")
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    lg = (np.log(2.0) - 0.5 * cfg.d * np.log(2.0 * np.pi)
          + 0.5 * (2 - cfg.d) * (np.log(s) - 0.5 * np.log(2.0 * cfg.r))
          + bessel_K_log(abs(cfg.d - 2) / 2, s * cfg.kappa))
    return float(lg[0]) if scalar else lg


def green_ratio(cfg: KillingConfig, x, y):
    """G_r(x, y) / G_r(x, 0), evaluated through log-K differences.

    For |x| -> infinity along a ray this converges to the Martin kernel
    of the ray direction; the log-space route keeps it finite at
    |x| = 1e4 where the kernels themselves underflow.
    """
    if cfg.d < 2:
        raise ValueError("green_ratio needs d >= 2")
    x = _point(x, cfg.d, "x")
    if float(x @ x) == 0.0:
        raise ValueError("green_ratio is undefined at x = 0 (denominator pole)")
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != cfg.d:
        raise ValueError("y has dimension %d, expected %d" % (y.shape[-1], cfg.d))
    s1 = np.sqrt(((y - x) ** 2).sum(axis=-1))
    if np.any(s1 == 0.0):
        raise ValueError("green_ratio is singular at y = x")
    s0 = float(np.sqrt(x @ x))
    out = np.exp(green_kernel_log_radial(cfg, s1) - green_kernel_log_radial(cfg, s0))
    return float(out) if np.ndim(out) == 0 else out


def harmonic_mixture(cfg: KillingConfig, mu: DiscreteMixture, x):
    """r-harmonic function x -> sum of weight * exp(a . x) over atoms."""
    if not mu.atoms:
        raise ValueError("mixture must contain at least one atom")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != cfg.d:
        raise ValueError("x has dimension %d, expected %d" % (x.shape[-1], cfg.d))
    out = 0.0
    for direction, weight in mu.atoms:
        out = out + weight * martin_kernel(cfg, direction, x)
    return out


def uniform_circle_mixture(cfg: KillingConfig, n_atoms: int,
                           total_weight: float = 1.0) -> DiscreteMixture:
    """Equal-weight atoms at n equispaced angles on |a|^2 = 2r (d = 2).

    With total weight 1 the mixture is the n-point trapezoid
    discretization of the uniform measure, whose harmonic_mixture
    converges spectrally to I_0(sqrt(2r) |x|).
    """
    if cfg.d != 2:
        raise ValueError("uniform_circle_mixture is a d = 2 construction")
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    th = 2.0 * np.pi * np.arange(n_atoms) / n_atoms
    w = total_weight / n_atoms
    atoms = tuple(((cfg.kappa * np.cos(t), cfg.kappa * np.sin(t)), w) for t in th)
    return DiscreteMixture(atoms)


def hyperplane_identity(cfg: KillingConfig, a, b: float, x):
    """Line integral of the Green kernel against a hyperplane measure.

    For H = {y : a . y = b} with |a|^2 = 2r, returns

        lhs = sqrt(2r) * integral over H of G_r(x, y) length measure,
        rhs = exp(-|a . x - b|).

    The two sides agree to quadrature accuracy.  The constant in front
    of the integral is the one that actually balances the identity: the
    total discounted mass of G_r is 1/r, and collapsing it onto H
    leaves one Gaussian direction, producing sqrt(2r), not a constant
    proportional to r (see reports/radial_form_audit.json for the
    related audit).
    """
    if cfg.d != 2:
        raise ValueError("hyperplane_identity is implemented for d = 2 line integrals")
    martin_kernel(cfg, a, np.zeros(cfg.d))  # checks |a|^2 = 2r
    vec = np.asarray(a, dtype=float)
    x = _point(x, cfg.d, "x")
    b = float(b)
    k = cfg.kappa
    n_hat = vec / k
    dist = abs(float(x @ n_hat) - b / k)  # Euclidean distance from x to H

    # arc length t from the foot of the perpendicular: the point on H at
    # parameter t sits at distance sqrt(dist^2 + t^2) from x, and the
    # integrand is even in t.  Truncate where exp(-k s) is ~1e-20 of the
    # peak value exp(-k dist).
    t_max = np.sqrt((46.0 / k) ** 2 + 92.0 * dist / k)

    def integrand(t):
        return green_kernel_radial(cfg, np.sqrt(dist * dist + t * t))

    # split at 1/k: the outer part is smooth; on [0, 1/k] geometric panels
    # toward t=0 absorb the K0 log singularity (x on or near H)
    t0 = 1.0 / k
    total = quad(integrand, t0, float(t_max))
    edges = np.append(t0 * 0.3 ** np.arange(40), 0.0)
    for hi, lo in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        total += float(integrand(mid + half * _GL16_X) @ _GL16_W) * half
    lhs = k * 2.0 * total
    rhs = float(np.exp(-abs(float(x @ vec) - b)))
    return lhs, rhs


def resolvent_time_quadrature(x, y, r: float) -> float:
    """Resolvent kernel as the Laplace transform of the heat kernel.

    Integrates e^{-r t} p_t(x, y) dt over t in (0, inf) with the
    substitution t = s / (1 - s), giving a second route to the kernel
    that never touches Bessel functions.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d points of equal dimension")
    d = x.size
    q = float(((x - y) ** 2).sum())
    if q == 0.0:
        raise ValueError("time quadrature needs x != y")

    def integrand(s):
        t = s / (1.0 - s)
        lg = -r * t - 0.5 * d * math.log(2.0 * math.pi * t) - q / (2.0 * t)
        return math.exp(lg) / (1.0 - s) ** 2

    eps = 1e-14
    return quad(integrand, eps, 1.0 - eps)


# ---------------------------------------------------------------------------
# symmetric d = 2 radius from the radial obstacle problem

def bessel2_policy_iteration_radius(r: float, n_grid: int = 4000) -> float:
    """Symmetric d = 2 boundary radius from the discrete obstacle problem.

    The value V of the symmetric two-dimensional instance solves
    min((r - L)V, V - g) = 0 with L V = (V'' + V'/z)/2 and g = z^2.
    L is discretized in flux form, d/dz(z V')/(2z), on n_grid nodes
    over [0, 4R] (R the smooth-fit radius, which only sizes the grid),
    with each row scaled by its cell volume; the last node carries
    V = g deep in the stopping set.  Howard's policy iteration solves
    the resulting linear complementarity problem exactly: from the
    all-continue policy, each update solves one tridiagonal system and
    stops at every node where V - g falls below the continuation
    residual.  The iteration is monotone and ends in at most n_grid
    updates.  The first stopped node past the origin marks the radius.
    Free of any stopping-theory input beyond the PDE, so it can
    arbitrate the smooth-fit equation.
    """
    if r <= 0.0:
        raise ValueError("discount r must be > 0")
    z = np.linspace(0.0, 4.0 * symmetric_radius(2, r), n_grid)
    h = z[1] - z[0]
    g = z * z
    # cell volumes (weight z): interior z_i h, origin cell h^2/8; flux
    # coefficient between nodes i and i+1 is z_{i+1/2}/h, zero at the origin
    vol = z * h
    vol[0] = h * h / 8.0
    flux = (z[:-1] + 0.5 * h) / h
    m = n_grid - 1
    # banded rows of (r vol + K) over the unknowns 0 .. m-1, in solve_banded layout
    bands = np.zeros((3, m))
    bands[0, 1:] = -0.5 * flux[:m - 1]
    bands[1] = r * vol[:m] + 0.5 * (np.concatenate([[0.0], flux[:m - 1]]) + flux[:m])
    bands[2, :-1] = -0.5 * flux[:m - 1]
    rhs = np.zeros(m)
    rhs[-1] = 0.5 * flux[m - 1] * g[-1]
    obstacle = g[:m]

    stop = np.zeros(m, dtype=bool)
    for _ in range(n_grid):
        ab = bands.copy()
        ab[1, stop] = 1.0
        ab[0, 1:][stop[:-1]] = 0.0
        ab[2, :-1][stop[1:]] = 0.0
        v = solve_banded((1, 1), ab, np.where(stop, obstacle, rhs))
        cont = bands[1] * v - rhs
        cont[:-1] += bands[0, 1:] * v[1:]
        cont[1:] += bands[2, :-1] * v[:-1]
        gap = v - obstacle
        new = (gap < cont) | (stop & (gap == cont))
        if np.array_equal(new, stop):
            break
        stop = new
    else:
        raise RuntimeError("policy iteration did not settle in %d updates" % n_grid)
    idx = int(np.argmax(stop[1:])) + 1
    if not stop[idx]:
        raise RuntimeError("stopping set not located inside the grid")
    return float(0.5 * (z[idx - 1] + z[idx]))


# ---------------------------------------------------------------------------
# Green measure of a rectangle

_ON_LINE = 1e-280      # a side nearer to x than this contributes O(h log h): dropped
_POINT_BLOCK = 2048    # points per block, which bounds the memory of a large batch


def _rect_mass_block(cfg: KillingConfig, x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """rect_green_mass for an (m, 2) block of points, by the side integrals."""
    lo, hi = bounds[:, 0] - x, bounds[:, 1] - x
    # sides x1 = lo, x1 = hi, x2 = lo, x2 = hi: the signed distance h to
    # the side's line and the side's ends measured from the foot of the
    # perpendicular
    h = np.stack([-lo[:, 0], hi[:, 0], -lo[:, 1], hi[:, 1]], axis=1).ravel()
    h = np.where(np.abs(h) < _ON_LINE, 0.0, h)
    dist = np.where(h == 0.0, 1.0, np.abs(h))
    u_a = np.arcsinh(lo[:, [1, 1, 0, 0]].ravel() / dist)
    u_b = np.arcsinh(hi[:, [1, 1, 0, 0]].ravel() / dist)
    n_pan = np.where(h == 0.0, 0, np.maximum(np.ceil(u_b - u_a), 1.0)).astype(int)
    side = np.repeat(np.arange(h.size), n_pan)
    j = np.arange(side.size) - np.repeat(np.cumsum(n_pan) - n_pan, n_pan)
    half = 0.5 * ((u_b - u_a) / np.maximum(n_pan, 1))[side]
    cosh = np.cosh((u_a[side] + (2 * j + 1) * half)[:, None] + half[:, None] * _GL16_X)
    s = dist[side, None] * cosh
    psi = -np.pi * s * green_kernel_radial_ds(cfg, s.ravel()).reshape(s.shape)
    per_panel = ((1.0 - psi) / cosh @ _GL16_W) * half * np.sign(h[side])
    return np.bincount(side // 4, weights=per_panel, minlength=len(x)) / (2.0 * np.pi * cfg.r)


def rect_green_mass(cfg: KillingConfig, x, rect):
    """G_r(x, rect) = integral of the Green kernel over the rectangle ((x1lo, x1hi), (x2lo, x2hi)).

    x is one point (float result) or an (m, 2) batch ((m,) result).  The
    mass formula (chi + 1/2 integral over the boundary of d_nG ds) / r of
    the package's boundary integrals, taken side by side with the radial
    integral of G_r = K_0(kappa s)/pi in closed form, is

        G_r(x, rect) = 1/(2 pi r) sum over sides of
                       sgn(h) integral_{u_a}^{u_b} (1 - Psi(|h| cosh u)) sech u du,

    Psi(s) = kappa s K_1(kappa s) = -pi s G_r'(s).  h is the signed
    distance from x to the side's line (positive on the rectangle's
    side), gd(u) the angle seen from x, and u_{a,b} = asinh(t_{a,b}/|h|)
    for the side's ends t_{a,b} measured from the foot of the
    perpendicular; a side with h = 0 contributes 0.  For every h the
    integrand is analytic in the strip |Im u| < pi/2, so 16-point
    Gauss-Legendre panels of width <= 1 in u converge to rounding at any
    distance from an edge, with no grading and no resolution setting.
    """
    if cfg.d != 2:
        raise ValueError("rectangle masses are a d = 2 computation")
    bounds = np.asarray(rect, dtype=float)
    if (bounds.shape != (2, 2) or not np.all(np.isfinite(bounds))
            or not np.all(bounds[:, 0] < bounds[:, 1])):
        raise ValueError("rect must be ((x1lo, x1hi), (x2lo, x2hi)), finite with lo < hi")
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (2,) or x.ndim > 2 or not np.all(np.isfinite(x)):
        raise ValueError("x must be a finite 2-d point or an (m, 2) batch")
    pts = np.atleast_2d(x)
    mass = np.empty(len(pts))
    for i in range(0, len(pts), _POINT_BLOCK):
        mass[i:i + _POINT_BLOCK] = _rect_mass_block(cfg, pts[i:i + _POINT_BLOCK], bounds)
    return float(mass[0]) if x.ndim == 1 else mass


def green_measure_identity_check(cfg: KillingConfig, rect, x, disc_radius: float,
                                 mc: MCConfig, time_step: float, horizon: float):
    """Quadrature versus strong-Markov decomposition of G_r(x, rect).

    lhs: rect_green_mass at x.
    rhs: Monte Carlo, over mc.paths Euler paths of step time_step, of
         E[int_0^T e^{-rs} 1_rect(X_s) ds] + E[e^{-r T} G_r(X_T, rect)],
         T = min(tau, horizon), tau the first sampled time the path leaves
         the disc of radius disc_radius around x.  T is a bounded stopping
         time of the exactly sampled chain, so the terminal term, batched
         over the paths' stopping positions, carries no discretization
         bias; the occupation term uses the exact per-step discount
         weight (1 - e^{-r dt})/r and the sampled position's indicator.

    Returns (lhs, rhs, stderr).
    """
    if cfg.d != 2:
        raise ValueError("the identity check is a d = 2 computation")
    x = np.asarray(x, dtype=float)
    if disc_radius <= 0.0:
        raise ValueError("disc_radius must be > 0")
    if not 0.0 < time_step <= horizon:
        raise ValueError("need 0 < time_step <= horizon")
    lhs = rect_green_mass(cfg, x, rect)

    dt = time_step
    sq_dt = np.sqrt(dt)
    r = cfg.r
    w_occ = (1.0 - np.exp(-r * dt)) / r
    max_steps = int(np.ceil(horizon / dt))
    (x1lo, x1hi), (x2lo, x2hi) = rect
    decay = np.exp(-r * dt)
    r_sq = disc_radius * disc_radius

    def simulate(rng, n):
        pos = np.tile(x, (n, 1))
        contrib = np.zeros(n)
        stop_pos = np.empty((n, 2))
        stop_disc = np.empty(n)
        alive = np.arange(n)
        disc = 1.0
        for _ in range(max_steps):
            in_rect = ((pos[:, 0] >= x1lo) & (pos[:, 0] <= x1hi)
                       & (pos[:, 1] >= x2lo) & (pos[:, 1] <= x2hi))
            contrib[alive[in_rect]] += w_occ * disc
            pos += sq_dt * rng.standard_normal((alive.size, 2))
            disc *= decay
            dx = pos[:, 0] - x[0]
            dy = pos[:, 1] - x[1]
            out = dx * dx + dy * dy >= r_sq
            if out.any():
                idx = alive[out]
                stop_pos[idx] = pos[out]
                stop_disc[idx] = disc
                alive = alive[~out]
                pos = pos[~out]
                if alive.size == 0:
                    break
        stop_pos[alive] = pos
        stop_disc[alive] = disc
        return contrib + stop_disc * rect_green_mass(cfg, stop_pos, rect)

    rhs, stderr = _chunked_mean(mc.paths, mc.seed, simulate)
    return float(lhs), rhs, stderr


# ---------------------------------------------------------------------------
# the d = 3 Green integral by Monte Carlo

_MC3_SAMPLES = 1_000_000    # points of E's volume integral, drawn with seed 0


def green_integral_mc3(p: QuadraticProblem, b: StarBoundary, x) -> float:
    """E(x) = integral over C of G_r(x, y) (r - L)g(y) dy for a d = 3 boundary.

    _MC3_SAMPLES points with seed 0 through the package's _chunked_mean,
    uniform inside the surface that gives each direction the radius of
    its nearest grid node, against the closed-form Yukawa kernel.
    That surface puts V(0) = -E(0) of solved boundaries 5e-3 to 6e-3
    relative above the exact grid sum.
    """
    cfg = KillingConfig(p.r, 3)
    step = max(1, _BLOCK_ENTRIES // b.grid.n)

    def simulate(rng, n):
        z = rng.standard_normal((n, 3))
        omega = z / np.sqrt((z * z).sum(axis=1))[:, None]
        # piecewise-constant boundary radius: nearest grid node by angle,
        # in row blocks so that no samples x nodes matrix is formed
        nearest = np.empty(n, dtype=int)
        for i in range(0, n, step):
            nearest[i:i + step] = np.argmax(omega[i:i + step] @ b.grid.nodes.T, axis=1)
        rho_hat = b.radii[nearest]
        rho = rho_hat * rng.random(n) ** (1.0 / 3.0)
        y = p.to_cartesian(omega, rho)
        s = np.maximum(np.sqrt(((y - x) ** 2).sum(axis=1)), 1e-300)
        dens = 3.0 * np.prod(p.sqrt_lam) / (4.0 * np.pi * rho_hat ** 3)
        return green_kernel_radial(cfg, s) * excess_generator(p, y) / dens

    return _chunked_mean(_MC3_SAMPLES, 0, simulate)[0]


# ---------------------------------------------------------------------------
# finiteness diagnostic

def finiteness_ratio_scan(p: QuadraticProblem, radii, reward_fn=None,
                          n_angles: int = 256):
    """max over angles of g(x) / I_0(sqrt(2r)|x|) for each radius.

    The mixture I_0 is r-harmonic, so a decaying tail certifies the
    boundedness of g against it (hence finiteness of the value);
    reward_fn substitutes a hypothetical reward for diagnostics.
    """
    if p.d != 2:
        raise ValueError("the ratio scan is a d = 2 diagnostic")
    if reward_fn is None:
        reward_fn = p.reward
    kappa = np.sqrt(2.0 * p.r)
    th = 2.0 * np.pi * np.arange(n_angles) / n_angles
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    out = []
    for rad in radii:
        rad = float(rad)
        if rad == 0.0:
            out.append(0.0)
            continue
        vals = reward_fn(rad * ring) / sps.i0(kappa * rad)
        out.append(float(np.max(vals)))
    return out


# ---------------------------------------------------------------------------
# the boundary curve

def curve(geom, theta):
    """x(theta), x'(theta) and x''(theta) of the `_BoundaryGeometry` geom.

    Each has a trailing axis of 2; all three come from one evaluation of
    order 2, the route the package's own curve points take.
    """
    return tuple(np.stack(xy, axis=-1) for xy in geom.points(geom.evaluate(theta, 2)))


def newton_nearest(geom, px, py, t, steps: int, max_step):
    """Newton's iterates, from t, toward the parameter of the curve point nearest each (px, py).

    Newton's method on f(t) = |x(t) - x|^2 / 2: the step f'/f'' with
    f'' = |x'|^2 + (x(t) - x) . x'', its Gauss-Newton part |x'|^2 where
    that is not positive, and at most max_step long.  Returns the last
    iterate and its curve point and tangent, each a pair of component
    arrays, where `_BoundaryGeometry.nearest` returns (2, ...) arrays.
    """
    for _ in range(steps):
        y, dy, d2y = curve(geom, t)
        d = y - np.stack([px, py], axis=-1)
        slope = (d * dy).sum(axis=-1)
        speed_sq = (dy * dy).sum(axis=-1)
        curv = speed_sq + (d * d2y).sum(axis=-1)
        t = t - np.clip(slope / np.where(curv > 0.0, curv, speed_sq), -max_step, max_step)
    y, dy, _ = curve(geom, t)
    return t, ((y[..., 0], y[..., 1]), (dy[..., 0], dy[..., 1]))


# ---------------------------------------------------------------------------
# walk-on-spheres radii by numpy's polyval

def walk_radii_reference(balls, state):
    """(R, U, state) of `_SafeBalls.walk_radii` at the columns of state, with the curve by polyval.

    The same bounds, formulas and operation order as the package, but
    evaluated the plain way: rho and its derivatives by
    numpy.polynomial.polynomial.polyval in e^{i fold theta}, the frame
    u, u' by np.cos and np.sin, points stacked on a trailing axis of 2.
    Each column takes one Gauss-Newton step from its carried point (t
    and x, x' at t) to a t within half a turn of phi, or stays at phi
    where t is NaN, and evaluates the curve there alone; rho(phi) comes
    from its first-order Taylor enclosure about t.  state is left as it is; the
    returned one is the package's after the call, which must agree with
    it bit for bit.
    """
    geom = balls.geom
    sqrt_lam = geom.p.sqrt_lam
    x = state[:2].T

    def frame(theta):
        cos, sin = np.cos(theta), np.sin(theta)
        return (np.stack([cos, sin], axis=-1) / sqrt_lam,
                np.stack([-sin, cos], axis=-1) / sqrt_lam)

    z = x * sqrt_lam
    phi, s = np.arctan2(z[..., 1], z[..., 0]), np.sqrt((z * z).sum(axis=-1))
    y, dy = (state[k:k + 2].T for k in (3, 5))
    delta = phi - (state[2] - ((y - x) * dy).sum(axis=1) / (dy * dy).sum(axis=1))
    delta = delta - 2.0 * np.pi * np.rint(delta / (2.0 * np.pi))
    delta = np.where(np.isnan(delta), 0.0, delta)
    t = phi - delta
    phase = np.exp(1j * t) ** geom.fold
    r, d1 = polyval(phase, geom._coef[:, :2]).real
    size = np.abs(delta)
    c1, c2 = balls.taylor
    half = size * (c1 + size * c2)
    rho = r + delta * d1

    star = np.minimum((rho - half - s) * s / np.maximum(s + 0.5 * np.pi * balls.slope, 1e-300), s)
    radius = balls.inv_max * np.maximum(star, balls.rho_min - s)
    node = np.clip(np.rint((x - balls.lo) / balls.cell).astype(int), 0,
                   np.array(balls.clearance.shape) - 1)
    offset = x - (balls.lo + balls.cell * node)
    radius = np.maximum(radius, balls.clearance[node[:, 0], node[:, 1]]
                        - np.sqrt((offset * offset).sum(axis=1)))

    u, du = frame(t)
    yt = r[:, None] * u
    dyt = d1[:, None] * u + r[:, None] * du
    d = yt - x
    f = (d * d).sum(axis=1)
    df = 2.0 * (d * dyt).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        room = balls.reach - (np.abs(rho - s) + half) * (np.sqrt((x * x).sum(axis=1)) / s)
        w = np.minimum(0.5 * np.pi, 0.5 * room / balls.speed)
        near = (room > 0.0) & (size <= w)
        inner = np.sqrt(np.maximum(f - df * df / (2.0 * balls.bend * room), 0.0))
        outer = balls.inv_max * balls.rho_min * np.sin(w)
    radius = np.where(near, np.maximum(radius, np.minimum(inner, outer)), radius)
    out = np.concatenate([x.T, np.where(near, t, np.nan)[None], yt.T, dyt.T])
    return np.maximum(radius - balls.rounding, 0.0), np.sqrt(f), out


def clearance_reference(balls):
    """`_SafeBalls.clearance` node by node.

    Each node's distance to the nearest of the _WALK_SAMPLES curve
    samples, by one difference per sample, less half a sample spacing
    times the speed bound.  The package's separable tables must agree
    with it bit for bit.
    """
    h = 2.0 * np.pi / _WALK_SAMPLES
    y = curve(balls.geom, h * np.arange(_WALK_SAMPLES))[0]
    out = np.empty(balls.clearance.shape)
    for i, j in np.ndindex(out.shape):
        d = balls.lo + balls.cell * np.array([i, j]) - y
        out[i, j] = np.sqrt((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]).min())
    return out - 0.5 * h * balls.speed


# ---------------------------------------------------------------------------
# the radial moment in Kummer form

def kummer_moment_terms(d: int, rho, gam, beta: float):
    """(rho^{d+2} F_{d+1}(z), beta^2 rho^d F_{d-1}(z)) at z = gamma rho, by Kummer's function.

    F_k(z) = int_0^1 e^{zt} t^k dt = M(k+1, k+2, z)/(k+1) (DLMF 13.4.1),
    through scipy.special.hyp1f1, so the radial moment m_d is the first
    term minus the second: an independent route to
    martin_solver.radial_moment, which takes F_k in elementary form.  A
    term past the largest double is inf.
    """
    rho = np.asarray(rho, dtype=float)
    z = rho * np.asarray(gam, dtype=float)
    with np.errstate(over="ignore"):
        return (rho ** (d + 2) * (sps.hyp1f1(d + 2, d + 3, z) / (d + 2)),
                beta * beta * rho ** d * (sps.hyp1f1(d, d + 1, z) / d))


# ---------------------------------------------------------------------------
# audit of an alternative published radial form

def alt_radial_forms(alpha: float, r: float, rho: float, gam: float):
    """A published pair of closed forms for the d = 2 radial integral.

    Evaluates the two expressions verbatim (beta^2 = (1 + alpha^2)/r,
    reward x^2 + alpha^2 y^2) so they can be compared against
    radial_moment.  The solver does not use them: see radial_form_audit
    for the measured discrepancy.
    """
    if gam == 0.0:
        raise ValueError("the printed forms have a gamma^4 denominator; gamma must be nonzero")
    beta_sq = (1.0 + alpha * alpha) / r
    beta = math.sqrt(beta_sq)
    g2 = gam * gam
    g4 = g2 * g2
    p_pol = g2 * beta_sq - 3.0 * gam * beta + 3.0
    f1 = -2.0 * p_pol * math.exp(gam * beta) / g4 + (g2 * beta_sq - 6.0) / g4
    q_pol = ((beta_sq * rho - rho ** 3) * gam * g2
             - (beta_sq - 3.0 * rho * rho) * g2
             - 6.0 * gam * rho + 6.0)
    f2 = 2.0 * p_pol * math.exp(beta * gam) / g4 + q_pol * math.exp(gam * rho) / g4
    return f1, f2


def radial_form_audit(alphas=(2.0, 0.5, 3.0), rs=(1.0, 0.3),
                      n_rho: int = 7, n_gamma: int = 9) -> dict:
    """Tabulate the alternative printed forms against the radial moment.

    For each (alpha, r) the grid covers rho in [beta, 3 beta] and gamma
    in [-sqrt(2r), sqrt(2r)] away from 0.  Reported per configuration:
    the largest and smallest magnitude of delta = (F2 - F1) + m_2
    (zero would mean the printed pair and the defining integral agree),
    the match of delta against its own closed form
    (4 P e^{beta gamma} + 12 - 2 beta^2 gamma^2)/gamma^4 with
    P = beta^2 gamma^2 - 3 beta gamma + 3 (an exactness check on the
    audit algebra), and sample rows.  The committed
    reports/radial_form_audit.json is this report at the defaults.
    """
    configs = []
    for alpha in alphas:
        for r in rs:
            beta_sq = (1.0 + alpha * alpha) / r
            beta = math.sqrt(beta_sq)
            kap = math.sqrt(2.0 * r)
            rhos = np.linspace(beta, 3.0 * beta, n_rho)
            gams = np.linspace(-kap, kap, n_gamma)
            gams = gams[np.abs(gams) > 0.05 * kap]
            rows = []
            max_delta = 0.0
            min_delta = np.inf
            max_algebra_err = 0.0
            for rho in rhos:
                for gm in gams:
                    f1, f2 = alt_radial_forms(alpha, r, float(rho), float(gm))
                    m2 = moment(2, float(rho), float(gm), beta)
                    delta = (f2 - f1) + m2
                    p_pol = beta_sq * gm * gm - 3.0 * beta * gm + 3.0
                    delta_closed = ((4.0 * p_pol * math.exp(beta * gm)
                                     + 12.0 - 2.0 * beta_sq * gm * gm) / gm ** 4)
                    denom = max(abs(f2 - f1), abs(m2), 1.0)
                    max_algebra_err = max(max_algebra_err, abs(delta - delta_closed) / denom)
                    max_delta = max(max_delta, abs(delta))
                    min_delta = min(min_delta, abs(delta))
                    if len(rows) < 4:
                        rows.append({"rho": float(rho), "gamma": float(gm),
                                     "F1": f1, "F2": f2, "m2": float(m2),
                                     "delta": float(delta)})
            configs.append({
                "alpha": float(alpha),
                "r": float(r),
                "beta": beta,
                "max_abs_delta": float(max_delta),
                "min_abs_delta": float(min_delta),
                "delta_matches_closed_form_rel": float(max_algebra_err),
                "sample_rows": rows,
            })
    overall = {
        "conclusion": (
            "The printed pair (F1, F2) differs from the defining radial integral "
            "m_2 by a rho-independent but gamma-dependent offset delta(gamma) != 0; "
            "the two discrete systems are therefore not equivalent, and the solver "
            "uses m_2 derived from first principles."),
        "delta_identity": "(F2 - F1) + m2 = (4 P e^{beta gamma} + 12 - 2 beta^2 gamma^2)/gamma^4",
        "configs": configs,
    }
    return overall
