"""Certification of a candidate stopping boundary.

Everything here checks the solver's output through routes that do not
reuse the Martin-kernel discretization:

* E(x) = integral over C of G_r(x, y) (r - L)g(y) dy.  The defining
  property of the optimal boundary is E = 0 on the stopping set, and
  g - E is the value function everywhere, so this single integral
  yields the residual check (`green_residual_normalized`), the
  reconstructed value (`value`, at the origin of a d = 3 boundary one
  grid sum: `_origin_excess`), and the majorant scan.
* `mc_value` prices the candidate stopping rule by a walk on spheres
  over the same curve: exact disc exits, no time step, no horizon, and
  a stopping shell whose bias is bounded (see `_SafeBalls`).
* `_chunked_mean`, the one Monte Carlo engine, draws the walk.
* `run_verification` runs all of them, plus the class membership
  checks, into one report, whose `checks` and `passed` are the verdict;
  it evaluates E at one point per mirror orbit.

In d = 2, Green's second identity turns the area integral into one
integral over ∂C, using only G_r, g and the curve:

    E(x) = chi(x) g(x) + 1/2 integral over ∂C of (g d_nG - G d_n g) ds,

with chi = 1, 1/2, 0 inside C, on ∂C and outside (L = Laplacian/2 and
(r - L)G_r = delta).  ∂C is the trigonometric interpolant of the radii;
points away from it use the periodic trapezoid rule, points near or on
it Gauss-Legendre panels graded toward the nearest curve point (see
`_green_integrals`).  A whole batch of points is evaluated at once.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import i0e

from .kernels import KillingConfig, bessel_K_scaled, green_kernel_radial, green_kernel_radial_ds
from .problem import ClassCheckReport, QuadraticProblem, StarBoundary, class_membership_check

_GL16_X, _GL16_W = leggauss(16)

THRESHOLDS = {"residual": 1e-3, "majorant_gap": 1e-4, "mc_sigmas": 4.0}


@dataclass(frozen=True)
class MCConfig:
    paths: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.paths < 100:
            raise ValueError("need at least 100 paths")
        if not 0 <= self.seed < 2 ** 63:
            raise ValueError("seed must be in [0, 2**63), got %d" % self.seed)


@dataclass(frozen=True)
class VerificationReport:
    boundary_residuals: np.ndarray
    majorant_min_gap: float
    mc_value: float
    mc_stderr: float
    reconstructed_value: float
    class_check: ClassCheckReport
    mc_walk: dict

    @property
    def residual_max(self) -> float:
        return float(np.max(np.abs(self.boundary_residuals)))

    @property
    def mc_tolerance(self) -> float:
        """Sampling error plus the walk's stopping-shell bias, shell * lipschitz."""
        return (THRESHOLDS["mc_sigmas"] * self.mc_stderr
                + self.mc_walk["shell"] * self.mc_walk["lipschitz"])

    @property
    def checks(self) -> dict:
        return {
            "class_check": bool(self.class_check.passed),
            "residual": self.residual_max <= THRESHOLDS["residual"],
            "majorant": self.majorant_min_gap >= -THRESHOLDS["majorant_gap"],
            "mc_consistency": abs(self.mc_value - self.reconstructed_value) <= self.mc_tolerance,
        }

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


# ---------------------------------------------------------------------------
# the boundary curve

class _BoundaryGeometry:
    """The curve x(theta) = rho(theta) (cos theta, sin theta) / sqrt(lambda) of ∂C, d = 2.

    rho is the trigonometric interpolant of the radii on the grid, whose
    angles are 2 pi i / n by construction: a d = 2 grid is its shape
    (n,).  It and its first two derivatives come from one sum of complex
    exponentials: rho^(m)(theta) = Re sum_k c_k (ik)^m e^{ik theta}.
    Radii that repeat bit for bit with period p | n have c_k = 0 unless
    `fold` = n/p divides k: the sums run over one period's coefficients
    in e^{i fold theta}.  Solved radii are flip-symmetric, so fold >= 2.
    `evaluate` is the one route from angles to the curve: `rho`,
    `points` and `nearest` all go through it.  Only
    `curve_from`, which sums differences along the curve, has its own,
    with its per-offset factors from `offset_table`.
    Points and vectors, here and in the sweeps and the walk, are (2, ...)
    arrays: components on axis 0.  sqrt(lambda) and lambda are columns.
    """

    def __init__(self, p: QuadraticProblem, b: StarBoundary):
        if p.d != 2 or b.grid.d != 2:
            raise ValueError("boundary integrals are a d = 2 scheme")
        self.p = p
        self.lam, self.sqrt_lam = p.lam[:, None], p.sqrt_lam[:, None]
        self.n = b.grid.n
        period = next(q for q in range(1, self.n + 1)
                      if self.n % q == 0 and np.array_equal(np.roll(b.radii, q), b.radii))
        self.fold = self.n // period
        coeffs = np.fft.rfft(b.radii[:period]) / period
        coeffs[1:] *= 2.0
        if period % 2 == 0:
            coeffs[-1] = 0.5 * coeffs[-1].real   # the Nyquist mode is a cosine
        self._ik = 1j * self.fold * np.arange(coeffs.size)
        self._coef = coeffs[:, None] * self._ik[:, None] ** np.arange(3)

    def evaluate(self, theta, order):
        """(e, rho, ..., rho^(order)) at each theta, e = (cos theta, sin theta) on axis 0.

        Horner's rule in e^{i fold theta}, run in place on one complex
        array: one complex exponential per angle, not one per mode, and
        no temporaries per mode.  Its steps are numpy's polyval's, so are
        its values.  e holds the parts of that exponential.  All come
        back as real copies, so no complex array outlives the call.
        """
        phase = np.exp(1j * np.asarray(theta, dtype=float))
        step = phase ** self.fold
        coef = self._coef[:, :order + 1].reshape((-1, order + 1) + (1,) * phase.ndim)
        acc = np.empty((order + 1,) + phase.shape, dtype=complex)
        acc[...] = coef[-1]
        for c in coef[-2::-1]:
            acc *= step
            acc += c
        return (np.stack([phase.real, phase.imag]), *acc.real.copy())

    def rho(self, theta):
        return self.evaluate(theta, 0)[1]

    def _frame(self, e):
        """u = e / sqrt(lambda) and u' = (-sin, cos) / sqrt(lambda), e = (cos, sin) on axis 0."""
        scale = self.sqrt_lam.reshape((2,) + (1,) * (e.ndim - 1))
        return e / scale, np.stack([-e[1], e[0]]) / scale

    def points(self, at):
        """x(theta) and as many derivatives as the evaluation `at` carries, (2, ...) arrays."""
        e, rho, *drho = at
        u, du = self._frame(e)
        out = [rho * u]
        if drho:
            out.append(drho[0] * u + rho * du)
        if len(drho) > 1:
            out.append((drho[1] - rho) * u + (2.0 * drho[0]) * du)
        return out

    def reward(self, x):
        """g(x) at the points x, a (2, ...) array."""
        return (self.lam.reshape((2,) + (1,) * (x.ndim - 1)) * x * x).sum(axis=0)

    def offset_table(self, t):
        """The per-offset factors of `curve_from`: e^{it/2} and expm1(ikt) for each offset t."""
        return np.exp(0.5j * t), np.expm1(np.multiply.outer(t, self._ik))

    def curve_from(self, theta, table):
        """x(theta + t) - x(theta) and x'(theta + t), shaped (2, B, Q) for B thetas, Q offsets t.

        table is `offset_table(t)`, built once for every block of thetas
        that shares the offsets.  The difference is summed from expm1(ikt)
        and half-angle sines, so it keeps its relative accuracy as t -> 0,
        where subtracting two nearby points would leave only rounding.
        The phases e^{i(theta + t)} and e^{i(theta + t/2)} are outer
        products of one complex exponential per theta and one, e^{it/2},
        per offset, as in `evaluate`.
        """
        turn, expm1_ikt = table
        at = np.exp(np.multiply.outer(theta, self._ik))[..., None] * self._coef[:, :2]
        rho0, drho0 = at.sum(axis=1).real.T
        step = (expm1_ikt @ at).real
        rho = rho0[:, None] + step[..., 0]
        drho = drho0[:, None] + step[..., 1]
        base = np.exp(1j * theta)
        phase = np.multiply.outer(base, turn * turn)
        u, du = self._frame(np.stack([phase.real, phase.imag]))
        # u(theta + t) - u(theta) = 2 sin(t/2) u'(theta + t/2)
        half = np.multiply.outer(base, turn)
        chord = (2.0 * turn.imag) * self._frame(np.stack([half.real, half.imag]))[1]
        return step[..., 0] * u + rho0[:, None] * chord, drho * u + rho * du

    @staticmethod
    def newton_step(x, point, tangent):
        """Gauss-Newton step (x(t) - x) . x'(t) / |x'(t)|^2, point = x(t), tangent = x'(t)."""
        c = point - x
        return (c * tangent).sum(axis=0) / (tangent * tangent).sum(axis=0)

    def nearest(self, x, t, at, steps: int, max_step):
        """Gauss-Newton iterates, from t, toward the parameter of the curve point nearest each x.

        `at` is the evaluation of order 1 at t; each step is at most max_step long.
        Returns the last iterate and its curve point and tangent, (2, ...) arrays.
        """
        for _ in range(steps):
            step = self.newton_step(x, *self.points(at))
            t = t - np.clip(step, -max_step, max_step)
            at = self.evaluate(t, 1)
        return t, self.points(at)

    def polar(self, x):
        """(phi, s) with sqrt(lambda) x = s (cos phi, sin phi): the inverse affine-polar map."""
        z = x * self.sqrt_lam
        return np.arctan2(z[1], z[0]), np.sqrt((z * z).sum(axis=0))

    def inside(self, x: np.ndarray) -> np.ndarray:
        phi, s = self.polar(x)
        return s < self.rho(phi)


# ---------------------------------------------------------------------------
# Green integrals over C as integrals over ∂C

_FAR_SPACINGS = 5.0     # trapezoid rule beyond this many sample spacings from ∂C
_NEAR_LEVELS = 12       # graded panels on each side of the nearest parameter
_NEAR_FINEST = 1e-9     # the finest of them, relative to a plain panel
_NEWTON_STEPS = 6
_BLOCK_ENTRIES = 2 ** 14
_N_RAYS = 720           # default trapezoid nodes on ∂C of the Green sweeps


def _layer_sums(geom: _BoundaryGeometry, cfg: KillingConfig, d, y, dy, w):
    """Quadratures of 1/2 (g d_nG - G d_n g) and 1/2 d_nG along ∂C, one per point.

    d = y - x, the curve points y and tangents dy are (2, P, N) arrays, or
    broadcast to them: components, P points x, N nodes.  w are the weights
    in theta.  dy rotated clockwise is the outward normal times ds/dtheta.
    """
    nu = np.stack([dy[1], -dy[0]])
    s = np.sqrt((d * d).sum(axis=0))
    kern = green_kernel_radial(cfg, s.ravel()).reshape(s.shape)
    dn_kern = (green_kernel_radial_ds(cfg, s.ravel()).reshape(s.shape)
               * (d * nu).sum(axis=0) / s)
    dn_g = 2.0 * (geom.lam[..., None] * y * nu).sum(axis=0)
    layer = ((geom.reward(y) * dn_kern - kern * dn_g) * w).sum(axis=-1)
    return 0.5 * layer, 0.5 * (dn_kern * w).sum(axis=-1)


def _near_panels(width: float):
    """Gauss-Legendre offsets in (-pi, pi) and their weights.

    Panels about `width` wide, except that the two next to 0 are split
    geometrically toward 0, down to _NEAR_FINEST * width.  Offsets on
    either side are exact negatives, so nothing near 0 is lost to
    rounding.
    """
    graded = width * _NEAR_FINEST ** (np.arange(_NEAR_LEVELS, -1, -1) / _NEAR_LEVELS)
    plain = np.linspace(width, np.pi, max(2, int(np.ceil(np.pi / width))))
    edges = np.concatenate([[0.0], graded, plain[1:]])
    half = 0.5 * np.diff(edges)
    t = ((0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * _GL16_X).ravel()
    w = (half[:, None] * _GL16_W).ravel()
    return np.concatenate([-t[::-1], t]), np.concatenate([w[::-1], w])


def _check_n_rays(n_rays):
    if n_rays < 1:
        raise ValueError("n_rays must be >= 1, got %d" % n_rays)


def _green_integrals(p: QuadraticProblem, b: StarBoundary, pts, n_rays: int):
    """(E, M) at each row of pts: E = integral over C of G_r(x, y) (r - L)g(y) dy, M of G_r.

    Green's second identity with L = Laplacian/2 and (r - L)G_r = delta gives

        E(x) = chi(x) g(x) + 1/2 integral over ∂C of (g d_nG - G d_n g) ds,
        M(x) = (chi(x) + 1/2 integral over ∂C of d_nG ds) / r,

    chi = 1, 1/2, 0 inside C, on ∂C and outside.  Points farther than
    _FAR_SPACINGS sample spacings from ∂C use the trapezoid rule on
    max(n_rays, 8n) equispaced parameters, spectrally accurate there.
    Nearer points use 16-point Gauss-Legendre panels in the parameter,
    graded geometrically toward the parameter of the nearest curve
    point (found by Gauss-Newton iterates), which resolves the near-singular
    kernels down to the finest panel.  A point closer to ∂C than that is
    moved onto it, where chi = 1/2: the single layer is log-singular
    there and the double layer bounded, which the same panels integrate.
    Points are processed in blocks of about _BLOCK_ENTRIES kernel entries.
    """
    _check_n_rays(n_rays)
    x = np.asarray(pts, dtype=float).T.copy()     # (2, m): components on axis 0
    geom = _BoundaryGeometry(p, b)
    cfg = KillingConfig(p.r, 2)
    n_samples = max(int(n_rays), 8 * geom.n)
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    at = geom.evaluate(theta, 1)
    y, dy = geom.points(at)
    spacing = 2.0 * np.pi / n_samples
    far_dist = _FAR_SPACINGS * spacing * float(np.max(np.sqrt((dy * dy).sum(axis=0))))

    nearest = np.empty(x.shape[1], dtype=int)
    dist = np.empty(x.shape[1])
    step = max(1, _BLOCK_ENTRIES // n_samples)
    for i in range(0, x.shape[1], step):
        d2 = ((x[:, i:i + step, None] - y[:, None]) ** 2).sum(axis=0)
        nearest[i:i + step] = np.argmin(d2, axis=1)
        dist[i:i + step] = np.sqrt(d2[np.arange(len(d2)), nearest[i:i + step]])
    chi = geom.inside(x).astype(float)
    e_layer, m_layer = np.empty((2, x.shape[1]))

    far = np.flatnonzero(dist > far_dist)
    for i in range(0, far.size, step):
        idx = far[i:i + step]
        e_layer[idx], m_layer[idx] = _layer_sums(geom, cfg, y[:, None] - x[:, idx, None],
                                                 y[:, None], dy[:, None], spacing)

    near = np.flatnonzero(dist <= far_dist)
    if near.size:
        width = 16.0 * spacing    # as many nodes per turn as the trapezoid rule
        offsets, weights = _near_panels(width)
        start = nearest[near]
        t_star, (yn, dyn) = geom.nearest(x[:, near], theta[start], [a[..., start] for a in at],
                                         _NEWTON_STEPS, max_step=spacing)
        tau = np.sqrt(((yn - x[:, near]) ** 2).sum(axis=0) / (dyn * dyn).sum(axis=0))
        on = tau < width * _NEAR_FINEST
        x[:, near[on]] = yn[:, on]
        chi[near[on]] = 0.5
        table = geom.offset_table(offsets)
        step_near = max(1, _BLOCK_ENTRIES // offsets.size)
        for i in range(0, near.size, step_near):
            blk = slice(i, i + step_near)
            diff, dyq = geom.curve_from(t_star[blk], table)
            e_layer[near[blk]], m_layer[near[blk]] = _layer_sums(
                geom, cfg, diff + (yn[:, blk] - x[:, near[blk]])[..., None],
                diff + yn[:, blk, None], dyq, weights)

    return chi * geom.reward(x) + e_layer, (chi + m_layer) / p.r


def green_residual_normalized(p: QuadraticProblem, b: StarBoundary, x,
                              n_rays: int = _N_RAYS):
    """E(x) / (r beta^2 integral of G over C): dimensionless residual.

    The denominator is the natural magnitude of either term of E, so a
    solved boundary scores ~quadrature noise and an unsolved one O(1).
    x is one point (a float is returned) or an (m, 2) batch of points
    (an array of m residuals), evaluated in one pass over ∂C.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != p.d:
        raise ValueError("x must be a point or (m, %d) points" % p.d)
    val, mass = _green_integrals(p, b, x.reshape(-1, p.d), n_rays)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(mass == 0.0, np.where(val == 0.0, 0.0, np.inf),
                       val / (p.r * p.beta_sq * mass))
    return float(out[0]) if x.ndim == 1 else out


def _origin_excess(p: QuadraticProblem, b: StarBoundary) -> float:
    """E(0) in any d, as one sum over b's grid, exact along each node's ray.

    G_r(0, y) is radial.  On the ray y = rho omega / sqrt(lambda), |y| = a rho, a = |omega /
    sqrt(lambda)|.  With kappa = sqrt(2r), nu = d/2 - 1 and S = kappa a rho_i at node i,
    E(0) = (2 pi)^(-d/2) / prod sqrt(lambda) sum_i w_i a^-d (J3(S) / (kappa a)^2 - beta^2 J1(S)),
    J1(S) = int_0^S u^(nu+1) K_nu(u) du = 2^nu Gamma(nu+1) - S^(nu+1) K_(nu+1)(S) and
    J3(S) = int_0^S u^(nu+3) K_nu(u) du = 2^(nu+2) Gamma(nu+2) - S^(nu+2) (S K_(nu+1) + 2 K_(nu+2)).
    """
    nu = 0.5 * p.d - 1.0
    a = np.sqrt(((b.grid.nodes / p.sqrt_lam) ** 2).sum(axis=1))
    s = math.sqrt(2.0 * p.r) * a * b.radii
    k1, k2 = (bessel_K_scaled(nu + m, s) * np.exp(-s) for m in (1, 2))
    j1 = 2.0 ** nu * math.gamma(nu + 1.0) - s ** (nu + 1.0) * k1
    j3 = 2.0 ** (nu + 2.0) * math.gamma(nu + 2.0) - s ** (nu + 2.0) * (s * k1 + 2.0 * k2)
    terms = b.grid.weights * a ** -p.d * (j3 * (b.radii / s) ** 2 - p.beta_sq * j1)
    return float(terms.sum() / ((2.0 * np.pi) ** (0.5 * p.d) * np.prod(p.sqrt_lam)))


def value(p: QuadraticProblem, b: StarBoundary, x, *, n_rays: int = _N_RAYS) -> float:
    """Reconstructed value g(x) - E(x); exact for the optimal boundary.

    d = 2: E is an integral over ∂C on n_rays >= 1 nodes (see _green_integrals).
    d = 3: at the origin only, where E is the grid sum of _origin_excess.
    """
    _check_n_rays(n_rays)
    x = np.asarray(x, dtype=float)
    if x.shape != (p.d,):
        raise ValueError("x must be a point of dimension %d" % p.d)
    if p.d != b.grid.d:
        raise ValueError("problem dimension %d != grid dimension %d" % (p.d, b.grid.d))
    if p.d == 2:
        return float(p.reward(x)) - float(_green_integrals(p, b, x[None, :], n_rays)[0][0])
    if x.any():
        raise ValueError("d = %d value is implemented at the origin only" % p.d)
    return -_origin_excess(p, b)


_SCAN_SHRINK = 0.99     # scan points stay inside this fraction of rho(phi)


def interior_scan_grid(p: QuadraticProblem, b: StarBoundary, n: int) -> np.ndarray:
    """n x n bounding-box grid filtered to the interior, shrunk by _SCAN_SHRINK.

    A grid with no point inside C is an error: the scan would check nothing.
    """
    if n < 1:
        raise ValueError("majorant scan size must be >= 1, got %d" % n)
    geom = _BoundaryGeometry(p, b)
    # exactly antisymmetric axes: every mirror image of a scan point is one, bit for bit
    mx = np.abs(b.cartesian_points(p)).max(axis=0)
    axes = mx[:, None] * (2.0 * np.arange(n) - (n - 1)) / max(n - 1, 1)
    grid = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(2, -1)
    phi, s = geom.polar(grid)
    inside = grid[:, s <= _SCAN_SHRINK * geom.rho(phi)].T
    if not len(inside):
        raise ValueError("majorant scan of size %d has no point inside the boundary" % n)
    return inside


def majorant_gap_scan(p: QuadraticProblem, b: StarBoundary, scan_grid,
                      n_rays: int = _N_RAYS) -> float:
    """min over the grid of V(x) - g(x) = -E(x); should be >= -noise.

    The value dominates the reward everywhere; a markedly negative gap
    inside C flags a boundary that stops too late or too early.
    """
    scan_grid = np.asarray(scan_grid, dtype=float)
    if scan_grid.ndim != 2 or scan_grid.shape[1] != p.d or not len(scan_grid):
        raise ValueError("scan grid must be (n, d) points with n >= 1")
    return float(np.min(-_green_integrals(p, b, scan_grid, n_rays)[0]))


# ---------------------------------------------------------------------------
# Monte Carlo pricing of the candidate rule: walk on spheres

_CHUNK = 16384
_SHELL = 1e-6            # shell width, relative to the smallest |x| on ∂C
_WALK_SAMPLES = 1024     # curve samples behind the bounds of _SafeBalls
_WALK_CELLS = 64         # node grid cells along the longer side of the bounding box
_WALK_MAX_BALLS = 10_000
# 1/(k!)^2, k = 10 down to 0: I_0(x) = sum_k (x/2)^(2k) / (k!)^2, cut at k = 10
_I0_SERIES = tuple(1.0 / math.factorial(k) ** 2 for k in range(10, -1, -1))


def _strictly_convex(geom, dy, d2y, bend, jerk) -> bool:
    """Whether c = x' x x'' > 0 everywhere, from dy = x' and d2y = x'' at equispaced samples.

    c' = x' x x''', and |x'| moves at most h bend / 2 from the nearer end of a
    sample interval h long, so c moves at most (h/2)(max(|x'_i|, |x'_i+1|) + h bend / 2) jerk.
    Where c is positive at all _WALK_SAMPLES samples but some interval fails
    that margin, the test is repeated on four times as many samples, where
    the margin, which scales with h, is about a quarter as wide.
    """
    h = 2.0 * np.pi / dy.shape[1]
    c = dy[0] * d2y[1] - dy[1] * d2y[0]
    speed = np.sqrt((dy * dy).sum(axis=0))
    margin = 0.5 * h * (np.maximum(speed, np.roll(speed, -1)) + 0.5 * h * bend) * jerk
    if (np.minimum(c, np.roll(c, -1)) > margin).all():
        return True
    if dy.shape[1] > _WALK_SAMPLES or not (c > 0.0).all():
        return False
    theta = 0.25 * h * np.arange(4 * dy.shape[1])
    _, dy, d2y = geom.points(geom.evaluate(theta, 2))
    return _strictly_convex(geom, dy, d2y, bend, jerk)


class _SafeBalls:
    """Discs inside C for a walk on spheres over the curve of _BoundaryGeometry.

    For x in C, `walk_radii` returns R <= dist(x, ∂C), so the disc of radius R
    about x lies in C, and U >= dist(x, ∂C), the distance to one curve
    point.  Notation: z = sqrt(lambda) x = s e(phi), x(theta) =
    rho(theta) u(theta) with u = e / sqrt(lambda), so x = s u(phi), and
    an x-disc of radius R maps into a z-disc of radius R sqrt(lambda_max).

    Constants hold for every theta, not only at samples: each is its
    extreme over _WALK_SAMPLES equispaced parameters, moved by half a
    spacing h times a bound on its derivative, with
    S_m = sum_k |c_k| k^m >= |rho^(m)| for the Fourier coefficients c_k
    of rho.  They are rho_min <= rho, L >= |rho'|, M1 >= |x'|,
    M2 >= |x''| and m1 = rho_min / sqrt(lambda_max) <= |x'| (|z'| >= rho);
    M2 and the convexity test below move the samples' values by
    M3 = (S3 + 3 S2 + 3 S1 + S0) / sqrt(lambda_min) >= |x'''|.  Every
    curve point lies within h M1 / 2 of a sample.

    A disc evaluates the curve once, at one parameter t (order 1): the
    Gauss-Newton iterate toward x from the point the disc before carried,
    or phi where nothing is carried.  With delta = phi - t reduced to
    (-pi, pi], Taylor's theorem and |rho''| <= S2 put rho(phi) within
    rho_c +- hw: rho_c = rho(t) + delta rho'(t), hw = |delta| (eps S1 +
    |delta| S2 / 2).  The eps term, eps = 8 K ulp for K coefficients,
    bounds the rounding of the Taylor term (Horner's rule in complex
    arithmetic and the product after it).  Where nothing is carried
    delta = hw = 0 and rho_c is rho(phi); the rounding of rho(t) and of
    the angles, an ulp or so, is left to the 16-ulp margin below.

    R is the largest of three lower bounds, less 16 ulp of max |x| on ∂C
    for rounding:

    * star: a z-disc of radius t about z lies in the z-image of C if
      s + t + L asin(t/s) <= rho(phi), as rho moves at most L per radian;
      asin(t/s) <= pi t / (2 s) gives t = (rho(phi) - s) /
      (1 + pi L / (2 s)), at most s, taking rho(phi) >= rho_c - hw.  So
      does t = rho_min - s.  At delta = 0 this bound is positive
      everywhere in C, and a row the near bound does not take restarts
      at phi on its next disc, so no walk stalls.
    * grid: each node c of a grid of _WALK_CELLS cells along the longer
      side of the curve's bounding box stores its distance to the
      samples less h M1 / 2, a lower bound on dist(c, ∂C); x's nearest
      node gives that less |x - c|.
    * near, where e = |x - x(phi)| = |rho(phi) - s| |x| / s, taken at
      the high end (|rho_c - s| + hw) |x| / s, is below a = m1^2 / M2:
      on the window |theta - phi| <= w = (a - e) / (2 M1),
      |x(theta) - x| <= e + w M1, so f = |x(theta) - x|^2 has
      f'' >= mu = M2 (a - e) > 0.  So where t lies in the window,
      |delta| <= w, it bounds f on the window below by f(t) - f'(t)^2 /
      (2 mu), the least of f's quadratic minorant about t; Gauss-Newton
      iterates toward the nearest curve point only make it tight.
      Outside the window z and z(theta) are at least w apart in angle,
      so |z - z(theta)| >= rho sin w.  The bound is the smaller of the
      two.  The second part needs the window centred on phi, not on t;
      a row with t outside it takes the star and grid bounds alone.

    U = sqrt(f(t)) at every row, the distance to one curve point.

    A disc moves the path by its radius, at most the distance to ∂C,
    so the nearest-point iterate of its last disc is a close start for
    this one.  `walk_radii` carries t and x(t), x'(t), none of which
    depends on the position, to the next disc from the rows the near
    bound applied to; every other row starts again at phi.  So does
    the first of repeated calls at a fixed point, and the iterates of
    the later calls converge to the nearest point.

    The walk stops where U <= shell = _SHELL min |x(theta)|, which
    biases the value by at most shell * lipschitz.  The rule's value v
    satisfies g - v = E_x[int_0^tau e^{-rt} (r - L)g dt], at most
    (1 - E_x[e^{-r tau}]) max(beta^2, rho_max^2 - beta^2) in size.  If
    ∂C has an outside tangent disc of radius rho_e at the point nearest
    x, at distance delta, a path leaves C before it reaches that disc,
    so E_x[e^{-r tau}] >= K_0(k (rho_e + delta)) / K_0(k rho_e) >=
    1 - delta k K_1(k rho_e) / K_0(k rho_e), k = sqrt(2r), K_0 convex.
    Hence lipschitz = max(beta^2, rho_max^2 - beta^2) k K_1(k rho_e) /
    K_0(k rho_e); it is k max(...) for a convex curve (rho_e infinite).
    The curve is strictly convex where `_strictly_convex` finds x' x x''
    positive between the samples: every other point of a simple closed
    curve of positive curvature, as this star-shaped one then is, lies
    inside each tangent line, so rho_e is infinite.  Otherwise rho_e =
    min(a, D/2), a = m1^2 / M2 <= |x'|^3 / |x' x x''| the least radius of
    curvature, with w = min(pi/2, pi a / M1) and D = rho_min sin(w) /
    sqrt(lambda_max).  Take a disc of radius at most rho_e tangent to
    the curve at x(theta_0) from outside:

    * a curve point with |theta - theta_0| >= w lies at least D from
      x(theta_0), by the argument of the near bound's second part, and
      the disc lies within 2 rho_e <= D of x(theta_0);
    * each arc |theta - theta_0| <= w, either way from theta_0, has
      length at most w M1 <= pi a and radius of curvature at least a.
      Such an arc stays outside the open disc of radius a tangent to it
      at x(theta_0) on the same side, which holds the smaller disc.  In
      units of a, with gamma(s) the arc by length s <= pi, c the
      disc's centre and psi the angle gamma' has turned toward c, so
      psi(0) = 0 and |psi'| <= 1: let m be the largest psi on [0, s],
      taken at u, and v the outward unit normal where the circle's
      tangent has turned by m.  Then (gamma(s) - c) . v = cos m +
      int_0^s sin(m - psi), and int_0^u psi' sin(m - psi) = 1 - cos m,
      so it is 1 + int_0^u (1 - psi') sin(m - psi) + int_u^s sin(m -
      psi) >= 1, as 0 <= m - psi(t) <= |t - u| <= pi.
    """

    def __init__(self, geom: _BoundaryGeometry):
        p = geom.p
        self.geom = geom
        h = 2.0 * np.pi / _WALK_SAMPLES
        theta = h * np.arange(_WALK_SAMPLES)
        at = geom.evaluate(theta, 2)
        rho, drho = at[1:3]
        y, dy, d2y = geom.points(at)
        k = geom._ik.imag
        s0, s1, s2, s3 = ((np.abs(geom._coef[:, 0]) * k ** m).sum() for m in range(4))
        eps = 8.0 * k.size * np.finfo(float).eps
        self.taylor = (eps * s1, 0.5 * s2)
        inv_min, inv_max = 1.0 / geom.sqrt_lam.min(), 1.0 / geom.sqrt_lam.max()
        jerk = inv_min * (s3 + 3.0 * s2 + 3.0 * s1 + s0)
        self.rho_min = rho.min() - 0.5 * h * s1
        self.slope = np.abs(drho).max() + 0.5 * h * s2
        self.speed = (np.sqrt((dy * dy).sum(axis=0)).max()
                      + 0.5 * h * inv_min * (s2 + 2.0 * s1 + s0))
        self.bend = np.sqrt((d2y * d2y).sum(axis=0)).max() + 0.5 * h * jerk
        self.inv_max = inv_max
        self.reach = (inv_max * self.rho_min) ** 2 / self.bend
        norms = np.sqrt((y * y).sum(axis=0))
        self.shell = _SHELL * norms.min()
        self.rounding = 16.0 * np.finfo(float).eps * norms.max()

        lo, hi = y.min(axis=1), y.max(axis=1)
        self.cell = (hi - lo).max() / _WALK_CELLS
        self.lo = lo
        axes = [lo[i] + self.cell * np.arange(int(np.ceil((hi[i] - lo[i]) / self.cell)) + 1)
                for i in range(2)]
        # squared offsets of each node coordinate from each sample's, one table per axis
        gx, gy = (axes[i][:, None] - y[i] for i in range(2))
        gx *= gx
        gy *= gy
        clearance = np.sqrt([(row + gy).min(axis=1) for row in gx])
        self.clearance = clearance - 0.5 * h * self.speed

        w = min(0.5 * np.pi, np.pi * self.reach / self.speed)
        self.rho_e = (np.inf if _strictly_convex(geom, dy, d2y, self.bend, jerk)
                      else min(self.reach, 0.5 * inv_max * self.rho_min * np.sin(w)))
        kappa = np.sqrt(2.0 * p.r)
        ratio = 1.0
        if np.isfinite(self.rho_e):
            ratio = (bessel_K_scaled(1, kappa * self.rho_e)
                     / bessel_K_scaled(0, kappa * self.rho_e))
        rho_max = rho.max() + 0.5 * h * s1
        self.lipschitz = float(max(p.beta_sq, rho_max ** 2 - p.beta_sq) * kappa * ratio)

    def walk_radii(self, state):
        """(R, U): R <= dist(x, ∂C) <= U at each column of state, x a point of C.

        state is (7, k), one column per point: x in rows 0-1, the carried
        parameter t in row 2, NaN where the column carries no point, x(t)
        in rows 3-4 and x'(t) in 5-6, each (2, k) as the curve's points.
        Rows 2 to 6 are updated in place to this disc's.
        """
        geom = self.geom
        x = state[:2]
        phi, s = geom.polar(x)
        # delta = phi - t for the Gauss-Newton iterate t, which may lie a whole turn from phi
        delta = phi - (state[2] - geom.newton_step(x, state[3:5], state[5:7]))
        delta -= 2.0 * np.pi * np.rint(delta / (2.0 * np.pi))
        delta[np.isnan(delta)] = 0.0     # no carried point: phi itself
        t = phi - delta
        at = geom.evaluate(t, 1)
        # rho(phi) within rho +- half: Taylor's theorem about t (see the class docstring)
        size = np.abs(delta)
        half = size * (self.taylor[0] + size * self.taylor[1])
        rho = at[1] + delta * at[2]

        gap = rho - half - s
        star = np.minimum(gap * s / np.maximum(s + 0.5 * np.pi * self.slope, 1e-300), s)
        radius = self.inv_max * np.maximum(star, self.rho_min - s)
        # x's nearest node of the clearance grid, by its (2, k) indices
        node = np.rint((x - self.lo[:, None]) / self.cell)
        np.clip(node, 0, np.array(self.clearance.shape)[:, None] - 1, out=node)
        offset = x - (self.lo[:, None] + self.cell * node)
        clear = self.clearance.take((node[0] * self.clearance.shape[1] + node[1]).astype(int))
        radius = np.maximum(radius, clear - np.sqrt((offset * offset).sum(axis=0)))

        point, tangent = geom.points(at)
        c = point - x
        f = (c * c).sum(axis=0)
        df = 2.0 * (c * tangent).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):    # x = 0: e is NaN, not near
            room = self.reach - (np.abs(rho - s) + half) * (np.sqrt((x * x).sum(axis=0)) / s)
            w = np.minimum(0.5 * np.pi, 0.5 * room / self.speed)
            near = (room > 0.0) & (size <= w)
            inner = np.sqrt(np.maximum(f - df * df / (2.0 * self.bend * room), 0.0))
            outer = self.inv_max * self.rho_min * np.sin(w)
        np.maximum(radius, np.minimum(inner, outer), out=radius, where=near)
        state[2] = np.where(near, t, np.nan)
        state[3:5] = point
        state[5:7] = tangent
        return np.maximum(radius - self.rounding, 0.0), np.sqrt(f)


def _chunked_mean(paths: int, seed: int, simulate):
    """(mean, stderr) of the per-path values simulate(rng, n) returns.

    Paths run in chunks of _CHUNK, each drawing from its own Philox
    stream keyed (seed, chunk).  The chunks are independent, so they run
    on a thread pool (numpy releases the GIL inside its array loops);
    their sums are added in chunk order, so the result is bit-identical
    to a serial run whatever the scheduling.  A single chunk runs in the
    calling thread: a worker would gain nothing, and the heap of its own
    malloc arena stays resident after the chunk, on top of the caller's
    next peak.  The variance is taken in
    two passes, about the first value and then about the mean, so it
    carries no cancellation: identical values give a stderr of exactly 0.0.
    The deviations are squared after division by the power of two at or
    below their largest magnitude, and the root multiplied back: exact
    wherever the plain squares neither underflow nor overflow, and
    deviations of 1e-202, whose plain squares underflow, keep their size.
    """
    starts = range(0, paths, _CHUNK)

    def run(start):
        rng = np.random.Generator(np.random.Philox(key=[seed, start // _CHUNK]))
        return simulate(rng, min(_CHUNK, paths - start))

    if len(starts) == 1:
        chunks = [run(0)]
    else:
        with ThreadPoolExecutor(max_workers=min(len(starts), os.cpu_count() or 1)) as pool:
            chunks = list(pool.map(run, starts))
    mean = sum(values.sum() for values in chunks) / paths
    dev = np.concatenate(chunks) - chunks[0][0]
    dev -= dev.mean()
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(dev)))[1] - 1)
    dev /= scale
    return float(mean), float(scale * np.sqrt((dev * dev).sum()) / paths)


def _disc_weight(x):
    """1 / I_0(x), the discount E[e^{-r tau_R}] of a disc with x = sqrt(2r) R >= 0.

    Most discs have x <= 1, where the series of _I0_SERIES is summed by
    Horner in (x/2)^2; the first term it drops is below 1e-22 there.
    Larger x take e^{-x} / i0e(x).
    """
    q = 0.25 * x * x
    total = np.full_like(q, _I0_SERIES[0])
    for coef in _I0_SERIES[1:]:
        total *= q
        total += coef
    weight = np.reciprocal(total, out=total)
    big = x > 1.0
    if big.any():
        weight[big] = np.exp(-x[big]) / i0e(x[big])
    return weight


def mc_value(p: QuadraticProblem, b: StarBoundary, x0, cfg: MCConfig):
    """Simulated value of the rule "stop on first exit from C" from x0, by walk on spheres.

    C is the region inside the trigonometric interpolant of the radii,
    the region the Green route certifies.  Each step jumps from x to a
    uniform point on the circle of radius R about x, with R from
    _SafeBalls, and multiplies the path's weight by E[e^{-r tau_R}] =
    1 / I_0(sqrt(2r) R): exit from a disc is exact for Brownian motion,
    with the exit point uniform and independent of the exit time.  A
    path stops within a shell of width eps = 1e-6 min |x| of ∂C and pays
    weight * g there.  The estimate has no time step and no horizon; its
    bias is at most eps * lipschitz (see _SafeBalls).  Counter-based RNG
    keyed by (seed, chunk) makes the result reproducible and independent
    of scheduling.  A disc evaluates the curve once, at a Gauss-Newton
    iterate from the point the path carries (see _SafeBalls.walk_radii).  The
    paths are columns of one array, all starting at x0 and compacted once
    per disc.

    Returns (estimate, stderr, walk), with the walk's "paths",
    "mean_walk" and "max_walk" (balls per path), "shell" (eps) and
    "lipschitz"; (g(x0), 0.0, walk) when x0 is not inside C.
    """
    if p.d != 2:
        raise ValueError("mc_value simulates d = 2 problems")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,):
        raise ValueError("x0 must be a 2-d point")
    geom = _BoundaryGeometry(p, b)
    balls = _SafeBalls(geom)
    lengths = []
    walk = dict(paths=cfg.paths, mean_walk=0.0, max_walk=0, shell=float(balls.shell),
                lipschitz=balls.lipschitz)
    if not geom.inside(x0[:, None])[0]:
        return float(p.reward(x0)), 0.0, walk
    kappa = np.sqrt(2.0 * p.r)

    def simulate(rng, n):
        # a column per path: x, the carried point of _SafeBalls.walk_radii, the weight
        state = np.full((8, n), np.nan)
        state[:2] = x0[:, None]
        state[7] = 1.0
        payoffs = []
        walked = 0
        for longest in range(_WALK_MAX_BALLS):
            radius, upper = balls.walk_radii(state[:7])
            done = upper <= balls.shell
            if done.any():
                stopped = np.compress(done, state, axis=1)
                payoffs.append(stopped[7] * geom.reward(stopped[:2]))
                keep = ~done
                state, radius = np.compress(keep, state, axis=1), np.compress(keep, radius)
                if not radius.size:
                    break
            angle = 2.0 * np.pi * rng.random(radius.size)
            state[0] += radius * np.cos(angle)
            state[1] += radius * np.sin(angle)
            state[7] *= _disc_weight(kappa * radius)
            walked += radius.size
        else:
            raise RuntimeError("walk on spheres: %d paths still outside the shell after %d balls"
                               % (radius.size, _WALK_MAX_BALLS))
        lengths.append((walked, longest))
        return np.concatenate(payoffs)

    est, err = _chunked_mean(cfg.paths, cfg.seed, simulate)
    walk.update(mean_walk=sum(total for total, _ in lengths) / cfg.paths,
                max_walk=max(longest for _, longest in lengths))
    return est, err, walk


# ---------------------------------------------------------------------------
# full report

def run_verification(p: QuadraticProblem, b: StarBoundary,
                     mc: MCConfig = MCConfig(), scan_n: int = 40,
                     n_rays: int = _N_RAYS) -> VerificationReport:
    """All certification checks for a d = 2 boundary in one report.

    A grid flip that maps the radii onto themselves bit for bit fixes C
    and g, so E is the same on each of its orbits: the Green sweeps take
    one node and one folded scan point per orbit of those flips.
    """
    if p.d != 2:
        raise ValueError("run_verification supports d = 2 boundaries")
    grid = interior_scan_grid(p, b, n=scan_n)
    flips = {axis: perm for axis, perm in b.grid.reflection_flips().items()
             if np.array_equal(b.radii[perm], b.radii)}
    nodes, orbit_of = b.grid.reflection_orbits(flips)
    residuals = green_residual_normalized(p, b, b.cartesian_points(p)[nodes],
                                          n_rays=n_rays)[orbit_of]
    axes = list(flips)
    grid[:, axes] = np.abs(grid[:, axes])
    min_gap = majorant_gap_scan(p, b, np.unique(grid, axis=0), n_rays=n_rays)
    origin = np.zeros(2)
    recon = value(p, b, origin, n_rays=n_rays)
    est, err, walk = mc_value(p, b, origin, mc)
    return VerificationReport(
        boundary_residuals=residuals,
        majorant_min_gap=min_gap,
        mc_value=est,
        mc_stderr=err,
        reconstructed_value=recon,
        class_check=class_membership_check(p, b),
        mc_walk=walk,
    )
