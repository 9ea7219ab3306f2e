"""Certification of a candidate stopping boundary.

Everything here checks the solver's output through routes that do not
reuse the Martin-kernel discretization:

* E(x) = integral over C of G_r(x, y) (r - L)g(y) dy.  The defining
  property of the optimal boundary is E = 0 on the stopping set, and
  g - E is the value function everywhere, so this single integral
  yields the residual check (`green_residual_normalized`), the
  reconstructed value (`value`), and the majorant scan.
* `mc_value` prices the candidate stopping rule by a walk on spheres
  over the same curve: exact disc exits, no time step, no horizon, and
  a stopping shell whose bias is bounded (see `_SafeBalls`).
* `_chunked_mean`, the one Monte Carlo engine, draws the walk and d = 3 `value`.
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

    rho is the trigonometric interpolant of the radii on the equispaced
    grid.  It and its first two derivatives come from one sum of complex
    exponentials: rho^(m)(theta) = Re sum_k c_k (ik)^m e^{ik theta}.
    Radii that repeat bit for bit with period p | n have c_k = 0 unless
    `fold` = n/p divides k: the sums run over one period's coefficients
    in e^{i fold theta}.  Solved radii are flip-symmetric, so fold >= 2.
    `evaluate` is the one route from angles to the curve: `rho`,
    `points` and `nearest` all go through it.  Only
    `curve_from`, which sums differences along the curve, has its own.
    """

    def __init__(self, p: QuadraticProblem, b: StarBoundary):
        if p.d != 2 or b.grid.d != 2:
            raise ValueError("boundary integrals are a d = 2 scheme")
        self.p = p
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
        """(cos theta, sin theta, rho, ..., rho^(order)) at each theta.

        Horner's rule in e^{i fold theta}, run in place on one complex
        array: one complex exponential per angle, not one per mode, and
        no temporaries per mode.  Its steps are numpy's polyval's, so are
        its values.  cos and sin are the parts of that exponential.  All
        come back contiguous, which later arithmetic reads faster.
        """
        phase = np.exp(1j * np.asarray(theta, dtype=float))
        step = phase ** self.fold
        coef = self._coef[:, :order + 1].reshape((-1, order + 1) + (1,) * phase.ndim)
        acc = np.empty((order + 1,) + phase.shape, dtype=complex)
        acc[...] = coef[-1]
        for c in coef[-2::-1]:
            acc *= step
            acc += c
        return (phase.real.copy(), phase.imag.copy(), *acc.real.copy())

    def rho(self, theta):
        return self.evaluate(theta, 0)[2]

    def _frame(self, cos, sin):
        """u = (cos, sin) / sqrt(lambda) and u' = (-sin, cos) / sqrt(lambda), by components."""
        sx, sy = self.p.sqrt_lam
        return (cos / sx, sin / sy), (-(sin / sx), cos / sy)

    def points(self, at):
        """(x, y) of x(theta) and of as many derivatives as the evaluation `at` carries."""
        cos, sin, rho, *drho = at
        (ux, uy), (vx, vy) = self._frame(cos, sin)
        out = [(rho * ux, rho * uy)]
        if drho:
            out.append((drho[0] * ux + rho * vx, drho[0] * uy + rho * vy))
        if len(drho) > 1:
            bend, twice = drho[1] - rho, 2.0 * drho[0]
            out.append((bend * ux + twice * vx, bend * uy + twice * vy))
        return out

    def curve_from(self, theta, t):
        """x(theta + t) - x(theta) and x'(theta + t), shaped (B, Q, 2) for B thetas, Q offsets t.

        The difference is summed from expm1(ikt) and half-angle sines, so
        it keeps its relative accuracy as t -> 0, where subtracting two
        nearby points would leave only rounding.
        """
        at = np.exp(np.multiply.outer(theta, self._ik))[..., None] * self._coef[:, :2]
        rho0, drho0 = at.sum(axis=1).real.T
        step = (np.expm1(np.multiply.outer(t, self._ik)) @ at).real
        rho = rho0[:, None] + step[..., 0]
        drho = drho0[:, None] + step[..., 1]
        phase = np.exp(1j * np.add.outer(theta, t))
        u, du = (np.stack(v, axis=-1) for v in self._frame(phase.real, phase.imag))
        # u(theta + t) - u(theta) = 2 sin(t/2) u'(theta + t/2)
        half = np.exp(1j * np.add.outer(theta, 0.5 * t))
        chord = ((2.0 * np.sin(0.5 * t))[:, None]
                 * np.stack(self._frame(half.real, half.imag)[1], axis=-1))
        diff = step[..., :1] * u + rho0[:, None, None] * chord
        return diff, drho[..., None] * u + rho[..., None] * du

    @staticmethod
    def newton_step(px, py, point, tangent, bend):
        """Newton's step f'/f'' on f(t) = |x(t) - x|^2 / 2 toward each (px, py).

        point, tangent and bend are x(t), x'(t) and x''(t) by components.
        Where f'' is not positive its Gauss-Newton part |x'|^2 stands in.
        """
        cx, cy = point[0] - px, point[1] - py
        dx, dy = tangent
        slope = cx * dx + cy * dy
        speed_sq = dx * dx + dy * dy
        curv = speed_sq + (cx * bend[0] + cy * bend[1])
        return slope / np.where(curv > 0.0, curv, speed_sq)

    def nearest(self, px, py, t, at, steps: int, max_step=np.inf):
        """Newton iterates, from t, toward the parameter of the curve point nearest each (px, py).

        Newton's method on f(t) = |x(t) - x|^2 / 2 (see `newton_step`),
        with `at` the evaluation of order 2 at the starting t.  Each step
        is at most max_step long.
        Returns the last iterate and its curve point and tangent,
        ((x, y), (x', y')): one evaluation per step, the last of order 1
        as f and f' need no x''.
        """
        for i in range(steps):
            step = self.newton_step(px, py, *self.points(at))
            t = t - np.clip(step, -max_step, max_step)
            at = self.evaluate(t, 2 if i + 1 < steps else 1)
        return t, self.points(at)[:2]

    def polar(self, x):
        """(phi, s) with sqrt(lambda) x = s (cos phi, sin phi): the inverse affine-polar map."""
        zx = x[..., 0] * self.p.sqrt_lam[0]
        zy = x[..., 1] * self.p.sqrt_lam[1]
        return np.arctan2(zy, zx), np.sqrt(zx * zx + zy * zy)

    def inside(self, pts: np.ndarray) -> np.ndarray:
        phi, s = self.polar(pts)
        return s < self.rho(phi)


# ---------------------------------------------------------------------------
# Green integrals over C as integrals over ∂C

_FAR_SPACINGS = 5.0     # trapezoid rule beyond this many sample spacings from ∂C
_NEAR_LEVELS = 12       # graded panels on each side of the nearest parameter
_NEAR_FINEST = 1e-9     # the finest of them, relative to a plain panel
_NEWTON_STEPS = 6
_BLOCK_ENTRIES = 2 ** 14
_MC3_SAMPLES = 1_000_000    # d = 3: points of E's volume integral in value, drawn with seed 0


def _layer_sums(p: QuadraticProblem, cfg: KillingConfig, d, y, dy, w):
    """Quadratures of 1/2 (g d_nG - G d_n g) and 1/2 d_nG along ∂C, one per point.

    Axis 0 runs over the points x, axis 1 over the nodes: d = y - x,
    y and dy are the curve points and tangents, w the weights in theta.
    dy rotated clockwise is the outward normal times ds/dtheta.
    """
    nu = np.stack([dy[..., 1], -dy[..., 0]], axis=-1)
    s = np.sqrt((d * d).sum(axis=-1))
    kern = green_kernel_radial(cfg, s.ravel()).reshape(s.shape)
    dn_kern = (green_kernel_radial_ds(cfg, s.ravel()).reshape(s.shape)
               * (d * nu).sum(axis=-1) / s)
    dn_g = 2.0 * (p.lam * y * nu).sum(axis=-1)
    layer = ((p.reward(y) * dn_kern - kern * dn_g) * w).sum(axis=-1)
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


def _green_integrals(p: QuadraticProblem, b: StarBoundary, pts, n_rays: int = 720):
    """(E, M) at each row of pts: E = integral over C of G_r(x, y) (r - L)g(y) dy, M of G_r.

    Green's second identity with L = Laplacian/2 and (r - L)G_r = delta gives

        E(x) = chi(x) g(x) + 1/2 integral over ∂C of (g d_nG - G d_n g) ds,
        M(x) = (chi(x) + 1/2 integral over ∂C of d_nG ds) / r,

    chi = 1, 1/2, 0 inside C, on ∂C and outside.  Points farther than
    _FAR_SPACINGS sample spacings from ∂C use the trapezoid rule on
    max(n_rays, 8n) equispaced parameters, spectrally accurate there.
    Nearer points use 16-point Gauss-Legendre panels in the parameter,
    graded geometrically toward the parameter of the nearest curve
    point (found by Newton's method), which resolves the near-singular
    kernels down to the finest panel.  A point closer to ∂C than that is
    moved onto it, where chi = 1/2: the single layer is log-singular
    there and the double layer bounded, which the same panels integrate.
    Points are processed in blocks of about _BLOCK_ENTRIES kernel entries.
    """
    _check_n_rays(n_rays)
    pts = np.asarray(pts, dtype=float)
    geom = _BoundaryGeometry(p, b)
    cfg = KillingConfig(p.r, 2)
    n_samples = max(int(n_rays), 8 * geom.n)
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    at = geom.evaluate(theta, 2)
    y, dy = (np.stack(xy, axis=-1) for xy in geom.points(at[:4]))
    spacing = 2.0 * np.pi / n_samples
    far_dist = _FAR_SPACINGS * spacing * float(np.max(np.sqrt((dy * dy).sum(axis=1))))

    nearest = np.empty(len(pts), dtype=int)
    dist = np.empty(len(pts))
    step = max(1, _BLOCK_ENTRIES // n_samples)
    for i in range(0, len(pts), step):
        d2 = ((pts[i:i + step, None, :] - y) ** 2).sum(axis=-1)
        nearest[i:i + step] = np.argmin(d2, axis=1)
        dist[i:i + step] = np.sqrt(d2[np.arange(len(d2)), nearest[i:i + step]])
    chi = geom.inside(pts).astype(float)
    x = pts.copy()
    e_layer = np.empty(len(pts))
    m_layer = np.empty(len(pts))

    far = np.flatnonzero(dist > far_dist)
    for i in range(0, far.size, step):
        idx = far[i:i + step]
        e_layer[idx], m_layer[idx] = _layer_sums(p, cfg, y - x[idx, None, :], y[None],
                                                 dy[None], spacing)

    near = np.flatnonzero(dist <= far_dist)
    if near.size:
        width = 16.0 * spacing    # as many nodes per turn as the trapezoid rule
        offsets, weights = _near_panels(width)
        start = nearest[near]
        t_star, ends = geom.nearest(x[near, 0], x[near, 1], theta[start],
                                    tuple(a[start] for a in at), _NEWTON_STEPS, max_step=spacing)
        yn, dyn = (np.stack(xy, axis=-1) for xy in ends)
        tau = np.sqrt(((yn - x[near]) ** 2).sum(axis=1) / (dyn * dyn).sum(axis=1))
        on = tau < width * _NEAR_FINEST
        x[near[on]] = yn[on]
        chi[near[on]] = 0.5
        step_near = max(1, _BLOCK_ENTRIES // offsets.size)
        for i in range(0, near.size, step_near):
            blk = slice(i, i + step_near)
            diff, dyq = geom.curve_from(t_star[blk], offsets)
            e_layer[near[blk]], m_layer[near[blk]] = _layer_sums(
                p, cfg, diff + (yn[blk] - x[near[blk]])[:, None, :], diff + yn[blk, None, :],
                dyq, weights)

    return chi * p.reward(x) + e_layer, (chi + m_layer) / p.r


def _green_integral_mc3(p: QuadraticProblem, b: StarBoundary, x) -> float:
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
        return green_kernel_radial(cfg, s) * p.excess_generator(y) / dens

    return _chunked_mean(_MC3_SAMPLES, 0, simulate)[0]


def green_residual_normalized(p: QuadraticProblem, b: StarBoundary, x,
                              n_rays: int = 720):
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


def value(p: QuadraticProblem, b: StarBoundary, x, *, n_rays: int = 720) -> float:
    """Reconstructed value g(x) - E(x); exact for the optimal boundary.

    d = 2: E is an integral over ∂C on n_rays >= 1 nodes (see _green_integrals).
    d = 3: importance-sampled Monte Carlo, _MC3_SAMPLES points with seed 0
    through _chunked_mean against the closed-form Yukawa kernel.
    """
    _check_n_rays(n_rays)
    x = np.asarray(x, dtype=float)
    if x.shape != (p.d,):
        raise ValueError("x must be a point of dimension %d" % p.d)
    if p.d == 2:
        excess = float(_green_integrals(p, b, x[None, :], n_rays)[0][0])
    elif p.d == 3:
        excess = _green_integral_mc3(p, b, x)
    else:
        raise ValueError("green integrals are implemented for d in {2, 3}")
    return float(p.reward(x)) - excess


_SCAN_SHRINK = 0.99     # scan points stay inside this fraction of rho(phi)


def interior_scan_grid(p: QuadraticProblem, b: StarBoundary, n: int = 40) -> np.ndarray:
    """n x n bounding-box grid filtered to the interior, shrunk by _SCAN_SHRINK.

    A grid with no point inside C is an error: the scan would check nothing.
    """
    if n < 1:
        raise ValueError("majorant scan size must be >= 1, got %d" % n)
    geom = _BoundaryGeometry(p, b)
    pts = b.cartesian_points(p)
    mx = np.abs(pts).max(axis=0)
    xs = np.linspace(-mx[0], mx[0], n)
    ys = np.linspace(-mx[1], mx[1], n)
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    phi, s = geom.polar(grid)
    inside = grid[s <= _SCAN_SHRINK * geom.rho(phi)]
    if not len(inside):
        raise ValueError("majorant scan of size %d has no point inside the boundary" % n)
    return inside


def majorant_gap_scan(p: QuadraticProblem, b: StarBoundary, scan_grid,
                      n_rays: int = 720) -> float:
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


def _strictly_convex(dy, d2y, margin) -> bool:
    """Whether x' x x'' exceeds margin at every sample, from its tangent dy and bend d2y."""
    return bool((dy[:, 0] * d2y[:, 1] - dy[:, 1] * d2y[:, 0]).min() > margin)


def _outside_tangent_radius(y, dy):
    """The least, over the curve samples y, of the largest outside tangent disc holding no sample.

    dy are the tangents at y.  The disc of radius t touching y_i from
    outside, its centre along the outward normal n_i, holds y_j where
    |y_j - y_i|^2 < 2 t (y_j - y_i) . n_i.  Infinite when every sample
    lies inside every other's tangent line.
    """
    # outward unit normals: the tangent turned clockwise
    nx, ny = (np.stack([dy[:, 1], -dy[:, 0]]) / np.sqrt((dy * dy).sum(axis=1)))[:, :, None]
    rho_e = np.inf
    step = _BLOCK_ENTRIES // len(y)
    for i in range(0, len(y), step):
        vx = y[:, 0] - y[i:i + step, :1]
        vy = y[:, 1] - y[i:i + step, 1:]
        lift = 2.0 * (vx * nx[i:i + step] + vy * ny[i:i + step])
        with np.errstate(divide="ignore", invalid="ignore"):
            tangent = np.where(lift > 0.0, (vx * vx + vy * vy) / lift, np.inf)
        rho_e = min(rho_e, float(tangent.min()))
    return rho_e


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

    A disc evaluates the curve once, at one parameter t (order 2): the
    Newton iterate toward x from the point the disc before carried, or
    phi where nothing is carried.  With delta = phi - t reduced to
    (-pi, pi], Taylor's theorem and |rho'''| <= S3 put rho(phi) within
    rho_c +- hw: rho_c = rho(t) + delta (rho'(t) + delta rho''(t) / 2)
    and hw = |delta| (eps S1 + |delta| (eps S2 / 2 + |delta| S3 / 6)).
    The eps terms, eps = 8 K ulp for K coefficients, bound the rounding
    of the two Taylor terms (Horner's rule in complex arithmetic and the
    products after it).  Where nothing is carried delta = hw = 0 and
    rho_c is rho(phi); the rounding of rho(t) and of the angles, an ulp
    or so, is left to the 16-ulp margin below, as it is there.

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
      (2 mu), the least of f's quadratic minorant about t; Newton's
      iterates toward the nearest curve point only make it tight.
      Outside the window z and z(theta) are at least w apart in angle,
      so |z - z(theta)| >= rho sin w.  The bound is the smaller of the
      two.  The second part needs the window centred on phi, not on t;
      a row with t outside it takes the star and grid bounds alone.

    U = sqrt(f(t)) at every row, the distance to one curve point.

    A disc moves the path by its radius, at most the distance to ∂C,
    so the nearest-point iterate of its last disc is a close start for
    this one.  `walk_radii` carries t and x(t), x'(t), x''(t), none of
    which depends on the position, to the next disc from the rows the
    near bound applied to; every other row starts again at phi.  So does
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
    The curve is strictly convex where x' x x'' > h M1 M3 / 2 at every
    sample, as x' x x'' then stays positive between samples (its
    derivative is x' x x'''): every other point of a simple closed
    curve of positive curvature, as this star-shaped one then is, lies
    inside each tangent line, so rho_e is infinite with no search.
    Otherwise rho_e is `_outside_tangent_radius` of the samples.
    """

    def __init__(self, geom: _BoundaryGeometry):
        p = geom.p
        self.geom = geom
        h = 2.0 * np.pi / _WALK_SAMPLES
        theta = h * np.arange(_WALK_SAMPLES)
        at = geom.evaluate(theta, 2)
        rho, drho = at[2:4]
        y, dy, d2y = (np.stack(xy, axis=-1) for xy in geom.points(at))
        k = geom._ik.imag
        s0, s1, s2, s3 = ((np.abs(geom._coef[:, 0]) * k ** m).sum() for m in range(4))
        eps = 8.0 * k.size * np.finfo(float).eps
        self.taylor = (eps * s1, 0.5 * eps * s2, s3 / 6.0)
        inv_min, inv_max = 1.0 / p.sqrt_lam.min(), 1.0 / p.sqrt_lam.max()
        jerk = inv_min * (s3 + 3.0 * s2 + 3.0 * s1 + s0)
        self.rho_min = rho.min() - 0.5 * h * s1
        self.slope = np.abs(drho).max() + 0.5 * h * s2
        self.speed = (np.sqrt((dy * dy).sum(axis=1)).max()
                      + 0.5 * h * inv_min * (s2 + 2.0 * s1 + s0))
        self.bend = np.sqrt((d2y * d2y).sum(axis=1)).max() + 0.5 * h * jerk
        self.inv_max = inv_max
        self.reach = (inv_max * self.rho_min) ** 2 / self.bend
        norms = np.sqrt((y * y).sum(axis=1))
        self.shell = _SHELL * norms.min()
        self.rounding = 16.0 * np.finfo(float).eps * norms.max()

        lo, hi = y.min(axis=0), y.max(axis=0)
        self.cell = (hi - lo).max() / _WALK_CELLS
        self.lo = lo
        axes = [lo[i] + self.cell * np.arange(int(np.ceil((hi[i] - lo[i]) / self.cell)) + 1)
                for i in range(2)]
        # squared offsets of each node coordinate from each sample's, one table per axis
        gx, gy = (axes[i][:, None] - y[:, i] for i in range(2))
        gx *= gx
        gy *= gy
        clearance = np.sqrt([(row + gy).min(axis=1) for row in gx])
        self.clearance = clearance - 0.5 * h * self.speed

        convex = _strictly_convex(dy, d2y, 0.5 * h * self.speed * jerk)
        rho_e = np.inf if convex else _outside_tangent_radius(y, dy)
        kappa = np.sqrt(2.0 * p.r)
        ratio = 1.0
        if np.isfinite(rho_e):
            ratio = bessel_K_scaled(1, kappa * rho_e) / bessel_K_scaled(0, kappa * rho_e)
        rho_max = rho.max() + 0.5 * h * s1
        self.lipschitz = float(max(p.beta_sq, rho_max ** 2 - p.beta_sq) * kappa * ratio)

    def walk_radii(self, state):
        """(R, U): R <= dist(x, ∂C) <= U at each column of state, x a point of C.

        state is (9, k), one column per point: x by components, then the
        carried parameter t, NaN where the column carries no point, and
        x(t), x'(t), x''(t) by components.  Rows 2 to 8 are updated in
        place to this disc's.
        """
        geom = self.geom
        px, py = state[0], state[1]
        phi, s = geom.polar(state[:2].T)
        # delta = phi - t for Newton's iterate t, which may lie a whole turn from phi
        delta = phi - (state[2] - geom.newton_step(px, py, state[3:5], state[5:7], state[7:9]))
        delta -= 2.0 * np.pi * np.rint(delta / (2.0 * np.pi))
        delta[np.isnan(delta)] = 0.0     # no carried point: phi itself
        t = phi - delta
        at = geom.evaluate(t, 2)
        # rho(phi) within rho +- half: Taylor's theorem about t (see the class docstring)
        size = np.abs(delta)
        half = size * (self.taylor[0] + size * (self.taylor[1] + size * self.taylor[2]))
        rho = at[2] + delta * (at[3] + 0.5 * delta * at[4])

        gap = rho - half - s
        star = np.minimum(gap * s / np.maximum(s + 0.5 * np.pi * self.slope, 1e-300), s)
        radius = self.inv_max * np.maximum(star, self.rho_min - s)
        nx, ny = self.clearance.shape
        ix = np.rint((px - self.lo[0]) / self.cell)
        iy = np.rint((py - self.lo[1]) / self.cell)
        np.clip(ix, 0, nx - 1, out=ix)
        np.clip(iy, 0, ny - 1, out=iy)
        ox = px - (self.lo[0] + self.cell * ix)
        oy = py - (self.lo[1] + self.cell * iy)
        clear = self.clearance.take((ix * ny + iy).astype(int))
        radius = np.maximum(radius, clear - np.sqrt(ox * ox + oy * oy))

        point, tangent, bend = geom.points(at)
        cx, cy = point[0] - px, point[1] - py
        f = cx * cx + cy * cy
        df = 2.0 * (cx * tangent[0] + cy * tangent[1])
        with np.errstate(divide="ignore", invalid="ignore"):    # x = 0: e is NaN, not near
            room = self.reach - (np.abs(rho - s) + half) * (np.sqrt(px * px + py * py) / s)
            w = np.minimum(0.5 * np.pi, 0.5 * room / self.speed)
            near = (room > 0.0) & (size <= w)
            inner = np.sqrt(np.maximum(f - df * df / (2.0 * self.bend * room), 0.0))
            outer = self.inv_max * self.rho_min * np.sin(w)
        np.maximum(radius, np.minimum(inner, outer), out=radius, where=near)
        state[2] = np.where(near, t, np.nan)
        for row, value in zip(state[3:], (*point, *tangent, *bend)):
            row[...] = value
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
    return float(mean), float(np.sqrt((dev * dev).sum()) / paths)


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
    of scheduling.  A disc evaluates the curve once, at a Newton iterate
    from the point the path carries (see _SafeBalls.walk_radii).  The
    paths are columns of one array, compacted once per disc; all start
    at x0, so the first disc is drawn once.

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
    if not geom.inside(x0[None, :])[0]:
        return float(p.reward(x0)), 0.0, walk
    kappa = np.sqrt(2.0 * p.r)

    def simulate(rng, n):
        # a column per path: x, the carried point of _SafeBalls.walk_radii, the weight
        state = np.full((10, 1), np.nan)
        state[:2, 0] = x0
        state[9] = 1.0
        payoffs = []
        walked = 0
        for longest in range(_WALK_MAX_BALLS):
            radius, upper = balls.walk_radii(state[:9])
            if not longest:     # every path starts at x0, so its first disc is drawn once
                state, radius, upper = (np.repeat(a, n, axis=-1) for a in (state, radius, upper))
            done = upper <= balls.shell
            if done.any():
                stopped = np.compress(done, state, axis=1)
                payoffs.append(stopped[9] * p.reward(stopped[:2].T))
                keep = ~done
                state, radius = np.compress(keep, state, axis=1), np.compress(keep, radius)
                if not radius.size:
                    break
            angle = 2.0 * np.pi * rng.random(radius.size)
            state[0] += radius * np.cos(angle)
            state[1] += radius * np.sin(angle)
            state[9] *= _disc_weight(kappa * radius)
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
                     mc: MCConfig | None = None, scan_n: int = 40,
                     n_rays: int = 720) -> VerificationReport:
    """All certification checks for a d = 2 boundary in one report.

    A grid flip that maps the radii onto themselves bit for bit fixes C
    and g, so E is the same on each of its orbits: the Green sweeps take
    one node and one folded scan point per orbit of those flips.
    """
    if p.d != 2:
        raise ValueError("run_verification supports d = 2 boundaries")
    _check_n_rays(n_rays)
    if mc is None:
        mc = MCConfig()
    grid = interior_scan_grid(p, b, n=scan_n)
    flips = {axis: perm for axis, perm in b.grid.reflection_flips().items()
             if np.array_equal(b.radii[perm], b.radii)}
    nodes, orbit_of = b.grid.reflection_orbits(flips)
    points = b.cartesian_points(p)
    residuals = green_residual_normalized(p, b, points[nodes], n_rays=n_rays)[orbit_of]
    axes = list(flips)
    grid[:, axes] = np.abs(grid[:, axes])
    # a scan point and its mirror image agree to rounding: key them to 1e-9 of C's extent
    keys = np.rint(grid * (1e9 / np.abs(points).max()))
    min_gap = majorant_gap_scan(p, b, grid[np.unique(keys, axis=0, return_index=True)[1]],
                                n_rays=n_rays)
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
