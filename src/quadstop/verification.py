"""Certification of a candidate stopping boundary.

Everything here checks the solver's output through routes that do not
reuse the Martin-kernel discretization:

* `green_integral_over_C` evaluates E(x) = integral over C of
  G_r(x, y) (r - L)g(y) dy.  The defining property of the optimal
  boundary is E = 0 on the stopping set, and g - E is the value
  function everywhere, so this single integral yields the residual
  check, the reconstructed value, and the majorant scan.
* `mc_value` prices the candidate stopping rule by direct simulation.
* `run_verification` runs all of them, plus the class membership
  checks, into one report.

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

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .kernels import KillingConfig, green_kernel_radial, green_kernel_radial_ds
from .problem import ClassCheckReport, QuadraticProblem, StarBoundary, class_membership_check

_GL16_X, _GL16_W = leggauss(16)


@dataclass(frozen=True)
class MCConfig:
    paths: int = 100_000
    time_step: float = 1e-3
    horizon: float = 40.0
    seed: int = 0

    def __post_init__(self):
        if self.paths < 100:
            raise ValueError("need at least 100 paths")
        if not (0.0 < self.time_step <= self.horizon):
            raise ValueError("need 0 < time_step <= horizon")


@dataclass(frozen=True)
class VerificationReport:
    boundary_residuals: np.ndarray
    majorant_min_gap: float
    mc_value: float
    mc_stderr: float
    reconstructed_value: float
    class_check: ClassCheckReport


# ---------------------------------------------------------------------------
# the boundary curve

class _BoundaryGeometry:
    """The curve x(theta) = rho(theta) (cos theta, sin theta) / sqrt(lambda) of ∂C, d = 2.

    rho is the trigonometric interpolant of the radii on the equispaced
    grid.  It and its first two derivatives come from one sum of complex
    exponentials: rho^(m)(theta) = Re sum_k c_k (ik)^m e^{ik theta}.
    """

    def __init__(self, p: QuadraticProblem, b: StarBoundary):
        if p.d != 2 or b.grid.d != 2:
            raise ValueError("boundary integrals are a d = 2 scheme")
        self.p = p
        self.n = b.grid.n
        coeffs = np.fft.rfft(b.radii) / self.n
        coeffs[1:] *= 2.0
        if self.n % 2 == 0:
            coeffs[-1] = 0.5 * coeffs[-1].real   # the Nyquist mode is a cosine
        self._ik = 1j * np.arange(coeffs.size)
        self._coef = coeffs[:, None] * self._ik[:, None] ** np.arange(3)

    def _rho(self, theta, order):
        """(..., order + 1) array of rho(theta) and its first `order` derivatives."""
        phase = np.exp(np.multiply.outer(theta, self._ik))
        return (phase @ self._coef[:, :order + 1]).real

    def rho(self, theta):
        return self._rho(theta, 0)[..., 0]

    def _frame(self, theta):
        """u(theta) = (cos theta, sin theta) / sqrt(lambda) and u'(theta)."""
        cos, sin = np.cos(theta), np.sin(theta)
        return (np.stack([cos, sin], axis=-1) / self.p.sqrt_lam,
                np.stack([-sin, cos], axis=-1) / self.p.sqrt_lam)

    def curve(self, theta):
        """x(theta), x'(theta) and x''(theta), each with a trailing axis of 2."""
        rho, d1, d2 = np.moveaxis(self._rho(theta, 2), -1, 0)
        u, du = self._frame(theta)
        x = rho[..., None] * u
        dx = d1[..., None] * u + rho[..., None] * du
        d2x = (d2 - rho)[..., None] * u + 2.0 * d1[..., None] * du
        return x, dx, d2x

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
        u, du = self._frame(np.add.outer(theta, t))
        # u(theta + t) - u(theta) = 2 sin(t/2) u'(theta + t/2)
        chord = (2.0 * np.sin(0.5 * t))[:, None] * self._frame(np.add.outer(theta, 0.5 * t))[1]
        diff = step[..., :1] * u + rho0[:, None, None] * chord
        return diff, drho[..., None] * u + rho[..., None] * du

    def inside(self, pts: np.ndarray) -> np.ndarray:
        z = pts * self.p.sqrt_lam
        rho = np.sqrt((z * z).sum(axis=-1))
        return rho < self.rho(np.arctan2(z[..., 1], z[..., 0]))


# ---------------------------------------------------------------------------
# Green integrals over C as integrals over ∂C

_FAR_SPACINGS = 5.0     # trapezoid rule beyond this many sample spacings from ∂C
_NEAR_LEVELS = 12       # graded panels on each side of the nearest parameter
_NEAR_FINEST = 1e-9     # the finest of them, relative to a plain panel
_NEWTON_STEPS = 6
_BLOCK_ENTRIES = 2 ** 14


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
    pts = np.asarray(pts, dtype=float)
    geom = _BoundaryGeometry(p, b)
    cfg = KillingConfig(p.r, 2)
    n_samples = max(int(n_rays), 8 * geom.n)
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    y, dy, _ = geom.curve(theta)
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
        t_star = theta[nearest[near]]
        for _ in range(_NEWTON_STEPS):
            yn, dyn, d2yn = geom.curve(t_star)
            d = yn - x[near]
            slope = (d * dyn).sum(axis=1)
            curv = (dyn * dyn).sum(axis=1) + (d * d2yn).sum(axis=1)
            curv = np.where(curv > 0.0, curv, (dyn * dyn).sum(axis=1))
            t_star -= np.clip(slope / curv, -spacing, spacing)
        yn, dyn, _ = geom.curve(t_star)
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


def green_integral_over_C(p: QuadraticProblem, b: StarBoundary, x,
                          n_rays: int = 720, mc_samples: int = 1_000_000,
                          seed: int = 0) -> float:
    """E(x) = integral over C of G_r(x, y) (r - L)g(y) dy.

    d = 2: Green's second identity turns it into an integral over ∂C
    (see _green_integrals).  d = 3: importance-sampled Monte Carlo
    against the closed-form Yukawa kernel; the estimate is deterministic
    for a fixed seed.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (p.d,):
        raise ValueError("x must be a point of dimension %d" % p.d)
    if p.d == 2:
        return float(_green_integrals(p, b, x[None, :], n_rays)[0][0])
    if p.d == 3:
        return _green_integral_mc3(p, b, x, mc_samples, seed)
    raise ValueError("green integrals are implemented for d in {2, 3}")


def _green_integral_mc3(p: QuadraticProblem, b: StarBoundary, x,
                        n_samples: int, seed: int) -> float:
    cfg = KillingConfig(p.r, 3)
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    z = rng.standard_normal((n_samples, 3))
    omega = z / np.sqrt((z * z).sum(axis=1))[:, None]
    # piecewise-constant boundary radius: nearest grid node by angle
    nearest = np.argmax(omega @ b.grid.nodes.T, axis=1)
    rho_hat = b.radii[nearest]
    rho = rho_hat * rng.random(n_samples) ** (1.0 / 3.0)
    y = p.to_cartesian(omega, rho)
    s = np.sqrt(((y - x) ** 2).sum(axis=1))
    s = np.maximum(s, 1e-300)
    dens = 3.0 * np.prod(p.sqrt_lam) / (4.0 * np.pi * rho_hat ** 3)
    vals = green_kernel_radial(cfg, s) * p.excess_generator(y) / dens
    return float(vals.mean())


def green_residual_normalized(p: QuadraticProblem, b: StarBoundary, x,
                              n_rays: int = 720) -> float:
    """E(x) / (r beta^2 integral of G over C): dimensionless residual.

    The denominator is the natural magnitude of either term of E, so a
    solved boundary scores ~quadrature noise and an unsolved one O(1).
    """
    x = np.asarray(x, dtype=float)
    (val,), (mass,) = _green_integrals(p, b, x[None, :], n_rays)
    if mass == 0.0:
        return np.inf if val != 0.0 else 0.0
    return float(val / (p.r * p.beta_sq * mass))


def value(p: QuadraticProblem, b: StarBoundary, x, **kw) -> float:
    """Reconstructed value g(x) - E(x); exact for the optimal boundary."""
    x = np.asarray(x, dtype=float)
    return float(p.reward(x)) - green_integral_over_C(p, b, x, **kw)


def interior_scan_grid(p: QuadraticProblem, b: StarBoundary, n: int = 40,
                       shrink: float = 0.99) -> np.ndarray:
    """n x n bounding-box grid filtered to the (slightly shrunk) interior."""
    if p.d != 2:
        raise ValueError("scan grids are generated for d = 2")
    pts = b.cartesian_points(p)
    mx = np.abs(pts).max(axis=0)
    xs = np.linspace(-mx[0], mx[0], n)
    ys = np.linspace(-mx[1], mx[1], n)
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    z = grid * p.sqrt_lam
    rho = np.sqrt((z * z).sum(axis=1))
    theta = np.arctan2(z[:, 1], z[:, 0])
    keep = rho <= shrink * _BoundaryGeometry(p, b).rho(theta)
    return grid[keep]


def majorant_gap_scan(p: QuadraticProblem, b: StarBoundary, scan_grid,
                      n_rays: int = 720) -> float:
    """min over the grid of V(x) - g(x) = -E(x); should be >= -noise.

    The value dominates the reward everywhere; a markedly negative gap
    inside C flags a boundary that stops too late or too early.
    """
    scan_grid = np.asarray(scan_grid, dtype=float)
    if scan_grid.ndim != 2 or scan_grid.shape[1] != p.d:
        raise ValueError("scan grid must be (n, d) points")
    if not len(scan_grid):
        return float(np.inf)
    return float(np.min(-_green_integrals(p, b, scan_grid, n_rays)[0]))


# ---------------------------------------------------------------------------
# Monte Carlo pricing of the candidate rule

_CHUNK = 16384


def _chunked_mean(paths: int, seed: int, simulate):
    """(mean, stderr) of the per-path values simulate(rng, n) returns.

    Paths run in chunks of _CHUNK, each drawing from its own Philox
    stream keyed (seed, chunk).  The chunks are independent, so they run
    on a thread pool (numpy releases the GIL inside its array loops);
    their sums are added in chunk order, so the result is bit-identical
    to a serial run whatever the scheduling.
    """
    starts = range(0, paths, _CHUNK)

    def run(start):
        rng = np.random.Generator(np.random.Philox(key=[seed, start // _CHUNK]))
        values = simulate(rng, min(_CHUNK, paths - start))
        return values.sum(), (values * values).sum()

    with ThreadPoolExecutor(max_workers=min(len(starts), os.cpu_count() or 1)) as pool:
        sums = list(pool.map(run, starts))
    total = 0.0
    total_sq = 0.0
    for chunk_sum, chunk_sq in sums:
        total += chunk_sum
        total_sq += chunk_sq
    mean = total / paths
    var = max(total_sq / paths - mean * mean, 0.0)
    return float(mean), float(np.sqrt(var / paths))


def mc_value(p: QuadraticProblem, b: StarBoundary, x0, cfg: MCConfig):
    """Simulated value of the rule "stop on first exit from C" from x0.

    Exact Gaussian increments of variance time_step; the boundary is the
    linear interpolant of rho(theta) between grid angles; the payoff is
    e^{-r t} g(X_t) at the first sampled point outside C, and paths
    alive at the horizon contribute e^{-r horizon} g(X_horizon).
    Counter-based RNG keyed by (seed, chunk) makes the result
    reproducible and independent of scheduling.

    Returns (estimate, stderr); (g(x0), 0.0) when x0 is already outside.
    """
    if p.d != 2:
        raise ValueError("mc_value simulates d = 2 problems")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,):
        raise ValueError("x0 must be a 2-d point")
    angles = b.grid.angles
    order = np.argsort(angles)
    th_grid = np.concatenate([angles[order], [angles[order][0] + 2.0 * np.pi]])
    rho_grid = np.concatenate([b.radii[order], [b.radii[order][0]]])

    def rho_hat(theta):
        return np.interp(theta, th_grid, rho_grid)

    def outside(pts):
        z = pts * p.sqrt_lam
        rho = np.sqrt((z * z).sum(axis=1))
        theta = np.mod(np.arctan2(z[:, 1], z[:, 0]), 2.0 * np.pi)
        theta = np.where(theta < th_grid[0], theta + 2.0 * np.pi, theta)
        return rho >= rho_hat(theta)

    if outside(x0[None, :])[0]:
        return float(p.reward(x0)), 0.0

    dt = cfg.time_step
    sq_dt = np.sqrt(dt)
    max_steps = int(np.ceil(cfg.horizon / dt))

    def simulate(rng, n):
        pos = np.tile(x0, (n, 1))
        payoff = np.empty(n)
        alive = np.arange(n)
        for step in range(1, max_steps + 1):
            pos += sq_dt * rng.standard_normal((alive.size, 2))
            out = outside(pos)
            if out.any():
                t = step * dt
                idx = alive[out]
                payoff[idx] = np.exp(-p.r * t) * p.reward(pos[out])
                alive = alive[~out]
                pos = pos[~out]
                if alive.size == 0:
                    break
        if alive.size:
            payoff[alive] = np.exp(-p.r * cfg.horizon) * p.reward(pos)
        return payoff

    return _chunked_mean(cfg.paths, cfg.seed, simulate)


# ---------------------------------------------------------------------------
# full report

def run_verification(p: QuadraticProblem, b: StarBoundary,
                     mc: MCConfig | None = None, scan_n: int = 40,
                     n_rays: int = 720) -> VerificationReport:
    """All certification checks for a d = 2 boundary in one report."""
    if p.d != 2:
        raise ValueError("run_verification supports d = 2 boundaries")
    if mc is None:
        mc = MCConfig()
    residuals = np.array([green_residual_normalized(p, b, x, n_rays=n_rays)
                          for x in b.cartesian_points(p)])
    grid = interior_scan_grid(p, b, n=scan_n)
    min_gap = majorant_gap_scan(p, b, grid, n_rays=n_rays)
    origin = np.zeros(2)
    recon = value(p, b, origin, n_rays=n_rays)
    est, err = mc_value(p, b, origin, mc)
    return VerificationReport(
        boundary_residuals=residuals,
        majorant_min_gap=min_gap,
        mc_value=est,
        mc_stderr=err,
        reconstructed_value=recon,
        class_check=class_membership_check(p, b),
    )
