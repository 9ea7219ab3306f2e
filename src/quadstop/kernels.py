"""Kernels of the exponentially killed d-dimensional Wiener process.

Transition density, the r-resolvent (Green) kernel in closed Macdonald
form, the Martin kernel e^{a.y} on the sphere |a|^2 = 2r, discrete
mixtures of Martin kernels (r-harmonic functions), and the
hyperplane-integral identity used as a headline property test.

The Green kernel is

    G_r(x, y) = 2 (2 pi)^{-d/2} (s^2/(2r))^{(2-d)/4} K_{(d-2)/2}(s k),

with s = |x - y| and k = sqrt(2r); d = 2 gives K_0(s k)/pi and d = 3
the Yukawa kernel e^{-s k}/(2 pi s).  Ratios at large |x| are computed
from log-K differences so nothing underflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracles import quad_adaptive_1d
from .specfun import HalfIntOrder, bessel_K_log, bessel_K_scaled


@dataclass(frozen=True)
class KillingConfig:
    """Discount (killing) rate and state dimension."""

    r: float
    d: int

    def __post_init__(self):
        if not (np.isfinite(self.r) and self.r > 0.0):
            raise ValueError("discount rate r must be finite and > 0, got %r" % (self.r,))
        if not isinstance(self.d, (int, np.integer)) or self.d < 1:
            raise ValueError("dimension d must be an integer >= 1, got %r" % (self.d,))

    @property
    def kappa(self) -> float:
        """sqrt(2r), the decay rate of every kernel here."""
        return float(np.sqrt(2.0 * self.r))

    @property
    def bessel_order(self) -> HalfIntOrder:
        return HalfIntOrder(abs(self.d - 2))


@dataclass(frozen=True)
class MartinDirection:
    """A point a on the sphere |a|^2 = 2r indexing a Martin kernel."""

    a: tuple

    def __post_init__(self):
        vec = np.asarray(self.a, dtype=float)
        if vec.ndim != 1 or vec.size < 1 or not np.all(np.isfinite(vec)):
            raise ValueError("direction must be a finite vector")
        object.__setattr__(self, "a", tuple(float(v) for v in vec))

    @classmethod
    def from_unit(cls, cfg: KillingConfig, omega) -> "MartinDirection":
        omega = np.asarray(omega, dtype=float)
        n = np.linalg.norm(omega)
        if n == 0.0:
            raise ValueError("zero vector has no direction")
        return cls(tuple(cfg.kappa * omega / n))

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.a, dtype=float)

    def validate(self, cfg: KillingConfig):
        vec = self.vector
        if vec.size != cfg.d:
            raise ValueError("direction has dimension %d, expected %d" % (vec.size, cfg.d))
        nsq = float(vec @ vec)
        if abs(nsq - 2.0 * cfg.r) > 1e-12 * 2.0 * cfg.r:
            raise ValueError("|a|^2 = %.17g is not 2r = %.17g" % (nsq, 2.0 * cfg.r))
        return vec


@dataclass(frozen=True)
class DiscreteMixture:
    """Finite nonnegative mixture of Martin directions."""

    atoms: tuple  # of (MartinDirection, weight)

    def __post_init__(self):
        norm = []
        for direction, weight in self.atoms:
            w = float(weight)
            if not (np.isfinite(w) and w >= 0.0):
                raise ValueError("mixture weights must be finite and >= 0")
            if not isinstance(direction, MartinDirection):
                direction = MartinDirection(tuple(np.asarray(direction, dtype=float)))
            norm.append((direction, w))
        object.__setattr__(self, "atoms", tuple(norm))

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, w in self.atoms))


def _point(x, d, name="point"):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != d or not np.all(np.isfinite(x)):
        raise ValueError("%s must be a finite vector of dimension %d" % (name, d))
    return x


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


def _radial(cfg: KillingConfig, s, order: HalfIntOrder, factor: float):
    """factor * 2 (2 pi)^{-d/2} (s^2/(2r))^{(2-d)/4} K_order(s kappa)."""
    s = np.asarray(s, dtype=float)
    if s.size and (not np.all(np.isfinite(s)) or np.any(s <= 0.0)):
        raise ValueError("distance must be finite and > 0 (diagonal is singular)")
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    k = cfg.kappa
    pref = 2.0 * (2.0 * np.pi) ** (-0.5 * cfg.d) * (s * s / (2.0 * cfg.r)) ** (0.25 * (2 - cfg.d))
    out = factor * pref * bessel_K_scaled(order, s * k) * np.exp(-s * k)
    return float(out[0]) if scalar else out


def green_kernel_radial(cfg: KillingConfig, s):
    """Green kernel as a function of the distance s = |x - y| > 0."""
    return _radial(cfg, s, cfg.bessel_order, 1.0)


def green_kernel_radial_ds(cfg: KillingConfig, s):
    """d/ds of green_kernel_radial: -kappa times the same prefactor times K_{d/2}.

    From d/du (u^{-nu} K_nu(u)) = -u^{-nu} K_{nu+1}(u) with nu = (d-2)/2;
    d = 2 gives -kappa K_1(s kappa)/pi.
    """
    return _radial(cfg, s, HalfIntOrder(cfg.d), -cfg.kappa)


def green_kernel_log_radial(cfg: KillingConfig, s):
    """log of green_kernel_radial, finite far beyond kernel underflow."""
    s = np.asarray(s, dtype=float)
    if s.size and (not np.all(np.isfinite(s)) or np.any(s <= 0.0)):
        raise ValueError("distance must be finite and > 0 (diagonal is singular)")
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    lg = (np.log(2.0) - 0.5 * cfg.d * np.log(2.0 * np.pi)
          + 0.5 * (2 - cfg.d) * (np.log(s) - 0.5 * np.log(2.0 * cfg.r))
          + bessel_K_log(cfg.bessel_order, s * cfg.kappa))
    return float(lg[0]) if scalar else lg


def green_kernel(cfg: KillingConfig, x, y):
    """Resolvent kernel G_r(x, y); y may be a batch with points in rows."""
    x = _point(x, cfg.d, "x")
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != cfg.d:
        raise ValueError("y has dimension %d, expected %d" % (y.shape[-1], cfg.d))
    s = np.sqrt(((y - x) ** 2).sum(axis=-1))
    if cfg.d >= 2 and np.any(s == 0.0):
        raise ValueError("green_kernel is singular on the diagonal for d >= 2")
    return green_kernel_radial(cfg, s)


def martin_kernel(cfg: KillingConfig, a, y):
    """Martin kernel exp(a . y) for a on the sphere |a|^2 = 2r."""
    if not isinstance(a, MartinDirection):
        a = MartinDirection(tuple(np.asarray(a, dtype=float)))
    vec = a.validate(cfg)
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != cfg.d:
        raise ValueError("y has dimension %d, expected %d" % (y.shape[-1], cfg.d))
    out = np.exp(y @ vec)
    return float(out) if np.ndim(out) == 0 else out


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
        vec = direction.validate(cfg)
        out = out + weight * np.exp(x @ vec)
    return float(out) if np.ndim(out) == 0 else out


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
    atoms = tuple((MartinDirection((cfg.kappa * np.cos(t), cfg.kappa * np.sin(t))), w)
                  for t in th)
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
    proportional to r (see the audit notes shipped with the project).
    """
    if cfg.d != 2:
        raise ValueError("hyperplane_identity is implemented for d = 2 line integrals")
    if not isinstance(a, MartinDirection):
        a = MartinDirection(tuple(np.asarray(a, dtype=float)))
    vec = a.validate(cfg)
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
        s = np.sqrt(dist * dist + t * t)
        out = np.zeros_like(s)
        pos = s > 0.0
        out[pos] = green_kernel_radial(cfg, s[pos])
        return out

    # split at 1/k: the outer part is smooth; on [0, 1/k] geometric panels
    # toward t=0 absorb the K0 log singularity (x on or near H), where
    # plain adaptive bisection exhausts its depth budget
    t0 = 1.0 / k
    quad = quad_adaptive_1d(integrand, t0, float(t_max), rtol=1e-10, atol=1e-15)
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    edges = np.append(t0 * 0.3 ** np.arange(40), 0.0)
    for hi, lo in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        quad += float(integrand(mid + half * gl_x) @ gl_w) * half
    lhs = k * 2.0 * quad
    rhs = float(np.exp(-abs(float(x @ vec) - b)))
    return lhs, rhs
