"""Kernels of the exponentially killed d-dimensional Wiener process.

The r-resolvent (Green) kernel in closed Macdonald form, its radial
derivative, and the Martin kernel e^{a.y} on the sphere |a|^2 = 2r.

The Green kernel is

    G_r(x, y) = 2 (2 pi)^{-d/2} (s^2/(2r))^{(2-d)/4} K_{(d-2)/2}(s k),

with s = |x - y| and k = sqrt(2r); d = 2 gives K_0(s k)/pi and d = 3
the Yukawa kernel e^{-s k}/(2 pi s).  K_nu comes from scipy.special
scaled, as e^u K_nu(u), since K_nu(u) underflows past u ~ 745.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special as sps


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


def bessel_K_scaled(order: float, u):
    """e^u K_order(u) for u > 0: Cephes k0e and k1e for orders 0 and 1, Amos's kve otherwise."""
    if order == 0:
        return sps.k0e(u)
    if order == 1:
        return sps.k1e(u)
    return sps.kve(order, u)


def _radial(cfg: KillingConfig, s, order: float, factor: float):
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
    return _radial(cfg, s, abs(cfg.d - 2) / 2, 1.0)


def green_kernel_radial_ds(cfg: KillingConfig, s):
    """d/ds of green_kernel_radial: -kappa times the same prefactor times K_{d/2}.

    From d/du (u^{-nu} K_nu(u)) = -u^{-nu} K_{nu+1}(u) with nu = (d-2)/2;
    d = 2 gives -kappa K_1(s kappa)/pi.
    """
    return _radial(cfg, s, cfg.d / 2, -cfg.kappa)


def martin_kernel(cfg: KillingConfig, a, y):
    """Martin kernel exp(a . y) for a vector a on the sphere |a|^2 = 2r."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or not np.all(np.isfinite(a)):
        raise ValueError("direction must be a finite vector")
    if a.size != cfg.d:
        raise ValueError("direction has dimension %d, expected %d" % (a.size, cfg.d))
    nsq = float(a @ a)
    if abs(nsq - 2.0 * cfg.r) > 1e-12 * 2.0 * cfg.r:
        raise ValueError("|a|^2 = %.17g is not 2r = %.17g" % (nsq, 2.0 * cfg.r))
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != cfg.d:
        raise ValueError("y has dimension %d, expected %d" % (y.shape[-1], cfg.d))
    out = np.exp(y @ a)
    return float(out) if np.ndim(out) == 0 else out
