"""Modified Bessel functions for the killed-Brownian-motion kernels.

The resolvent kernel of Brownian motion killed at rate r involves the
Macdonald function K_nu with nu = (d-2)/2, and its derivative K_{d/2},
so half-integer and integer orders are the ones that matter; I_0 and
I_1 give the radius of the symmetric problem.

The functions wrap scipy.special: Cephes `k0e`, `k1e`, `i0` and `i1`,
and Amos's algorithm (ACM TOMS 644) as `kve` for every other order.
The package keeps its own names so that every caller gets the same
contract: the order is a non-negative multiple of 1/2, the argument is
finite and > 0 (>= 0 for I) and is checked rather than mapped to nan or
inf, a Python scalar comes back as a float and an array keeps its
shape.  K_nu comes only scaled, as e^u K_nu(u), because K_nu(u)
underflows past u ~ 745 while ratios of the kernel stay perfectly
finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special as sps


@dataclass(frozen=True)
class HalfIntOrder:
    """Order nu = twice_order / 2 of a Macdonald function.

    The kernel formulas need exactly these orders for any dimension
    d >= 1 (nu = |d-2|/2 and d/2).
    """

    twice_order: int

    def __post_init__(self):
        if not isinstance(self.twice_order, (int, np.integer)):
            raise ValueError("twice_order must be an integer, got %r" % (self.twice_order,))
        if self.twice_order < 0:
            raise ValueError("twice_order must be >= 0, got %d" % self.twice_order)

    @classmethod
    def from_order(cls, nu) -> "HalfIntOrder":
        if isinstance(nu, HalfIntOrder):
            return nu
        t = 2.0 * float(nu)
        if not np.isfinite(t) or abs(t - round(t)) > 1e-12:
            raise ValueError("order must be a non-negative multiple of 1/2, got %r" % (nu,))
        return cls(int(round(t)))

    @property
    def order(self) -> float:
        return self.twice_order / 2.0


def _as_positive_array(u, name="u"):
    arr = np.asarray(u, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise ValueError("%s must be finite and > 0" % name)
    return arr


def _result(out):
    return float(out) if np.ndim(out) == 0 else out


def bessel_K_scaled(order, u):
    """e^u K_nu(u); finite for every u > 0 representable as a double.

    Orders 0 and 1 go through their own Cephes routines, the others
    through Amos's `kve`.
    """
    ho = HalfIntOrder.from_order(order)
    arr = _as_positive_array(u)
    if ho.twice_order == 0:
        return _result(sps.k0e(arr))
    if ho.twice_order == 2:
        return _result(sps.k1e(arr))
    return _result(sps.kve(ho.order, arr))


def bessel_I(order, u):
    """Modified Bessel function I_0 or I_1.

    Parameters
    ----------
    order : int
        0 or 1.
    u : float or ndarray
        Argument with 0 <= u <= 700 (I_nu(u) overflows a double soon
        after; the guard raises OverflowError rather than returning inf).
    """
    if order not in (0, 1):
        raise ValueError("bessel_I supports orders 0 and 1, got %r" % (order,))
    arr = np.asarray(u, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0.0)):
        raise ValueError("u must be finite and >= 0")
    if arr.size and np.any(arr > 700.0):
        raise OverflowError("bessel_I argument exceeds the overflow guard u <= 700")
    return _result(sps.i0(arr) if order == 0 else sps.i1(arr))
