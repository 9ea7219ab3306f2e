"""Quadratic-reward stopping problem and its geometry.

Defines the problem data (discount r, coefficients lambda_i of the
reward g(x) = sum lambda_i x_i^2), the affine polar coordinates
x_k = rho omega_k / sqrt(lambda_k) in which g = rho^2, the negative set
{g <= beta^2} of the excess generator, the star-shaped boundary
container produced by the solver, and the membership checks for the
class of candidate continuation regions (closed, bounded, containing
the negative set, star-shaped, reflection-symmetric, and excluded from
the far-quadrant box).  `symmetric_radius` is the analytic boundary
radius of the symmetric problem: the far-quadrant box is built from it,
and the solver's homotopy starts from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special as sps

from .grids import SphereGrid

RADIUS_CAP = 50.0    # admissible radii stay below RADIUS_CAP * beta
CLASS_TOL = 1e-6     # violations up to this size pass class_membership_check


@dataclass(frozen=True)
class QuadraticProblem:
    """Reward g(x) = sum_i lambda_i x_i^2 stopped under discount r."""

    r: float
    lambdas: tuple

    def __post_init__(self):
        if not (np.isfinite(self.r) and self.r > 0.0):
            raise ValueError("discount rate r must be finite and > 0, got %r" % (self.r,))
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size < 2:
            raise ValueError("lambdas must be a vector of length >= 2")
        if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
            raise ValueError("all reward coefficients must be finite and > 0")
        object.__setattr__(self, "lambdas", tuple(float(v) for v in lam))

    @property
    def d(self) -> int:
        return len(self.lambdas)

    @property
    def lam(self) -> np.ndarray:
        return np.asarray(self.lambdas, dtype=float)

    @property
    def sqrt_lam(self) -> np.ndarray:
        return np.sqrt(self.lam)

    @property
    def beta_sq(self) -> float:
        """Affine polar radius^2 of the negative set, (sum lambda_i)/r."""
        return float(self.lam.sum() / self.r)

    @property
    def beta(self) -> float:
        return float(np.sqrt(self.beta_sq))

    def reward(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.d:
            raise ValueError("x has dimension %d, expected %d" % (x.shape[-1], self.d))
        out = (self.lam * x * x).sum(axis=-1)
        return float(out) if np.ndim(out) == 0 else out

    def excess_generator(self, x):
        """(r - L)g at x for L = Laplacian/2: equals r (g(x) - beta^2)."""
        return self.r * (self.reward(x) - self.beta_sq)

    def to_cartesian(self, omega, rho):
        """Point x with x_k = rho omega_k / sqrt(lambda_k); g(x) = rho^2."""
        omega = np.asarray(omega, dtype=float)
        rho = np.asarray(rho, dtype=float)
        if omega.shape[-1] != self.d:
            raise ValueError("omega has dimension %d, expected %d" % (omega.shape[-1], self.d))
        if np.any(rho < 0.0):
            raise ValueError("rho must be >= 0")
        out = rho[..., None] * omega / self.sqrt_lam
        return out


def _bracketed_root(f, a: float, b: float) -> float:
    """Root of f in [a, b], where f changes sign, by the Illinois variant of regula falsi."""
    fa, fb = f(a), f(b)
    for _ in range(100):
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c)
        if fc == 0.0 or abs(c - b) <= 1e-15 * abs(c):
            return c
        # new bracket [a, c] or [b, c]; keeping a again halves f(a), so a cannot stall
        a, fa = (a, 0.5 * fa) if (fc < 0.0) == (fb < 0.0) else (b, fb)
        b, fb = c, fc
    raise RuntimeError("no root in [%g, %g] after 100 steps" % (a, b))


def symmetric_radius(d: int, r: float) -> float:
    """Boundary radius of the symmetric problem (all weights equal).

    For reward |x|^2 in dimension d with discount r the continuation
    region is a centered ball; its radius is w*/sqrt(2r) where w* solves
    a scalar equation in the rescaled variable.  In d = 2 the condition
    is w I1(w) = 2 I0(w) and in d = 3 it is tanh(w) = w / 3.  A common
    factor on all reward weights rescales the value, not the boundary,
    so this covers every symmetric instance.
    """
    if not (np.isfinite(r) and r > 0.0):
        raise ValueError("discount rate r must be finite and > 0, got %r" % (r,))
    if d == 2:
        w = _bracketed_root(lambda t: t * sps.i1(t) - 2.0 * sps.i0(t), 1.0, 5.0)
    elif d == 3:
        w = _bracketed_root(lambda t: np.tanh(t) - t / 3.0, 2.0, 3.0)
    else:
        raise ValueError("symmetric_radius is implemented for d in {2, 3}")
    return w / np.sqrt(2.0 * r)


@dataclass(frozen=True)
class StarBoundary:
    """Star-shaped boundary: affine polar radius rho_i per grid node.

    Containment of the negative set (rho_i >= beta) is a property of a
    *solved* boundary, checked by `class_membership_check`, not a
    construction invariant: the checker must be able to represent
    violating boundaries in order to report them.
    """

    grid: SphereGrid
    radii: np.ndarray

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        if radii.shape != (self.grid.n,):
            raise ValueError("need exactly one radius per grid node")
        if not np.all(np.isfinite(radii)) or np.any(radii <= 0.0):
            raise ValueError("radii must be finite and > 0")
        object.__setattr__(self, "radii", radii)

    def cartesian_points(self, p: QuadraticProblem) -> np.ndarray:
        """Boundary nodes in state space, one row per grid node."""
        if p.d != self.grid.d:
            raise ValueError("problem dimension %d != grid dimension %d" % (p.d, self.grid.d))
        return p.to_cartesian(self.grid.nodes, self.radii)


@dataclass(frozen=True)
class ClassCheckReport:
    closed_ok: bool
    contains_negative_set: bool
    bounded_ok: bool
    star_shaped_ok: bool
    symmetry_ok: bool
    box_ok: bool
    worst_violation: float

    @property
    def passed(self) -> bool:
        return (self.closed_ok and self.contains_negative_set and self.bounded_ok
                and self.star_shaped_ok and self.symmetry_ok and self.box_ok)


def class_membership_check(p: QuadraticProblem, b: StarBoundary) -> ClassCheckReport:
    """Checks that a boundary describes an admissible continuation set.

    Verifies, up to CLASS_TOL: the region is closed and bounded (finite
    radii under RADIUS_CAP * beta), contains the negative set (rho_i >= beta),
    is star-shaped (structural: the rho(omega) parametrization cannot
    express anything else), is symmetric under every coordinate
    reflection the grid supports (the radii are constant on each of
    `SphereGrid.reflection_orbits`), and, for d = 2, stays out of the
    far-quadrant box {|x_small| >= alpha^2 R, |x_big| >= R} that is
    provably inside the stopping region (R the symmetric-case radius,
    alpha^2 the ratio of reward coefficients).

    Never raises: violations are reported through the flags and the
    magnitude of the worst one.
    """
    rho = b.radii
    beta = p.beta
    violations = [0.0]

    closed_ok = bool(np.all(np.isfinite(rho)))
    neg_viol = float(np.max(beta - rho))
    contains_negative_set = neg_viol <= CLASS_TOL
    violations.append(neg_viol)
    cap = RADIUS_CAP * beta
    cap_viol = float(np.max(rho - cap))
    bounded_ok = closed_ok and cap_viol <= CLASS_TOL
    violations.append(cap_viol)
    star_shaped_ok = True  # structural: single-valued rho(omega) about 0

    # spread of the radii over each reflection orbit of the grid
    _, orbit_of = b.grid.reflection_orbits()
    orbit_hi = np.full(orbit_of.max() + 1, -np.inf)
    orbit_lo = np.full(orbit_of.max() + 1, np.inf)
    np.maximum.at(orbit_hi, orbit_of, rho)
    np.minimum.at(orbit_lo, orbit_of, rho)
    sym_viol = float(np.max(orbit_hi - orbit_lo))
    symmetry_ok = sym_viol <= CLASS_TOL
    violations.append(sym_viol)

    box_ok = True
    if p.d == 2:
        lam = p.lam
        alpha_sq = float(lam.max() / lam.min())
        r_sym = symmetric_radius(2, p.r)
        pts = np.abs(b.cartesian_points(p))
        small = int(np.argmin(lam))  # cheap coordinate, elongated axis
        big = 1 - small
        box_viol = float(np.max(np.minimum(pts[:, small] - alpha_sq * r_sym,
                                           pts[:, big] - r_sym)))
        box_ok = box_viol <= CLASS_TOL
        violations.append(box_viol)

    return ClassCheckReport(
        closed_ok=closed_ok,
        contains_negative_set=contains_negative_set,
        bounded_ok=bounded_ok,
        star_shaped_ok=star_shaped_ok,
        symmetry_ok=symmetry_ok,
        box_ok=box_ok,
        worst_violation=float(max(violations)),
    )
