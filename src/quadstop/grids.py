"""Quadrature grids on the unit sphere, each given by its shape.

A grid is its shape and nothing else.  (n,) is the circle of n
equispaced angles theta_i = 2 pi i / n with the trapezoid rule
(spectrally accurate for the smooth periodic integrands that arise
here); (n_lat, n_lon) is the product of Gauss-Legendre in the cosine of
latitude and the trapezoid rule in n_lon equispaced longitudes on S^2.
Node order is the memory layout the solver and the Monte Carlo boundary
interpolation both rely on: ascending angle for d = 2, latitude-major
for d = 3.  `SphereGrid.reflection_orbits` groups the nodes into the
orbits of the coordinate flips that map the grid onto itself
(`reflection_flips`, index maps of the shape); the solver takes one
unknown per orbit and the class check requires the radii to be constant
on each.  `half_grid` gives the grid with every other angle of each
circle and the trigonometric interpolation of nodal values from it back
onto the grid, on which the solver runs its homotopy stages before the
target.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np
from numpy.polynomial.legendre import leggauss

HALF_GRID_MIN_NODES = 64    # half_grid gives no grid with fewer nodes,
HALF_GRID_MIN_ANGLES = 16   # nor with fewer angles per circle


@dataclass(frozen=True)
class SphereGrid:
    """The grid of shape (n,) on the circle or (n_lat, n_lon) on S^2.

    `nodes` ((n, d) unit vectors) and `weights` (positive, summing to
    |S^{d-1}|) are computed from the shape, so two grids of one shape
    are equal and hash alike.  The m angles of each circle (theta, or the
    longitudes phi of each latitude) are 2 pi j / m, j = 0..m-1.
    """

    shape: tuple

    def __post_init__(self):
        shape = tuple(index(k) for k in self.shape)
        if len(shape) == 1:
            if shape[0] < 4:
                raise ValueError("need at least 4 nodes on the circle")
            th = 2.0 * np.pi * np.arange(shape[0]) / shape[0]
            nodes = np.stack([np.cos(th), np.sin(th)], axis=1)
            weights = np.full(shape[0], 2.0 * np.pi / shape[0])
        elif len(shape) == 2:
            n_lat, n_lon = shape
            if n_lat < 2 or n_lon < 4:
                raise ValueError("need n_lat >= 2 and n_lon >= 4")
            mu, w_mu = leggauss(n_lat)  # mu = cos(latitude angle from the pole)
            phi = 2.0 * np.pi * np.arange(n_lon) / n_lon
            sin_t = np.sqrt(1.0 - mu ** 2)
            nodes = np.empty((n_lat * n_lon, 3))
            nodes[:, 0] = np.outer(sin_t, np.cos(phi)).ravel()
            nodes[:, 1] = np.outer(sin_t, np.sin(phi)).ravel()
            nodes[:, 2] = np.outer(mu, np.ones(n_lon)).ravel()
            weights = np.outer(w_mu, np.full(n_lon, 2.0 * np.pi / n_lon)).ravel()
        else:
            raise ValueError("a grid shape is (n,) or (n_lat, n_lon), got %r" % (shape,))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def d(self) -> int:
        return len(self.shape) + 1

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def lat_shape(self) -> tuple:
        """(n_lat, n_lon) for d = 3 grids, () for circle grids."""
        return self.shape if self.d == 3 else ()

    @property
    def angles(self) -> np.ndarray:
        """Node angles theta_i for circle grids (d = 2 only).

        Read back from the nodes, as the boundary CSV has always written
        them: at some n they differ from 2 pi i / n in the last bit.
        """
        if self.d != 2:
            raise ValueError("angles are defined for d = 2 grids")
        return np.mod(np.arctan2(self.nodes[:, 1], self.nodes[:, 0]), 2.0 * np.pi)

    def reflection_flips(self) -> dict:
        """{axis: perm} for each coordinate flip of the grid: perm[i] is node i's image.

        Index maps of the shape, for the m angles of each circle: the
        y flip phi_j -> -phi_j always; the x flip phi_j -> pi - phi_j
        when m is even (m odd has no angle at pi - phi_j); and in d = 3
        the z flip, latitude k -> n_lat - 1 - k, since the Gauss-Legendre
        nodes and weights are symmetric about the equator.  Each maps the
        quadrature rule onto itself.
        """
        m = self.shape[-1]
        node = np.arange(self.n).reshape(self.shape)
        j = np.arange(m)
        flips = {0: node[..., (m // 2 - j) % m]} if m % 2 == 0 else {}
        flips[1] = node[..., -j % m]
        if self.d == 3:
            flips[2] = node[::-1]
        return {axis: perm.ravel() for axis, perm in flips.items()}

    def reflection_orbits(self, flips=None):
        """Orbits of the nodes under `flips`, a dict of `reflection_flips` (default all).

        Returns (representatives, orbit_of): the smallest node index of
        each orbit in ascending order, and the orbit index of every node.
        """
        label = np.arange(self.n)
        for perm in (self.reflection_flips() if flips is None else flips).values():
            # the flips commute, so one pass over them reaches the whole group
            label = np.minimum(label, label[perm])
        representatives, orbit_of = np.unique(label, return_inverse=True)
        return representatives, orbit_of


def make_circle_grid(n: int) -> SphereGrid:
    """Equispaced angles theta_i = 2 pi i / n with trapezoid weights."""
    return SphereGrid((n,))


def make_sphere_grid(n_lat: int, n_lon: int) -> SphereGrid:
    """Gauss-Legendre x trapezoid product grid on S^2, latitude-major."""
    return SphereGrid((n_lat, n_lon))


def half_grid(grid: SphereGrid):
    """(half, prolong): every other angle of each circle of the grid, and back.

    For a grid whose m angles per circle are divisible by 4, half is the
    grid of shape grid.shape[:-1] + (m // 2,): its nodes are the grid's
    even-numbered angles of each circle, at twice their weights, bit for
    bit, and every latitude.  prolong maps nodal values on half (a
    (half.n,) array, in half's node order) to the grid's nodes by
    trigonometric interpolation along each circle, with the Nyquist mode
    split evenly between +-m/4; it reproduces the modes below m/4 to
    rounding.  The latitudes are not halved: stages on 8 x 16,
    interpolated in mu too, left the 16 x 32 targets 17 to 44 times
    farther from a 24 x 48 solve than full-grid stages, at other points
    of their ill-posed valley.  m divisible by 4 keeps an even number of
    angles on half, so that half has the x flip the grid has and the
    same reflection symmetry.  Returns None for any other m, and for a
    half grid of fewer than HALF_GRID_MIN_NODES nodes or
    HALF_GRID_MIN_ANGLES angles per circle: on 8 x 8 the first stage of
    an 8 x 16 solve took 10 or 11 steps instead of 3 or 4, and the solve
    took as long.
    """
    m = grid.shape[-1]
    if m % 4 or grid.n // 2 < HALF_GRID_MIN_NODES or m // 2 < HALF_GRID_MIN_ANGLES:
        return None
    half = SphereGrid(grid.shape[:-1] + (m // 2,))
    return half, lambda values: _double_angles(values.reshape(-1, m // 2)).ravel()


def _double_angles(values):
    """Trigonometric interpolation along the last axis, m equispaced angles to 2m, m even."""
    m = values.shape[-1]
    coeffs = np.fft.rfft(values, axis=-1)
    coeffs[..., -1] *= 0.5   # the Nyquist mode, split evenly between +-m/2
    return 2.0 * np.fft.irfft(coeffs, 2 * m, axis=-1)
