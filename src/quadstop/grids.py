"""Quadrature grids on the unit sphere.

d = 2 uses the equispaced trapezoid rule on the circle (spectrally
accurate for the smooth periodic integrands that arise here); d = 3 a
product of Gauss-Legendre in the cosine of latitude and trapezoid in
longitude.  Node order is the memory layout the solver and the Monte
Carlo boundary interpolation both rely on: ascending angle for d = 2,
latitude-major for d = 3.  `SphereGrid.reflection_orbits` groups the
nodes into the orbits of the coordinate flips that map the grid onto
itself (`reflection_flips`, which matches nodes by one sort of integer
keys of their rounded coordinates); the solver takes one unknown per
orbit and the class check requires the radii to be constant on each.
`half_grid` gives the grid with every other angle of each circle and the
trigonometric interpolation of nodal values from it back onto the grid,
on which the solver runs its homotopy stages before the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

_SURFACE = {2: 2.0 * np.pi, 3: 4.0 * np.pi}
HALF_GRID_MIN_NODES = 64    # half_grid gives no grid with fewer nodes,
HALF_GRID_MIN_ANGLES = 16   # nor with fewer angles per circle


@dataclass(frozen=True)
class SphereGrid:
    """Unit vectors with positive quadrature weights summing to |S^{d-1}|."""

    nodes: np.ndarray
    weights: np.ndarray
    lat_shape: tuple = field(default=())  # (n_lat, n_lon) for product grids

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or nodes.shape[0] != weights.size:
            raise ValueError("need one weight per node")
        d = nodes.shape[1]
        if d not in _SURFACE:
            raise ValueError("sphere grids are implemented for d in {2, 3}")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        norms = np.sqrt((nodes ** 2).sum(axis=1))
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("nodes must be unit vectors")
        if abs(weights.sum() - _SURFACE[d]) > 1e-12 * _SURFACE[d]:
            raise ValueError("weights must sum to the sphere surface measure")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def d(self) -> int:
        return self.nodes.shape[1]

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def angles(self) -> np.ndarray:
        """Node angles theta_i for circle grids (d = 2 only)."""
        if self.d != 2:
            raise ValueError("angles are defined for d = 2 grids")
        return np.mod(np.arctan2(self.nodes[:, 1], self.nodes[:, 0]), 2.0 * np.pi)

    def reflection_flips(self) -> dict:
        """{axis: perm} for each coordinate flip the grid supports: perm[i] is node i's image.

        A flip x_k -> -x_k is supported when it maps every node onto a
        grid node (to 1e-9) of the same weight (to 1e-12 relative), so
        that it maps the quadrature rule onto itself.  The nodes and
        their images under every flip are rounded to 1e-9 and matched by
        one integer key per point: each coordinate's rank among the
        rounded values, combined in mixed radix, then one `np.unique` of
        those keys.  Sorts only, no dict of tuples: O(n log n) time, O(n)
        memory.  Of nodes sharing a key the last one is kept, and the
        tests below reject a flip it mismatches.
        """
        n, d = self.nodes.shape
        images = np.repeat(self.nodes[None], d + 1, axis=0)   # the nodes, then each flip's images
        images[np.arange(1, d + 1), :, np.arange(d)] *= -1.0
        key = np.zeros((d + 1) * n, dtype=np.int64)
        for coord in np.rint(images.reshape(-1, d) * 1e9).astype(np.int64).T:
            values, rank = np.unique(coord, return_inverse=True)
            key = key * values.size + rank
        _, key = np.unique(key, return_inverse=True)
        key = key.reshape(d + 1, n)
        last = np.full(key.max() + 1, -1)
        np.maximum.at(last, key[0], np.arange(n))   # the last node of each key
        flips = {}
        for axis in range(d):
            perm = last[key[axis + 1]]
            if np.any(perm < 0):
                continue
            image = images[axis + 1]
            if (np.max(np.sqrt(((image - self.nodes[perm]) ** 2).sum(axis=1))) <= 1e-9
                    and np.allclose(self.weights[perm], self.weights, rtol=1e-12, atol=0.0)):
                flips[axis] = perm
        return flips

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
    if n < 4:
        raise ValueError("need at least 4 nodes on the circle")
    th = 2.0 * np.pi * np.arange(n) / n
    nodes = np.stack([np.cos(th), np.sin(th)], axis=1)
    weights = np.full(n, 2.0 * np.pi / n)
    return SphereGrid(nodes, weights)


def make_sphere_grid(n_lat: int, n_lon: int) -> SphereGrid:
    """Gauss-Legendre x trapezoid product grid on S^2, latitude-major."""
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
    return SphereGrid(nodes, weights, lat_shape=(n_lat, n_lon))


def half_grid(grid: SphereGrid):
    """(half, prolong): every other angle of each circle of the grid, and back.

    For a make_circle_grid grid, or a make_sphere_grid grid, whose m
    angles per circle (theta, or the longitudes phi of each latitude)
    are equispaced from 0 with m divisible by 4: half keeps the
    even-numbered angles, at twice their weight, and every latitude.
    prolong maps nodal values on half (a (half.n,) array, in half's node
    order) to the grid's nodes by trigonometric interpolation along each
    circle, with the Nyquist mode split evenly between +-m/4; it
    reproduces the modes below m/4 to rounding.  The latitudes are not
    halved: stages on 8 x 16, interpolated in mu too, left the 16 x 32
    targets 17 to 44 times farther from a 24 x 48 solve than full-grid
    stages, at other points of their ill-posed valley.  m divisible by 4
    keeps an even number of angles on half, so that half has the x flip
    the grid has and the same reflection symmetry.  Returns None for any
    other grid, and for a half grid of fewer than HALF_GRID_MIN_NODES
    nodes or HALF_GRID_MIN_ANGLES angles per circle: on 8 x 8 the first
    stage of an 8 x 16 solve took 10 or 11 steps instead of 3 or 4, and
    the solve took as long.
    """
    n_circles, m = grid.lat_shape or (1, grid.n)
    if m % 4 or grid.n // 2 < HALF_GRID_MIN_NODES or m // 2 < HALF_GRID_MIN_ANGLES:
        return None
    nodes = grid.nodes.reshape(n_circles, m, grid.d)
    weights = grid.weights.reshape(n_circles, m)
    circle = nodes[..., 0] + 1j * nodes[..., 1]
    turns = np.exp(2j * np.pi * np.arange(m) / m)
    if not (np.allclose(circle, np.abs(circle) * turns, rtol=0.0, atol=1e-12)
            and np.all(weights == weights[:, :1])):
        return None
    half = SphereGrid(nodes[:, ::2].reshape(-1, grid.d), 2.0 * weights[:, ::2].ravel(),
                      lat_shape=(n_circles, m // 2) if grid.lat_shape else ())
    return half, lambda values: _double_angles(values.reshape(n_circles, m // 2)).ravel()


def _double_angles(values):
    """Trigonometric interpolation along the last axis, m equispaced angles to 2m, m even."""
    m = values.shape[-1]
    coeffs = np.fft.rfft(values, axis=-1)
    coeffs[..., -1] *= 0.5   # the Nyquist mode, split evenly between +-m/2
    return 2.0 * np.fft.irfft(coeffs, 2 * m, axis=-1)
