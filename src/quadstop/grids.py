"""Quadrature grids on the unit sphere.

d = 2 uses the equispaced trapezoid rule on the circle (spectrally
accurate for the smooth periodic integrands that arise here); d = 3 a
product of Gauss-Legendre in the cosine of latitude and trapezoid in
longitude.  Node order is the memory layout the solver and the Monte
Carlo boundary interpolation both rely on: ascending angle for d = 2,
latitude-major for d = 3.  `SphereGrid.reflection_orbits` groups the
nodes into the orbits of the coordinate flips that map the grid onto
itself (`reflection_flips`, which matches nodes by looking their rounded
coordinates up in one dict); the solver takes one unknown per orbit and
the class check requires the radii to be constant on each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

_SURFACE = {2: 2.0 * np.pi, 3: 4.0 * np.pi}


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
        that it maps the quadrature rule onto itself.  A flip's
        permutation looks each image's coordinates, rounded to 1e-9, up
        in one dict of the nodes' keys: no sort, O(n) time and memory.
        Of nodes sharing a key the last one is kept, and the tests below
        reject a flip it mismatches.
        """
        def keys(x):
            return map(tuple, np.rint(x * 1e9).astype(np.int64).tolist())

        index = {k: i for i, k in enumerate(keys(self.nodes))}
        flips = {}
        for axis in range(self.d):
            image = self.nodes.copy()
            image[:, axis] = -image[:, axis]
            perm = np.array([index.get(k, -1) for k in keys(image)])
            if np.any(perm < 0):
                continue
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
