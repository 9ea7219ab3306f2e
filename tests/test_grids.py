import numpy as np
import pytest
from numpy.polynomial.legendre import legval

from quadstop.grids import SphereGrid, half_grid, make_circle_grid, make_sphere_grid


def _band_limited(rng, n_modes, n_degrees=1):
    """A radius-like function of the nodes: 1 plus modes below n_modes in theta (or phi),
    each times a Legendre series below degree n_degrees in mu (d = 3)."""
    cos_c, sin_c = 0.1 * rng.normal(size=(2, n_degrees, n_modes)) / (1.0 + np.arange(n_modes))

    def radii(grid):
        phi = np.arctan2(grid.nodes[:, 1], grid.nodes[:, 0])
        mu = grid.nodes[:, 2] if grid.d == 3 else np.zeros(grid.n)
        return 1.0 + sum(legval(mu, cos_c[:, k]) * np.cos(k * phi)
                         + legval(mu, sin_c[:, k]) * np.sin(k * phi) for k in range(n_modes))
    return radii


@pytest.mark.parametrize("grid", [make_circle_grid(128), make_sphere_grid(16, 32)],
                         ids=["n128", "16x32"])
def test_half_grid_prolongation_reproduces_band_limited_radii(grid):
    # trigonometric modes below n/4 (n_lon/4), in d = 3 times any function of the
    # latitude on its Gauss nodes: the half grid's own interpolant, reproduced on
    # the grid to rounding
    half, prolong = half_grid(grid)
    n_circles, m = grid.lat_shape or (1, grid.n)
    assert half.lat_shape == (grid.lat_shape and (n_circles, m // 2))
    assert half.n == grid.n // 2
    radii = _band_limited(np.random.default_rng(grid.n), m // 4, n_circles)
    exact = radii(grid)
    assert np.max(np.abs(prolong(radii(half)) - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("grid", [make_circle_grid(128), make_sphere_grid(16, 32),
                                  make_sphere_grid(15, 32), make_sphere_grid(2, 256)],
                         ids=["n128", "16x32", "15x32", "2x256"])
def test_half_grid_has_the_grids_flips(grid):
    # every other angle of each circle, m divisible by 4: the same flips, and
    # weights that still sum to the sphere's measure
    half, _ = half_grid(grid)
    assert set(half.reflection_flips()) == set(grid.reflection_flips())
    assert half.weights.sum() == pytest.approx(grid.weights.sum(), rel=1e-14)


@pytest.mark.parametrize("grid", [
    make_circle_grid(64),           # a half grid of 32 nodes
    make_sphere_grid(3, 32),        # 3 x 16 = 48 nodes
    make_sphere_grid(8, 16),        # 8 x 8 = 64 nodes, but 8 angles per circle
    make_circle_grid(127),          # odd
    make_circle_grid(126),          # 63 nodes: no x flip on the half grid
    make_sphere_grid(16, 34),       # 16 x 17 nodes: no x flip on the half grid
], ids=["n64", "3x32", "8x16", "n127", "n126", "16x34"])
def test_half_grid_is_none_below_the_minimum_or_with_other_flips(grid):
    assert half_grid(grid) is None


def test_half_grid_is_none_for_other_grids():
    # the nodes of a 128-point circle grid turned by 1e-3: not make_circle_grid's
    th = 2.0 * np.pi * np.arange(128) / 128 + 1e-3
    grid = SphereGrid(np.stack([np.cos(th), np.sin(th)], axis=1), make_circle_grid(128).weights)
    assert half_grid(grid) is None
    assert half_grid(make_circle_grid(128)) is not None


def test_reflection_flips_keep_the_last_node_of_a_key():
    # nodes 0 and 8 coincide: a flip maps the images of both onto the later one
    base = make_circle_grid(8)
    nodes = np.concatenate([base.nodes, base.nodes[:1]])
    weights = np.full(9, 2.0 * np.pi / 9)
    flips = SphereGrid(nodes, weights).reflection_flips()
    assert set(flips) == {0, 1}
    assert flips[1][0] == 8 and flips[1][8] == 8   # theta = 0 is its own y-flip image
    assert flips[0][4] == 8                        # theta = pi flips onto theta = 0
    assert np.array_equal(flips[1][1:8], [7, 6, 5, 4, 3, 2, 1])
