import numpy as np
import pytest
from numpy.polynomial.legendre import legval

from quadstop.grids import SphereGrid, half_grid, make_circle_grid, make_sphere_grid
from reference import flip_permutations


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
    m = grid.shape[-1]
    assert half.shape == grid.shape[:-1] + (m // 2,)
    assert half.n == grid.n // 2
    radii = _band_limited(np.random.default_rng(grid.n), m // 4, grid.n // m)
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


@pytest.mark.parametrize("grid", [make_circle_grid(128), make_circle_grid(256),
                                  make_sphere_grid(16, 32), make_sphere_grid(15, 32),
                                  make_sphere_grid(2, 256)],
                         ids=["n128", "n256", "16x32", "15x32", "2x256"])
def test_half_grid_takes_the_even_numbered_nodes_at_twice_their_weights(grid):
    # bit for bit: a stage on the half grid assembles the moments of these very
    # nodes and weights, whichever grid it came from
    half, _ = half_grid(grid)
    m = grid.shape[-1]
    even = grid.nodes.reshape(-1, m, grid.d)[:, ::2].reshape(-1, grid.d)
    assert np.array_equal(half.nodes, even)
    assert np.array_equal(half.weights, 2.0 * grid.weights.reshape(-1, m)[:, ::2].ravel())


@pytest.mark.parametrize("shape", [(4,), (5,), (31,), (64,), (2, 4), (3, 5), (7, 12),
                                   (13, 25), (16, 32)])
def test_reflection_flips_are_the_geometric_flips(shape):
    # the index maps of the shape against a dense match of the node coordinates,
    # on the smallest shapes, odd n, odd n_lat and odd n_lon
    grid = SphereGrid(shape)
    flips = grid.reflection_flips()
    reference = flip_permutations(grid)
    assert list(flips) == list(reference)
    for axis, perm in flips.items():
        assert np.array_equal(perm, reference[axis])
        assert np.allclose(grid.weights[perm], grid.weights, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shape", [(), (4, 8, 16), (3,), (1, 8), (8, 3)])
def test_sphere_grid_rejects_other_shapes(shape):
    with pytest.raises(ValueError):
        SphereGrid(shape)


def test_grids_of_one_shape_are_equal():
    assert make_circle_grid(8) == SphereGrid((8,))
    assert hash(make_sphere_grid(8, 16)) == hash(SphereGrid((8, 16)))
    assert make_circle_grid(8) != make_circle_grid(16)
    assert make_sphere_grid(8, 16).lat_shape == (8, 16) and make_circle_grid(8).lat_shape == ()
