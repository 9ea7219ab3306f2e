import math

import numpy as np
import pytest

import quadstop as q
from quadstop.grids import make_circle_grid, make_sphere_grid
from quadstop.problem import (QuadraticProblem, StarBoundary, class_membership_check,
                              symmetric_radius)
from reference import excess_generator, negative_set_contains, to_polar


def test_reward_values():
    assert QuadraticProblem(1.0, (1.0, 4.0)).reward(np.zeros(2)) == 0.0
    assert QuadraticProblem(1.0, (1.0, 4.0)).reward(np.array([1.0, 1.0])) == 5.0
    assert QuadraticProblem(1.0, (1.0, 4.0, 9.0)).reward(np.ones(3)) == 14.0


def test_excess_generator():
    p = QuadraticProblem(1.0, (1.0, 4.0))
    assert excess_generator(p, np.zeros(2)) == -5.0
    assert excess_generator(QuadraticProblem(1.0, (1.0, 4.0, 9.0)), np.zeros(3)) == -14.0
    # vanishes exactly on the negative-set boundary g = beta^2
    x = np.array([math.sqrt(5.0), 0.0])
    assert excess_generator(p, x) == pytest.approx(0.0, abs=1e-12)
    # r(g - beta^2) = r g - sum(lambda): check against the generator applied
    # to g directly (Laplacian of sum lambda_i x_i^2 is 2 sum lambda_i)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=2) * 3.0
        assert excess_generator(p, x) == pytest.approx(p.r * p.reward(x) - sum(p.lam), rel=1e-13)


def test_negative_set_matches_generator_sign():
    p = QuadraticProblem(0.7, (1.0, 2.5))
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.normal(size=2) * 2.0
        assert negative_set_contains(p, x) == (excess_generator(p, x) <= 0.0)


def test_beta_values():
    assert QuadraticProblem(1.0, (1.0, 4.0)).beta == pytest.approx(math.sqrt(5.0), rel=1e-14)
    assert QuadraticProblem(0.3, (1.0, 4.0)).beta == pytest.approx(math.sqrt(5.0 / 0.3), rel=1e-14)
    assert QuadraticProblem(5.0, (1.0, 4.0)).beta == 1.0


@pytest.mark.parametrize("r, lam", [
    (1.0, (1.0, 4.0)), (0.3, (2.0, 5.0)), (1e12, (1.0, 16.0)), (0.5, (1.0, 2.0, 3.0)),
    (0.5, (1.0, 8.0, 64.0)), (1e-12, (1e-12, 3e-12, 7e-12)),
])
def test_canonical_problem(r, lam):
    eps = np.finfo(float).eps
    p = QuadraticProblem(r, lam)
    canon, c = p.canonical()
    assert canon.r == 0.5 and canon.d == p.d
    # lambda / mean(lambda) has mean 1 up to the rounding of the division
    assert abs(canon.lam.mean() - 1.0) <= eps
    assert c * canon.beta == pytest.approx(p.beta, rel=eps)
    if canon.lam.mean() == 1.0:
        assert canon.canonical() == (canon, 1.0)
    # neither r nor a factor of two on lambda changes the canonical problem; both
    # together leave c as it is
    assert QuadraticProblem(r, tuple(2.0 * p.lam)).canonical()[0] == canon
    assert QuadraticProblem(2.0 * r, tuple(2.0 * p.lam)).canonical() == (canon, c)


def test_polar_round_trip():
    p = QuadraticProblem(1.0, (1.0, 4.0))
    om, rho = to_polar(p, np.array([1.0, 1.0]))
    assert rho == pytest.approx(math.sqrt(5.0), rel=1e-14)
    assert np.allclose(om, [1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)], atol=1e-14)
    assert np.allclose(p.to_cartesian(np.array([0.0, 1.0]), 2.0), [0.0, 1.0], atol=1e-14)
    rng = np.random.default_rng(5)
    for lam in ((1.0, 4.0), (0.5, 2.0, 7.0)):
        p = QuadraticProblem(1.0, lam)
        for _ in range(50):
            om = rng.normal(size=len(lam))
            om /= np.linalg.norm(om)
            rho = rng.uniform(1e-3, 100.0)
            om2, rho2 = to_polar(p, p.to_cartesian(om, rho))
            assert rho2 == pytest.approx(rho, rel=1e-14)
            assert np.allclose(om2, om, atol=1e-14)
            assert p.reward(p.to_cartesian(om, rho)) == pytest.approx(rho ** 2, rel=1e-13)


def test_polar_origin_sentinel():
    p = QuadraticProblem(1.0, (1.0, 4.0))
    om, rho = to_polar(p, np.zeros(2))
    assert rho == 0.0
    assert np.linalg.norm(om) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        p.to_cartesian(np.array([1.0, 0.0]), -1.0)


def test_even_symmetry():
    p = QuadraticProblem(1.0, (1.0, 4.0))
    rng = np.random.default_rng(8)
    for _ in range(30):
        x = rng.normal(size=2) * 2.0
        for sigma in ([1, 1], [-1, 1], [1, -1], [-1, -1]):
            assert p.reward(x * sigma) == pytest.approx(p.reward(x), rel=1e-14)
            assert excess_generator(p, x * sigma) == pytest.approx(excess_generator(p, x),
                                                                    rel=1e-14)


def test_problem_validation():
    p = QuadraticProblem(0.5, (1, 4))
    assert p.r == 0.5 and p.lambdas == (1.0, 4.0) and p.d == 2
    for r, lambdas in ((0.0, (1, 4)),
                       (1.0, (1.0,)),
                       (1.0, (1.0, -4.0)),
                       (1.0, ()),
                       (float("nan"), (1, 4))):
        with pytest.raises(ValueError):
            QuadraticProblem(r, lambdas)


def test_circle_grid():
    g = make_circle_grid(64)
    assert g.nodes.shape == (64, 2)
    assert np.allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-14)
    assert g.weights.sum() == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert np.allclose(g.weights, 2.0 * math.pi / 64.0)
    assert np.allclose(g.angles, 2.0 * math.pi * np.arange(64) / 64.0)
    with pytest.raises(ValueError):
        make_circle_grid(2)


def test_sphere_grid():
    g = make_sphere_grid(16, 32)
    assert g.nodes.shape == (512, 3)
    assert g.lat_shape == (16, 32)
    assert np.allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-13)
    assert g.weights.sum() == pytest.approx(4.0 * math.pi, abs=1e-12)
    # product quadrature integrates low-degree spherical polynomials exactly
    x = g.nodes
    assert float(g.weights @ x[:, 2]) == pytest.approx(0.0, abs=1e-12)
    assert float(g.weights @ (x[:, 0] ** 2)) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)


def test_star_boundary_validation(grid64):
    with pytest.raises(ValueError):
        StarBoundary(grid64, np.ones(5))
    b = StarBoundary(grid64, np.full(64, 2.0))
    p = QuadraticProblem(1.0, (1.0, 1.0))
    pts = b.cartesian_points(p)
    assert np.allclose(np.linalg.norm(pts, axis=1), 2.0, atol=1e-13)


def test_class_check_passes_on_solved(p_sym, bnd_sym, p_14, bnd_14):
    for p, b in ((p_sym, bnd_sym), (p_14, bnd_14)):
        rep = class_membership_check(p, b)
        assert rep.passed
        assert rep.contains_negative_set and rep.symmetry_ok and rep.box_ok


def test_class_check_detects_violations(p_sym, grid64):
    R = symmetric_radius(2, 1.0)
    radii = np.full(64, R)
    radii[3] = p_sym.beta / 2.0
    rep = class_membership_check(p_sym, StarBoundary(grid64, radii))
    assert not rep.contains_negative_set
    assert not rep.passed
    # asymmetric wobble above tolerance
    radii = np.full(64, R)
    radii[1] += 1e-2
    rep = class_membership_check(p_sym, StarBoundary(grid64, radii))
    assert not rep.symmetry_ok
    # unbounded-cap violation
    radii = np.full(64, 100.0 * p_sym.beta)
    rep = class_membership_check(p_sym, StarBoundary(grid64, radii))
    assert not rep.bounded_ok
