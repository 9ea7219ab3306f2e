import copy
import dataclasses
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

import quadstop.verification as verification
from quadstop.grids import make_circle_grid, make_sphere_grid
from quadstop.kernels import KillingConfig, green_kernel_radial
from quadstop.martin_solver import solve_boundary
from quadstop.problem import QuadraticProblem, StarBoundary, symmetric_radius
from quadstop.verification import (MCConfig, _BoundaryGeometry, _green_integrals, _SafeBalls,
                                   green_residual_normalized, interior_scan_grid,
                                   majorant_gap_scan, mc_value, run_verification, value)
from reference import (bessel_K, clearance_reference, curve, finiteness_ratio_scan,
                       green_measure_identity_check, rect_green_mass, to_polar,
                       walk_radii_reference)
from sweep_reference import sweep_integrals, trig_eval

V0_SYM_2D_R1 = 0.9512830041392790


def test_value_at_origin_symmetric(p_sym, bnd_sym):
    v0 = value(p_sym, bnd_sym, np.zeros(2))
    assert v0 == pytest.approx(V0_SYM_2D_R1, abs=1e-6)
    # independent route: V(s) = c I0(kappa s) with c fixed by V(R) = g(R)
    R = symmetric_radius(2, 1.0)
    assert v0 == pytest.approx(R ** 2 / special.i0(math.sqrt(2.0) * R), abs=1e-6)


def test_value_on_boundary_equals_reward(p_sym, bnd_sym, p_14, bnd_14):
    for p, b in ((p_sym, bnd_sym), (p_14, bnd_14)):
        for i in (0, 9, 40):
            x = b.cartesian_points(p)[i]
            g = p.reward(x)
            assert value(p, b, x) == pytest.approx(g, abs=1e-4 * max(1.0, g))


def test_value_inside_matches_radial_solution(p_sym, bnd_sym):
    # V = V(0) I0(kappa s) in the symmetric continuation disc
    k = math.sqrt(2.0)
    for s in (0.4, 0.9, 1.4):
        x = np.array([s * math.cos(0.7), s * math.sin(0.7)])
        target = V0_SYM_2D_R1 * special.i0(k * s)
        assert value(p_sym, bnd_sym, x) == pytest.approx(target, abs=1e-3)


def test_value_exceeds_reward_inside(p_14, bnd_14):
    rng = np.random.default_rng(3)
    th = rng.uniform(0.0, 2.0 * math.pi, size=8)
    rho_b = np.interp(th, bnd_14.grid.angles, bnd_14.radii, period=2.0 * math.pi)
    for t, rb in zip(th, rho_b):
        x = p_14.to_cartesian(np.array([math.cos(t), math.sin(t)]), 0.6 * rb)
        assert value(p_14, bnd_14, x) > p_14.reward(x)


def test_majorant_gap_signs(p_sym, bnd_sym):
    grid = interior_scan_grid(p_sym, bnd_sym, n=24)
    assert majorant_gap_scan(p_sym, bnd_sym, grid) >= -1e-4
    # an inflated boundary overweights the negative part of the excess and
    # drives the candidate below g near the rim; a shrunk one does the
    # opposite and the gap stays strictly positive
    up = StarBoundary(bnd_sym.grid, 1.2 * bnd_sym.radii)
    dn = StarBoundary(bnd_sym.grid, 0.8 * bnd_sym.radii)
    assert majorant_gap_scan(p_sym, up, interior_scan_grid(p_sym, up, n=24)) <= -0.1
    assert majorant_gap_scan(p_sym, dn, interior_scan_grid(p_sym, dn, n=24)) >= 0.2
    # the shrunk candidate is caught by the boundary residual instead
    xb = dn.cartesian_points(p_sym)[3]
    assert abs(green_residual_normalized(p_sym, dn, xb)) > 1e-3


def test_interior_scan_grid_inside(p_14, bnd_14):
    pts = interior_scan_grid(p_14, bnd_14, n=20)
    assert pts.shape[1] == 2
    assert len(pts) > 100
    for x in pts[::7]:
        om, rho = to_polar(p_14, x)
        t = math.atan2(om[1], om[0]) % (2.0 * math.pi)
        rb = np.interp(t, bnd_14.grid.angles, bnd_14.radii, period=2.0 * math.pi)
        assert rho <= rb * (1.0 + 1e-9)
    with pytest.raises(ValueError, match="n >= 1"):
        majorant_gap_scan(p_14, bnd_14, np.empty((0, 2)))


def test_green_residual_normalized_small_on_solution(p_14, bnd_14):
    nodes = bnd_14.cartesian_points(p_14)
    pts = np.concatenate([nodes, 1.5 * nodes[:1], 0.5 * nodes[7:8]])
    batch = green_residual_normalized(p_14, bnd_14, pts, n_rays=360)
    assert batch.shape == (66,)
    assert np.all(np.abs(batch[:65]) <= 1e-3)
    # one pass over a batch gives each point's own residual, bit for bit
    for i in (0, 21, 64, 65):
        single = green_residual_normalized(p_14, bnd_14, pts[i], n_rays=360)
        assert type(single) is float and single == batch[i]
    with pytest.raises(ValueError, match="points"):
        green_residual_normalized(p_14, bnd_14, np.zeros(3))


def test_boundary_curve_matches_mode_loop(p_14, bnd_14):
    geom = _BoundaryGeometry(p_14, bnd_14)
    theta = np.random.default_rng(5).uniform(-4.0, 10.0, size=200)
    np.testing.assert_allclose(geom.rho(theta), trig_eval(bnd_14.radii, theta),
                               rtol=1e-13)
    y, dy, d2y = curve(geom, theta)
    np.testing.assert_allclose((y * p_14.sqrt_lam) ** 2 @ np.ones(2), geom.rho(theta) ** 2,
                               rtol=1e-13)
    h = 1e-5
    yp, dyp, _ = curve(geom, theta + h)
    ym, dym, _ = curve(geom, theta - h)
    np.testing.assert_allclose(dy, (yp - ym) / (2 * h), atol=1e-8)
    np.testing.assert_allclose(d2y, (dyp - dym) / (2 * h), atol=1e-8)
    # differences along the curve keep their relative accuracy as t -> 0
    t = np.array([-1.0, -1e-3, -1e-9, 1e-12, 1e-6, 0.5])
    diff, tangent = geom.curve_from(theta[:3], t)
    y_t, dy_t, _ = curve(geom, np.add.outer(theta[:3], t))
    np.testing.assert_allclose(tangent, dy_t, atol=1e-13)
    np.testing.assert_allclose(diff, y_t - y[:3, None, :], atol=1e-14)
    np.testing.assert_allclose(diff[:, 3], 1e-12 * dy[:3], rtol=1e-6)


def _every_mode(geom, radii):
    """A copy of geom that sums every mode of the n-point interpolant, as before the period cut."""
    coeffs = np.fft.rfft(radii) / radii.size
    coeffs[1:] *= 2.0
    if radii.size % 2 == 0:
        coeffs[-1] = 0.5 * coeffs[-1].real
    full = copy.copy(geom)
    full.fold = 1
    full._ik = 1j * np.arange(coeffs.size)
    full._coef = coeffs[:, None] * full._ik[:, None] ** np.arange(3)
    return full


@pytest.fixture(scope="module")
def benchmark_boundaries(p_14, bnd_14_n32, p_14_r03, bnd_14_r03_n32):
    """The boundaries perfbench verifies: lambda = (1,1) on 16 nodes and (1,4) on 32 at r = 1, 0.3."""
    p_11 = QuadraticProblem(1.0, (1.0, 1.0))
    return {"l11-r1-n16": (p_11, solve_boundary(p_11, make_circle_grid(16))[0]),
            "l14-r1-n32": (p_14, bnd_14_n32), "l14-r0.3-n32": (p_14_r03, bnd_14_r03_n32)}


def test_curve_sums_only_the_modes_of_the_radii_period(benchmark_boundaries, walk_boundaries):
    """Solved radii repeat every half turn, a circle's at every node, the five-petal star's never."""
    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    folds = {"l11-r1-n16": 16, "l14-r1-n32": 2, "l14-r0.3-n32": 2, "l1_16-r1-n64": 2, "star5": 1}
    for name, (p, b) in {**benchmark_boundaries, **walk_boundaries}.items():
        geom = _BoundaryGeometry(p, b)
        full = _every_mode(geom, b.radii)
        assert geom.fold == folds[name]
        assert len(geom._coef) == b.grid.n // geom.fold // 2 + 1
        # rho to 1e-14; its derivatives to Horner's rounding over up to 33 terms
        for got, want, rtol in zip(geom.evaluate(theta, 2), full.evaluate(theta, 2),
                                   (1e-14, 1e-14, 1e-14, 1e-13, 1e-13)):
            assert np.abs(got - want).max() <= rtol * np.abs(want).max()
        balls, every = _SafeBalls(geom), _SafeBalls(full)
        for name_ in ("rho_min", "slope", "speed", "bend", "lipschitz"):
            assert getattr(balls, name_) == pytest.approx(getattr(every, name_), rel=1e-14, abs=0.0)
        if geom.fold == 1:      # nothing to cut: the same coefficients, bit for bit
            np.testing.assert_array_equal(geom._coef, full._coef, strict=True)
    assert len(_BoundaryGeometry(*benchmark_boundaries["l11-r1-n16"])._coef) == 1


def _sweep_sizes(monkeypatch):
    """The number of points each Green sweep of run_verification evaluates, recorded into a dict."""
    sizes = {}
    for key, name in (("residual", "green_residual_normalized"), ("majorant", "majorant_gap_scan")):
        def counted(p, b, x, n_rays=720, _real=getattr(verification, name), _key=key):
            sizes[_key] = len(x)
            return _real(p, b, x, n_rays=n_rays)
        monkeypatch.setattr(verification, name, counted)
    return sizes


@pytest.mark.parametrize("name", ["l11-r1-n16", "l14-r1-n32", "l14-r0.3-n32", "l1_16-r1-n64"])
def test_green_sweeps_evaluate_one_point_per_mirror_orbit(benchmark_boundaries, walk_boundaries,
                                                          name, monkeypatch):
    p, b = {**benchmark_boundaries, **walk_boundaries}[name]
    residuals = green_residual_normalized(p, b, b.cartesian_points(p))
    scan = interior_scan_grid(p, b, n=12)
    gap = majorant_gap_scan(p, b, scan)
    sizes = _sweep_sizes(monkeypatch)
    rep = run_verification(p, b, MCConfig(paths=100), scan_n=12)
    # both flips: node i with -i, n/2 - i and n/2 + i; a scan point with its three mirror images
    assert sizes == {"residual": b.grid.n // 4 + 1, "majorant": len(scan) // 4}
    assert len(scan) % 4 == 0
    # residuals are E over the magnitude of its terms, so 1e-12 is relative to those
    assert np.abs(rep.boundary_residuals - residuals).max() <= 1e-12
    assert rep.majorant_min_gap == pytest.approx(gap, rel=1e-12, abs=0.0)


def test_five_petal_star_folds_by_its_one_flip(walk_boundaries, monkeypatch):
    p, star = walk_boundaries["star5"]
    flips = star.grid.reflection_flips()
    assert list(flips) == [0, 1]
    # cos 5 theta_i is even in i only to rounding; average it into an exact mirror image
    b = StarBoundary(star.grid, 0.5 * (star.radii + star.radii[flips[1]]))
    assert np.array_equal(b.radii[flips[1]], b.radii)
    assert np.abs(b.radii - star.radii).max() <= 1e-15 * star.radii.max()
    scan = interior_scan_grid(p, b, n=12)
    sizes = _sweep_sizes(monkeypatch)
    run_verification(p, b, MCConfig(paths=100), scan_n=12)
    # cos 5 theta is even in theta but odd under theta -> pi - theta: y flips, x does not
    assert sizes == {"residual": b.grid.n // 2 + 1, "majorant": len(scan) // 2}


def test_radii_off_by_one_ulp_take_the_whole_sweeps(p_14_r03, bnd_14_r03_n32, monkeypatch):
    radii = bnd_14_r03_n32.radii.copy()
    radii[1] = np.nextafter(radii[1], np.inf)     # node 1 has no image under either flip
    b = StarBoundary(bnd_14_r03_n32.grid, radii)
    assert _BoundaryGeometry(p_14_r03, b).fold == 1
    residuals = green_residual_normalized(p_14_r03, b, b.cartesian_points(p_14_r03))
    scan = interior_scan_grid(p_14_r03, b, n=12)
    gap = majorant_gap_scan(p_14_r03, b, scan)
    sizes = _sweep_sizes(monkeypatch)
    rep = run_verification(p_14_r03, b, MCConfig(paths=100), scan_n=12)
    assert sizes == {"residual": 32, "majorant": len(scan)}
    np.testing.assert_array_equal(rep.boundary_residuals, residuals, strict=True)
    # the same scan points, in another order
    assert rep.majorant_min_gap == pytest.approx(gap, rel=1e-12, abs=0.0)


def test_boundary_integrals_match_area_sweep(p_14, bnd_14):
    """Green's identity on the boundary against the polar area sweep, on ten points."""
    pts = bnd_14.cartesian_points(p_14)
    interior = [np.zeros(2), 0.3 * pts[5], 0.7 * pts[12]]
    near = [0.999 * pts[7], 1.001 * pts[7]]
    nodes = [pts[0], pts[21]]
    exterior = [1.3 * pts[0], 1.4 * pts[33], 1.8 * pts[50]]
    xs = np.array(interior + near + nodes + exterior)
    e_bd, m_bd = _green_integrals(p_14, bnd_14, xs)
    scale = p_14.r * p_14.beta_sq
    for k, x in enumerate(xs):
        e_sw, m_sw = sweep_integrals(p_14, bnd_14, x)
        res_bd, res_sw = e_bd[k] / (scale * m_bd[k]), e_sw / (scale * m_sw)
        if k < 3:
            assert abs(e_bd[k] - e_sw) <= 1e-9
            assert abs(m_bd[k] - m_sw) <= 1e-9
        elif k < 5:
            assert abs(res_bd) <= 1e-4 and abs(res_sw) <= 1e-4
        elif k < 7:
            assert abs(res_bd) <= 1e-3 and abs(res_sw) <= 1e-3
        else:
            # exactly 0 is right outside C; the sweep's error is the larger
            assert abs(res_bd) <= 1e-5
            assert abs(res_sw) <= 1e-3


def test_green_mass_of_disc_at_centre(p_sym, bnd_sym):
    # integral of K_0(k|y|)/pi over the disc |y| < R is (1 - kR K_1(kR)) / r
    k = math.sqrt(2.0 * p_sym.r)
    R = float(bnd_sym.radii.mean())
    _, mass = _green_integrals(p_sym, bnd_sym, np.zeros((1, 2)))
    assert mass[0] == pytest.approx((1.0 - k * R * bessel_K(1, k * R)) / p_sym.r, rel=1e-12)


def test_green_integral_continuous_across_boundary(p_14, bnd_14):
    # E is continuously differentiable across ∂C: the jump of chi g and of
    # the double layer cancel at every distance the near rule resolves,
    # and on a wrong boundary (E of order 0.1) the slope stays bounded
    wrong = StarBoundary(bnd_14.grid, 1.05 * bnd_14.radii)
    geom = _BoundaryGeometry(p_14, wrong)
    y, dy, _ = curve(geom, np.array([1.3]))
    normal = np.array([dy[0, 1], -dy[0, 0]]) / np.hypot(*dy[0])
    deltas = np.concatenate([-np.logspace(-2, -12, 6), [0.0], np.logspace(-12, -2, 6)])
    e, m = _green_integrals(p_14, wrong, y[0] + deltas[:, None] * normal)
    assert abs(e[6]) > 0.05
    assert np.all(np.abs(e - e[6]) <= 1.0 * np.abs(deltas) + 1e-11)
    assert np.all(np.abs(m - m[6]) <= 1.0 * np.abs(deltas) + 1e-11)


def test_mc_value_stopped_regions(p_sym, bnd_sym):
    cfg = MCConfig(paths=200, seed=1)
    xb = bnd_sym.cartesian_points(p_sym)[5]
    est, err, _ = mc_value(p_sym, bnd_sym, xb, cfg)
    assert est == pytest.approx(p_sym.reward(xb), rel=1e-12)
    assert err == 0.0
    est_out, err_out, _ = mc_value(p_sym, bnd_sym, 1.5 * xb, cfg)
    assert est_out == pytest.approx(p_sym.reward(1.5 * xb), rel=1e-12)


def test_mc_value_deterministic(p_sym, bnd_sym):
    cfg = MCConfig(paths=500, seed=11)
    a = mc_value(p_sym, bnd_sym, np.zeros(2), cfg)
    b = mc_value(p_sym, bnd_sym, np.zeros(2), cfg)
    assert a == b


def test_mc_value_consistent_with_reconstruction(p_sym, bnd_sym):
    cfg = MCConfig(paths=20000, seed=2)
    est, err, walk = mc_value(p_sym, bnd_sym, np.zeros(2), cfg)
    tol = 3.0 * err + walk["shell"] * walk["lipschitz"]
    assert abs(est - V0_SYM_2D_R1) <= tol


def test_mc_config_validation():
    with pytest.raises(ValueError, match="100 paths"):
        MCConfig(paths=10)
    for seed in (-1, 2 ** 63, 2 ** 70):
        with pytest.raises(ValueError, match="seed must be in"):
            MCConfig(seed=seed)
    assert MCConfig(seed=2 ** 63 - 1).seed == 2 ** 63 - 1


@pytest.fixture(scope="module")
def bnd_14_n32(p_14):
    return solve_boundary(p_14, make_circle_grid(32))[0]


def test_mc_value_prices_the_trigonometric_curve(p_14, bnd_14_n32):
    """Start points between the linear and the trigonometric interpolant of the radii."""
    geom = _BoundaryGeometry(p_14, bnd_14_n32)
    grid = bnd_14_n32.grid
    theta = np.linspace(0.0, 2.0 * np.pi, 4001)[:-1]
    trig = geom.rho(theta)
    linear = np.interp(theta, grid.angles, bnd_14_n32.radii, period=2.0 * np.pi)
    cfg = MCConfig(paths=200, seed=4)
    for k in (np.argmax(linear - trig), np.argmax(trig - linear)):
        assert abs(linear[k] - trig[k]) > 1e-4 * trig[k]
        direction = np.array([math.cos(theta[k]), math.sin(theta[k])])
        x0 = p_14.to_cartesian(direction, 0.5 * (linear[k] + trig[k]))
        est, err, _ = mc_value(p_14, bnd_14_n32, x0, cfg)
        if geom.inside(x0[None, :])[0]:
            # inside the certified curve only: the walk runs
            assert err > 0.0 and est != p_14.reward(x0)
        else:
            assert (est, err) == (p_14.reward(x0), 0.0)


def _reference_distance(geom, pts):
    """Distance to the curve: nearest of 2^16 samples, refined by Newton's method."""
    n = 2 ** 16
    theta = 2.0 * np.pi * np.arange(n) / n
    at = geom.evaluate(theta, 2)
    yx, yy = geom.points(at[:3])[0]
    nearest = np.empty(len(pts), dtype=int)
    for i in range(0, len(pts), 32):
        dx = pts[i:i + 32, :1] - yx
        dy = pts[i:i + 32, 1:] - yy
        nearest[i:i + 32] = np.argmin(dx * dx + dy * dy, axis=1)
    _, ((cx, cy), _) = geom.nearest(pts[:, 0], pts[:, 1], theta[nearest],
                                    tuple(a[nearest] for a in at), 8, max_step=2.0 * np.pi / n)
    return np.sqrt((cx - pts[:, 0]) ** 2 + (cy - pts[:, 1]) ** 2)


@pytest.fixture(scope="module")
def bnd_14_r03_n32(p_14_r03):
    return solve_boundary(p_14_r03, make_circle_grid(32))[0]


def _five_petal_star():
    """A boundary whose curve bends back toward itself: not convex."""
    p = QuadraticProblem(1.0, (1.0, 4.0))
    grid = make_circle_grid(64)
    return p, StarBoundary(grid, p.beta * (1.2 + 0.35 * np.cos(5 * grid.angles)))


@pytest.fixture(scope="module")
def walk_boundaries(p_14_r03, bnd_14_r03_n32):
    """The r = 0.3 benchmark boundary, lambda = (1, 16) on 64 nodes and the five-petal star."""
    p_16 = QuadraticProblem(1.0, (1.0, 16.0))
    return {"l14-r0.3-n32": (p_14_r03, bnd_14_r03_n32),
            "l1_16-r1-n64": (p_16, solve_boundary(p_16, make_circle_grid(64))[0]),
            "star5": _five_petal_star()}


def _carried_walks(balls, paths, seed):
    """Every disc of walks from the origin by `walk_radii`, as mc_value draws them.

    Returns one (state before the disc, state after it, R, U) per disc,
    over the paths still walking: positions, then carried points.
    """
    rng = np.random.default_rng(seed)
    state = np.full((9, paths), np.nan)
    state[:2] = 0.0
    discs = []
    while state.shape[1]:
        before = state.copy()
        radius, upper = balls.walk_radii(state)
        discs.append((before, state.copy(), radius, upper))
        keep = upper > balls.shell
        angle = 2.0 * np.pi * rng.random(keep.sum())
        state = state[:, keep]
        state[:2] += radius[keep] * np.stack([np.cos(angle), np.sin(angle)])
    return discs


def _assert_walk_radii_match_reference(balls, before, after, radius, upper):
    """R, U and carried points of one `walk_radii` call, bit for bit as the polyval reference."""
    ref_radius, ref_upper, ref_after = walk_radii_reference(balls, before)
    np.testing.assert_array_equal(radius, ref_radius, strict=True)
    np.testing.assert_array_equal(upper, ref_upper, strict=True)
    np.testing.assert_array_equal(after, ref_after, strict=True)


@pytest.mark.parametrize("lam, petals", [((1.0, 1.0), 0), ((1.0, 4.0), 0), ((1.0, 16.0), 0),
                                         ((1.0, 4.0), 5)])
def test_safe_radius_never_exceeds_distance(lam, petals):
    """Solved boundaries, and a five-petal star whose curve bends back toward itself."""
    p = QuadraticProblem(1.0, lam)
    if petals:
        grid = make_circle_grid(64)
        b = StarBoundary(grid, p.beta * (1.2 + 0.35 * np.cos(petals * grid.angles)))
    else:
        b = solve_boundary(p, make_circle_grid(32))[0]
    geom = _BoundaryGeometry(p, b)
    balls = _SafeBalls(geom)
    rng = np.random.default_rng(17)
    # points 1e-3 to 1e-9 inside the curve along its inward normal
    theta = rng.uniform(0.0, 2.0 * np.pi, 1200)
    y, dy, _ = curve(geom, theta)
    inward = np.stack([-dy[:, 1], dy[:, 0]], axis=-1) / np.hypot(dy[:, 0], dy[:, 1])[:, None]
    depth = 10.0 ** rng.uniform(-9.0, -3.0, len(theta))
    shell = y + depth[:, None] * inward
    # and points spread over the region
    box = np.abs(y).max(axis=0)
    spread = rng.uniform(-box, box, (3000, 2))
    pts = np.concatenate([shell, spread[geom.inside(spread)]])
    assert geom.inside(pts).all()
    dist = _reference_distance(geom, pts)
    # cold, with nothing carried, then twice from the points the call before carried
    state = np.full((9, len(pts)), np.nan)
    state[:2] = pts.T
    for _ in range(3):
        before = state.copy()
        radius, upper = balls.walk_radii(state)
        assert np.all(radius <= dist)
        assert np.all(upper >= dist - balls.rounding)
        # no walk stalls
        assert np.all(radius > 0.0)
        # and the in-place curve evaluation changes no bit
        _assert_walk_radii_match_reference(balls, before, state, radius, upper)
    # next to ∂C, from warm iterates, the disc is the distance itself
    assert np.all(radius[:len(shell)] >= 0.999 * dist[:len(shell)])
    # and the separable clearance tables change no bit
    np.testing.assert_array_equal(balls.clearance, clearance_reference(balls), strict=True)


def test_safe_radii_match_polyval_reference_along_walks(walk_boundaries):
    """Every disc of 500 walks from the origin on each walk boundary, as mc_value draws them."""
    for p, b in walk_boundaries.values():
        balls = _SafeBalls(_BoundaryGeometry(p, b))
        discs = _carried_walks(balls, 500, 3)
        # disc by disc: numpy rounds a complex product of one element apart
        # from the same product inside a longer array, so batches matter
        for disc in discs:
            _assert_walk_radii_match_reference(balls, *disc)
        carried = np.concatenate([disc[1][2] for disc in discs])
        assert len(discs) > 20 and len(carried) > 5000
        assert np.isfinite(carried).sum() > len(carried) // 2


def test_safe_radii_evaluate_the_curve_once_per_newton_iterate(p_14_r03, bnd_14_r03_n32):
    """One evaluation of order 2 per disc: at the Newton iterate, or at phi with nothing carried."""
    geom = _BoundaryGeometry(p_14_r03, bnd_14_r03_n32)
    balls = _SafeBalls(geom)
    near = 0.999 * bnd_14_r03_n32.cartesian_points(p_14_r03)
    orders = []
    evaluate = geom.evaluate

    def counted(theta, order):
        orders.append(order)
        return evaluate(theta, order)

    geom.evaluate = counted
    state = np.full((9, len(near)), np.nan)
    state[:2] = near.T
    for _ in range(2):      # cold, then from the carried points
        orders.clear()
        balls.walk_radii(state)
        assert orders == [2]
        assert np.isfinite(state).all()
    orders.clear()
    state = np.zeros((9, 3))
    state[2:] = np.nan
    balls.walk_radii(state)     # no row near ∂C: phi itself, nothing carried
    assert orders == [2]
    assert np.isnan(state[2]).all()


@pytest.mark.parametrize("name", ["l14-r0.3-n32", "l1_16-r1-n64", "star5"])
def test_carried_radii_bound_the_distance_along_walks(walk_boundaries, name):
    """R <= dist <= U at every disc of 100 walks, and tight next to ∂C from warm iterates."""
    geom = _BoundaryGeometry(*walk_boundaries[name])
    balls = _SafeBalls(geom)
    before, _, radius, upper = zip(*_carried_walks(balls, 100, 7))
    radius, upper = np.concatenate(radius), np.concatenate(upper)
    pts = np.concatenate([b[:2].T for b in before])
    dist = _reference_distance(geom, pts)
    assert np.all(radius <= dist)
    assert np.all(upper >= dist - balls.rounding)
    assert np.all(radius > 0.0)
    # rows that took their Newton iterate from a carried point, within 1e-3 of ∂C
    warm = np.isfinite(np.concatenate([b[2] for b in before])) & (dist < 1e-3)
    assert warm.sum() > 500
    ratio = radius[warm] / dist[warm]
    assert np.median(ratio) >= 0.9999
    assert np.mean(ratio < 0.999) <= 0.02


def test_convex_curves_skip_the_tangent_disc_search(walk_boundaries, p_sym, bnd_sym, p_14,
                                                     bnd_14_n32, monkeypatch):
    search = verification._outside_tangent_radius
    calls = []
    monkeypatch.setattr(verification, "_outside_tangent_radius",
                        lambda y, dy: calls.append(len(y)) or search(y, dy))
    convex = [(p_sym, bnd_sym), (p_14, bnd_14_n32), walk_boundaries["l14-r0.3-n32"],
              walk_boundaries["l1_16-r1-n64"]]
    certified = [_SafeBalls(_BoundaryGeometry(p, b)).lipschitz for p, b in convex]
    assert calls == []
    monkeypatch.setattr(verification, "_strictly_convex", lambda *args: False)
    searched = [_SafeBalls(_BoundaryGeometry(p, b)).lipschitz for p, b in convex]
    assert len(calls) == len(convex)
    assert certified == searched


def test_five_petal_star_runs_the_tangent_disc_search(monkeypatch):
    search = verification._outside_tangent_radius
    found = []
    monkeypatch.setattr(verification, "_outside_tangent_radius",
                        lambda y, dy: found.append(search(y, dy)) or found[-1])
    balls = _SafeBalls(_BoundaryGeometry(*_five_petal_star()))
    assert len(found) == 1 and np.isfinite(found[0])
    # the lipschitz bound the full search gave before convex curves skipped it
    assert balls.lipschitz == pytest.approx(float.fromhex("0x1.8fb1cce60f020p+5"), rel=1e-12)


def test_mc_value_consistent_over_seeds(p_14_r03, bnd_14_r03_n32):
    """20 seeds x 2,000 paths on the r = 0.3 benchmark boundary: each within tolerance, no bias."""
    recon = value(p_14_r03, bnd_14_r03_n32, np.zeros(2))
    z = []
    for seed in range(20):
        est, err, walk = mc_value(p_14_r03, bnd_14_r03_n32, np.zeros(2),
                                  MCConfig(paths=2000, seed=seed))
        rep = verification.VerificationReport(
            boundary_residuals=np.zeros(1), majorant_min_gap=0.0, mc_value=est, mc_stderr=err,
            reconstructed_value=recon, class_check=None, mc_walk=walk)
        assert abs(est - recon) <= rep.mc_tolerance
        z.append((est - recon) / err)
    assert abs(np.mean(z)) <= 3.0 / math.sqrt(len(z))


def test_mc_value_memory_peak(p_14_r03, bnd_14_r03_n32):
    """Traced allocations of a warm 8,000-path walk, as in perfbench's verify-r0.3.

    Evaluating the curve by polyval, with stacked (N, 2) temporaries, took 3.7 MB.
    """
    cfg = MCConfig(paths=8000, seed=3)
    mc_value(p_14_r03, bnd_14_r03_n32, np.zeros(2), cfg)
    tracemalloc.start()
    try:
        mc_value(p_14_r03, bnd_14_r03_n32, np.zeros(2), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.6e6



def test_mc_value_draws_the_first_disc_once(p_14_r03, bnd_14_r03_n32, monkeypatch):
    widths = []
    walk_radii = _SafeBalls.walk_radii
    monkeypatch.setattr(_SafeBalls, "walk_radii",
                        lambda self, state: widths.append(state.shape[1]) or walk_radii(self, state))
    paths = 500
    walk = mc_value(p_14_r03, bnd_14_r03_n32, np.zeros(2), MCConfig(paths=paths, seed=2))[2]
    # every path starts at x0: one column for the first disc, then one per path still walking
    assert widths[:2] == [1, paths]
    assert sum(widths[1:]) == walk["mean_walk"] * paths
    assert len(widths) == walk["max_walk"] + 1


def test_disc_weight_matches_mpmath():
    # 1 / I_0(x): the series up to x = 1, e^{-x} / i0e(x) above, both to a few ulp
    mpmath = pytest.importorskip("mpmath")
    x = np.linspace(0.0, 2.5, 2501)
    with mpmath.workdps(30):
        ref = np.array([float(1 / mpmath.besseli(0, mpmath.mpf(v))) for v in x])
    err = np.abs(verification._disc_weight(x) - ref) / ref
    assert err[x <= 1.0].max() <= 4e-16
    assert err[x > 1.0].max() <= 1e-15


def test_mc_value_independent_of_workers(p_14, bnd_14_n32, monkeypatch):
    # three chunks: one worker, the default pool, and three workers on
    # this many cores or fewer, switching threads every 10 microseconds
    x0 = 0.6 * bnd_14_n32.cartesian_points(p_14)[3]
    cfg = MCConfig(paths=2 * verification._CHUNK + 500, seed=9)
    pooled = mc_value(p_14, bnd_14_n32, x0, cfg)
    assert pooled[1] > 0.0
    for workers in (1, 8):
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert mc_value(p_14, bnd_14_n32, x0, cfg) == pooled
        finally:
            sys.setswitchinterval(interval)
    walk = pooled[2]
    assert walk["paths"] == cfg.paths
    assert 1.0 < walk["mean_walk"] <= walk["max_walk"]
    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    y = curve(_BoundaryGeometry(p_14, bnd_14_n32), theta)[0]
    assert walk["shell"] == pytest.approx(1e-6 * np.hypot(y[:, 0], y[:, 1]).min(), rel=1e-3)


def test_chunked_mean_merges_chunks_exactly():
    paths = 2 * verification._CHUNK + 100
    assert verification._chunked_mean(paths, 3, lambda rng, n: np.full(n, 0.75)) == (0.75, 0.0)
    for c in (0.1, 2.4564):
        # the mean is the plain sum over paths, exact only where the sums are
        mean, stderr = verification._chunked_mean(paths, 3, lambda rng, n: np.full(n, c))
        assert stderr == 0.0
        assert mean == pytest.approx(c, rel=1e-15, abs=0.0)
    values = []

    def drawn(rng, n):
        v = 2.5 + 0.3 * rng.standard_normal(n)
        values.append(v)
        return v

    mean, stderr = verification._chunked_mean(paths, 3, drawn)
    every = np.concatenate(values)
    assert every.size == paths
    assert mean == pytest.approx(every.mean(), rel=1e-13)
    assert stderr == pytest.approx(every.std() / math.sqrt(paths), rel=1e-13)


def test_rect_green_mass_matches_quadrature():
    cfg = KillingConfig(1.0, 2)
    rect = ((0.3, 1.1), (-0.4, 0.6))
    x = np.array([-0.2, 0.1])
    ref = _rect_mass_tensor(cfg, x, rect)
    assert rect_green_mass(cfg, x, rect) == pytest.approx(ref, rel=1e-8)


def test_rect_green_mass_large_box_is_one_over_r():
    # int G_r(x, y) dy over R^d equals 1/r (expected discounted lifetime)
    for r in (0.5, 1.0):
        cfg = KillingConfig(r, 2)
        big = ((-40.0, 40.0), (-40.0, 40.0))
        assert rect_green_mass(cfg, np.zeros(2), big) == pytest.approx(1.0 / r, rel=1e-6)


def _rect_mass_dblquad(cfg, x, rect):
    # the rectangle split at x into four pieces with x at a corner, where
    # the log singularity is an endpoint of both integrals; the inner one
    # runs across the piece's narrower side
    def kern(a, b):
        return special.k0(cfg.kappa * math.hypot(a - x[0], b - x[1])) / math.pi

    (alo, ahi), (blo, bhi) = rect
    total = 0.0
    for a0, a1 in ((alo, x[0]), (x[0], ahi)):
        for b0, b1 in ((blo, x[1]), (x[1], bhi)):
            if a1 - a0 <= b1 - b0:
                total += integrate.dblquad(kern, b0, b1, a0, a1, epsabs=0.0, epsrel=1e-12)[0]
            else:
                total += integrate.dblquad(lambda b, a: kern(a, b), a0, a1, b0, b1,
                                           epsabs=0.0, epsrel=1e-12)[0]
    return total


def test_rect_green_mass_near_edge():
    # no grading toward the edges is needed: 2e-3 and 1e-6 inside an edge
    # (and 1e-6 from a corner) the side integrals match an adaptive 2-d
    # quadrature to 1e-10
    cfg = KillingConfig(1.0, 2)
    rect = ((-1.2, -0.4), (0.2, 1.0))
    for x in ((-1.198, 0.814), (-1.2 + 1e-6, 0.5), (-0.7, 1.0 - 1e-6),
              (-1.2 + 1e-6, 1.0 - 1e-6)):
        x = np.array(x)
        assert rect_green_mass(cfg, x, rect) == pytest.approx(
            _rect_mass_dblquad(cfg, x, rect), rel=1e-10)
    # subnormal distances to a side: that side's O(h log h) part is dropped
    on_side = rect_green_mass(cfg, np.array([0.0, 0.1]), ((0.0, 0.8), (-0.3, 0.5)))
    for h in (1e-300, 1e-310):
        assert rect_green_mass(cfg, np.array([h, 0.1]), ((0.0, 0.8), (-0.3, 0.5))) == (
            pytest.approx(on_side, rel=1e-12))


def test_rect_green_mass_batch_matches_points():
    cfg = KillingConfig(0.5, 2)
    rect = ((0.8, 1.6), (-0.3, 0.5))
    pts = np.concatenate([np.random.default_rng(4).normal(scale=1.5, size=(40, 2)),
                          [[0.8, 0.0], [1.6, 0.5], [1.2, 0.1], [3.0, -2.0]]])
    batch = rect_green_mass(cfg, pts, rect)
    assert batch.shape == (len(pts),)
    single = np.array([rect_green_mass(cfg, x, rect) for x in pts])
    assert all(isinstance(m, float) for m in single)
    np.testing.assert_allclose(batch, single, rtol=1e-14, atol=0.0)
    assert rect_green_mass(cfg, np.zeros((0, 2)), rect).shape == (0,)


def test_rect_green_mass_rejects_malformed_rect():
    cfg = KillingConfig(1.0, 2)
    x = np.array([1.0, 0.0])
    for rect in (((1.6, 0.8), (-0.3, 0.5)), ((0.8, 1.6), (0.5, -0.3)),
                 ((0.8, 0.8), (-0.3, 0.5)), ((0.8, np.inf), (-0.3, 0.5)),
                 ((0.8, 1.6), (np.nan, 0.5)), ((0.8, 1.6, 2.0), (-0.3, 0.5, 0.7))):
        with pytest.raises(ValueError, match="rect"):
            rect_green_mass(cfg, x, rect)
    with pytest.raises(ValueError, match="rect"):
        green_measure_identity_check(cfg, ((1.6, 0.8), (-0.3, 0.5)), x, 2.0,
                                     MCConfig(paths=100), time_step=1e-3, horizon=1.0)
    for bad_x in (np.array([np.nan, 0.0]), np.zeros(3), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="x must"):
            rect_green_mass(cfg, bad_x, ((0.8, 1.6), (-0.3, 0.5)))


def _rect_mass_tensor(cfg, x, rect):
    gl_x, gl_w = np.polynomial.legendre.leggauss(80)
    (alo, ahi), (blo, bhi) = rect
    ya = 0.5 * (ahi + alo) + 0.5 * (ahi - alo) * gl_x
    yb = 0.5 * (bhi + blo) + 0.5 * (bhi - blo) * gl_x
    total = 0.0
    for i, a in enumerate(ya):
        for j, b in enumerate(yb):
            total += gl_w[i] * gl_w[j] * green_kernel_radial(cfg, math.hypot(x[0] - a, x[1] - b))
    return total * 0.25 * (ahi - alo) * (bhi - blo)


def test_green_measure_identity_light():
    cfg = KillingConfig(1.0, 2)
    rect = ((0.8, 1.6), (-0.3, 0.5))
    mc = MCConfig(paths=8000, seed=5)
    lhs, rhs, err = green_measure_identity_check(cfg, rect, np.zeros(2), 2.5, mc,
                                                 time_step=1e-3, horizon=20.0)
    assert err > 0.0
    assert abs(lhs - rhs) <= 4.0 * err


def test_finiteness_ratio_scan(p_14, bnd_14):
    radii = np.array([0.0, 5.0, 10.0, 20.0, 40.0])
    ratios = finiteness_ratio_scan(p_14, radii)
    assert ratios[0] == 0.0
    assert np.all(np.isfinite(ratios))
    assert ratios[-1] < ratios[1]
    assert ratios[-1] < 1e-3
    # quartic growth outpaces the Gaussian-harmonic discount scale
    # polynomial growth of any order still loses to the exponential
    # harmonic scale; only a super-exponential reward flips the tail
    quartic = finiteness_ratio_scan(p_14, radii,
                                    reward_fn=lambda pts: (pts ** 2).sum(axis=-1) ** 4)
    assert quartic[-1] < quartic[1]
    bad = finiteness_ratio_scan(
        p_14, radii,
        reward_fn=lambda pts: np.exp(1.6 * np.sqrt((pts ** 2).sum(axis=-1))))
    assert bad[-1] > bad[1]


def test_run_verification_report(p_sym, bnd_sym):
    mc = MCConfig(paths=2000, seed=8)
    rep = run_verification(p_sym, bnd_sym, mc=mc, scan_n=16, n_rays=240)
    assert rep.boundary_residuals.shape == (64,)
    assert float(np.max(np.abs(rep.boundary_residuals))) <= 1e-3
    assert rep.majorant_min_gap >= -1e-4
    # from the centre of the disc every walk is one disc with one payoff
    assert rep.mc_walk["mean_walk"] == 1.0
    assert rep.mc_stderr <= 1e-12 * rep.mc_value
    assert rep.reconstructed_value == pytest.approx(V0_SYM_2D_R1, abs=1e-3)
    assert rep.class_check.passed
    assert rep.checks == {"class_check": True, "residual": True, "majorant": True,
                          "mc_consistency": True}
    assert rep.passed


def test_verify_layers_go_through_module_attributes(monkeypatch):
    # the benchmark's tracer times verify's layers by wrapping these attributes; a
    # call that bypasses one would silently drop its layer from the trace
    import quadstop.kernels as kernels
    p = QuadraticProblem(1.0, (1.0, 1.0))
    b, rep = solve_boundary(p, make_circle_grid(16))
    assert rep.converged
    seams = {"verification." + name: (verification, name) for name in (
        "green_residual_normalized", "majorant_gap_scan", "value", "mc_value",
        "class_membership_check", "green_kernel_radial")}
    seams["kernels.bessel_K_scaled"] = (kernels, "bessel_K_scaled")
    calls = dict.fromkeys(seams, 0)
    for key, (module, name) in seams.items():
        def counted(*args, _real=getattr(module, name), _key=key, **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    run_verification(p, b, MCConfig(paths=2000), scan_n=10, n_rays=240)
    assert all(calls.values()), calls


@pytest.mark.parametrize("n_rays", [0, -5])
def test_n_rays_below_one_is_rejected(p_sym, bnd_sym, p3_sym, bnd3_sym, n_rays):
    x = np.zeros(2)
    for call in (lambda: run_verification(p_sym, bnd_sym, n_rays=n_rays),
                 lambda: value(p_sym, bnd_sym, x, n_rays=n_rays),
                 lambda: value(p3_sym, bnd3_sym, np.zeros(3), n_rays=n_rays),
                 lambda: green_residual_normalized(p_sym, bnd_sym, x, n_rays=n_rays),
                 lambda: majorant_gap_scan(p_sym, bnd_sym, x[None, :], n_rays=n_rays),
                 lambda: _green_integrals(p_sym, bnd_sym, x[None, :], n_rays)):
        with pytest.raises(ValueError, match="^n_rays must be >= 1, got %d$" % n_rays):
            call()


def test_run_verification_with_mc(p_sym, bnd_sym):
    mc = MCConfig(paths=5000, seed=3)
    rep = run_verification(p_sym, bnd_sym, mc=mc, scan_n=10, n_rays=240)
    assert rep.mc_stderr <= 1e-12 * rep.mc_value
    assert rep.mc_walk["paths"] == mc.paths
    tol = 3.0 * rep.mc_stderr + rep.mc_walk["shell"] * rep.mc_walk["lipschitz"]
    assert abs(rep.mc_value - rep.reconstructed_value) <= tol


def test_run_verification_verdict_on_shrunk_boundary(p_sym, bnd_sym):
    shrunk = run_verification(p_sym, StarBoundary(bnd_sym.grid, 0.8 * bnd_sym.radii),
                              mc=MCConfig(paths=2000, seed=8), scan_n=10, n_rays=240)
    assert shrunk.checks["residual"] is False
    assert not shrunk.passed
    # from the disc's centre the stderr is 0, so price the 4 sigma on a stand-in too
    for r in (shrunk, dataclasses.replace(shrunk, mc_stderr=0.01)):
        bias = r.mc_walk["shell"] * r.mc_walk["lipschitz"]
        assert r.mc_tolerance == 4.0 * r.mc_stderr + bias
        assert r.residual_max == float(np.max(np.abs(r.boundary_residuals)))


def test_d3_symmetric_reconstruction(p3_sym, bnd3_sym):
    # d = 3 reconstruction goes through the MC route inside value
    xb = bnd3_sym.cartesian_points(p3_sym)[40]
    gb = p3_sym.reward(xb)
    assert value(p3_sym, bnd3_sym, xb) == pytest.approx(gb, abs=2e-2 * max(1.0, gb))
    v0 = value(p3_sym, bnd3_sym, np.zeros(3))
    R = symmetric_radius(3, 0.5)
    k = 1.0
    exact = k * R ** 3 / math.sinh(k * R)
    assert v0 == pytest.approx(exact, abs=2e-2 * exact)


def test_d3_value_forms_no_samples_by_nodes_matrix(p3_sym, bnd3_sym):
    # a 1M x 512 cosine matrix alone would take 4.1 GB
    tracemalloc.start()
    try:
        value(p3_sym, bnd3_sym, np.zeros(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_box_confinement_of_values(p_14, bnd_14):
    # far outside the boundary box the candidate agrees with the reward
    far = np.array([3.0, 3.0])
    assert value(p_14, bnd_14, far) == pytest.approx(p_14.reward(far), abs=1e-4)
