import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special

import quadstop as q
import quadstop.martin_solver as ms
from quadstop.grids import half_grid, make_circle_grid, make_sphere_grid
from quadstop.martin_solver import radial_moment, radial_moment_drho, solve_boundary
from quadstop.problem import QuadraticProblem, StarBoundary, symmetric_radius
from quadstop.verification import (THRESHOLDS, green_residual_normalized, interior_scan_grid,
                                   majorant_gap_scan)
from reference import (alt_radial_forms, assemble_jacobian, assemble_residual,
                       assemble_second_derivative, flip_permutations, gamma, gamma_matrix,
                       kummer_moment_terms, quad, radial_form_audit)

M2_RHO1_GAM1_BETA2 = -3.436563656918091  # 2 - 2e


def test_gamma_values():
    # d=2, lambda=(1, alpha^2): gamma = sqrt(2r)(cos t cos f + sin t sin f / alpha)
    p = QuadraticProblem(1.0, (1.0, 4.0))
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert gamma(p, e1, e1) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert gamma(p, e2, e2) == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14)
    assert gamma(p, e1, e2) == 0.0


def test_radial_moment_polynomial_case():
    # gamma = 0 reduces to rho^{d+2}/(d+2) - beta^2 rho^d / d
    for rho, beta in ((1.0, 2.0), (3.0, 1.5)):
        assert radial_moment(2, rho, 0.0, beta) == pytest.approx(
            rho ** 4 / 4.0 - beta ** 2 * rho ** 2 / 2.0, rel=1e-14)
        assert radial_moment(3, rho, 0.0, beta) == pytest.approx(
            rho ** 5 / 5.0 - beta ** 2 * rho ** 3 / 3.0, rel=1e-14)
    assert radial_moment(2, math.sqrt(2.0) * 1.7, 0.0, 1.7) == pytest.approx(0.0, abs=1e-13)


def test_radial_moment_frozen_value():
    assert radial_moment(2, 1.0, 1.0, 2.0) == pytest.approx(M2_RHO1_GAM1_BETA2, rel=1e-13)
    assert radial_moment(2, 1.0, 1.0, 2.0) == pytest.approx(2.0 - 2.0 * math.e, rel=1e-13)


def test_radial_moment_vs_quadrature():
    rng = np.random.default_rng(12)
    cases = []
    for _ in range(60):
        d = int(rng.integers(2, 4))
        rho = rng.uniform(0.05, 8.0)
        gam = rng.uniform(-3.0, 3.0)
        if rng.uniform() < 0.3:
            gam = rng.uniform(-0.4, 0.4) / rho  # small |gamma| rho
        cases.append((d, rho, gam, rng.uniform(0.2, 4.0)))
    # gamma rho at the former series/closed-form switch, at and next to 0, and large
    for d in (2, 3):
        for z in (2.0, -2.0):
            for side in (1.0 - 1e-9, 1.0 + 1e-9):
                cases.append((d, 1.7, z * side / 1.7, 1.0))
        for z in (0.0, 1e-12, -1e-12, 25.0, -25.0, 100.0, -100.0):
            cases.append((d, 2.5, z / 2.5, 1.3))
    for d, rho, gam, beta in cases:
        ref = quad(lambda s: math.exp(gam * s) * (s * s - beta * beta) * s ** (d - 1), 0.0, rho)
        got = radial_moment(d, rho, gam, beta)
        assert type(got) is float
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-13)
    # an (n, 1) column of radii against an (n, m) gamma matrix, as the solver assembles it
    rho = np.array([[0.4], [1.1], [2.9]])
    gam = np.array([[-2.5, 0.0, 0.3, 1.9], [-0.7, 1e-12, 0.8, 2.2], [-1.4, -0.05, 0.6, 2.8]])
    m = radial_moment(3, rho, gam, 1.2)
    assert m.shape == (3, 4)
    for (i, j), got in np.ndenumerate(m):
        ref = quad(lambda s: math.exp(gam[i, j] * s) * (s * s - 1.44) * s * s, 0.0, rho[i, 0])
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-13)
    for bad in (-1e-3, np.array([1.0, -1.0])):
        with pytest.raises(ValueError, match="rho"):
            radial_moment(2, bad, 0.5, 1.0)


def _power_moment(n, rho, gam):
    # int_0^rho s^n e^{gam s} ds by repeated integration by parts (gam != 0)
    t = sum((-1) ** k * math.factorial(n) / math.factorial(n - k) * rho ** (n - k) / gam ** (k + 1)
            for k in range(n + 1))
    return math.exp(gam * rho) * t - (-1) ** n * math.factorial(n) / gam ** (n + 1)


def test_radial_moment_branch_continuity():
    # across |gamma| rho = 2, where a series once handed over to the closed form,
    # and across the switch between the Taylor series and the closed form today
    for d in (2, 3):
        for z0 in (2.0, ms._SERIES_MAX):
            for gam in (0.5, -0.5, 1.3):
                rho = z0 / abs(gam)
                lo = radial_moment(d, rho * (1.0 - 1e-9), gam, 1.0)
                hi = radial_moment(d, rho * (1.0 + 1e-9), gam, 1.0)
                assert lo == pytest.approx(hi, rel=1e-7)  # continuity of m itself
                # and the elementary closed form agrees at the same point
                closed = _power_moment(d + 1, rho, gam) - _power_moment(d - 1, rho, gam)
                assert radial_moment(d, rho, gam, 1.0) == pytest.approx(closed, rel=1e-13)


def _switch_points():
    # 1e-9 either side of the series switch and of |z| = 2, and on them
    return [sign * z0 * (1.0 + eps) for z0 in (ms._SERIES_MAX, 2.0)
            for sign in (1.0, -1.0) for eps in (-1e-9, 0.0, 1e-9)]


def test_radial_moment_matches_kummer_form():
    z = np.concatenate([np.linspace(-700.0, 700.0, 14001),
                        [0.0, 1e-300, -1e-300, 1e-12, -1e-12], _switch_points()])
    # rho = 60 takes rho^{d+2} F_{d+1}(z) past the largest double below z = 700
    for d in (2, 3):
        overflowed = 0
        for rho, beta in ((0.5, 0.9), (1.3, 1.1), (3.0, 2.0), (60.0, 40.0)):
            gam = z / rho
            got = radial_moment(d, rho, gam, beta)
            hi, lo = kummer_moment_terms(d, rho, gam, beta)
            with np.errstate(invalid="ignore"):
                ref = hi - lo
            finite = np.isfinite(ref)
            overflowed += np.count_nonzero(~finite)
            assert not np.any(np.isfinite(got[~finite]))
            # halved, as |hi| + |lo| may pass the largest double where hi - lo does not
            half_err = np.abs(got[finite] - ref[finite]) / 2.0
            half_scale = np.abs(hi[finite]) / 2.0 + np.abs(lo[finite]) / 2.0
            assert np.all(half_err <= 1e-13 * half_scale)
        assert overflowed > 0


def test_power_moments_match_high_precision():
    # each F_k(z) = M(k+1, k+2, z)/(k+1) against 40-digit Kummer functions
    mpmath = pytest.importorskip("mpmath")
    z = np.concatenate([np.linspace(-40.0, 40.0, 801), [0.0, 1e-12, -1e-12], _switch_points()])
    with mpmath.workdps(40):
        for d in (2, 3):
            for k, got in zip((d - 1, d + 1), ms._power_moments(d, z)):
                ref = np.array([float(mpmath.hyp1f1(k + 1, k + 2, mpmath.mpf(x)) / (k + 1))
                                for x in z])
                assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14


def _solve_with_overshoot(monkeypatch, blind_model):
    """Solve lambda = (1, 1000) cold with its first trial pushed to the radius cap.

    e^{gamma rho} passes the largest double there; the unforced steps stay
    below that.  With blind_model the first step's K puts the second-order
    model at 0 for that trial, so the model predicts the whole objective to
    fall.  Returns (report, whether a radial_moment call overflowed).
    """
    overflowed = []
    real_moment, real_step = ms.radial_moment, ms._OrbitSystem.step
    real_linearization = ms._OrbitSystem.linearization
    forced = []

    def recorded(*args):
        m = real_moment(*args)
        overflowed.append(not np.all(np.isfinite(m)))
        return m

    def overshoot_once(self, *args):
        h, accelerated = real_step(self, *args)
        if not forced:
            forced.append(1)
            h = h + ms.RADIUS_CAP * self.p.beta
        return h, accelerated

    def blind_once(self, x):
        jac, curv = real_linearization(self, x)
        if not forced:
            h = ms.RADIUS_CAP * self.p.beta - x
            miss = self.row_w * self.residual(x)[0] + jac @ h
            curv = -2.0 * np.outer(miss, 1.0 / (h * h)) / x.size
        return jac, curv

    monkeypatch.setattr(ms, "radial_moment", recorded)
    monkeypatch.setattr(ms._OrbitSystem, "step", overshoot_once)
    if blind_model:
        monkeypatch.setattr(ms._OrbitSystem, "linearization", blind_once)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, rep = solve_boundary(QuadraticProblem(1.0, (1.0, 1000.0)), make_circle_grid(64),
                                homotopy_steps=0)
    assert forced
    return rep, any(overflowed)


def test_trial_overflow_is_rejected_without_warnings(monkeypatch):
    # a trial the model passes but whose residual overflows is rejected
    rep, overflowed = _solve_with_overshoot(monkeypatch, blind_model=True)
    assert overflowed
    assert not rep.converged


def test_second_order_model_refuses_the_overshoot(monkeypatch):
    # the model predicts a rise at the cap: the trial is refused before its residual
    rep, overflowed = _solve_with_overshoot(monkeypatch, blind_model=False)
    assert not overflowed
    assert not rep.converged


def test_lm_solve_ends_when_no_trial_descends(monkeypatch):
    # every trial's objective is 4 times the start's: mu grows until the step rounds
    # away, and the stage ends without an accepted step and with finite damping
    p, grid = QuadraticProblem(1.0, (1.0, 4.0)), make_circle_grid(64)
    orbits = grid.reflection_orbits()
    x0 = np.full(orbits[0].size, ms._INIT_FACTOR * p.beta)
    real = ms._OrbitSystem.residual
    trials = []

    def doubled_away_from_x0(self, x):
        res, scale = real(self, x0)
        trials.append(1)
        return (res, scale) if np.array_equal(x, x0) else (2.0 * res, scale)

    monkeypatch.setattr(ms._OrbitSystem, "residual", doubled_away_from_x0)
    stage = ms._lm_solve(p, grid, orbits, x0, ms._RESIDUAL_TOL, ms._DAMPING)
    assert np.array_equal(stage.x, x0)
    assert stage.iterations == 1 and stage.step_inf == np.inf
    assert stage.stop == "no descending trial" and stage.accelerated == 0
    assert ms._DAMPING < stage.mu < math.inf
    # one residual at the start, then fewer trials than the cap of 60
    assert 1 < len(trials) < 61


def test_solve_never_calls_hyp1f1(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hyp1f1 called")

    real = scipy.special.hyp1f1
    monkeypatch.setattr(scipy.special, "hyp1f1", refuse)
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("quadstop"):
            for name, obj in list(vars(module).items()):
                if obj is real:
                    monkeypatch.setattr(module, name, refuse)
    for p, grid, steps in ((QuadraticProblem(1.0, (1.0, 4.0)), make_circle_grid(64), 4),
                           (QuadraticProblem(1.0, (1.0, 2.0, 3.0)), make_sphere_grid(8, 16), 0)):
        _, rep = solve_boundary(p, grid, homotopy_steps=steps)
        assert rep.iterations > 0


def test_radial_moment_derivative():
    assert radial_moment_drho(2, 2.0, 0.3, 2.0) == pytest.approx(0.0, abs=1e-14)
    assert radial_moment_drho(2, 1.0, 0.0, 2.0) == pytest.approx(-3.0, rel=1e-14)
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        rho = rng.uniform(0.3, 6.0)
        gam = rng.uniform(-2.0, 2.0)
        beta = rng.uniform(0.2, 3.0)
        h = 1e-6 * max(1.0, rho)
        fd = (radial_moment(d, rho + h, gam, beta) - radial_moment(d, rho - h, gam, beta)) / (2.0 * h)
        scale = max(1.0, abs(fd))
        assert radial_moment_drho(d, rho, gam, beta) == pytest.approx(fd, abs=1e-6 * scale)


def test_residual_negative_at_beta(p_14, grid64):
    b = StarBoundary(grid64, np.full(64, p_14.beta))
    res = assemble_residual(p_14, b)
    assert np.all(res < 0.0)


def test_residual_small_at_symmetric_oracle(p_sym, grid64):
    R = symmetric_radius(2, 1.0)
    b = StarBoundary(grid64, np.full(64, R))
    res = assemble_residual(p_sym, b)
    scale = np.abs(radial_moment(2, R, math.sqrt(2.0), p_sym.beta)) * 2.0 * math.pi
    assert np.max(np.abs(res)) <= 1e-6 * scale


def test_residual_symmetry_relabeling(p_14, grid64):
    # mirror-symmetric rho: residual respects the same relabeling
    n = 64
    th = grid64.angles
    rho = p_14.beta * (1.2 + 0.05 * np.cos(2.0 * th))
    res = assemble_residual(p_14, StarBoundary(grid64, rho))
    flip = (n - np.arange(n)) % n
    assert np.allclose(res, res[flip], rtol=1e-12, atol=1e-12)


def test_residual_matches_raw_martin_integral(p_14, bnd_14):
    # assemble the same equations by direct quadrature of
    # int_C e^{a.y} (r-L)g dy in polar coordinates, no closed-form m_d
    n = 64
    th = bnd_14.grid.angles
    rho = bnd_14.radii
    res = assemble_residual(p_14, bnd_14)
    scale = float(np.max(np.sum(
        np.abs(radial_moment(2, rho[None, :].T,
                             np.array([[gamma(p_14, w, wp) for wp in bnd_14.grid.nodes] for w in bnd_14.grid.nodes]),
                             p_14.beta)) * (2.0 * math.pi / n), axis=0)))
    for j in (0, 7, 16, 33):
        a_dir = bnd_14.grid.nodes[j]
        total = 0.0
        for i in range(n):
            g_ij = gamma(p_14, bnd_14.grid.nodes[i], a_dir)
            total += (2.0 * math.pi / n) * quad(
                lambda s: math.exp(g_ij * s) * (s * s - p_14.beta ** 2) * s, 0.0, rho[i],
                epsabs=1e-12)
        assert abs(total - res[j]) <= 1e-8 * scale
        assert abs(total) <= 1e-4 * scale  # solved boundary zeroes the raw integral too


def test_jacobian_structure(p_14, grid64):
    rho = np.full(64, p_14.beta)
    rho[5] = 1.4 * p_14.beta
    J = assemble_jacobian(p_14, StarBoundary(grid64, rho))
    # columns vanish where rho = beta, positive where rho > beta
    zero_cols = [i for i in range(64) if i != 5]
    assert np.max(np.abs(J[:, zero_cols])) == 0.0
    assert np.all(J[:, 5] > 0.0)


def test_jacobian_matches_finite_differences():
    p = QuadraticProblem(1.0, (1.0, 4.0))
    grid = make_circle_grid(16)
    rng = np.random.default_rng(21)
    rho = p.beta * (1.1 + 0.2 * rng.uniform(size=16))
    J = assemble_jacobian(p, StarBoundary(grid, rho))
    for i in range(16):
        h = 1e-6 * rho[i]
        up, dn = rho.copy(), rho.copy()
        up[i] += h
        dn[i] -= h
        fd = (assemble_residual(p, StarBoundary(grid, up))
              - assemble_residual(p, StarBoundary(grid, dn))) / (2.0 * h)
        denom = max(np.max(np.abs(fd)), 1e-30)
        assert np.max(np.abs(J[:, i] - fd)) <= 1e-5 * denom


def test_discrete_residual_converges_spectrally(p_14):
    # fixed smooth boundary: the trapezoid residual converges fast in N
    def residual_at(n, j_angle):
        grid = make_circle_grid(n)
        rho = p_14.beta * (1.3 + 0.1 * np.cos(2.0 * grid.angles))
        b = StarBoundary(grid, rho)
        # evaluate at a fixed test direction present in every grid: angle 0
        res = assemble_residual(p_14, b)
        return res[j_angle]

    ref_grid = make_circle_grid(256)
    rho = p_14.beta * (1.3 + 0.1 * np.cos(2.0 * ref_grid.angles))
    ref = assemble_residual(p_14, StarBoundary(ref_grid, rho))[0]
    errs = [abs(residual_at(n, 0) - ref) for n in (16, 32, 64)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-10 * max(1.0, abs(ref))


def test_solve_symmetric_matches_oracle(p_sym, bnd_sym):
    R = symmetric_radius(2, 1.0)
    assert np.ptp(bnd_sym.radii) <= 1e-6
    assert abs(bnd_sym.radii.mean() - R) <= 1e-4


def test_solve_symmetric_3d(bnd3_sym):
    R = symmetric_radius(3, 0.5)
    assert np.max(np.abs(bnd3_sym.radii - R)) <= 1e-3


def test_solve_asymmetric_properties(p_14, bnd_14, p_14_r03, bnd_14_r03):
    n = 64
    flip_x = (n - np.arange(n)) % n
    flip_y = (n // 2 - np.arange(n)) % n
    for p, b in ((p_14, bnd_14), (p_14_r03, bnd_14_r03)):
        assert np.all(b.radii >= p.beta)
        assert np.max(np.abs(b.radii - b.radii[flip_x])) <= 1e-10
        assert np.max(np.abs(b.radii - b.radii[flip_y])) <= 1e-10
    # beta ordering between the two discount rates
    assert p_14_r03.beta == pytest.approx(math.sqrt(5.0 / 0.3), rel=1e-12)
    assert p_14_r03.beta > p_14.beta


def test_solve_report_invariants(p_14, grid64):
    b, rep = solve_boundary(p_14, grid64)
    assert rep.converged
    assert rep.residual_inf_norm <= 1e-9 * rep.residual_scale
    assert rep.iterations >= 1
    assert len(rep.homotopy_trace) == 4
    lam_final = np.asarray(rep.homotopy_trace[-1][0], dtype=float)
    assert np.allclose(lam_final, p_14.lam)


def test_solve_permutation_equivariance(grid64):
    # swapping the lambda components mirrors the boundary through theta = pi/4
    b_a, _ = solve_boundary(QuadraticProblem(1.0, (1.0, 4.0)), grid64)
    b_b, _ = solve_boundary(QuadraticProblem(1.0, (4.0, 1.0)), grid64)
    n = 64
    swap = (n // 4 - np.arange(n)) % n
    assert np.max(np.abs(b_a.radii - b_b.radii[swap])) <= 1e-8


def test_solve_reward_scaling(grid64):
    # scaling lambda by s scales g by s and the polar radii by sqrt(s); x -> x sqrt(2r)
    # with time scaled by 2r maps the problem at r to the one at r = 1/2, so the polar
    # radii scale as 1 / sqrt(r).  Every problem is solved as its canonical one, so
    # every scale out to 1e12 either way with the same canonical problem takes the
    # same steps to radii equal up to the rounding of the scale factor
    for p, grid, rs in ((QuadraticProblem(1.0, (1.0, 4.0)), grid64,
                         (0.1, 0.25, 4.0, 10.0, 1e-12, 1e12)),
                        (QuadraticProblem(0.5, (1.0, 2.0, 3.0)), make_sphere_grid(16, 32),
                         (1e-12, 1e12))):
        b1, rep1 = solve_boundary(p, grid)
        assert rep1.converged
        cases = [(p.r, s, math.sqrt(s)) for s in (2.0, 1e-12, 1e12)]
        cases += [(r, 1.0, math.sqrt(p.r / r)) for r in rs]
        for r, s, factor in cases:
            p_s = QuadraticProblem(r, tuple(s * p.lam))
            assert p_s.canonical()[0] == p.canonical()[0]
            b, rep = solve_boundary(p_s, grid)
            assert rep.converged and rep.iterations == rep1.iterations
            scaled = factor * b1.radii
            assert np.max(np.abs(b.radii - scaled) / scaled) <= 4 * np.finfo(float).eps


def test_solve_homotopy_consistent_with_cold(p_14, grid64, bnd_14):
    b_cold, rep = solve_boundary(p_14, grid64, homotopy_steps=0)
    assert rep.converged
    # the discrete system determines rho only up to the residual-tol null
    # modes of a smoothing kernel; both routes land in that set
    assert np.max(np.abs(b_cold.radii - bnd_14.radii)) <= 2e-3


def test_solve_non_convergence_is_reported(grid64, monkeypatch):
    monkeypatch.setattr(ms, "_MAX_ITERATIONS", 3)
    p = QuadraticProblem(1.0, (1.0, 9.0))
    b, rep = solve_boundary(p, grid64, homotopy_steps=0)
    assert not rep.converged and rep.stop == "step cap" and rep.iterations == 3
    assert rep.residual_inf_norm > 1e-9 * rep.residual_scale
    assert np.all(np.isfinite(b.radii))


def test_solve_reports_a_step_below_tolerance(grid64, monkeypatch):
    # every accepted step moves the radii by less than 1e3: the stage ends after one
    monkeypatch.setattr(ms, "_STEP_TOL", 1e3)
    _, rep = solve_boundary(QuadraticProblem(1.0, (1.0, 9.0)), grid64, homotopy_steps=0)
    assert not rep.converged and rep.stop == "step below tolerance"
    assert rep.iterations == 1 and rep.step_inf_norm < np.inf


@pytest.mark.parametrize("p, grid, steps", [
    (QuadraticProblem(1.0, (1.0, 4.0)), make_circle_grid(64), 4),
    (QuadraticProblem(0.5, (1.0, 1.0, 1.0)), make_sphere_grid(16, 32), 0),
])
def test_converged_solve_reports_its_stop_and_accelerated_steps(p, grid, steps):
    _, rep = solve_boundary(p, grid, homotopy_steps=steps)
    assert rep.converged and rep.stop == "converged" and rep.stop in ms.STOP_REASONS
    assert 0 < rep.accelerated_steps <= rep.iterations


def test_benchmark_anisotropic_solve_converges_with_margin():
    # the benchmark's lambda = (1, 16), n = 64 solve ends at 6.5e-10 of its row scale
    # after 29 steps; the velocity steps alone crawled to 9.984e-10 in 104
    _, rep = solve_boundary(QuadraticProblem(1.0, (1.0, 16.0)), make_circle_grid(64))
    assert rep.converged
    assert rep.residual_inf_norm <= 0.8 * ms._RESIDUAL_TOL * rep.residual_scale


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("lambdas", [(1.0, 64.0), (1.0, 100.0)])
def test_high_ratio_default_solves_pass_verify_checks(lambdas, n):
    # the velocity steps alone stopped at the step cap here at 1.1-1.8e-9 of the row scale
    p = QuadraticProblem(1.0, lambdas)
    b, rep = solve_boundary(p, make_circle_grid(n))
    assert rep.converged
    # run_verification's residual and majorant checks, at its default settings
    residuals = green_residual_normalized(p, b, b.cartesian_points(p))
    assert np.max(np.abs(residuals)) <= THRESHOLDS["residual"]
    gap = majorant_gap_scan(p, b, interior_scan_grid(p, b, n=40))
    assert gap >= -THRESHOLDS["majorant_gap"]


@pytest.mark.parametrize("lambdas, shape", [
    ((1.0, 2.0, 3.0), (8, 16)), ((1.0, 2.0, 4.0), (8, 16)), ((1.0, 8.0, 64.0), (12, 24)),
])
def test_d3_default_solves_converge(lambdas, shape):
    # the velocity steps alone stopped at the step cap after 210-215 steps
    _, rep = solve_boundary(QuadraticProblem(0.5, lambdas), make_sphere_grid(*shape))
    assert rep.converged


def test_solve_iterations_count_every_stage(p_14, grid64, monkeypatch):
    calls = []
    real = ms.radial_moment_drho

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(ms, "radial_moment_drho", counted)
    for steps, stages in ((4, 4), (0, 1)):
        calls.clear()
        _, rep = solve_boundary(p_14, grid64, homotopy_steps=steps)
        assert rep.converged and len(rep.homotopy_trace) == stages
        assert rep.iterations == len(calls)


def test_failed_homotopy_stage_reports_target_residual(monkeypatch):
    monkeypatch.setattr(ms, "_MAX_ITERATIONS", 2)
    p = QuadraticProblem(1.0, (1.0, 9.0))
    grid = make_circle_grid(32)
    b, rep = solve_boundary(p, grid)
    assert not rep.converged
    assert len(rep.homotopy_trace) == 1   # stage 1 of 4 failed
    gm = math.sqrt(2.0 * p.r) * (grid.nodes / p.sqrt_lam) @ grid.nodes.T
    m = radial_moment(2, b.radii[:, None], gm, p.beta)
    assert rep.residual_inf_norm == pytest.approx(np.max(np.abs(assemble_residual(p, b))),
                                                  rel=1e-12)
    assert rep.residual_scale == pytest.approx(np.max(np.abs(m).T @ grid.weights), rel=1e-12)
    # the failed stage's own residual is much smaller than the target's
    assert rep.homotopy_trace[0][1] < 1e-3 * rep.residual_inf_norm


@pytest.mark.parametrize("p, grid, max_steps", [
    (QuadraticProblem(1.0, (1.0, 4.0)), make_circle_grid(128), 13),
    (QuadraticProblem(0.5, (1.0, 2.0, 3.0)), make_sphere_grid(16, 32), 12),
])
def test_continuation_step_count(p, grid, max_steps):
    # predicted stages solved to _STAGE_TOL, each started at the damping the stage
    # before it ended at, take 11 and 10 steps; restarted at _DAMPING they took 20 and
    # 17, and stages each solved to _RESIDUAL_TOL from the last stage's radii 59 and 40
    _, rep = solve_boundary(p, grid)
    assert rep.converged and rep.iterations <= max_steps


def test_stages_meet_their_own_tolerance(monkeypatch):
    p, grid = QuadraticProblem(1.0, (1.0, 4.0)), make_circle_grid(64)
    stage_radii = []
    real = ms._lm_solve

    def recorded(*args):
        out = real(*args)
        stage_radii.append(out[0])
        return out

    monkeypatch.setattr(ms, "_lm_solve", recorded)
    _, rep = solve_boundary(p, grid)
    assert rep.converged and len(rep.homotopy_trace) == 4
    orbits = grid.reflection_orbits()
    c = p.canonical()[1]  # the stages run on canonical radii
    for k, ((lam, res_inf), x) in enumerate(zip(rep.homotopy_trace, stage_radii), 1):
        _, scale = ms._OrbitSystem(QuadraticProblem(p.r, lam), grid, orbits).residual(c * x)
        tol = ms._RESIDUAL_TOL if k == 4 else ms._STAGE_TOL
        assert res_inf <= tol * scale


@pytest.mark.parametrize("steps", [0, 1])
def test_single_stage_is_one_target_solve(steps):
    # the secant predictor 2x - x of the first stage is x itself; the solve runs on
    # the canonical problem and scales its radii back by c
    p, grid = QuadraticProblem(1.0, (1.0, 4.0)), make_circle_grid(64)
    canon, c = p.canonical()
    orbits = grid.reflection_orbits()
    reps, orbit_of = orbits
    start = ms._INIT_FACTOR * canon.beta if steps == 0 else symmetric_radius(p.d, 0.5)
    x = ms._lm_solve(canon, grid, orbits, np.full(reps.size, start), ms._RESIDUAL_TOL,
                     ms._DAMPING).x
    b, rep = solve_boundary(p, grid, homotopy_steps=steps)
    assert rep.converged and len(rep.homotopy_trace) == 1
    assert rep.homotopy_trace[0][0] == p.lambdas
    assert np.array_equal(b.radii, c * x[orbit_of])


def test_stages_carry_the_damping(monkeypatch):
    # stage 1 starts at _DAMPING and each later stage at the damping the one before
    # it ended at; stage_iterations splits iterations by stage
    p, grid = QuadraticProblem(1.0, (1.0, 16.0)), make_circle_grid(64)
    given, stages = [], []
    real = ms._lm_solve

    def recorded(p, grid, orbits, x0, tol, mu):
        given.append(mu)
        stages.append(real(p, grid, orbits, x0, tol, mu))
        return stages[-1]

    monkeypatch.setattr(ms, "_lm_solve", recorded)
    _, rep = solve_boundary(p, grid)
    assert rep.converged and len(stages) == 4
    assert given[0] == ms._DAMPING
    assert given[1:] == [st.mu for st in stages[:-1]]
    assert all(mu < ms._DAMPING for mu in given[1:])
    assert rep.stage_iterations == tuple(st.iterations for st in stages)
    assert sum(rep.stage_iterations) == rep.iterations


@pytest.mark.parametrize("grid, steps, nodes", [
    (make_circle_grid(128), 4, (64, 64, 64, 128)),
    (make_circle_grid(256), 4, (128, 128, 128, 256)),
    (make_sphere_grid(16, 32), 4, (256, 256, 256, 512)),
    (make_circle_grid(128), 2, (64, 128)),
    (make_circle_grid(64), 4, (64,) * 4),        # the half grid would have 32 nodes
    (make_sphere_grid(8, 16), 4, (128,) * 4),    # 8 x 8: 8 angles per circle
    (make_circle_grid(128), 0, (128,)),          # cold: one stage, the target
    (make_circle_grid(128), 1, (128,)),
], ids=["n128", "n256", "16x32", "n128-k2", "n64", "8x16", "n128-cold", "n128-k1"])
def test_stages_before_the_target_run_on_the_half_grid(monkeypatch, grid, steps, nodes):
    seen = []
    real = ms._lm_solve

    def recorded(p, grid, orbits, x0, tol, mu):
        seen.append((grid.n, orbits[0].size, x0.size))
        return real(p, grid, orbits, x0, tol, mu)

    monkeypatch.setattr(ms, "_lm_solve", recorded)
    lambdas = (1.0, 4.0) if grid.d == 2 else (1.0, 2.0, 3.0)
    _, rep = solve_boundary(QuadraticProblem(0.5, lambdas), grid, homotopy_steps=steps)
    assert rep.converged
    assert tuple(n for n, _, _ in seen) == rep.stage_nodes == nodes
    # unknowns and starting radii are one per reflection orbit of the stage's own grid
    assert all(n_orbits == size for _, n_orbits, size in seen)


def test_failed_half_grid_stage_ends_the_solve(monkeypatch):
    # a half-grid stage that stops short ends the solve like any stage before the
    # target: its radii, interpolated onto the grid, are returned and judged against
    # the target problem
    p, grid = QuadraticProblem(1.0, (1.0, 4.0)), make_circle_grid(128)
    real = ms._lm_solve
    stages = []

    def failing(p, stage_grid, orbits, x0, tol, mu):
        stages.append(real(p, stage_grid, orbits, x0, tol, mu))
        if len(stages) == 2:
            stages[-1] = stages[-1]._replace(stop="step cap")
        return stages[-1]

    monkeypatch.setattr(ms, "_lm_solve", failing)
    b, rep = solve_boundary(p, grid)
    assert not rep.converged and rep.stop == "step cap"
    assert rep.stage_nodes == (64, 64) and len(rep.stage_iterations) == 2
    half, prolong = half_grid(grid)
    reps, orbit_of = grid.reflection_orbits()
    x = p.canonical()[1] * prolong(stages[-1].x[half.reflection_orbits()[1]])[reps]
    assert np.array_equal(b.radii, x[orbit_of])
    res, scale = ms._OrbitSystem(p, grid, (reps, orbit_of)).residual(x)
    assert rep.residual_inf_norm == pytest.approx(np.max(np.abs(res)), rel=1e-12)
    assert rep.residual_scale == pytest.approx(scale, rel=1e-12)


@pytest.mark.parametrize("p, grid, tol", [
    (QuadraticProblem(1.0, (1.0, 4.0)), make_circle_grid(256), 1e-5),
    (QuadraticProblem(0.5, (1.0, 4.0, 16.0)), make_sphere_grid(16, 32), 2e-5),
], ids=["n256", "16x32"])
def test_half_grid_target_matches_the_full_continuation(monkeypatch, p, grid, tol):
    # the target solves the same equations to the same tolerance from a start one
    # interpolation away: the radii agree to the solve's ill-posed slack
    b, rep = solve_boundary(p, grid)
    monkeypatch.setattr(ms, "half_grid", lambda grid: None)
    b_full, rep_full = solve_boundary(p, grid)
    assert rep.converged and rep_full.converged
    assert rep.stage_nodes[:-1] == (grid.n // 2,) * 3 and rep_full.stage_nodes == (grid.n,) * 4
    assert np.max(np.abs(b.radii - b_full.radii)) <= tol * np.max(b_full.radii)


def test_crawling_solves_reject_few_trials(monkeypatch):
    # a solve that runs into _MAX_ITERATIONS: nearly every trial is accepted, so the
    # residuals are about one per step plus one per stage start (215 for 210 steps
    # and 4 stages).  The trials the second-order model predicts to rise are refused
    # before their residual, at one factorization of the damped matrix each (247
    # trials here)
    p, grid = QuadraticProblem(0.5, (1.0, 8.0, 64.0)), make_sphere_grid(8, 16)
    calls, solves = [], []
    real, real_lstsq = ms.radial_moment, ms.lstsq

    def counted(*args):
        calls.append(1)
        return real(*args)

    def counted_lstsq(*args):
        solves.append(1)
        return real_lstsq(*args)

    monkeypatch.setattr(ms, "radial_moment", counted)
    monkeypatch.setattr(ms, "lstsq", counted_lstsq)
    _, rep = solve_boundary(p, grid)
    assert not rep.converged and rep.iterations > 200
    assert len(calls) <= 1.02 * (rep.iterations + len(rep.homotopy_trace))
    assert len(solves) <= 1.2 * rep.iterations


def test_failed_target_stage_reports_its_own_residual():
    # stages 1-3 reach _STAGE_TOL; the target stage itself stops short of _RESIDUAL_TOL
    p = QuadraticProblem(0.5, (1.0, 8.0, 64.0))
    _, rep = solve_boundary(p, make_sphere_grid(8, 16))
    assert not rep.converged and rep.stop == "step cap"
    assert len(rep.homotopy_trace) == 4
    assert rep.homotopy_trace[-1] == (p.lambdas, rep.residual_inf_norm)
    assert rep.residual_inf_norm < 1e-7 * rep.residual_scale


@pytest.mark.parametrize("r", [0.3, 1.0])
@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
@pytest.mark.parametrize("lambdas", [(1.0, 1.0), (1.0, 2.0), (1.0, 4.0), (1.0, 9.0),
                                     (2.0, 5.0)])
def test_default_solve_converges(lambdas, n, r):
    _, rep = solve_boundary(QuadraticProblem(r, lambdas), make_circle_grid(n))
    assert rep.converged


def test_solved_boundary_green_residual():
    # 2.9e-5; solving every stage to _RESIDUAL_TOL from the last radii gives 1.4e-4
    p = QuadraticProblem(1.0, (1.0, 9.0))
    b, rep = solve_boundary(p, make_circle_grid(64))
    assert rep.converged
    assert np.max(np.abs(green_residual_normalized(p, b, b.cartesian_points(p)))) <= 5e-5


def test_anisotropic_default_solves_converge():
    # lambda-ratio 16 at default settings: Green residual 6.5-7.1e-5 at every n; a
    # Marquardt damping diag(J'J) per unit node weight ends n >= 64 at the step cap
    # with 3.7-4.4e-4
    p = QuadraticProblem(1.0, (1.0, 16.0))
    for n in (32, 64, 128, 256):
        b, rep = solve_boundary(p, make_circle_grid(n))
        assert rep.converged
        assert np.max(np.abs(green_residual_normalized(p, b, b.cartesian_points(p)))) <= 2e-4
        if n == 64:
            gap = majorant_gap_scan(p, b, interior_scan_grid(p, b, n=20))
            assert gap >= -THRESHOLDS["majorant_gap"]
    # 48 steps; the Marquardt damping stops at the step cap after 213
    _, rep = solve_boundary(QuadraticProblem(0.5, (1.0, 4.0, 16.0)), make_sphere_grid(12, 24))
    assert rep.converged


ORBIT_CASES = [  # (problem, grid, number of orbits)
    (QuadraticProblem(1.0, (1.0, 4.0)), make_circle_grid(64), 17),
    (QuadraticProblem(0.3, (1.0, 4.0)), make_circle_grid(62), 16),
    (QuadraticProblem(1.0, (1.0, 9.0)), make_circle_grid(31), 16),   # only the y flip
    (QuadraticProblem(0.5, (1.0, 2.0, 3.0)), make_sphere_grid(8, 16), 20),
    (QuadraticProblem(0.5, (1.0, 2.0, 3.0)), make_sphere_grid(7, 12), 16),  # odd n_lat
    (QuadraticProblem(0.5, (1.0, 2.0, 3.0)), make_sphere_grid(24, 48), 156),
    (QuadraticProblem(0.5, (1.0, 4.0, 16.0)), make_sphere_grid(13, 25), 91),  # no x flip
]


@pytest.mark.parametrize("p, grid, n_orbits", ORBIT_CASES)
def test_reflection_orbits(p, grid, n_orbits):
    reps, orbit_of = grid.reflection_orbits()
    assert reps.size == n_orbits
    assert np.array_equal(orbit_of[reps], np.arange(n_orbits))
    assert np.all(reps == [np.flatnonzero(orbit_of == o).min() for o in range(n_orbits)])
    perms = flip_permutations(grid)
    # an odd number of circle nodes or of longitudes has no x flip
    assert len(perms) == grid.d - grid.shape[-1] % 2
    images = np.arange(grid.n)[:, None]   # each node's images under the group of flips
    for perm in perms.values():
        images = np.concatenate([images, perm[images]], axis=1)
    for i in range(grid.n):
        assert set(images[i]) == set(np.flatnonzero(orbit_of == orbit_of[i]))


def test_reflection_orbits_need_no_dense_distance_array():
    # a dense n x n x d match would take 32 MB at 24 x 48
    grid = make_sphere_grid(24, 48)
    tracemalloc.start()
    try:
        grid.reflection_orbits()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("p, grid, n_orbits", ORBIT_CASES)
def test_orbit_system_is_the_contracted_nodal_system(p, grid, n_orbits):
    orbits = grid.reflection_orbits()
    reps, orbit_of = orbits
    size = np.bincount(orbit_of)
    rng = np.random.default_rng(grid.n)
    x = p.beta * rng.uniform(1.05, 1.6, n_orbits)
    b = StarBoundary(grid, x[orbit_of])
    w = grid.weights
    system = ms._OrbitSystem(p, grid, orbits)

    def close(got, ref, tol):
        assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))

    # residual: the full one is constant on orbits of test directions
    full_res = assemble_residual(p, b)
    res, scale = system.residual(x)
    close(res, full_res[reps], 1e-13)
    close(res[orbit_of], full_res, 1e-13)
    m = radial_moment(p.d, b.radii[:, None], gamma_matrix(p, grid.nodes), p.beta)
    assert scale == pytest.approx(np.max(np.abs(m).T @ w), rel=1e-13)
    # Jacobian: representatives' rows of the weighted nodal one, columns summed per orbit
    full_jac = np.sqrt(w)[:, None] * assemble_jacobian(p, b)
    contracted = np.zeros((n_orbits, n_orbits))
    for q in range(n_orbits):
        contracted[:, q] = full_jac[reps][:, orbit_of == q].sum(axis=1)
    jac, curv = system.linearization(x)
    close(jac, np.sqrt(size)[:, None] * contracted, 1e-13)
    # second derivative along a flip-symmetric v: the nodal R_vv, constant on orbits
    v = p.beta * rng.uniform(-0.1, 0.1, n_orbits)
    full_vv = assemble_second_derivative(p, b, v[orbit_of])
    vv = curv @ (v * v) / system.row_w
    close(vv, full_vv[reps], 1e-13)
    close(vv[orbit_of], full_vv, 1e-13)
    # one damped trial equals the nodal trial of the full augmented system, damped in
    # the quadrature metric mu (|J|_F^2 / |S|) diag(w) with J the reduced Jacobian: the
    # velocity, the acceleration along it, and the same test between v and v + a/2
    accelerated = set()
    for mu in (1e-3, 1.0, 1e2):
        metric = mu * (jac * jac).sum() / w.sum() * w
        aug = np.vstack([full_jac, np.diag(np.sqrt(metric))])
        zeros = np.zeros(grid.n)
        vel = np.linalg.lstsq(aug, np.concatenate([-np.sqrt(w) * full_res, zeros]),
                              rcond=None)[0]
        acc = np.linalg.lstsq(
            aug, np.concatenate([-np.sqrt(w) * assemble_second_derivative(p, b, vel), zeros]),
            rcond=None)[0]
        fast = 2.0 * math.sqrt(w @ acc ** 2) <= ms._ACCEL_RATIO * math.sqrt(w @ vel ** 2)
        h, fast_reduced = system.step(res, jac, curv, mu)
        assert fast_reduced == fast
        close(h[orbit_of], vel + 0.5 * acc if fast else vel, 1e-10)
        accelerated.add(fast)
    # at these radii far from the solution the test takes v alone at mu <= 1, v + a/2 at 100
    assert accelerated == {False, True}


@pytest.mark.parametrize("p, grid", [
    (QuadraticProblem(1.0, (1.0, 4.0)), make_circle_grid(64)),
    (QuadraticProblem(1.0, (1.0, 100.0)), make_circle_grid(31)),
    (QuadraticProblem(0.5, (1.0, 2.0, 3.0)), make_sphere_grid(8, 16)),
    (QuadraticProblem(0.5, (1.0, 4.0, 16.0)), make_sphere_grid(13, 25)),
])
def test_second_derivative_is_the_central_difference(p, grid):
    # (R(x + t v) - 2 R(x) + R(x - t v)) / t^2 = R_vv + O(t^2), along v of size beta;
    # the difference is 1.6-6.4e-8 of max |R_vv| here, and 100 times that at t = 1e-3
    orbits = grid.reflection_orbits()
    rng = np.random.default_rng(grid.n)
    x = p.beta * rng.uniform(1.05, 1.6, orbits[0].size)
    v = p.beta * rng.uniform(-1.0, 1.0, orbits[0].size)
    system = ms._OrbitSystem(p, grid, orbits)
    vv = system.linearization(x)[1] @ (v * v) / system.row_w
    t = 1e-4
    diff = (system.residual(x + t * v)[0] - 2.0 * system.residual(x)[0]
            + system.residual(x - t * v)[0]) / (t * t)
    assert np.max(np.abs(diff - vv)) <= 1e-6 * np.max(np.abs(vv))


@pytest.mark.parametrize("p, grid", [
    (QuadraticProblem(1.0, (1.0, 4.0)), make_circle_grid(64)),
    (QuadraticProblem(0.5, (1.0, 2.0, 3.0)), make_sphere_grid(16, 32)),
])
def test_orbit_solve_is_symmetric_and_converged_everywhere(p, grid):
    b, rep = solve_boundary(p, grid)
    for perm in flip_permutations(grid).values():
        assert np.array_equal(b.radii[perm], b.radii)
    assert rep.converged
    # judged on the representatives only, yet every test direction meets the tolerance
    full = np.max(np.abs(assemble_residual(p, b)))
    assert full <= ms._RESIDUAL_TOL * rep.residual_scale * (1.0 + 1e-12)


def test_solver_layers_go_through_module_attributes(monkeypatch):
    # the benchmark's per-layer counters wrap these three attributes; an inlined
    # call would silently zero radial_moment_entries or lstsq_flops
    p, grid = QuadraticProblem(1.0, (1.0, 4.0)), make_circle_grid(64)
    n_orbits = grid.reflection_orbits()[0].size
    moment_shape = lambda a: np.broadcast(np.asarray(a[1]), np.asarray(a[2])).shape  # noqa: E731
    shape_of = {"radial_moment": moment_shape, "radial_moment_drho": moment_shape,
                "lstsq": lambda a: np.shape(a[0])}
    seen = {name: [] for name in shape_of}
    for name in shape_of:
        def counted(*args, _real=getattr(ms, name), _name=name, **kwargs):
            seen[_name].append(shape_of[_name](args))
            return _real(*args, **kwargs)
        monkeypatch.setattr(ms, name, counted)
    # continuation and cold start run the same stage loop: one residual per
    # stage start, and one residual and one factorization of the damped matrix
    # (which serves velocity and acceleration) per trial step; the second-order
    # model refuses none here
    for steps in (4, 0):
        for calls in seen.values():
            calls.clear()
        _, rep = solve_boundary(p, grid, homotopy_steps=steps)
        assert rep.converged
        assert len(seen["radial_moment_drho"]) == rep.iterations
        trials = len(seen["radial_moment"]) - len(rep.homotopy_trace)
        assert trials >= rep.iterations
        assert len(seen["lstsq"]) == trials
        assert (set(seen["radial_moment"]) == set(seen["radial_moment_drho"])
                == {(grid.n, n_orbits)})
        assert set(seen["lstsq"]) == {(2 * n_orbits, n_orbits)}


def test_radial_moment_rejects_other_dimensions():
    for fn in (radial_moment, radial_moment_drho):
        with pytest.raises(ValueError, match=r"^%s supports d in \{2, 3\}" % fn.__name__):
            fn(4, 1.0, 0.5, 1.0)


def test_solve_config_validation(p_14, grid64):
    with pytest.raises(ValueError, match="homotopy_steps must be >= 0"):
        solve_boundary(p_14, grid64, homotopy_steps=-1)


def test_radial_form_audit_structure():
    audit = radial_form_audit()
    assert audit["configs"]
    assert "delta_identity" in audit
    first = audit["configs"][0]
    assert {"alpha", "r", "beta", "sample_rows"} <= set(first)
    # the printed forms and the first-principles moment disagree by a
    # nonzero gamma-dependent offset, reproduced by a closed form
    assert first["min_abs_delta"] > 1e-6
    assert first["delta_matches_closed_form_rel"] <= 1e-10
    rows = first["sample_rows"]
    assert all(abs(row["delta"]) > 1e-6 for row in rows)
    f1, f2 = alt_radial_forms(2.0, 1.0, 1.3, 0.9)
    assert np.isfinite(f1) and np.isfinite(f2)
    with pytest.raises(ValueError):
        alt_radial_forms(2.0, 1.0, 1.3, 0.0)
