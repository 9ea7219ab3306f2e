import math

import numpy as np
import pytest

import quadstop as q
from quadstop.grids import make_circle_grid, make_sphere_grid
from quadstop.martin_solver import (SolveConfig, radial_moment, radial_moment_drho,
                                    solve_boundary)
from quadstop.problem import QuadraticProblem, StarBoundary, symmetric_radius
from reference import (alt_radial_forms, assemble_jacobian, assemble_residual, gamma, quad,
                       radial_form_audit)

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
    # across |gamma| rho = 2, where a series once handed over to the closed form
    for d in (2, 3):
        for gam in (0.5, -0.5, 1.3):
            rho = 2.0 / abs(gam)
            lo = radial_moment(d, rho * (1.0 - 1e-9), gam, 1.0)
            hi = radial_moment(d, rho * (1.0 + 1e-9), gam, 1.0)
            assert lo == pytest.approx(hi, rel=1e-7)  # continuity of m itself
            # and the elementary closed form agrees at the same point
            closed = _power_moment(d + 1, rho, gam) - _power_moment(d - 1, rho, gam)
            assert radial_moment(d, rho, gam, 1.0) == pytest.approx(closed, rel=1e-13)


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
    # scaling lambda by c scales g by c and the polar radii by sqrt(c)
    b1, _ = solve_boundary(QuadraticProblem(1.0, (1.0, 4.0)), grid64)
    b2, _ = solve_boundary(QuadraticProblem(1.0, (2.0, 8.0)), grid64)
    assert np.max(np.abs(b2.radii - math.sqrt(2.0) * b1.radii)) <= 1e-6


def test_solve_homotopy_consistent_with_cold(p_14, grid64, bnd_14):
    b_cold, rep = solve_boundary(p_14, grid64, SolveConfig(homotopy_steps=0))
    assert rep.converged
    # the discrete system determines rho only up to the residual-tol null
    # modes of a smoothing kernel; both routes land in that set
    assert np.max(np.abs(b_cold.radii - bnd_14.radii)) <= 2e-3


def test_solve_non_convergence_is_reported(grid64):
    p = QuadraticProblem(1.0, (1.0, 9.0))
    b, rep = solve_boundary(p, grid64, SolveConfig(max_iterations=3, homotopy_steps=0))
    assert not rep.converged
    assert rep.residual_inf_norm > 1e-9 * rep.residual_scale
    assert np.all(np.isfinite(b.radii))


def test_solve_iterations_count_every_stage(p_14, grid64, monkeypatch):
    import quadstop.martin_solver as ms
    calls = []
    real = ms.radial_moment_drho

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(ms, "radial_moment_drho", counted)
    for cfg, stages in ((None, 4), (SolveConfig(homotopy_steps=0), 0)):
        calls.clear()
        _, rep = solve_boundary(p_14, grid64, cfg)
        assert rep.converged and len(rep.homotopy_trace) == stages
        assert rep.iterations == len(calls)


def test_failed_homotopy_stage_reports_target_residual():
    p = QuadraticProblem(1.0, (1.0, 9.0))
    grid = make_circle_grid(32)
    b, rep = solve_boundary(p, grid, SolveConfig(max_iterations=2))
    assert not rep.converged
    assert len(rep.homotopy_trace) == 1   # stage 1 of 4 failed
    gm = math.sqrt(2.0 * p.r) * (grid.nodes / p.sqrt_lam) @ grid.nodes.T
    m = radial_moment(2, b.radii[:, None], gm, p.beta)
    assert rep.residual_inf_norm == pytest.approx(np.max(np.abs(assemble_residual(p, b))),
                                                  rel=1e-12)
    assert rep.residual_scale == pytest.approx(np.max(np.abs(m).T @ grid.weights), rel=1e-12)
    # the failed stage's own residual is much smaller than the target's
    assert rep.homotopy_trace[0][1] < 1e-3 * rep.residual_inf_norm


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(residual_tol=-1.0)
    with pytest.raises(ValueError):
        SolveConfig(homotopy_steps=-1)


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
