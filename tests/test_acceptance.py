"""End-to-end acceptance checks for the solver and its verification stack.

Each numbered test records exactly one line

    ACCEPTANCE n: PASS|FAIL - <what was checked>

which the conftest terminal-summary hook prints after the run (pytest's
fd-level capture would otherwise swallow it), then asserts the same
condition.  Runtime budgets are part of the checked condition.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from quadstop.dataio import write_json_report
from quadstop.grids import make_circle_grid, make_sphere_grid
from quadstop.kernels import KillingConfig, bessel_K_scaled, green_kernel_radial, martin_kernel
from quadstop.martin_solver import radial_moment, radial_moment_drho, solve_boundary
from quadstop.problem import QuadraticProblem, class_membership_check, symmetric_radius
from quadstop.verification import (MCConfig, green_residual_normalized,
                                   interior_scan_grid, majorant_gap_scan,
                                   mc_value, value)
from reference import (bessel2_policy_iteration_radius, bessel_K, green_measure_identity_check,
                       green_ratio, hyperplane_identity, quad, radial_form_audit,
                       resolvent_time_quadrature)

AUDIT_REPORT = Path(__file__).resolve().parents[1] / "reports" / "radial_form_audit.json"


def _acc(n: int, ok: bool, desc: str) -> bool:
    from conftest import ACCEPTANCE_LINES
    line = "ACCEPTANCE %d: %s - %s" % (n, "PASS" if ok else "FAIL", desc)
    ACCEPTANCE_LINES.append(line)
    print(line)  # also lands in the per-test captured output
    return ok


def test_criterion_01_special_functions():
    t0 = time.perf_counter()
    u = np.geomspace(1e-3, 100.0, 200)
    closed = np.sqrt(np.pi / (2.0 * u)) * np.exp(-u)
    got = np.array([bessel_K(0.5, ui) for ui in u])
    half_ok = np.max(np.abs(got / closed - 1.0)) <= 1e-13

    ref = quad(lambda t: math.exp(-math.cosh(t)), 0.0, math.acosh(745.0))
    k0_ok = abs(bessel_K(0, 1.0) - ref) <= 1e-10

    half_pi = math.sqrt(math.pi / 2.0)
    asym_ok = True
    for nu in (0.0, 1.0, 0.5, 1.5):
        for uu in (20.0, 30.0, 50.0, 120.0):
            envelope = half_pi * (abs(4.0 * nu * nu - 1.0) / (8.0 * uu)
                                  + 1.0 / uu ** 2)
            val = math.sqrt(uu) * bessel_K_scaled(nu, uu)
            asym_ok = asym_ok and abs(val - half_pi) <= envelope

    elapsed = time.perf_counter() - t0
    ok = half_ok and k0_ok and asym_ok and elapsed < 1.0
    assert _acc(1, ok, "half-integer K to 1e-13, K0(1) vs integral to 1e-10, "
                       "asymptotic envelope for u >= 20 (%.2fs)" % elapsed)


def test_criterion_02_green_vs_time_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3):
        for r in (0.5, 1.0):
            cfg = KillingConfig(r, d)
            base = np.zeros(d)
            for i in range(5):
                x = base.copy()
                x[0] = -0.3 * i
                for j in range(5):
                    y = np.full(d, 0.25 + 0.55 * j) / math.sqrt(d)
                    y[-1] *= -1.0 if (i + j) % 2 else 1.0
                    ref = resolvent_time_quadrature(x, y, r)
                    got = green_kernel_radial(cfg, float(np.linalg.norm(x - y)))
                    worst = max(worst, abs(got / ref - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    assert _acc(2, ok, "closed-form Green kernel vs time quadrature, 5x5 pairs"
                       " for d in {2,3}, r in {0.5,1}, rel %.1e (%.2fs)"
                % (worst, elapsed))


def test_criterion_03_martin_limit():
    t0 = time.perf_counter()
    cfg = KillingConfig(1.0, 2)
    x = np.array([1e4, 0.0])
    a = (cfg.kappa, 0.0)
    worst = 0.0
    for i in range(5):
        for j in range(5):
            rad = 0.2 + 0.2 * i
            th = 2.0 * math.pi * j / 5.0
            y = rad * np.array([math.cos(th), math.sin(th)])
            worst = max(worst, abs(green_ratio(cfg, x, y) - martin_kernel(cfg, a, y)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 1.0
    assert _acc(3, ok, "green_ratio at |x|=1e4 vs exponential Martin kernel, "
                       "25 points, max err %.1e (%.2fs)" % (worst, elapsed))


def test_criterion_04_hyperplane_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    ratio_dev = 0.0
    for i in range(20):
        r = 0.5 if i % 2 else 1.0
        cfg = KillingConfig(r, 2)
        th = rng.uniform(0.0, 2.0 * math.pi)
        a = (cfg.kappa * math.cos(th), cfg.kappa * math.sin(th))
        b = rng.uniform(-1.5, 1.5)
        x = rng.uniform(-2.0, 2.0, size=2)
        lhs, rhs = hyperplane_identity(cfg, a, b, x)
        worst = max(worst, abs(lhs - rhs))
        # the 4r prefactor variant misses by exactly 4r / sqrt(2r)
        literal = lhs * 4.0 * r / cfg.kappa
        ratio_dev = max(ratio_dev, abs(literal / rhs - 4.0 * r / cfg.kappa))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and ratio_dev <= 1e-4 and elapsed < 30.0
    assert _acc(4, ok, "line integral balanced by sqrt(2r) prefactor to 1e-6 "
                       "on 20 random (a,b,x); 4r variant off by the predicted "
                       "constant (%.2fs)" % elapsed)


@pytest.mark.xfail(strict=True,
                   reason="a 4r prefactor does not balance the identity for "
                          "any r; the balancing constant is sqrt(2r)")
def test_criterion_04_prefactor_4r_literal():
    rng = np.random.default_rng(7)
    for i in range(20):
        r = 0.5 if i % 2 else 1.0
        cfg = KillingConfig(r, 2)
        th = rng.uniform(0.0, 2.0 * math.pi)
        a = (cfg.kappa * math.cos(th), cfg.kappa * math.sin(th))
        b = rng.uniform(-1.5, 1.5)
        x = rng.uniform(-2.0, 2.0, size=2)
        lhs, rhs = hyperplane_identity(cfg, a, b, x)
        literal = lhs * 4.0 * r / cfg.kappa  # 4r times the raw line integral
        assert abs(literal - rhs) <= 1e-6


def test_criterion_05_radial_moment():
    t0 = time.perf_counter()
    rng = np.random.default_rng(15)
    worst = 0.0
    for i in range(500):
        d = int(rng.integers(2, 4))
        rho = rng.uniform(0.05, 8.0)
        gam = rng.uniform(-3.0, 3.0)
        if i % 3 == 0:
            gam = rng.uniform(-0.4, 0.4) / rho  # small |gamma| rho
        beta = rng.uniform(0.2, 4.0)
        ref = quad(lambda s: math.exp(gam * s) * (s * s - beta * beta) * s ** (d - 1),
                   0.0, rho)
        got = radial_moment(d, rho, gam, beta)
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-30))
    moment_ok = worst <= 1e-10

    deriv_worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 4))
        rho = rng.uniform(0.3, 6.0)
        gam = rng.uniform(-2.0, 2.0)
        beta = rng.uniform(0.2, 3.0)
        h = 1e-6 * max(1.0, rho)
        fd = (radial_moment(d, rho + h, gam, beta)
              - radial_moment(d, rho - h, gam, beta)) / (2.0 * h)
        deriv_worst = max(deriv_worst,
                          abs(radial_moment_drho(d, rho, gam, beta) - fd)
                          / max(1.0, abs(fd)))
    deriv_ok = deriv_worst <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = moment_ok and deriv_ok and elapsed < 5.0
    assert _acc(5, ok, "radial moment vs adaptive quadrature, 500 "
                       "cases rel %.1e; derivative vs FD %.1e (%.2fs)"
                % (worst, deriv_worst, elapsed))


def test_criterion_06_symmetric_2d_solve():
    t0 = time.perf_counter()
    p = QuadraticProblem(1.0, (1.0, 1.0))
    # cold start from the generic inflated ellipse, so the solve is
    # independent of the oracle it is compared against
    b, rep = solve_boundary(p, make_circle_grid(64), homotopy_steps=0)
    R = symmetric_radius(2, 1.0)
    rp = bessel2_policy_iteration_radius(1.0)
    spread = float(np.ptp(b.radii))
    bias = abs(float(b.radii.mean()) - R)
    pi_gap = abs(rp - R)
    elapsed = time.perf_counter() - t0
    ok = (rep.converged and spread <= 1e-6 and bias <= 1e-4
          and pi_gap <= 1e-3 and elapsed < 30.0)
    assert _acc(6, ok, "symmetric d=2 solve: spread %.1e, oracle bias %.1e, "
                       "oracle vs policy iteration %.1e (%.1fs)"
                % (spread, bias, pi_gap, elapsed))


def test_criterion_07_symmetric_3d_solve():
    t0 = time.perf_counter()
    p = QuadraticProblem(0.5, (1.0, 1.0, 1.0))
    b, rep = solve_boundary(p, make_sphere_grid(16, 32), homotopy_steps=0)
    w = symmetric_radius(3, 0.5)
    root_ok = abs(math.tanh(w) - w / 3.0) <= 1e-12
    worst = float(np.max(np.abs(b.radii - w)))
    elapsed = time.perf_counter() - t0
    ok = rep.converged and root_ok and worst <= 1e-3 and elapsed < 300.0
    assert _acc(7, ok, "symmetric d=3 solve on 16x32 grid matches tanh(w)=w/3 "
                       "radius, max dev %.1e (%.1fs)" % (worst, elapsed))


def test_criterion_08_asymmetric_2d_solve():
    t0 = time.perf_counter()
    grid = make_circle_grid(64)
    n = 64
    flip_x = (n - np.arange(n)) % n
    flip_y = (n // 2 - np.arange(n)) % n
    ok = True
    betas = {}
    for r in (1.0, 0.3):
        p = QuadraticProblem(r, (1.0, 4.0))
        b, rep = solve_boundary(p, grid)
        chk = class_membership_check(p, b)
        betas[r] = p.beta
        ok = ok and rep.converged
        ok = ok and bool(np.all(b.radii >= p.beta))
        ok = ok and float(np.max(np.abs(b.radii - b.radii[flip_x]))) <= 1e-6
        ok = ok and float(np.max(np.abs(b.radii - b.radii[flip_y]))) <= 1e-6
        ok = ok and chk.passed and chk.box_ok
    ok = ok and abs(betas[1.0] - math.sqrt(5.0)) <= 1e-12
    ok = ok and abs(betas[0.3] - math.sqrt(5.0 / 0.3)) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    assert _acc(8, ok, "lambda=(1,4) solves at r=1 and r=0.3: converged, "
                       "contain the negative set, mirror-symmetric, class "
                       "checks pass (%.1fs)" % elapsed)


def test_criterion_09_green_martin_equivalence():
    t0 = time.perf_counter()
    p = QuadraticProblem(1.0, (1.0, 4.0))
    b, rep = solve_boundary(p, make_circle_grid(64))
    assert rep.converged
    pts = b.cartesian_points(p)
    worst_b = max(abs(green_residual_normalized(p, b, x)) for x in pts)
    exterior = [1.3 * pts[0], 1.6 * pts[9], 2.0 * pts[16], 1.4 * pts[33],
                1.8 * pts[50]]
    worst_e = max(abs(green_residual_normalized(p, b, x)) for x in exterior)
    elapsed = time.perf_counter() - t0
    ok = worst_b <= 1e-3 and worst_e <= 1e-5 and elapsed < 300.0
    assert _acc(9, ok, "normalized Green residual on the Martin-solved "
                       "boundary: nodes %.1e, exterior %.1e (%.1fs)"
                % (worst_b, worst_e, elapsed))


def test_criterion_10_value_consistency():
    t0 = time.perf_counter()
    grid = make_circle_grid(64)
    mc = MCConfig(paths=100_000, seed=0)
    ok = True
    details = []
    for lam in ((1.0, 1.0), (1.0, 4.0)):
        p = QuadraticProblem(1.0, lam)
        b, rep = solve_boundary(p, grid)
        assert rep.converged
        recon = value(p, b, np.zeros(2))
        walk = {}
        est, err = mc_value(p, b, np.zeros(2), mc, walk)
        tol = 3.0 * err + walk["shell"] * walk["lipschitz"]
        ok = ok and abs(recon - est) <= tol
        gap = majorant_gap_scan(p, b, interior_scan_grid(p, b, n=40))
        ok = ok and gap >= -1e-4
        details.append("%s: |diff| %.1e <= %.1e, gap %.1e"
                       % (lam, abs(recon - est), tol, gap))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    assert _acc(10, ok, "MC value vs reconstruction and majorant scan; "
                        + "; ".join(details) + " (%.1fs)" % elapsed)


def test_criterion_11_green_measure_identity():
    t0 = time.perf_counter()
    mc = MCConfig(paths=40_000, seed=7)
    configs = (
        (KillingConfig(1.0, 2), ((0.8, 1.6), (-0.3, 0.5)), np.zeros(2), 2.5),
        (KillingConfig(1.0, 2), ((-1.2, -0.4), (0.2, 1.0)),
         np.array([0.5, 0.0]), 3.0),
        (KillingConfig(0.5, 2), ((0.5, 1.5), (-0.5, 0.5)), np.zeros(2), 2.0),
    )
    sigmas = []
    for cfg, rect, x, disc in configs:
        lhs, rhs, err = green_measure_identity_check(cfg, rect, x, disc, mc,
                                                     time_step=5e-4, horizon=30.0)
        sigmas.append(abs(lhs - rhs) / err)
    elapsed = time.perf_counter() - t0
    ok = max(sigmas) <= 4.0 and elapsed < 120.0
    assert _acc(11, ok, "occupation-measure identity within 4 stderr on 3 "
                        "geometries (%.1f, %.1f, %.1f sigma; %.1fs)"
                % (*sigmas, elapsed))


def test_criterion_12_radial_form_audit_report(tmp_path):
    audit = radial_form_audit()
    out = tmp_path / "radial_form_audit.json"
    write_json_report(out, audit)
    doc_ok = (out.exists() and audit["configs"]
              and "delta_identity" in audit and "conclusion" in audit)
    same = out.read_bytes() == AUDIT_REPORT.read_bytes()
    assert _acc(12, bool(doc_ok) and same,
                "alternative radial-form audit written to %s, %s the committed "
                "reports/radial_form_audit.json" % (out, "equal to" if same else "DIFFERENT from"))
