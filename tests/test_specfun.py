"""The modified Bessel functions behind the kernels: `kernels.bessel_K_scaled`
and the I_0, I_1 of the equation w I1(w) = 2 I0(w) whose root `symmetric_radius`
holds for d = 2, both from scipy.special."""

import math

import numpy as np
import pytest
import scipy.special as sps

from quadstop.kernels import bessel_K_scaled
from reference import bessel_K, bessel_K_log, quad

# frozen reference values (series / closed forms evaluated once, by hand)
K0_1 = 0.4210244382407083
K1_1 = 0.6019072301972346
I0_1 = 1.2660658777520082
I1_1 = 0.565159103992485


def test_half_integer_closed_form():
    # K_{1/2}(u) = sqrt(pi/(2u)) e^{-u}
    for u in np.geomspace(1e-3, 100.0, 60):
        ref = math.sqrt(math.pi / (2.0 * u)) * math.exp(-u)
        assert bessel_K(0.5, u) == pytest.approx(ref, rel=1e-13)


def test_frozen_integer_order_values():
    assert bessel_K(0, 1.0) == pytest.approx(K0_1, rel=1e-13)
    assert bessel_K(1, 1.0) == pytest.approx(K1_1, rel=1e-13)
    assert sps.i0(1.0) == pytest.approx(I0_1, rel=1e-13)
    assert sps.i1(1.0) == pytest.approx(I1_1, rel=1e-13)
    assert sps.i0(0.0) == 1.0
    assert sps.i1(0.0) == 0.0


def test_K0_against_integral_representation():
    # K_0(u) = int_0^inf exp(-u cosh t) dt, truncated where the integrand dies
    for u in (0.5, 1.0, 3.0):
        t_max = math.acosh(745.0 / u)
        ref = quad(lambda t: math.exp(-u * math.cosh(t)), 0.0, t_max)
        assert bessel_K(0, u) == pytest.approx(ref, rel=1e-10)


def test_against_scipy_cross_oracle():
    u = np.geomspace(1e-6, 600.0, 200)
    for order, ref_fn in ((0, sps.k0), (1, sps.k1)):
        vals = np.array([bessel_K(order, float(v)) for v in u])
        assert np.allclose(vals, ref_fn(u), rtol=5e-13, atol=0.0)
    for tw in (1, 3, 5):
        nu = tw / 2.0
        vals = [bessel_K(nu, float(v)) for v in np.geomspace(1e-3, 300, 50)]
        ref = sps.kv(nu, np.geomspace(1e-3, 300, 50))
        assert np.allclose(vals, ref, rtol=1e-12)


def test_half_integer_recurrence():
    # K_{nu+1} = K_{nu-1} + (2 nu / u) K_nu
    for u in np.geomspace(1e-3, 100.0, 40):
        for tw in (1, 3, 5):
            nu = tw / 2.0
            lhs = bessel_K(nu + 1.0, u)
            # K_{-nu} = K_nu covers the nu = 1/2 base case
            rhs = bessel_K(abs(nu - 1.0), u) + (2.0 * nu / u) * bessel_K(nu, u)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_asymptotic_envelope():
    # sqrt(u) e^u K_nu(u) -> sqrt(pi/2) with the first-order error envelope
    root = math.sqrt(math.pi / 2.0)
    for u in (20.0, 35.0, 50.0, 120.0):
        for nu in (0.0, 1.0, 0.5, 1.5):
            val = math.sqrt(u) * bessel_K_scaled(nu, u)
            bound = root * (abs(4.0 * nu * nu - 1.0) / (8.0 * u) + 1.0 / u ** 2)
            assert abs(val - root) <= bound


def test_K0_at_50_matches_limit_to_three_permille():
    val = math.sqrt(50.0) * math.exp(50.0) * bessel_K(0, 50.0)
    assert abs(val / math.sqrt(math.pi / 2.0) - 1.0) <= 3e-3


def test_I0_asymptotic():
    for z in (10.0, 30.0, 200.0):
        assert abs(sps.i0(z) * math.sqrt(2.0 * math.pi * z) * math.exp(-z) - 1.0) <= 0.02


def test_wronskian():
    # I0(u) K1(u) + I1(u) K0(u) = 1/u
    for u in np.geomspace(0.1, 50.0, 60):
        w = sps.i0(u) * bessel_K(1, u) + sps.i1(u) * bessel_K(0, u)
        assert w == pytest.approx(1.0 / u, rel=1e-10)


def test_branch_continuity():
    # K_0 and K_1 are continuous in u: a relative step of 2e-12 across u0
    # moves them by about that step times u0 |K'/K|, with K_0' = -K_1 and
    # K_1' = -K_0 - K_1/u; abs=0, since K_0(16) is only 3.5e-8
    for u0 in (2.0, 16.0):
        k0, k1 = bessel_K(0, u0), bessel_K(1, u0)
        for order, log_slope in ((0, k1 / k0), (1, k0 / k1 + 1.0 / u0)):
            lo = bessel_K(order, u0 * (1.0 - 1e-12))
            hi = bessel_K(order, u0 * (1.0 + 1e-12))
            assert lo == pytest.approx(hi, rel=1.1 * 2e-12 * u0 * log_slope, abs=0.0)


def test_monotone_decreasing_in_u():
    u = np.geomspace(1e-3, 200.0, 80)
    for order in (0, 1, 0.5):
        vals = np.array([bessel_K(order, float(v)) for v in u])
        assert np.all(np.diff(vals) < 0.0)


def test_scaled_and_log_variants():
    for u in (0.5, 5.0, 40.0):
        assert bessel_K_scaled(0, u) == pytest.approx(math.exp(u) * bessel_K(0, u), rel=1e-12)
        assert bessel_K_log(0, u) == pytest.approx(math.log(bessel_K(0, u)), rel=1e-12)
    # log form survives arguments where K itself underflows
    assert bessel_K(0, 800.0) == 0.0
    assert bessel_K_log(0, 800.0) == pytest.approx(-800.0 + math.log(math.sqrt(math.pi / 1600.0)), rel=1e-4)


K_FUNCTIONS = (bessel_K, bessel_K_scaled, bessel_K_log)
K_ORDERS = (0, 1, 0.5, 1.5)


def test_shapes_and_scalar_type():
    # scipy's ufuncs keep the argument's shape; the reference forms return a float for a scalar
    u = np.geomspace(0.1, 20.0, 12).reshape(3, 4)
    for fn in K_FUNCTIONS:
        for order in K_ORDERS:
            out = fn(order, u)
            assert isinstance(out, np.ndarray) and out.shape == (3, 4)
            assert np.array_equal(out.ravel(), [fn(order, float(v)) for v in u.ravel()])
            assert fn(order, np.empty(0)).shape == (0,)
    for fn in (bessel_K, bessel_K_log):
        for order in K_ORDERS:
            assert type(fn(order, 1.5)) is float
