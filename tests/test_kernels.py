import math

import numpy as np
import pytest
import scipy.special as sps

import quadstop.kernels as kernels
from quadstop.kernels import (KillingConfig, green_kernel_radial, green_kernel_radial_ds,
                              martin_kernel)
from reference import (DiscreteMixture, bessel_K, green_kernel_log_radial, green_ratio,
                       harmonic_mixture, hyperplane_identity, transition_density,
                       uniform_circle_mixture)

E_SQRT2 = 4.1132503787829275  # e^{sqrt 2}
GREEN_3D_R05_S1 = 0.05854983152431917  # e^{-1}/(2 pi)


def _cfg(r=1.0, d=2):
    return KillingConfig(r=r, d=d)


def test_transition_density_values():
    assert transition_density(_cfg(d=2), 1.0, np.zeros(2), np.zeros(2)) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
    assert transition_density(_cfg(d=1), 1.0, np.zeros(1), np.ones(1)) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2.0 * math.pi), rel=1e-14)
    assert transition_density(_cfg(d=3), 0.5, np.zeros(3), np.array([1.0, 0.0, 0.0])) == pytest.approx(
        math.pi ** -1.5 * math.exp(-1.0), rel=1e-14)


def test_transition_density_symmetry_and_chapman_kolmogorov():
    cfg = _cfg(d=2)
    x = np.array([0.3, -0.7])
    y = np.array([1.1, 0.4])
    assert transition_density(cfg, 0.7, x, y) == transition_density(cfg, 0.7, y, x)
    # p(0.5+0.5; x, y) = int p(0.5; x, z) p(0.5; z, y) dz, midpoint rule
    n, ext = 201, 8.0
    zs = np.linspace(-ext, ext, n)
    h = zs[1] - zs[0]
    z1, z2 = np.meshgrid(zs, zs, indexing="ij")
    pts = np.stack([z1.ravel(), z2.ravel()], axis=1)
    px = np.exp(-((pts - x) ** 2).sum(1) / 1.0) / (2.0 * math.pi * 0.5)
    py = np.exp(-((pts - y) ** 2).sum(1) / 1.0) / (2.0 * math.pi * 0.5)
    conv = float((px * py).sum() * h * h)
    assert conv == pytest.approx(transition_density(cfg, 1.0, x, y), rel=1e-6)


def test_transition_density_errors():
    with pytest.raises(ValueError):
        transition_density(_cfg(), 0.0, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        transition_density(_cfg(), 1.0, np.zeros(2), np.zeros(3))


def test_green_kernel_radial_ds():
    # closed forms: d = 2 is -kappa K_1(kappa s)/pi, d = 3 differentiates e^{-ks}/(2 pi s)
    s = np.array([1e-3, 0.2, 1.0, 3.0, 12.0, 30.0])
    k = math.sqrt(2.0)
    np.testing.assert_allclose(green_kernel_radial_ds(_cfg(r=1.0, d=2), s),
                               -k * bessel_K(1, k * s) / math.pi, rtol=1e-13)
    np.testing.assert_allclose(green_kernel_radial_ds(_cfg(r=1.0, d=3), s),
                               -(k / s + 1.0 / s ** 2) * np.exp(-k * s) / (2.0 * math.pi),
                               rtol=1e-13)
    for d in (1, 2, 3):
        cfg = _cfg(r=0.5, d=d)
        h = 1e-5 * s
        fd = (green_kernel_radial(cfg, s + h) - green_kernel_radial(cfg, s - h)) / (2.0 * h)
        np.testing.assert_allclose(green_kernel_radial_ds(cfg, s), fd, rtol=1e-6)
    with pytest.raises(ValueError):
        green_kernel_radial_ds(_cfg(), 0.0)


def test_one_bessel_call_per_radial_kernel(monkeypatch):
    # the benchmark's tracer counts Bessel work by wrapping this attribute
    calls = []
    real = kernels.bessel_K_scaled

    def counting(order, u):
        calls.append((order, np.size(u)))
        return real(order, u)

    monkeypatch.setattr(kernels, "bessel_K_scaled", counting)
    s = np.array([0.1, 1.0, 4.0])
    for d in (2, 3):
        # G needs K_{|d-2|/2}, dG/ds needs K_{d/2}, each from one call
        for fn, order in ((green_kernel_radial, abs(d - 2) / 2), (green_kernel_radial_ds, d / 2)):
            calls.clear()
            fn(_cfg(d=d), s)
            assert calls == [(order, 3)]
            calls.clear()
            fn(_cfg(d=d), 1.0)
            assert calls == [(order, 1)]


def test_green_kernel_closed_forms():
    assert green_kernel_radial(_cfg(r=0.5, d=3), 1.0) == pytest.approx(GREEN_3D_R05_S1, rel=1e-13)
    # d=2: K0(kappa s)/pi
    cfg = _cfg(r=1.0, d=2)
    assert green_kernel_radial(cfg, 1.0) == pytest.approx(bessel_K(0, math.sqrt(2.0)) / math.pi, rel=1e-13)


def test_green_kernel_monotone_and_log_form():
    cfg = _cfg(r=1.0, d=2)
    s = np.geomspace(0.05, 30.0, 50)
    vals = np.array([green_kernel_radial(cfg, float(v)) for v in s])
    assert np.all(np.diff(vals) < 0.0)
    for v in (0.5, 5.0, 50.0):
        assert green_kernel_log_radial(cfg, v) == pytest.approx(
            math.log(green_kernel_radial(cfg, v)) if green_kernel_radial(cfg, v) > 0 else -np.inf,
            rel=1e-10)
    # log form reaches separations where the linear form underflows
    assert green_kernel_radial(cfg, 600.0) == 0.0
    assert green_kernel_log_radial(cfg, 600.0) < -700.0


def test_green_kernel_errors():
    # the distance check lives in the kernel; scipy would map these to inf or nan
    for d in (2, 3):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="distance"):
                green_kernel_radial(_cfg(d=d), bad)
            with pytest.raises(ValueError, match="distance"):
                green_kernel_radial(_cfg(d=d), np.array([1.0, bad]))
    with pytest.raises(ValueError):
        KillingConfig(r=-1.0, d=2)


def test_martin_kernel_validation():
    cfg = _cfg(r=1.0, d=2)
    y = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="dimension 3, expected 2"):
        martin_kernel(cfg, (math.sqrt(2.0), 0.0, 0.0), y)
    with pytest.raises(ValueError, match="finite vector"):
        martin_kernel(cfg, (math.nan, math.sqrt(2.0)), y)
    with pytest.raises(ValueError, match="is not 2r"):
        martin_kernel(cfg, (1.0, 0.0), y)  # |a|^2 = 1 != 2r


def test_martin_kernel_values():
    cfg = _cfg(r=1.0, d=2)
    a = (math.sqrt(2.0), 0.0)
    assert martin_kernel(cfg, a, np.array([0.0, 3.7])) == pytest.approx(1.0, rel=1e-14)
    assert martin_kernel(cfg, a, np.array([1.0, 0.0])) == pytest.approx(E_SQRT2, rel=1e-13)


def test_martin_kernel_is_green_ratio_limit():
    cfg = _cfg(r=1.0, d=2)
    a = (math.sqrt(2.0), 0.0)
    y = np.array([1.0, 1.0])
    ref = martin_kernel(cfg, a, y)
    errs = []
    for n in (1e2, 1e3, 1e4):
        x = np.array([n, 0.0])
        errs.append(abs(green_ratio(cfg, x, y) - ref))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-3 * ref


def test_green_ratio_basics():
    cfg = _cfg(r=1.0, d=2)
    x = np.array([117.0, -3.0])
    assert green_ratio(cfg, x, np.zeros(2)) == pytest.approx(1.0, rel=1e-14)
    # d=2, r=1: ratio at x=(1e3,0), y=(1,0) close to e^{sqrt 2}
    assert green_ratio(cfg, np.array([1e3, 0.0]), np.array([1.0, 0.0])) == pytest.approx(E_SQRT2, rel=1e-2)


def test_green_ratio_bound():
    # ratio <= 2^{(d+3)/2} exp(sqrt(2r) ||y||) for large ||x||
    rng = np.random.default_rng(7)
    for d in (2, 3):
        cfg = _cfg(r=1.0, d=d)
        cap = 2.0 ** ((d + 3) / 2.0)
        for _ in range(25):
            xdir = rng.normal(size=d)
            xdir /= np.linalg.norm(xdir)
            x = xdir * rng.uniform(100.0, 1e4)
            y = rng.normal(size=d)
            y *= rng.uniform(0.0, 2.0) / np.linalg.norm(y)
            ratio = green_ratio(cfg, x, y)
            assert ratio <= cap * math.exp(math.sqrt(2.0) * np.linalg.norm(y))


def test_harmonic_mixture_atoms():
    cfg = _cfg(r=1.0, d=2)
    a = (math.sqrt(2.0), 0.0)
    mu = DiscreteMixture(((a, 1.0),))
    x = np.array([0.4, -1.2])
    assert harmonic_mixture(cfg, mu, x) == pytest.approx(math.exp(math.sqrt(2.0) * 0.4), rel=1e-14)
    mu3 = DiscreteMixture(((a, 0.25), ((0.0, math.sqrt(2.0)), 0.5)))
    assert harmonic_mixture(cfg, mu3, np.zeros(2)) == pytest.approx(0.75, rel=1e-14)
    with pytest.raises(ValueError):
        harmonic_mixture(cfg, DiscreteMixture(()), x)


def test_uniform_mixture_is_bessel_I0():
    cfg = _cfg(r=1.0, d=2)
    mu = uniform_circle_mixture(cfg, 256)
    for x in (np.array([0.7, 0.0]), np.array([0.3, -0.9]), np.array([1.5, 1.1])):
        ref = sps.i0(math.sqrt(2.0) * float(np.linalg.norm(x)))
        assert harmonic_mixture(cfg, mu, x) == pytest.approx(ref, rel=1e-6)


def test_harmonic_mixture_is_r_harmonic():
    # (r - 0.5 lap_h) f -> 0 at O(h^2) under central differences
    cfg = _cfg(r=1.0, d=2)
    mu = uniform_circle_mixture(cfg, 64)
    x = np.array([0.37, -0.21])
    errs = []
    for h in (1e-2, 5e-3):
        lap = 0.0
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            lap += (harmonic_mixture(cfg, mu, x + e) - 2.0 * harmonic_mixture(cfg, mu, x)
                    + harmonic_mixture(cfg, mu, x - e)) / h ** 2
        errs.append(abs(cfg.r * harmonic_mixture(cfg, mu, x) - 0.5 * lap))
    assert errs[0] <= 1e-3
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_hyperplane_identity_contract():
    # corrected-constant identity; the printed 4r factor is audited in acceptance
    rng = np.random.default_rng(42)
    for r in (0.5, 1.0):
        cfg = _cfg(r=r, d=2)
        for _ in range(10):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            a = (cfg.kappa * math.cos(ang), cfg.kappa * math.sin(ang))
            b = rng.uniform(-1.5, 1.5)
            x = rng.normal(size=2)
            lhs, rhs = hyperplane_identity(cfg, a, b, x)
            assert abs(lhs - rhs) <= 1e-6
    # x on H: rhs = 1
    cfg = _cfg(r=1.0, d=2)
    a = (math.sqrt(2.0), 0.0)
    lhs, rhs = hyperplane_identity(cfg, a, 0.0, np.array([0.0, 2.0]))
    assert rhs == 1.0
    assert lhs == pytest.approx(1.0, abs=1e-6)
    # printed example point: rhs = e^{-1}
    _, rhs = hyperplane_identity(cfg, a, 0.0, np.array([1.0 / math.sqrt(2.0), 0.0]))
    assert rhs == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_hyperplane_identity_d3_unsupported():
    cfg = _cfg(r=1.0, d=3)
    a = (math.sqrt(2.0), 0.0, 0.0)
    with pytest.raises(ValueError):
        hyperplane_identity(cfg, a, 0.0, np.zeros(3))
