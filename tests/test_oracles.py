import math

import numpy as np
import pytest

from quadstop.kernels import KillingConfig, green_kernel_radial
from quadstop.problem import symmetric_radius
from reference import bessel2_policy_iteration_radius, resolvent_time_quadrature

# smooth-fit radii, frozen from the root solves (independent of the solver)
R_SYM_2D_R1 = 1.8274465007568879
R_SYM_3D_R05 = 2.984704585357887


@pytest.mark.parametrize("d,r", [(2, 0.5), (2, 1.0), (3, 0.5), (3, 1.0)])
def test_resolvent_time_quadrature_matches_green(d, r):
    cfg = KillingConfig(r=r, d=d)
    x = np.zeros(d)
    for s in (0.3, 1.0, 2.5):
        y = np.zeros(d)
        y[0] = s
        ref = green_kernel_radial(cfg, s)
        assert resolvent_time_quadrature(x, y, r) == pytest.approx(ref, rel=1e-10)


def test_symmetric_radius_frozen():
    assert symmetric_radius(2, 1.0) == pytest.approx(R_SYM_2D_R1, rel=1e-12)
    assert symmetric_radius(3, 0.5) == pytest.approx(R_SYM_3D_R05, rel=1e-12)


def test_symmetric_radius_root_property():
    # d=2: w I1(w) = 2 I0(w); d=3: tanh(w) = w/3, with w = sqrt(2r) R
    import scipy.special as sps
    for r in (0.3, 1.0, 2.0):
        w = math.sqrt(2.0 * r) * symmetric_radius(2, r)
        assert w * sps.i1(w) == pytest.approx(2.0 * sps.i0(w), rel=1e-10)
        w3 = math.sqrt(2.0 * r) * symmetric_radius(3, r)
        assert math.tanh(w3) == pytest.approx(w3 / 3.0, rel=1e-10)


def test_symmetric_radius_scale_law():
    # w = sqrt(2r) R solves an r-free equation, so sqrt(2r) R is r-independent
    for d in (2, 3):
        w = [math.sqrt(2.0 * r) * symmetric_radius(d, r) for r in (0.3, 0.5, 1.0, 4.0)]
        assert np.ptp(w) <= 1e-10 * w[0]


def test_symmetric_radius_domain():
    with pytest.raises(ValueError):
        symmetric_radius(4, 1.0)
    with pytest.raises(ValueError):
        symmetric_radius(2, 0.0)


def test_value_iteration_agrees_with_smooth_fit():
    # half the acceptance test's resolution; the discrete free boundary
    # sits within a grid step (3.7e-3 here) of the smooth-fit radius
    radius = bessel2_policy_iteration_radius(1.0, n_grid=2000)
    assert radius == pytest.approx(R_SYM_2D_R1, abs=1.5e-3)
