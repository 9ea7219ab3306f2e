"""Correctness checks of `quadstop solve` and `quadstop verify` outputs.

Everything here is computed with numpy and scipy from the files the
CLI writes: no quadstop code is imported.  Each check returns a list of
failure messages; an empty list means the output passed.

Solve outputs (boundary CSV):
  * rho_i >= beta for every node;
  * the radii are mirror-symmetric under every coordinate flip that
    maps the grid onto itself;
  * the Martin equations sum_i w_i int_0^rho_i e^{gamma_ij s}
    (s^2 - beta^2) s^{d-1} ds = 0 hold to MARTIN_TOL of the row scale,
    with the radial integral done by Gauss-Legendre quadrature;
  * symmetric problems: every radius equals the smooth-fit radius,
    the root of w I_1(w) = 2 I_0(w) (d = 2) or tanh w = w/3 (d = 3)
    divided by sqrt(2r);
  * a refined solve agrees with a coarser one at the shared angles.

Verify outputs (verification report JSON):
  * all four checks of the report pass;
  * the reconstructed value at 0, and the Monte Carlo estimate within
    the report's own mc_tolerance, lie between the value of stopping on
    the optimal disc and the value of the r-excessive majorant
    A cosh(kappa x_1) + B cosh(kappa x_2);
  * symmetric problems: both equal R^2 / I_0(kappa R).
"""

from __future__ import annotations

import json

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq
from scipy.special import i0e, i1e

MARTIN_TOL = 1e-9       # the solver's own residual tolerance, relative to the row scale
MARTIN_NODES = 48       # Gauss-Legendre nodes of the radial integral
SYMMETRY_TOL = 1e-9     # relative to the largest radius
SMOOTH_FIT_TOL = 1e-10  # relative, symmetric problems
REFINE_TOL = 5e-5       # relative to the largest radius, n versus 2n
VALUE_TOL = 1e-6        # relative, reconstructed value of a symmetric problem
REPORT_CHECKS = ("class_check", "majorant", "mc_consistency", "residual")


def read_boundary(path):
    """(r, lambdas, nodes, weights, rho) from a boundary CSV.

    d = 2 rows are theta,rho,x1,x2 on the equispaced circle grid;
    d = 3 rows are lat_index,lon_index,rho,x1,x2,x3 on the
    Gauss-Legendre x trapezoid product grid.  The nodes are rebuilt
    from the grid description and must match the written points.
    """
    r = lam = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# problem "):
                fields = dict(tok.split("=", 1) for tok in line[len("# problem "):].split())
                r = float(fields["r"])
                lam = np.array([float(v) for v in fields["lambdas"].split(",")])
            elif line and not line.startswith("#"):
                rows.append(line.split(","))
    header, data = rows[0], np.array(rows[1:], dtype=float)
    if header[:2] == ["theta", "rho"]:
        n = data.shape[0]
        theta = 2.0 * np.pi * np.arange(n) / n
        if np.max(np.abs(data[:, 0] - theta)) > 1e-9:
            raise ValueError("%s: theta column is not the equispaced grid" % path)
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(n, 2.0 * np.pi / n)
        rho, points = data[:, 1], data[:, 2:]
    else:
        lat, lon = data[:, 0].astype(int), data[:, 1].astype(int)
        n_lat, n_lon = lat.max() + 1, lon.max() + 1
        mu, w_mu = leggauss(n_lat)
        phi = 2.0 * np.pi * lon / n_lon
        sin_t = np.sqrt(1.0 - mu[lat] ** 2)
        nodes = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), mu[lat]], axis=1)
        weights = w_mu[lat] * 2.0 * np.pi / n_lon
        rho, points = data[:, 2], data[:, 3:]
    if np.max(np.abs(points * np.sqrt(lam) - rho[:, None] * nodes)) > 1e-9 * rho.max():
        raise ValueError("%s: points do not match rho on the grid" % path)
    return r, lam, nodes, weights, rho


def martin_residual(r, lam, nodes, weights, rho):
    """max_j |R_j| / max_j sum_i w_i |m_ij| of the discrete Martin equations."""
    d = nodes.shape[1]
    beta_sq = lam.sum() / r
    gam = np.sqrt(2.0 * r) * (nodes / np.sqrt(lam)) @ nodes.T
    x, w = leggauss(MARTIN_NODES)
    m = np.zeros_like(gam)
    for xq, wq in zip(x, w):
        s = 0.5 * rho * (xq + 1.0)
        f = 0.5 * rho * wq * (s * s - beta_sq) * s ** (d - 1)
        m += f[:, None] * np.exp(gam * s[:, None])
    res = weights @ m
    scale = np.max(weights @ np.abs(m))
    return float(np.max(np.abs(res)) / scale)


def flip_permutations(nodes):
    """Node index maps of the coordinate flips that map the grid onto itself."""
    for axis in range(nodes.shape[1]):
        flipped = nodes.copy()
        flipped[:, axis] *= -1.0
        dist = np.sqrt(((flipped[:, None, :] - nodes[None, :, :]) ** 2).sum(axis=2))
        perm = np.argmin(dist, axis=1)
        if np.max(dist[np.arange(len(perm)), perm]) <= 1e-9:
            yield perm


def smooth_fit_radius(d, r):
    """Optimal stopping radius of |x|^2 under discount r (symmetric case)."""
    if d == 2:
        w = brentq(lambda t: t * i1e(t) - 2.0 * i0e(t), 1.0, 10.0, xtol=1e-15, rtol=1e-15)
    else:
        w = brentq(lambda t: np.tanh(t) - t / 3.0, 1.0, 10.0, xtol=1e-15, rtol=1e-15)
    return w / np.sqrt(2.0 * r)


def solve_failures(path, coarse_path=None):
    """Failures of a converged solve's boundary CSV (see the module docstring)."""
    r, lam, nodes, weights, rho = read_boundary(path)
    out = []
    beta = np.sqrt(lam.sum() / r)
    if np.min(rho) < beta:
        out.append("rho below beta by %.3e" % (beta - np.min(rho)))
    for perm in flip_permutations(nodes):
        asym = np.max(np.abs(rho - rho[perm])) / rho.max()
        if asym > SYMMETRY_TOL:
            out.append("radii not mirror-symmetric: %.3e" % asym)
    rel = martin_residual(r, lam, nodes, weights, rho)
    if not rel <= MARTIN_TOL:
        out.append("Martin equations off by %.3e of the row scale" % rel)
    if np.all(lam == lam[0]):
        radius = np.sqrt(lam[0]) * smooth_fit_radius(nodes.shape[1], r)
        err = np.max(np.abs(rho - radius)) / radius
        if not err <= SMOOTH_FIT_TOL:
            out.append("symmetric radius off by %.3e" % err)
    if coarse_path is not None:
        _, _, coarse_nodes, _, coarse_rho = read_boundary(coarse_path)
        step = rho.size // coarse_rho.size
        if np.max(np.abs(nodes[::step] - coarse_nodes)) > 1e-12:
            raise ValueError("%s is not a refinement of %s" % (path, coarse_path))
        diff = np.max(np.abs(rho[::step] - coarse_rho)) / rho.max()
        if not diff <= REFINE_TOL:
            out.append("n and 2n radii differ by %.3e" % diff)
    return out


def value_bracket(r, lam):
    """(disc value, majorant value, symmetric exact value or None) at x = 0, d = 2.

    Stopping on the optimal disc of radius R gives (l1 + l2)/2 R^2/I_0(kR)
    from 0, a lower bound.  The majorant sum_k l_k c cosh(k x_k) with
    c = max_x x^2/cosh(k x) is r-excessive and dominates the reward, so
    (l1 + l2) c bounds the value from above.
    """
    kappa = np.sqrt(2.0 * r)
    radius = smooth_fit_radius(2, r)
    disc = radius * radius / (i0e(kappa * radius) * np.exp(kappa * radius))
    u = brentq(lambda t: t * np.tanh(t) - 2.0, 0.5, 10.0, xtol=1e-15, rtol=1e-15)
    c = (u / kappa) ** 2 / np.cosh(u)
    exact = lam[0] * disc if lam[0] == lam[1] else None
    return 0.5 * lam.sum() * disc, lam.sum() * c, exact


def verify_failures(report_path):
    """Failures of a verification report (see the module docstring)."""
    with open(report_path) as fh:
        rep = json.load(fh)
    out = []
    checks = rep.get("checks", {})
    for name in REPORT_CHECKS:
        if checks.get(name) is not True:
            out.append("report check %s did not pass" % name)
    r = float(rep["problem"]["r"])
    lam = np.array(rep["problem"]["lambdas"], dtype=float)
    recon = float(rep["report"]["reconstructed_value"])
    mc = float(rep["report"]["mc_value"])
    tol = float(rep["mc_tolerance"])
    lo, hi, exact = value_bracket(r, lam)
    if not lo <= recon <= hi:
        out.append("reconstructed value %.6g outside [%.6g, %.6g]" % (recon, lo, hi))
    if not lo - tol <= mc <= hi + tol:
        out.append("MC value %.6g +- %.3g outside [%.6g, %.6g]" % (mc, tol, lo, hi))
    if exact is not None:
        if not abs(recon - exact) <= VALUE_TOL * exact:
            out.append("reconstructed value %.10g != R^2/I_0(kR) = %.10g" % (recon, exact))
        if not abs(mc - exact) <= tol:
            out.append("MC value %.6g +- %.3g misses R^2/I_0(kR) = %.6g" % (mc, tol, exact))
    return out
