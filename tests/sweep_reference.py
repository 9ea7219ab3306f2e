"""Polar area sweep: an independent reference for the Green integrals over C.

E(x) = integral over C of G_r(x, y) (r - L)g(y) dy, computed by a local
polar sweep around x: rays cast from x, boundary crossings located by a
dense scan plus lockstep bisection against the trigonometric interpolant
of rho(theta), and the radial factor integrated with Gauss-Legendre
panels graded geometrically toward s = 0, where K_0's logarithmic
singularity lives.  It shares no code with the package's boundary
integrals except the kernel itself, so the tests use it as an oracle at
a handful of points (about 0.3 s per point).
"""

import numpy as np

from quadstop.kernels import KillingConfig, green_kernel_radial
from quadstop.verification import _GL16_W, _GL16_X
from reference import excess_generator


def trig_eval(radii, theta):
    """Trigonometric interpolant of equispaced radii at theta, mode by mode."""
    n = radii.size
    coeffs = np.fft.rfft(radii) / n
    theta = np.asarray(theta, dtype=float)
    out = np.full(theta.shape, coeffs[0].real)
    for k in range(1, (n + 1) // 2):
        out += 2.0 * (coeffs[k].real * np.cos(k * theta) - coeffs[k].imag * np.sin(k * theta))
    if n % 2 == 0:
        out += coeffs[n // 2].real * np.cos(n // 2 * theta)
    return out


def inside(p, b, pts):
    z = pts * p.sqrt_lam
    rho = np.sqrt((z * z).sum(axis=-1))
    theta = np.arctan2(z[..., 1], z[..., 0])
    return rho < trig_eval(b.radii, theta)


def ray_segments_star(p, b, x, n_rays, n_scan):
    """Inside-C intervals (s0, s1, ray) along rays from x, refined by bisection."""
    psi = 2.0 * np.pi * (np.arange(n_rays) + 0.5) / n_rays
    dirs = np.stack([np.cos(psi), np.sin(psi)], axis=1)
    points = b.cartesian_points(p)
    s_max = 1.05 * float(np.max(np.sqrt(((points - x) ** 2).sum(axis=1))))
    if s_max == 0.0:
        return dirs, []
    s_grid = np.linspace(s_max / n_scan, s_max, n_scan)
    flags = inside(p, b, x + s_grid[None, :, None] * dirs[:, None, :])
    state0 = bool(inside(p, b, x[None, :])[0])
    prev = np.concatenate([np.full((n_rays, 1), state0), flags[:, :-1]], axis=1)
    ray_idx, col = np.nonzero(flags != prev)
    lo = np.where(col == 0, 0.0, s_grid[np.maximum(col - 1, 0)])
    hi = s_grid[col]
    state_lo = prev[ray_idx, col]
    for _ in range(44):
        mid = 0.5 * (lo + hi)
        go_lo = inside(p, b, x + mid[:, None] * dirs[ray_idx]) == state_lo
        lo = np.where(go_lo, mid, lo)
        hi = np.where(go_lo, hi, mid)
    cross = 0.5 * (lo + hi)

    segments = []
    order = np.lexsort((cross, ray_idx))
    ray_sorted = ray_idx[order]
    cross_sorted = cross[order]
    bounds = np.searchsorted(ray_sorted, np.arange(n_rays + 1))
    for k in range(n_rays):
        state = state0
        s_prev = 0.0
        for c in cross_sorted[bounds[k]:bounds[k + 1]]:
            if state:
                segments.append((s_prev, float(c), k))
            state = not state
            s_prev = float(c)
        if state:
            segments.append((s_prev, s_max, k))
    return dirs, segments


def radial_panels(s0, s1, ray, kappa):
    """(lo, hi, ray) of the radial panels: graded toward s = 0, else linspace panels."""
    lo, hi, out_ray = [], [], []
    for a, b, k in zip(s0, s1, ray):
        if b <= a:
            continue
        if a <= 1e-9 * b:
            cuts = [b * 0.25 ** level for level in range(8)]
            panels = [(cuts[j + 1], cuts[j]) for j in range(7)] + [(a, cuts[-1])]
        else:
            cuts = np.linspace(a, b, max(1, min(64, int(np.ceil((b - a) * kappa)))) + 1)
            panels = list(zip(cuts[:-1], cuts[1:]))
        for p_lo, p_hi in panels:
            if p_hi > p_lo:
                lo.append(p_lo)
                hi.append(p_hi)
                out_ray.append(k)
    return np.array(lo), np.array(hi), np.array(out_ray, dtype=int)


def sweep_integrals(p, b, x, n_rays=720, n_scan=256):
    """(integral of G f, integral of G) over C from x, f = (r - L)g."""
    x = np.asarray(x, dtype=float)
    cfg = KillingConfig(p.r, 2)
    dirs, segments = ray_segments_star(p, b, x, n_rays, n_scan)
    if not segments:
        return 0.0, 0.0
    s0, s1, ray = (np.array(col) for col in zip(*segments))
    lo, hi, ray = radial_panels(s0, s1, ray, cfg.kappa)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    s_flat = (mid[:, None] + half[:, None] * _GL16_X).ravel()
    pts = x + s_flat[:, None] * dirs[np.repeat(ray, 16)]
    kern = green_kernel_radial(cfg, s_flat) * s_flat
    f_vals = excess_generator(p, pts)
    int_f = ((kern * f_vals).reshape(-1, 16) @ _GL16_W) * half
    int_1 = (kern.reshape(-1, 16) @ _GL16_W) * half
    w_ang = 2.0 * np.pi / dirs.shape[0]
    return float(int_f.sum() * w_ang), float(int_1.sum() * w_ang)
