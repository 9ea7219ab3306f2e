"""Batch command line interface.

Subcommands: solve, verify, plot, kernel, oracle.  Exit codes:
0 success, 1 usage or I/O error, 2 solver non-convergence (outputs are
still written with diagnostics), 3 verification below thresholds.

Every subcommand accepts --config pointing at a JSON file; explicit
flags override config values, which override built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .dataio import (load_boundary_csv, read_problem_csv, save_boundary_csv,
                     svg_boundary_plot, write_json_report)
from .grids import make_circle_grid, make_sphere_grid
from .kernels import KillingConfig, MartinDirection, green_kernel_radial, martin_kernel
from .martin_solver import SolveConfig, solve_boundary
from .problem import load_problem, symmetric_radius
from .verification import MCConfig, run_verification


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise CliError("config: %s" % exc)
    except json.JSONDecodeError as exc:
        raise CliError("%s: invalid JSON (%s)" % (path, exc))
    if not isinstance(cfg, dict):
        raise CliError("%s: config root must be a JSON object" % path)
    return cfg


def _cfg_get(cfg, dotted):
    cur = cfg
    for part in dotted.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


def _pick(flag_value, cfg, dotted, default=None):
    if flag_value is not None:
        return flag_value
    value = _cfg_get(cfg, dotted)
    return default if value is None else value


def _parse_vec(text, name):
    try:
        return [float(v) for v in str(text).split(",")]
    except ValueError:
        raise CliError("%s: expected comma-separated numbers, got %r" % (name, text))


def _problem_from(args, cfg, fallback_csv=None):
    r = _pick(getattr(args, "r", None), cfg, "problem.r")
    lambdas = getattr(args, "lambdas", None)
    if lambdas is None:
        lambdas = _cfg_get(cfg, "problem.lambdas")
    elif isinstance(lambdas, str):
        lambdas = _parse_vec(lambdas, "--lambdas")
    if r is None and lambdas is None and fallback_csv is not None:
        # boundary CSVs carry their problem line, so plot/verify run bare
        try:
            return read_problem_csv(fallback_csv)
        except ValueError as exc:
            raise CliError(str(exc))
    if r is None or lambdas is None:
        raise CliError("a problem needs --r and --lambdas "
                       "(flags, config problem section, or boundary metadata)")
    return load_problem({"r": r, "lambdas": lambdas})


def _grid_from(args, cfg, d):
    if d == 2:
        n = int(_pick(getattr(args, "n", None), cfg, "grid.n", 64))
        return make_circle_grid(n)
    n_lat = int(_pick(getattr(args, "n_lat", None), cfg, "grid.n_lat", 16))
    n_lon = int(_pick(getattr(args, "n_lon", None), cfg, "grid.n_lon", 32))
    return make_sphere_grid(n_lat, n_lon)


_SOLVER_FIELDS = tuple(f.name for f in dataclasses.fields(SolveConfig))


def _solve_config_from(args, cfg):
    kwargs = dict(_cfg_get(cfg, "solver") or {})
    for name in _SOLVER_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    try:
        return SolveConfig(**kwargs)
    except TypeError as exc:
        raise CliError("solver config: %s" % exc)


def cmd_solve(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    p = _problem_from(args, cfg)
    grid = _grid_from(args, cfg, p.d)
    solve_cfg = _solve_config_from(args, cfg)
    boundary, report = solve_boundary(p, grid, solve_cfg)
    out = _pick(args.out, cfg, "output.boundary_csv", "boundary.csv")
    report_path = _pick(args.report, cfg, "output.report_json",
                        os.path.splitext(out)[0] + ".report.json")
    save_boundary_csv(out, p, boundary)
    write_json_report(report_path, {
        "kind": "solve_report",
        "problem": {"r": p.r, "lambdas": list(p.lam)},
        "grid": {"n": grid.n, "d": grid.d, "lat_shape": list(grid.lat_shape)},
        "solve_report": report,
        "radii_min": float(boundary.radii.min()),
        "radii_max": float(boundary.radii.max()),
    })
    print("converged=%s iterations=%d residual_inf=%.3e boundary=%s report=%s"
          % (report.converged, report.iterations, report.residual_inf_norm, out, report_path))
    return 0 if report.converged else 2


def cmd_verify(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    if not os.path.exists(args.boundary):
        raise CliError("boundary file not found: %s" % args.boundary)
    p = _problem_from(args, cfg, fallback_csv=args.boundary)
    boundary = load_boundary_csv(args.boundary)
    mc = MCConfig(
        paths=int(_pick(args.paths, cfg, "verify.paths", 100_000)),
        seed=int(_pick(args.seed, cfg, "verify.seed", 0)),
    )
    scan_n = int(_pick(args.scan_n, cfg, "verify.scan_n", 40))
    n_rays = int(_pick(args.n_rays, cfg, "verify.n_rays", 720))
    report = run_verification(p, boundary, mc, scan_n=scan_n, n_rays=n_rays)

    residual_threshold = float(_pick(args.residual_threshold, cfg,
                                     "verify.residual_threshold", 1e-3))
    gap_threshold = float(_pick(None, cfg, "verify.gap_threshold", 1e-4))
    mc_sigmas = float(_pick(None, cfg, "verify.mc_sigmas", 4.0))
    residual_max = float(np.max(np.abs(report.boundary_residuals)))
    # sampling error plus the walk's stopping-shell bias, shell * lipschitz
    walk = report.mc_walk
    mc_tol = mc_sigmas * report.mc_stderr + walk["shell"] * walk["lipschitz"]
    checks = {
        "class_check": bool(report.class_check.passed),
        "residual": residual_max <= residual_threshold,
        "majorant": report.majorant_min_gap >= -gap_threshold,
        "mc_consistency": abs(report.mc_value - report.reconstructed_value) <= mc_tol,
    }
    report_path = _pick(args.report, cfg, "output.report_json", "verification.report.json")
    write_json_report(report_path, {
        "kind": "verification_report",
        "problem": {"r": p.r, "lambdas": list(p.lam)},
        "report": report,
        "residual_max": residual_max,
        "mc_tolerance": float(mc_tol),
        "thresholds": {
            "residual": residual_threshold,
            "majorant_gap": gap_threshold,
            "mc_sigmas": mc_sigmas,
        },
        "checks": checks,
    })
    for name, ok in sorted(checks.items()):
        print("%s: %s" % (name, "pass" if ok else "FAIL"))
    print("report=%s" % report_path)
    return 0 if all(checks.values()) else 3


def cmd_plot(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    if not os.path.exists(args.boundary):
        raise CliError("boundary file not found: %s" % args.boundary)
    p = _problem_from(args, cfg, fallback_csv=args.boundary)
    boundary = load_boundary_csv(args.boundary)
    out = _pick(args.out, cfg, "output.plot_svg", "boundary.svg")
    svg_boundary_plot(out, p, boundary)
    print("plot=%s" % out)
    return 0


def cmd_kernel(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    if args.which == "green":
        r = float(_pick(args.r, cfg, "problem.r", 1.0))
        d = int(args.d if args.d is not None else 2)
        dist = args.dist
        if dist is None:
            raise CliError("kernel green needs --dist")
        kcfg = KillingConfig(r, d)
        print("%.12g" % green_kernel_radial(kcfg, float(dist)))
        return 0
    if args.which == "martin":
        r = float(_pick(args.r, cfg, "problem.r", 1.0))
        if args.a is None or args.y is None:
            raise CliError("kernel martin needs --a and --y")
        a_vec = np.asarray(_parse_vec(args.a, "--a"), dtype=float)
        y = np.asarray(_parse_vec(args.y, "--y"), dtype=float)
        if a_vec.shape != y.shape:
            raise CliError("--a and --y must have the same dimension")
        kcfg = KillingConfig(r, a_vec.size)
        direction = MartinDirection.from_unit(kcfg, a_vec)
        print("%.12g" % martin_kernel(kcfg, direction, y))
        return 0
    raise CliError("unknown kernel %r" % args.which)


def cmd_oracle(args) -> int:
    if args.which == "sym-radius":
        r = float(args.r if args.r is not None else 1.0)
        d = int(args.d if args.d is not None else 2)
        print("%.12g" % symmetric_radius(d, r))
        return 0
    raise CliError("unknown oracle %r" % args.which)


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")


def _add_problem_flags(sub):
    sub.add_argument("--r", type=float, default=None, help="discount rate")
    sub.add_argument("--lambdas", default=None, help="comma-separated reward weights")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quadstop",
                     description="optimal stopping boundaries for quadratic rewards")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("solve", help="solve for the stopping boundary")
    _add_common(s)
    _add_problem_flags(s)
    s.add_argument("--n", type=int, default=None, help="circle grid size (d = 2)")
    s.add_argument("--n-lat", dest="n_lat", type=int, default=None)
    s.add_argument("--n-lon", dest="n_lon", type=int, default=None)
    s.add_argument("--max-iterations", dest="max_iterations", type=int, default=None)
    s.add_argument("--residual-tol", dest="residual_tol", type=float, default=None)
    s.add_argument("--homotopy-steps", dest="homotopy_steps", type=int, default=None)
    s.add_argument("--out", default=None, help="boundary CSV path")
    s.add_argument("--report", default=None, help="solve report JSON path")
    s.set_defaults(func=cmd_solve)

    s = subs.add_parser("verify", help="certify a boundary file")
    _add_common(s)
    _add_problem_flags(s)
    s.add_argument("--boundary", required=True, help="boundary CSV to verify")
    s.add_argument("--paths", type=int, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--scan-n", dest="scan_n", type=int, default=None)
    s.add_argument("--n-rays", dest="n_rays", type=int, default=None,
                   help="trapezoid nodes on the boundary curve, at least 8 per grid node")
    s.add_argument("--residual-threshold", dest="residual_threshold",
                   type=float, default=None)
    s.add_argument("--report", default=None, help="verification report JSON path")
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("plot", help="render a boundary CSV to SVG")
    _add_common(s)
    _add_problem_flags(s)
    s.add_argument("--boundary", required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_plot)

    s = subs.add_parser("kernel", help="evaluate a kernel at a point")
    _add_common(s)
    s.add_argument("which", choices=("green", "martin"))
    s.add_argument("--r", type=float, default=None)
    s.add_argument("--d", type=int, default=None)
    s.add_argument("--dist", type=float, default=None)
    s.add_argument("--a", default=None, help="direction, auto-normalized to |a|^2 = 2r")
    s.add_argument("--y", default=None)
    s.set_defaults(func=cmd_kernel)

    s = subs.add_parser("oracle", help="evaluate an analytic oracle")
    _add_common(s)
    s.add_argument("which", choices=("sym-radius",))
    s.add_argument("--r", type=float, default=None)
    s.add_argument("--d", type=int, default=None)
    s.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse -h
        code = exc.code
        return 0 if code is None else int(code)


if __name__ == "__main__":
    sys.exit(main())
