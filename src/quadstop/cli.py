"""Batch command line interface.

Subcommands: solve, verify, plot, kernel, oracle.  Exit codes:
0 success, 1 usage or I/O error, 2 solver non-convergence (outputs are
still written with diagnostics), 3 verification below thresholds.

Every subcommand but oracle accepts --config pointing at a JSON file;
flags override config values, which override the library's defaults.
verify and plot take the problem from the boundary file, never from
flags or config; verify's verdict is `VerificationReport.passed`.
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
from .verification import THRESHOLDS, MCConfig, run_verification


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # no prefix matching, so verify rejects --r instead of reading it as --report
        super().__init__(allow_abbrev=False, **kwargs)

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


def _problem_from(args, cfg):
    r = _pick(args.r, cfg, "problem.r")
    lambdas = args.lambdas
    if lambdas is None:
        lambdas = _cfg_get(cfg, "problem.lambdas")
    else:
        lambdas = _parse_vec(lambdas, "--lambdas")
    if r is None or lambdas is None:
        raise CliError("a problem needs --r and --lambdas (flags or config problem section)")
    return load_problem({"r": r, "lambdas": lambdas})


def _load_boundary(path):
    """(problem, boundary) of a boundary CSV; the problem is its metadata line's."""
    if not os.path.exists(path):
        raise CliError("boundary file not found: %s" % path)
    return read_problem_csv(path), load_boundary_csv(path)


def _grid_from(args, cfg, d):
    if d == 2:
        n = int(_pick(getattr(args, "n", None), cfg, "grid.n", 64))
        return make_circle_grid(n)
    n_lat = int(_pick(getattr(args, "n_lat", None), cfg, "grid.n_lat", 16))
    n_lon = int(_pick(getattr(args, "n_lon", None), cfg, "grid.n_lon", 32))
    return make_sphere_grid(n_lat, n_lon)


def _settings(args, cfg, section, names):
    """The `names` set by a flag or else by config `section`; other keys there are usage errors."""
    found = _cfg_get(cfg, section) or {}
    if not isinstance(found, dict):
        raise CliError("%s config: expected a JSON object" % section)
    unknown = sorted(set(found) - set(names))
    if unknown:
        raise CliError("%s config: unknown key %s (known: %s)"
                       % (section, ", ".join(map(repr, unknown)), ", ".join(names)))
    settings = {k: v for k, v in found.items() if v is not None}
    for name in names:
        if getattr(args, name) is not None:
            settings[name] = getattr(args, name)
    return settings


_SOLVER_FIELDS = tuple(f.name for f in dataclasses.fields(SolveConfig))
_VERIFY_KEYS = ("paths", "seed", "scan_n", "n_rays")


def cmd_solve(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    p = _problem_from(args, cfg)
    grid = _grid_from(args, cfg, p.d)
    try:
        solve_cfg = SolveConfig(**_settings(args, cfg, "solver", _SOLVER_FIELDS))
    except TypeError as exc:
        raise CliError("solver config: %s" % exc)
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
    settings = {k: int(v) for k, v in _settings(args, cfg, "verify", _VERIFY_KEYS).items()}
    mc = MCConfig(**{k: settings.pop(k) for k in ("paths", "seed") if k in settings})
    p, boundary = _load_boundary(args.boundary)
    report = run_verification(p, boundary, mc, **settings)
    report_path = _pick(args.report, cfg, "output.report_json", "verification.report.json")
    checks = report.checks
    write_json_report(report_path, {
        "kind": "verification_report",
        "problem": {"r": p.r, "lambdas": list(p.lam)},
        "report": report,
        "residual_max": report.residual_max,
        "mc_tolerance": report.mc_tolerance,
        "thresholds": THRESHOLDS,
        "checks": checks,
    })
    for name, ok in sorted(checks.items()):
        print("%s: %s" % (name, "pass" if ok else "FAIL"))
    print("report=%s" % report_path)
    return 0 if report.passed else 3


def cmd_plot(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    p, boundary = _load_boundary(args.boundary)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quadstop",
                     description="optimal stopping boundaries for quadratic rewards")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("solve", help="solve for the stopping boundary")
    _add_common(s)
    s.add_argument("--r", type=float, default=None, help="discount rate")
    s.add_argument("--lambdas", default=None, help="comma-separated reward weights")
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
    s.add_argument("--boundary", required=True, help="boundary CSV to verify")
    s.add_argument("--paths", type=int, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--scan-n", dest="scan_n", type=int, default=None)
    s.add_argument("--n-rays", dest="n_rays", type=int, default=None,
                   help="trapezoid nodes on the boundary curve, at least 8 per grid node")
    s.add_argument("--report", default=None, help="verification report JSON path")
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("plot", help="render a boundary CSV to SVG")
    _add_common(s)
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
