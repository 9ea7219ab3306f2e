"""Batch command line interface.

Subcommands: solve, verify, plot, kernel, oracle.  Exit codes:
0 success, 1 usage or I/O error, 2 solver non-convergence (outputs are
still written with diagnostics, and a `stop:` line names why the last
stage ended), 3 verification below thresholds.

Every subcommand but oracle accepts --config pointing at a JSON file.
`_CONFIG_FLAGS` maps each config key to the flag it stands for; one
file may serve every subcommand, and a key that no subcommand knows is
a usage error.  The file's values are parsed as flags placed before the
user's own, so they are checked as the flags are, flags override them,
and they override the library's defaults.  verify and plot take the
problem from the boundary file, never from flags or config; verify's
verdict is `VerificationReport.passed`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .dataio import (load_boundary_csv, read_problem_csv, save_boundary_csv,
                     svg_boundary_plot, write_json_report)
from .grids import make_circle_grid, make_sphere_grid
from .problem import QuadraticProblem, symmetric_radius


class CliError(Exception):
    pass


# A command imports only the layers it uses, on call: solve never compiles the
# verification, verify never loads the solver.  These two stay attributes of
# this module so that a caller can wrap them here (perfbench/tracer.py does).
def solve_boundary(*args, **kwargs):
    from .martin_solver import solve_boundary
    return solve_boundary(*args, **kwargs)


def run_verification(*args, **kwargs):
    from .verification import run_verification
    return run_verification(*args, **kwargs)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # no prefix matching, so verify rejects --r instead of reading it as --report
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _vector(text):
    """The argparse type of --lambdas, --a and --y: comma-separated numbers."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated numbers, got %r" % text)


def _positive_int(text):
    """The argparse type of --n-rays: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def _given(args, *names):
    """The named settings that a flag or the config file set; the rest keep library defaults."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _load_boundary(path):
    """(problem, boundary) of a boundary CSV; the problem is its metadata line's, of the rows' d."""
    if not os.path.exists(path):
        raise CliError("boundary file not found: %s" % path)
    p, boundary = read_problem_csv(path), load_boundary_csv(path)
    if p.d != boundary.grid.d:
        raise CliError("%s: the problem line has d = %d but the rows form a d = %d grid"
                       % (path, p.d, boundary.grid.d))
    return p, boundary


def cmd_solve(args) -> int:
    if args.r is None or args.lambdas is None:
        raise CliError("a problem needs --r and --lambdas (flags or config problem section)")
    p = QuadraticProblem(args.r, tuple(args.lambdas))
    if p.d not in (2, 3):
        raise CliError("--lambdas gives d = %d; solve supports d in {2, 3}" % p.d)
    grid = make_circle_grid(args.n) if p.d == 2 else make_sphere_grid(args.n_lat, args.n_lon)
    boundary, report = solve_boundary(p, grid, **_given(args, "homotopy_steps"))
    out = args.out
    report_path = args.report or os.path.splitext(out)[0] + ".report.json"
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
    if not report.converged:
        print("stop: %s" % report.stop)
    return 0 if report.converged else 2


def cmd_verify(args) -> int:
    from .verification import THRESHOLDS, MCConfig
    mc = MCConfig(**_given(args, "paths", "seed"))
    p, boundary = _load_boundary(args.boundary)
    report = run_verification(p, boundary, mc, **_given(args, "scan_n", "n_rays"))
    checks = report.checks
    write_json_report(args.report, {
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
    print("report=%s" % args.report)
    return 0 if report.passed else 3


def cmd_plot(args) -> int:
    p, boundary = _load_boundary(args.boundary)
    svg_boundary_plot(args.out, p, boundary)
    print("plot=%s" % args.out)
    return 0


def cmd_kernel(args) -> int:
    from .kernels import KillingConfig, green_kernel_radial, martin_kernel
    for flag in ("a", "y") if args.which == "green" else ("dist",):
        if getattr(args, flag) is not None:
            raise CliError("kernel %s does not take --%s" % (args.which, flag))
    if args.which == "green":
        if args.dist is None:
            raise CliError("kernel green needs --dist")
        d = 2 if args.d is None else args.d
        print("%.12g" % green_kernel_radial(KillingConfig(args.r, d), args.dist))
        return 0
    if args.a is None or args.y is None:
        raise CliError("kernel martin needs --a and --y")
    a_vec, y = np.asarray(args.a), np.asarray(args.y)
    if a_vec.shape != y.shape:
        raise CliError("--a and --y must have the same dimension")
    if args.d is not None and args.d != a_vec.size:
        raise CliError("--d %d does not match the dimension %d of --a" % (args.d, a_vec.size))
    kcfg = KillingConfig(args.r, a_vec.size)
    norm = np.linalg.norm(a_vec)
    if norm == 0.0:
        raise CliError("zero vector has no direction")
    print("%.12g" % martin_kernel(kcfg, kcfg.kappa * a_vec / norm, y))
    return 0


def cmd_oracle(args) -> int:
    print("%.12g" % symmetric_radius(args.d, args.r))
    return 0


# config key section.key -> the flag it stands for, per subcommand.  One file
# may serve every subcommand: each takes its own keys and skips the others'.
_CONFIG_FLAGS = {
    "solve": {"problem.r": "--r", "problem.lambdas": "--lambdas", "grid.n": "--n",
              "grid.n_lat": "--n-lat", "grid.n_lon": "--n-lon",
              "solver.homotopy_steps": "--homotopy-steps",
              "output.boundary_csv": "--out", "output.report_json": "--report"},
    "verify": {"verify.paths": "--paths", "verify.seed": "--seed", "verify.scan_n": "--scan-n",
               "verify.n_rays": "--n-rays"},
    "plot": {"output.plot_svg": "--out"},
    "kernel": {"problem.r": "--r"},
}


def _config_tokens(path, command):
    """[(key, "--flag=value")] for each of `command`'s keys set in the JSON file at `path`.

    Keys no subcommand knows are usage errors.  null means not set, and
    problem.lambdas, the one list, is a JSON array.
    """
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise CliError("config: %s" % exc)
    except json.JSONDecodeError as exc:
        raise CliError("%s: invalid JSON (%s)" % (path, exc))
    if not isinstance(cfg, dict):
        raise CliError("%s: config root must be a JSON object" % path)
    known = set().union(*_CONFIG_FLAGS.values())
    tokens = []
    for section, entries in cfg.items():
        if not isinstance(entries, dict):
            raise CliError("%s: config section %r must be a JSON object" % (path, section))
        for name, value in entries.items():
            key = "%s.%s" % (section, name)
            if key not in known:
                raise CliError("%s: unknown config key %r (known: %s)"
                               % (path, key, ", ".join(sorted(known))))
            if key == "problem.lambdas" and isinstance(value, list):
                value = ",".join(map(str, value))
            elif isinstance(value, (dict, list)):
                raise CliError("%s: config key %r needs a single value" % (path, key))
            if value is not None and key in _CONFIG_FLAGS[command]:
                tokens.append((key, "%s=%s" % (_CONFIG_FLAGS[command][key], value)))
    return tokens


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: a parse leaves no state in it."""
    parser = _Parser(prog="quadstop",
                     description="optimal stopping boundaries for quadratic rewards")
    subs = parser.add_subparsers(dest="command", required=True)
    config_help = "JSON config file; flags override its values"

    s = subs.add_parser("solve", help="solve for the stopping boundary")
    s.add_argument("--config", help=config_help)
    s.add_argument("--r", type=float, help="discount rate")
    s.add_argument("--lambdas", type=_vector, help="comma-separated reward weights")
    s.add_argument("--n", type=int, default=64, help="circle grid size (d = 2)")
    s.add_argument("--n-lat", dest="n_lat", type=int, default=16)
    s.add_argument("--n-lon", dest="n_lon", type=int, default=32)
    s.add_argument("--homotopy-steps", dest="homotopy_steps", type=int)
    s.add_argument("--out", default="boundary.csv", help="boundary CSV path")
    s.add_argument("--report", help="solve report JSON path")
    s.set_defaults(func=cmd_solve)

    s = subs.add_parser("verify", help="certify a boundary file")
    s.add_argument("--config", help=config_help)
    s.add_argument("--boundary", required=True, help="boundary CSV to verify")
    s.add_argument("--paths", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--scan-n", dest="scan_n", type=int)
    s.add_argument("--n-rays", dest="n_rays", type=_positive_int,
                   help="trapezoid nodes on the boundary curve (>= 1); fewer than 8 per "
                        "grid node are raised to that")
    s.add_argument("--report", default="verification.report.json",
                   help="verification report JSON path")
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("plot", help="render a boundary CSV to SVG")
    s.add_argument("--config", help=config_help)
    s.add_argument("--boundary", required=True)
    s.add_argument("--out", default="boundary.svg")
    s.set_defaults(func=cmd_plot)

    s = subs.add_parser("kernel", help="evaluate a kernel at a point")
    s.add_argument("--config", help=config_help)
    s.add_argument("which", choices=("green", "martin"))
    s.add_argument("--r", type=float, default=1.0)
    s.add_argument("--d", type=int, help="dimension (default 2; martin takes it from --a)")
    s.add_argument("--dist", type=float)
    s.add_argument("--a", type=_vector, help="direction, auto-normalized to |a|^2 = 2r")
    s.add_argument("--y", type=_vector)
    s.set_defaults(func=cmd_kernel)

    s = subs.add_parser("oracle", help="evaluate an analytic oracle")
    s.add_argument("which", choices=("sym-radius",))
    s.add_argument("--r", type=float, default=1.0)
    s.add_argument("--d", type=int, default=2)
    s.set_defaults(func=cmd_oracle)

    return parser


def _parse(parser, argv):
    """Parse argv, with the config file's values put in front of the user's own flags.

    Argparse thus converts and checks a file value as it does the flag's,
    and a flag given on the command line overrides it.  The values are
    added one at a time, so that an error names its config key.
    """
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    at = argv.index(args.command) + 1
    head, tail = argv[:at], argv[at:]
    for key, token in _config_tokens(args.config, args.command):
        head.append(token)
        try:
            args = parser.parse_args(head + tail)
        except CliError as exc:
            raise CliError("%s: config key %r: %s" % (args.config, key, exc))
    return args


def main(argv=None) -> int:
    try:
        args = _parse(build_parser(), sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse -h
        code = exc.code
        return 0 if code is None else int(code)


if __name__ == "__main__":
    sys.exit(main())
