"""Benchmark of `quadstop solve` and `quadstop verify`, run in process.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 10 --trace 0

Every operation goes through the CLI entry point `quadstop.cli.main`,
writes into a scratch directory under `.perfbench_work/`, and is checked
by `checks.py`.  A run sets up its inputs SETUP_REPEATS times, repeats
whole passes over the workload's operations until --seconds have
elapsed (at least one pass), and sets up SETUP_REPEATS times again.
With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics; with --trace 1 the run makes its untraced passes,
then as many traced passes, and reports the per-layer metrics of
`tracer.py`.  Each run also writes its full record, spans included, to
`.perfbench_results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, fixed before numpy loads.  At the matrix sizes here a
# second OpenBLAS thread made the solves slower at twice the CPU time
# (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3   # before the passes, and as many after them
VERIFY_FLAGS = ("--paths", "8000", "--scan-n", "12")

# (name, unit, better) of the traced run's metrics; BENCHMARK.json lists the same
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("dataio.io_s", "s", "lower"),
    ("martin_solver.self_s", "s", "lower"),
    ("martin_solver.solve_boundary_s", "s", "lower"),
    ("martin_solver.radial_moment_s", "s", "lower"),
    ("martin_solver.radial_moment_calls", "count", "lower"),
    ("martin_solver.radial_moment_entries", "count", "lower"),
    ("martin_solver.jacobian_evals", "count", "lower"),
    ("martin_solver.lstsq_s", "s", "lower"),
    ("martin_solver.lstsq_calls", "count", "lower"),
    ("martin_solver.lstsq_flops", "count", "lower"),
    ("martin_solver.step_accept_ratio", "ratio", "higher"),
    ("martin_solver.homotopy_stages", "count", "lower"),
    ("verification.self_s", "s", "lower"),
    ("verification.run_verification_s", "s", "lower"),
    ("verification.residual_s", "s", "lower"),
    ("verification.residual_points", "count", "lower"),
    ("verification.majorant_s", "s", "lower"),
    ("verification.majorant_points", "count", "lower"),
    ("verification.value_s", "s", "lower"),
    ("verification.sweep_self_s", "s", "lower"),
    ("verification.mc_s", "s", "lower"),
    ("verification.mc_paths", "count", "lower"),
    ("verification.mc_paths_per_s", "1/s", "higher"),
    ("kernels.green_kernel_radial_s", "s", "lower"),
    ("kernels.green_evals", "count", "lower"),
    ("specfun.bessel_K_scaled_s", "s", "lower"),
    ("specfun.bessel_evals", "count", "lower"),
    ("problem.class_check_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.offthread_calls", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
# self times of the seven layers plus the remainder add up to trace.wall_s
PARTITION = ("cli.self_s", "dataio.io_s", "problem.class_check_s", "martin_solver.self_s",
             "verification.self_s", "kernels.green_kernel_radial_s",
             "specfun.bessel_K_scaled_s", "trace.unattributed_s")


def _num(v):
    return "%g" % v


@dataclass(frozen=True)
class Solve:
    """`quadstop solve` at default settings, writing <name>.csv and <name>.report.json."""

    name: str
    r: float
    lambdas: tuple
    grid: tuple            # (n,) for d = 2, (n_lat, n_lon) for d = 3
    cold: bool = False     # --homotopy-steps 0
    refines: str = None    # a solve on half the grid that this one must agree with

    def argv(self, work, seed):
        argv = ["solve", "--r", _num(self.r), "--lambdas", ",".join(map(_num, self.lambdas))]
        if len(self.grid) == 1:
            argv += ["--n", str(self.grid[0])]
        else:
            argv += ["--n-lat", str(self.grid[0]), "--n-lon", str(self.grid[1])]
        if self.cold:
            argv += ["--homotopy-steps", "0"]
        return argv + ["--out", str(work / (self.name + ".csv")),
                       "--report", str(work / (self.name + ".report.json"))]

    def failures(self, work):
        coarse = None if self.refines is None else work / (self.refines + ".csv")
        return checks.solve_failures(work / (self.name + ".csv"), coarse)


@dataclass(frozen=True)
class Verify:
    """`quadstop verify` of the boundary <boundary>.csv made during set-up."""

    boundary: str

    @property
    def name(self):
        return "verify-" + self.boundary

    def argv(self, work, seed):
        return ["verify", "--boundary", str(work / (self.boundary + ".csv")),
                *VERIFY_FLAGS, "--seed", str(seed % 2 ** 32),
                "--report", str(work / (self.name + ".json"))]

    def failures(self, work):
        return checks.verify_failures(work / (self.name + ".json"))


@dataclass(frozen=True)
class Workload:
    setup: tuple   # solves run before timing: warm-up or the boundaries to verify
    ops: tuple


WORKLOADS = {
    "solve": Workload(
        setup=(Solve("warmup-l14-r1-n64", 1.0, (1, 4), (64,)),),
        ops=(
            Solve("l11-r1-n256-cold", 1.0, (1, 1), (256,), cold=True),
            Solve("l14-r1-n128", 1.0, (1, 4), (128,)),
            Solve("l14-r1-n256", 1.0, (1, 4), (256,), refines="l14-r1-n128"),
            Solve("l14-r0.3-n128", 0.3, (1, 4), (128,)),
            Solve("l1_16-r1-n64", 1.0, (1, 16), (64,)),
            Solve("l111-r0.5-16x32-cold", 0.5, (1, 1, 1), (16, 32), cold=True),
            Solve("l123-r0.5-16x32", 0.5, (1, 2, 3), (16, 32)),
            Solve("l123-r0.5-8x16", 0.5, (1, 2, 3), (8, 16)),
        )),
    "verify-r1": Workload(
        setup=(Solve("l11-r1-n16", 1.0, (1, 1), (16,)),
               Solve("l14-r1-n32", 1.0, (1, 4), (32,))),
        ops=(Verify("l11-r1-n16"), Verify("l14-r1-n32"))),
    "verify-r0.3": Workload(
        setup=(Solve("l14-r0.3-n32", 0.3, (1, 4), (32,)),),
        ops=(Verify("l14-r0.3-n32"),)),
}


def run_op(quadstop, op, work, seed, trc=None):
    """Run one CLI operation; returns its record with wall time and failures."""
    argv = op.argv(work, seed)
    out = io.StringIO()
    if trc is not None:
        trc.op = op.name
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = time.perf_counter()
        try:
            rc = quadstop.cli.main(argv)
        except Exception:
            rc = None
            out.write(traceback.format_exc())
        wall = time.perf_counter() - start
    record = {"op": op.name, "argv": argv, "rc": rc, "wall_s": wall, "output": out.getvalue()}
    if rc != 0:
        record["failures"] = ["exit code %s" % rc]
    else:
        try:
            record["failures"] = op.failures(work)
        except (OSError, ValueError, KeyError) as exc:   # missing or malformed output
            record["failures"] = ["unreadable output: %r" % exc]
    # the program reported success but its output failed a check
    record["wrong"] = rc == 0 and bool(record["failures"])
    return record


def set_up(spec, work, seed):
    """Fresh import of quadstop, a fresh work directory and the set-up solves.

    Returns (seconds, quadstop package).  The checks of the set-up
    boundaries run after the clock stops.
    """
    for name in [m for m in sys.modules if m == "quadstop" or m.startswith("quadstop.")]:
        del sys.modules[name]
    start = time.perf_counter()
    quadstop = importlib.import_module("quadstop")
    importlib.import_module("quadstop.cli")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    elapsed = time.perf_counter() - start
    records = [run_op(quadstop, op, work, seed) for op in spec.setup]
    elapsed += sum(rec["wall_s"] for rec in records)
    for rec in records:
        if rec["failures"]:
            raise RuntimeError("set-up solve %s failed: %s\n%s"
                               % (rec["op"], rec["failures"], rec["output"]))
    return elapsed, quadstop


def run_passes(quadstop, spec, work, seed, seconds, traced=False):
    """Whole passes over the workload's operations until `seconds` have passed.

    Returns a list of passes, each (op records, Tracer or None).
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        trc = None
        if traced:
            trc = Tracer()
            instrument(trc, quadstop)
        try:
            records = [run_op(quadstop, op, work, seed, trc) for op in spec.ops]
        finally:
            if trc is not None:
                trc.restore()
        if trc is not None:
            for op, rec in zip(spec.ops, records):
                report = work / (op.name + ".report.json")
                if isinstance(op, Solve) and rec["rc"] in (0, 2):   # the solve ran and reported
                    stages = json.loads(report.read_text())["solve_report"]["homotopy_trace"]
                    trc.counts["martin_solver.homotopy_stages"] += max(1, len(stages))
        passes.append((records, trc))
    return passes


def pass_wall(records):
    return sum(rec["wall_s"] for rec in records)


def layer_metrics(records, trc, untraced_wall):
    """Per-layer metrics of one traced pass; checks that self times partition each op."""
    incl, own = trc.totals()
    c = trc.counts

    def own_sum(prefix):
        return sum(v for k, v in own.items() if k.startswith(prefix))

    wall = pass_wall(records)
    m = {
        "cli.self_s": own["cli"],
        "dataio.io_s": own["dataio.io"],
        "martin_solver.self_s": own_sum("martin_solver."),
        "martin_solver.solve_boundary_s": own["martin_solver.solve_boundary"],
        "martin_solver.radial_moment_s": own["martin_solver.radial_moment"],
        "martin_solver.lstsq_s": own["martin_solver.lstsq"],
        "martin_solver.step_accept_ratio": (c["martin_solver.jacobian_evals"]
                                            / c["martin_solver.lstsq_calls"]
                                            if c["martin_solver.lstsq_calls"] else 0.0),
        "verification.self_s": own_sum("verification."),
        "verification.run_verification_s": incl["verification.run_verification"],
        "verification.residual_s": incl["verification.residual"],
        "verification.majorant_s": incl["verification.majorant"],
        "verification.value_s": incl["verification.value"],
        "verification.sweep_self_s": (own["verification.residual"] + own["verification.majorant"]
                                      + own["verification.value"]),
        "verification.mc_s": incl["verification.mc"],
        "verification.mc_paths_per_s": (c["verification.mc_paths"] / incl["verification.mc"]
                                        if c["verification.mc_paths"] else 0.0),
        "kernels.green_kernel_radial_s": own["kernels.green_kernel_radial"],
        "specfun.bessel_K_scaled_s": own["specfun.bessel_K_scaled"],
        "problem.class_check_s": own["problem.class_check"],
        "trace.unattributed_s": wall - incl["cli"],
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
    }
    for name, unit, _ in PER_LAYER:
        if unit == "count":
            m[name] = int(c[name])
    for rec in records:
        op_incl, op_own = trc.totals(rec["op"])
        if abs(sum(op_own.values()) - op_incl["cli"]) > 1e-9 * rec["wall_s"]:
            raise RuntimeError("spans of %s do not nest under cli.main" % rec["op"])
    if abs(sum(m[k] for k in PARTITION) - wall) > 1e-9 * wall:
        raise RuntimeError("layer self times do not add up to the pass wall time")
    return m


def summarize(workload, seed, seconds, trace):
    spec = WORKLOADS[workload]
    work = ROOT / ".perfbench_work" / ("%s-%d" % (workload, os.getpid()))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, quadstop = set_up(spec, work, seed)
            setups.append(elapsed)
        passes = run_passes(quadstop, spec, work, seed, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # as many set-ups again after the passes, so that the median spans the run
        for _ in range(SETUP_REPEATS):
            elapsed, quadstop = set_up(spec, work, seed)
            setups.append(elapsed)
        untraced_wall = statistics.median(pass_wall(recs) for recs, _ in passes)
        if trace:
            traced = run_passes(quadstop, spec, work, seed, seconds, traced=True)
            per_pass = [layer_metrics(recs, trc, untraced_wall) for recs, trc in traced]
            metrics = {}
            for name, unit, _ in PER_LAYER:
                values = [m[name] for m in per_pass]
                if unit == "count" and len(set(values)) != 1:
                    raise RuntimeError("count %s differs between passes: %s" % (name, values))
                value = values[0] if unit == "count" else statistics.median(values)
                metrics[name] = {"value": value, "unit": unit}
            spans = [trc.spans for _, trc in traced]
            passes += traced
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "pass_s": {"value": untraced_wall, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
            spans = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    records = [rec for recs, _ in passes for rec in recs]
    result = {
        "correct": not any(rec["wrong"] for rec in records),
        "attempted": len(records),
        "failed": sum(1 for rec in records if rec["failures"]),
        "metrics": metrics,
    }
    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    detail = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  setup_s=setups, blas_threads=1, mc_pool_threads=os.cpu_count(),
                  passes=[recs for recs, _ in passes], spans=spans)
    (out_dir / ("%s_seed%d_trace%d.json" % (workload, seed, trace))).write_text(
        json.dumps(detail, indent=1) + "\n")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "quadstop" / "__init__.py").is_file():
        print("error: no quadstop sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result = summarize(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
