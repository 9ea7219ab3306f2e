"""The package's public names, and what its command line imports."""

import dataclasses
import inspect
import json
import subprocess
import sys

import quadstop

PUBLIC = [
    "QuadraticProblem", "StarBoundary", "ClassCheckReport",
    "class_membership_check", "symmetric_radius",
    "SphereGrid", "make_circle_grid", "make_sphere_grid",
    "SolveReport", "solve_boundary",
    "KillingConfig", "martin_kernel",
    "MCConfig", "VerificationReport", "run_verification", "value", "mc_value",
    "majorant_gap_scan",
]


def test_public_names_resolve():
    assert quadstop.__all__ == PUBLIC + ["__version__"]
    # dir lists every public name and the submodules that load on first access
    assert set(quadstop.__all__) | {"martin_solver", "kernels", "verification"} <= set(dir(quadstop))
    namespace = {}
    exec("from quadstop import *", namespace)
    assert set(PUBLIC + ["__version__"]) <= set(namespace)
    assert quadstop.verification is sys.modules["quadstop.verification"]
    assert quadstop.run_verification is quadstop.verification.run_verification


def test_solve_config_fields():
    # the one solver setting a caller may set; everything else, the residual
    # tolerance and the iteration cap included, is a constant
    params = inspect.signature(quadstop.solve_boundary).parameters.values()
    assert [(a.name, a.kind) for a in params] == [
        ("p", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("grid", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("homotopy_steps", inspect.Parameter.KEYWORD_ONLY)]


def test_value_and_mc_value_signatures():
    # d = 3 value draws a fixed sample count with a fixed seed, and mc_value
    # returns its walk statistics instead of filling a caller's dict
    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    params = inspect.signature(quadstop.value).parameters.values()
    assert [(a.name, a.kind) for a in params] == [
        ("p", positional), ("b", positional), ("x", positional),
        ("n_rays", inspect.Parameter.KEYWORD_ONLY)]
    params = inspect.signature(quadstop.mc_value).parameters.values()
    assert [(a.name, a.kind) for a in params] == [
        ("p", positional), ("b", positional), ("x0", positional), ("cfg", positional)]


def test_verification_report_fields():
    # the verdict (residual_max, mc_tolerance, checks, passed) is derived, not stored,
    # so the verify JSON's "report" keeps exactly these keys
    names = [f.name for f in dataclasses.fields(quadstop.VerificationReport)]
    assert names == ["boundary_residuals", "majorant_min_gap", "mc_value", "mc_stderr",
                     "reconstructed_value", "class_check", "mc_walk"]


# the package's layers and the scipy modules a command may load; scipy.optimize
# alone costs ~0.2 s of every CLI process
LAYERS = ("quadstop.martin_solver", "quadstop.kernels", "quadstop.verification",
          "scipy.linalg", "scipy.special", "scipy.optimize", "scipy.integrate")


def test_cli_import_skips_optimize_and_integrate(tmp_path):
    # each entry point, in a fresh interpreter, loads only the layers it uses;
    # verify and plot read the boundary that solve writes
    b, out = str(tmp_path / "b.csv"), str(tmp_path / "out")
    cases = {   # name: (argv of quadstop.cli.main, None for the import alone; LAYERS loaded)
        "import": (None, []),
        "solve": (["solve", "--r", "1", "--lambdas", "1,4", "--n", "16", "--out", b],
                  ["quadstop.martin_solver", "scipy.linalg"]),
        "verify": (["verify", "--boundary", b, "--report", out + ".json",
                    "--paths", "200", "--scan-n", "6", "--n-rays", "128"],
                   ["quadstop.kernels", "quadstop.verification", "scipy.special"]),
        "plot": (["plot", "--boundary", b, "--out", out + ".svg"], []),
        "kernel": (["kernel", "green", "--dist", "1"], ["quadstop.kernels", "scipy.special"]),
        "oracle": (["oracle", "sym-radius"], []),
    }
    code = ("import json, sys, quadstop.cli; "
            "rc = quadstop.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0; "
            "print(json.dumps([rc, [m for m in %r if m in sys.modules]]))" % (LAYERS,))
    loaded = {}
    for name, (argv, _) in cases.items():
        run = subprocess.run([sys.executable, "-c", code, *(argv or [])],
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        rc, loaded[name] = json.loads(run.stdout.splitlines()[-1])
        assert rc == 0, run.stdout + run.stderr
    assert loaded == {name: layers for name, (_, layers) in cases.items()}
