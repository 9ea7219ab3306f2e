"""The package's public names, and what its command line imports."""

import dataclasses
import inspect
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
    namespace = {}
    exec("from quadstop import *", namespace)
    assert set(PUBLIC + ["__version__"]) <= set(namespace)


def test_solve_config_fields():
    # the one solver setting a caller may set; everything else, the residual
    # tolerance and the iteration cap included, is a constant
    params = inspect.signature(quadstop.solve_boundary).parameters.values()
    assert [(a.name, a.kind) for a in params] == [
        ("p", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("grid", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("homotopy_steps", inspect.Parameter.KEYWORD_ONLY)]


def test_verification_report_fields():
    # the verdict (residual_max, mc_tolerance, checks, passed) is derived, not stored,
    # so the verify JSON's "report" keeps exactly these keys
    names = [f.name for f in dataclasses.fields(quadstop.VerificationReport)]
    assert names == ["boundary_residuals", "majorant_min_gap", "mc_value", "mc_stderr",
                     "reconstructed_value", "class_check", "mc_walk"]


def test_cli_import_skips_optimize_and_integrate():
    # scipy.optimize alone costs ~0.2 s of every CLI process
    code = ("import sys, quadstop.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
