"""The benchmark's checks pass on solved boundaries and bite on wrong ones.

Run from the repository root:  python3 -m pytest -q perfbench
A boundary whose radii (and points) are scaled by 1.02 must fail.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from quadstop.cli import main  # noqa: E402


def cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main([str(a) for a in argv])


def solve(tmp_path, name, r, lambdas, *grid_flags):
    out = tmp_path / (name + ".csv")
    rc = cli("solve", "--r", r, "--lambdas", lambdas, *grid_flags,
             "--out", out, "--report", tmp_path / (name + ".json"))
    assert rc == 0
    return out


def scaled(path, factor):
    """Copy of a boundary CSV with rho and the points multiplied by factor."""
    lines = path.read_text().splitlines()
    first = 1 if lines[-1].count(",") == 3 else 2   # d = 2: theta; d = 3: two indices
    out = []
    for line in lines:
        if line.startswith("#") or line[0].isalpha():
            out.append(line)
            continue
        vals = line.split(",")
        out.append(",".join(vals[:first] + ["%.17g" % (float(v) * factor) for v in vals[first:]]))
    dst = path.with_name(path.stem + "-scaled.csv")
    dst.write_text("\n".join(out) + "\n")
    return dst


def test_asymmetric_solve_checks_bite(tmp_path):
    coarse = solve(tmp_path, "c", 1, "1,4", "--n", 32)
    fine = solve(tmp_path, "f", 1, "1,4", "--n", 64)
    assert checks.solve_failures(coarse) == []
    assert checks.solve_failures(fine, coarse) == []
    bad = checks.solve_failures(scaled(fine, 1.02), coarse)
    assert any("Martin equations" in f for f in bad)
    assert any("n and 2n radii" in f for f in bad)


@pytest.mark.parametrize("lambdas,grid", [("1,1", ("--n", 16)),
                                          ("1,1,1", ("--n-lat", 8, "--n-lon", 16))])
def test_symmetric_solve_checks_bite(tmp_path, lambdas, grid):
    path = solve(tmp_path, "s", 0.5, lambdas, *grid, "--homotopy-steps", 0)
    assert checks.solve_failures(path) == []
    bad = checks.solve_failures(scaled(path, 1.02))
    assert any("Martin equations" in f for f in bad)
    assert any("symmetric radius" in f for f in bad)


def test_verify_checks_bite(tmp_path):
    path = solve(tmp_path, "s", 1, "1,1", "--n", 16)
    flags = ("--paths", 1000, "--scan-n", 6, "--n-rays", 180)
    for boundary, ok in ((path, True), (scaled(path, 1.02), False)):
        report = tmp_path / (boundary.stem + ".verify.json")
        rc = cli("verify", "--boundary", boundary, *flags, "--report", report)
        bad = checks.verify_failures(report)
        assert (rc == 0 and bad == []) is ok
        if not ok:
            assert any("R^2/I_0(kR)" in f for f in bad)


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
