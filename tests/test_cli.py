import argparse
import json
import shutil
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import quadstop.martin_solver as ms
from quadstop.cli import build_parser, main
from quadstop.dataio import load_boundary_csv, save_boundary_csv
from quadstop.grids import make_sphere_grid
from quadstop.problem import QuadraticProblem, StarBoundary

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

LIGHT_VERIFY = ["--paths", "2000", "--scan-n", "10", "--n-rays", "240"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kernel_green_value(capsys):
    code, out, _ = run(capsys, "kernel", "green", "--r", "0.5", "--d", "3",
                       "--dist", "1.0")
    assert code == 0
    assert out.strip() == "0.0585498315243"


def test_kernel_martin_value(capsys):
    code, out, _ = run(capsys, "kernel", "martin", "--r", "1", "--d", "2",
                       "--a", "1,0", "--y", "2,0")
    assert code == 0
    assert out.strip() == "%.12g" % np.exp(np.sqrt(2.0) * 2.0)


def test_kernel_martin_zero_direction(capsys):
    code, out, err = run(capsys, "kernel", "martin", "--a", "0,0", "--y", "1,0")
    assert code == 1
    assert out == ""
    assert err == "error: zero vector has no direction\n"


def test_kernel_martin_dimension_from_a(capsys):
    # --d may be left out or agree with --a; a --d that disagrees is a usage error
    code, out, _ = run(capsys, "kernel", "martin", "--a", "1,0,0", "--y", "1,0,0")
    assert code == 0
    assert out.strip() == "%.12g" % np.exp(np.sqrt(2.0))
    code, out_d, _ = run(capsys, "kernel", "martin", "--d", "3", "--a", "1,0,0", "--y", "1,0,0")
    assert code == 0 and out_d == out
    for d, a in (("3", "1,0"), ("2", "1,0,0")):
        code, out, err = run(capsys, "kernel", "martin", "--d", d, "--a", a, "--y", a)
        assert code == 1
        assert out == ""
        assert err.startswith("error: --d %s does not match" % d)
        assert "Traceback" not in err


def test_oracle_sym_radius(capsys):
    code, out, _ = run(capsys, "oracle", "sym-radius", "--r", "0.5", "--d", "3")
    assert code == 0
    assert out.strip() == "2.98470458536"


@pytest.mark.parametrize("r", ["nan", "inf", "0", "-1"])
def test_oracle_sym_radius_rejects_non_finite_r(capsys, r):
    code, out, err = run(capsys, "oracle", "sym-radius", "--r", r)
    assert code == 1
    assert out == ""
    assert err.startswith("error: discount rate r must be finite and > 0, got")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["green", "--dist", "1", "--a", "1,0,0"], "--a"),
    (["green", "--dist", "1", "--y", "1,0"], "--y"),
    (["martin", "--a", "1,0", "--y", "1,0", "--dist", "3"], "--dist"),
])
def test_kernel_rejects_the_other_kernels_flags(capsys, argv, flag):
    code, out, err = run(capsys, "kernel", *argv)
    assert code == 1
    assert out == ""
    assert err == "error: kernel %s does not take %s\n" % (argv[0], flag)


def test_solve_writes_outputs(tmp_path, capsys):
    out_csv = tmp_path / "b.csv"
    rep_json = tmp_path / "b.json"
    code, out, _ = run(capsys, "solve", "--r", "1", "--lambdas", "1,4",
                       "--n", "32", "--out", str(out_csv), "--report", str(rep_json))
    assert code == 0
    assert "converged=True" in out and "stop:" not in out
    b = load_boundary_csv(out_csv)
    assert b.grid.n == 32
    doc = json.loads(rep_json.read_text())
    assert doc["kind"] == "solve_report"
    assert doc["solve_report"]["converged"] is True
    assert doc["radii_min"] >= np.sqrt(5.0)


def test_solve_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (a, b):
        code, _, _ = run(capsys, "solve", "--r", "1", "--lambdas", "1,4",
                         "--n", "32", "--out", str(f),
                         "--report", str(f) + ".json")
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_converges_at_any_discount_scale(tmp_path, capsys):
    # the solver's step tolerance acts on the canonical problem; at r = 1e12 the radii
    # are 1e-6 times those at r = 1, and the solve still takes the same steps
    steps = []
    for r in ("1", "1e12"):
        out_csv = tmp_path / ("b%s.csv" % r)
        code, out, _ = run(capsys, "solve", "--r", r, "--lambdas", "1,4", "--n", "64",
                           "--out", str(out_csv), "--report", str(out_csv) + ".json")
        assert code == 0
        assert out.startswith("converged=True iterations=") and "stop:" not in out
        steps.append(out.split()[1])
    assert steps[1] == steps[0]


def test_solve_at_lambda_ratio_1e5_raises_no_warning(tmp_path, capsys):
    # e^{gamma rho} near the largest double: the objective and the damping's |J|_F
    # are taken in units that keep them finite
    out_csv, rep_json = tmp_path / "b.csv", tmp_path / "b.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "solve", "--r", "1", "--lambdas", "1,100000",
                           "--n", "16", "--out", str(out_csv), "--report", str(rep_json))
    assert code in (0, 2)
    rep = json.loads(rep_json.read_text())["solve_report"]
    assert rep["stop"] in ms.STOP_REASONS
    assert len(rep["stage_iterations"]) == len(rep["homotopy_trace"])
    assert sum(rep["stage_iterations"]) == rep["iterations"]


def test_solve_non_convergence_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ms, "_MAX_ITERATIONS", 2)
    out_csv = tmp_path / "b.csv"
    code, out, _ = run(capsys, "solve", "--r", "1", "--lambdas", "1,9",
                       "--n", "32", "--homotopy-steps", "0",
                       "--out", str(out_csv), "--report", str(out_csv) + ".json")
    assert code == 2
    assert "converged=False" in out
    assert out.endswith("\nstop: step cap\n")
    assert out_csv.exists()  # partial result still written for inspection


def test_solve_failed_stage_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ms, "_MAX_ITERATIONS", 2)
    out_csv = tmp_path / "b.csv"
    rep_json = tmp_path / "b.json"
    code, out, _ = run(capsys, "solve", "--r", "1", "--lambdas", "1,9", "--n", "32",
                       "--out", str(out_csv), "--report", str(rep_json))
    assert code == 2
    assert "converged=False" in out and "\nstop: step cap\n" in out
    rep = json.loads(rep_json.read_text())["solve_report"]
    assert len(rep["homotopy_trace"]) == 1
    assert rep["stop"] == "step cap" and 0 <= rep["accelerated_steps"] <= rep["iterations"]
    assert rep["residual_inf_norm"] > 0.1 * rep["residual_scale"]


def test_solve_rejects_bad_lambda(capsys):
    code, _, err = run(capsys, "solve", "--r", "1", "--lambdas", "1,-4")
    assert code == 1
    assert "error:" in err


def test_solve_requires_problem(capsys):
    code, _, err = run(capsys, "solve", "--n", "32")
    assert code == 1
    assert "needs --r and --lambdas" in err


def test_solve_rejects_unsupported_dimension(tmp_path, capsys):
    out_csv = tmp_path / "b.csv"
    code, out, err = run(capsys, "solve", "--r", "1", "--lambdas", "1,2,3,4",
                         "--out", str(out_csv))
    assert code == 1
    assert out == ""
    assert err == "error: --lambdas gives d = 4; solve supports d in {2, 3}\n"
    assert not out_csv.exists()


def test_solve_report_is_strict_json(tmp_path, capsys):
    # the symmetric solve starts at its analytic radius and accepts no step, so it
    # has no step norm to report: null, not the non-JSON Infinity
    rep_json = tmp_path / "b.json"
    code, out, _ = run(capsys, "solve", "--r", "1", "--lambdas", "1,1", "--n", "16",
                       "--out", str(tmp_path / "b.csv"), "--report", str(rep_json))
    assert code == 0 and "iterations=0 " in out

    def reject(name):
        raise ValueError("non-JSON constant %s" % name)

    rep = json.loads(rep_json.read_text(), parse_constant=reject)["solve_report"]
    assert rep["step_inf_norm"] is None


def test_verify_pass_and_shrunk_detection(tmp_path, capsys):
    out_csv = tmp_path / "b.csv"
    code, _, _ = run(capsys, "solve", "--r", "1", "--lambdas", "1,1",
                     "--n", "64", "--out", str(out_csv),
                     "--report", str(out_csv) + ".json")
    assert code == 0

    rep = tmp_path / "v.json"
    code, out, _ = run(capsys, "verify", "--boundary", str(out_csv),
                       "--report", str(rep), *LIGHT_VERIFY)
    assert code == 0
    assert "residual: pass" in out
    doc = json.loads(rep.read_text())
    assert all(doc["checks"].values())

    b = load_boundary_csv(out_csv)
    from quadstop.dataio import read_problem_csv
    p = read_problem_csv(out_csv)
    shrunk = tmp_path / "shrunk.csv"
    save_boundary_csv(shrunk, p, StarBoundary(b.grid, 0.8 * b.radii))
    code, out, _ = run(capsys, "verify", "--boundary", str(shrunk),
                       "--report", str(tmp_path / "v2.json"), *LIGHT_VERIFY)
    assert code == 3
    assert "FAIL" in out


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--boundary", str(tmp_path / "nope.csv"),
                       "--report", str(tmp_path / "v.json"))
    assert code == 1
    assert "not found" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--scan-n", "0", "majorant scan size must be >= 1, got 0"),
    ("--scan-n", "2", "majorant scan of size 2 has no point inside the boundary"),
    ("--scan-n", "-1", "majorant scan size must be >= 1, got -1"),
    ("--seed", str(2 ** 70), "seed must be in [0, 2**63), got %d" % 2 ** 70),
    ("--seed", str(2 ** 63), "seed must be in [0, 2**63)"),
    ("--seed", "-1", "seed must be in [0, 2**63), got -1"),
])
def test_verify_rejects_empty_scan_and_out_of_range_seed(tmp_path, capsys, boundary_16, flag,
                                                         value, message):
    rep = tmp_path / "v.json"
    code, out, err = run(capsys, "verify", "--boundary", boundary_16, "--report", str(rep),
                         *LIGHT_VERIFY, flag, value)
    assert code == 1
    assert err.startswith("error: " + message)
    assert "Traceback" not in err
    assert "pass" not in out
    assert not rep.exists()


@pytest.mark.parametrize("value", ["0", "-5"])
def test_verify_rejects_n_rays_below_one(tmp_path, capsys, boundary_16, value):
    rep = tmp_path / "v.json"
    code, out, err = run(capsys, "verify", "--boundary", boundary_16, "--report", str(rep),
                         *LIGHT_VERIFY, "--n-rays", value)
    assert code == 1
    assert err.splitlines()[-1] == "error: argument --n-rays: must be >= 1, got %s" % value
    assert out == ""
    assert not rep.exists()


@pytest.mark.parametrize("field, broken", [("r=1 ", ""), (" lambdas=1,1", ""), ("r=1", "r1")])
@pytest.mark.parametrize("command", ["verify", "plot"])
def test_malformed_problem_line_is_an_error(tmp_path, capsys, boundary_16, command, field,
                                            broken):
    # a "# problem" line that lacks r= or lambdas=, or has a token without "="
    text = Path(boundary_16).read_text()
    assert "# problem r=1 lambdas=1,1\n" in text
    bad = tmp_path / "bad.csv"
    bad.write_text(text.replace(field, broken, 1))
    code, _, err = run(capsys, command, "--boundary", str(bad),
                       "--out" if command == "plot" else "--report", str(tmp_path / "out"))
    assert code == 1
    assert "error:" in err and str(bad) in err and "Traceback" not in err


def test_verify_keeps_solve_report_of_shared_config(tmp_path, monkeypatch, capsys):
    # output.report_json names the solve report only; verify keeps its own default
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"problem": {"r": 1, "lambdas": [1, 1]}, "grid": {"n": 16},
                               "output": {"report_json": "solve.json"},
                               "verify": {"paths": 2000, "scan_n": 10, "n_rays": 240}}))
    assert run(capsys, "solve", "--config", str(cfg))[0] == 0
    assert run(capsys, "verify", "--config", str(cfg), "--boundary", "boundary.csv")[0] == 0
    assert json.loads((tmp_path / "solve.json").read_text())["kind"] == "solve_report"
    assert (tmp_path / "verification.report.json").exists()


def test_verify_takes_problem_from_file(tmp_path, capsys):
    # one config shared by every subcommand: its problem section is solve's only
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"problem": {"r": 1, "lambdas": [1, 4]},
                               "verify": {"paths": 2000, "scan_n": 10, "n_rays": 240}}))
    b = tmp_path / "b.csv"
    code, _, _ = run(capsys, "solve", "--config", str(cfg), "--lambdas", "1,1", "--n", "32",
                     "--out", str(b), "--report", str(tmp_path / "b.json"))
    assert code == 0
    rep = tmp_path / "v.json"
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--boundary", str(b),
                       "--report", str(rep))
    assert code == 0, out
    doc = json.loads(rep.read_text())
    assert doc["problem"]["lambdas"] == [1.0, 1.0]
    assert doc["report"]["mc_walk"]["paths"] == 2000
    assert doc["thresholds"] == {"residual": 1e-3, "majorant_gap": 1e-4, "mc_sigmas": 4.0}


def test_removed_options_and_config_keys(tmp_path, capsys):
    b = tmp_path / "b.csv"
    run(capsys, "solve", "--r", "1", "--lambdas", "1,1", "--n", "16",
        "--out", str(b), "--report", str(tmp_path / "b.json"))
    report = ["--report", str(tmp_path / "v.json")]
    solve = ["solve", "--r", "1", "--lambdas", "1,1", "--n", "16",
             "--out", str(tmp_path / "s.csv"), "--report", str(tmp_path / "s.json")]
    for removed in ("--residual-tol", "--max-iterations"):
        code, _, err = run(capsys, *solve, removed, "5")
        assert code == 1
        assert "unrecognized arguments: %s 5" % removed in err
    for removed, argv in (("--r", ["verify", "--boundary", str(b), *report]),
                          ("--residual-threshold", ["verify", "--boundary", str(b), *report]),
                          ("--lambdas", ["plot", "--boundary", str(b),
                                         "--out", str(tmp_path / "b.svg")]),
                          ("--config", ["oracle", "sym-radius"])):
        code, _, err = run(capsys, *argv, removed, "1")
        assert code == 1
        assert "unrecognized arguments: %s 1" % removed in err
    cfg = tmp_path / "c.json"
    for key in ("mc_sigmas", "gap_threshold", "residual_threshold", "pathz"):
        cfg.write_text(json.dumps({"verify": {key: 1}}))
        code, _, err = run(capsys, "verify", "--config", str(cfg), "--boundary", str(b), *report)
        assert code == 1
        assert key in err
    for key in ("residual_tol", "max_iterations"):
        cfg.write_text(json.dumps({"solver": {key: 5}}))
        code, _, err = run(capsys, *solve, "--config", str(cfg))
        assert code == 1
        assert "unknown config key 'solver.%s'" % key in err
    assert not (tmp_path / "s.csv").exists()


def _option_strings(command):
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(o for a in subs.choices[command]._actions for o in a.option_strings)


def test_option_surface():
    assert _option_strings("verify") == ["--boundary", "--config", "--help", "--n-rays",
                                         "--paths", "--report", "--scan-n", "--seed", "-h"]
    assert _option_strings("plot") == ["--boundary", "--config", "--help", "--out", "-h"]
    assert _option_strings("oracle") == ["--d", "--help", "--r", "-h"]


def test_plot_from_metadata(tmp_path, capsys):
    out_csv = tmp_path / "b.csv"
    run(capsys, "solve", "--r", "1", "--lambdas", "1,4", "--n", "32",
        "--out", str(out_csv), "--report", str(out_csv) + ".json")
    svg = tmp_path / "b.svg"
    code, out, _ = run(capsys, "plot", "--boundary", str(out_csv),
                       "--out", str(svg))
    assert code == 0
    assert svg.read_text().startswith("<svg")


def test_plot_empty_csv(tmp_path, capsys):
    f = tmp_path / "empty.csv"
    f.write_text("")
    code, _, err = run(capsys, "plot", "--boundary", str(f),
                       "--out", str(tmp_path / "b.svg"))
    assert code == 1
    assert "error:" in err


def test_config_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"r": 1.0, "lambdas": [1.0, 4.0]},
        "grid": {"n": 32},
        "output": {"boundary_csv": str(tmp_path / "from_cfg.csv"),
                   "report_json": str(tmp_path / "from_cfg.json")},
    }))
    code, _, _ = run(capsys, "solve", "--config", str(cfg))
    assert code == 0
    assert (tmp_path / "from_cfg.csv").exists()
    b_cfg = load_boundary_csv(tmp_path / "from_cfg.csv")
    assert b_cfg.grid.n == 32

    # a flag overrides the same setting from the file
    code, _, _ = run(capsys, "solve", "--config", str(cfg), "--n", "16",
                     "--out", str(tmp_path / "flag.csv"),
                     "--report", str(tmp_path / "flag.json"))
    assert code == 0
    assert load_boundary_csv(tmp_path / "flag.csv").grid.n == 16


def test_solver_config_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = ["--out", str(tmp_path / "b.csv"), "--report", str(tmp_path / "b.json")]
    cfg.write_text(json.dumps({"solver": {"damping": 1e-3}}))
    code, _, err = run(capsys, "solve", "--config", str(cfg), "--r", "1", "--lambdas", "1,4",
                       "--n", "16", *out)
    assert code == 1
    assert "damping" in err
    cfg.write_text(json.dumps({"solver": {"homotopy_steps": 0}}))
    code, _, _ = run(capsys, "solve", "--config", str(cfg), "--r", "1", "--lambdas", "1,4",
                     "--n", "16", *out)
    assert code == 0
    assert len(json.loads((tmp_path / "b.json").read_text())
               ["solve_report"]["homotopy_trace"]) == 1


@pytest.fixture
def boundary_16(tmp_path_factory, capsys):
    b = tmp_path_factory.mktemp("b16") / "b.csv"
    assert run(capsys, "solve", "--r", "1", "--lambdas", "1,1", "--n", "16",
               "--out", str(b), "--report", str(b) + ".json")[0] == 0
    return str(b)


def _command_lines(boundary):
    return {"solve": ["solve", "--r", "1", "--lambdas", "1,4", "--n", "16"],
            "verify": ["verify", "--boundary", boundary, *LIGHT_VERIFY],
            "plot": ["plot", "--boundary", boundary],
            "kernel": ["kernel", "green", "--dist", "1"]}


@pytest.mark.parametrize("command", ["solve", "verify", "plot", "kernel"])
@pytest.mark.parametrize("cfg, key", [
    ({"problem": {"r": 1, "lambdas": [1, 4], "lamdas": [1, 9]}}, "problem.lamdas"),
    ({"grid": {"N": 128}}, "grid.N"),
    ({"output": {"boundary": "x.csv"}}, "output.boundary"),
    ({"solvers": {"max_iterations": 2}}, "solvers.max_iterations"),
])
def test_unknown_config_key_is_usage_error(tmp_path, monkeypatch, capsys, boundary_16,
                                           command, cfg, key):
    # every subcommand rejects a key that no subcommand knows, also in another's section
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, *_command_lines(boundary_16)[command], "--config", str(path))
    assert code == 1
    assert repr(key) in err
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("command, cfg, key, flag", [
    ("solve", {"grid": {"n": 32.9}}, "grid.n", ["--n", "32.9"]),
    ("solve", {"solver": {"homotopy_steps": 2.5}}, "solver.homotopy_steps",
     ["--homotopy-steps", "2.5"]),
    ("verify", {"verify": {"paths": 2000.9}}, "verify.paths", ["--paths", "2000.9"]),
    ("verify", {"verify": {"seed": True}}, "verify.seed", ["--seed", "True"]),
    ("verify", {"verify": {"n_rays": 0}}, "verify.n_rays", ["--n-rays", "0"]),
])
def test_config_values_are_checked_like_flags(tmp_path, monkeypatch, capsys, boundary_16,
                                              command, cfg, key, flag):
    monkeypatch.chdir(tmp_path)
    argv = _command_lines(boundary_16)[command]
    code, _, flag_err = run(capsys, *argv, *flag)
    assert code == 1
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, *argv, "--config", str(path))
    assert code == 1
    assert repr(key) in err
    assert out == ""
    # the same complaint as the flag's, attributed to the key
    assert flag_err.splitlines()[-1].replace("error: ", "") in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("text, message", [
    ("[1, 4]", "config root must be a JSON object"),
    ('{"grid": 32}', "config section 'grid' must be a JSON object"),
    ('{"grid": {"n": [32]}}', "config key 'grid.n' needs a single value"),
    ('{"output": {"boundary_csv": {"path": "b.csv"}}}',
     "config key 'output.boundary_csv' needs a single value"),
    ('{"grid": {"n": 32}', "invalid JSON"),
])
def test_config_file_shape(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "c.json"
    path.write_text(text)
    code, _, err = run(capsys, "solve", "--r", "1", "--lambdas", "1,4", "--config", str(path))
    assert code == 1
    assert message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_kernel_green_takes_r_from_config(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"problem": {"r": 0.5, "lambdas": [1, 4]}}))
    code, out, _ = run(capsys, "kernel", "green", "--config", str(cfg), "--d", "3",
                       "--dist", "1.0")
    assert code == 0
    assert out.strip() == "0.0585498315243"
    # the flag overrides the file
    code, out_flag, _ = run(capsys, "kernel", "green", "--config", str(cfg), "--r", "1",
                            "--d", "3", "--dist", "1.0")
    _, out_plain, _ = run(capsys, "kernel", "green", "--r", "1", "--d", "3", "--dist", "1.0")
    assert code == 0
    assert out_flag == out_plain != out


def test_plot_takes_svg_path_from_config(tmp_path, capsys, boundary_16):
    svg = tmp_path / "from_cfg.svg"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"output": {"plot_svg": str(svg), "boundary_csv": None}}))
    code, out, _ = run(capsys, "plot", "--config", str(cfg), "--boundary", boundary_16)
    assert code == 0
    assert out.strip() == "plot=%s" % svg
    assert svg.read_text().startswith("<svg")


def test_problem_line_of_another_dimension_is_an_error(tmp_path, capsys, boundary_16):
    # d = 3 rows under a d = 2 problem line, and d = 2 rows under a d = 3 one
    rows3 = tmp_path / "rows3.csv"
    save_boundary_csv(rows3, QuadraticProblem(0.5, (1.0, 1.0, 1.0)),
                      StarBoundary(make_sphere_grid(4, 8), np.full(32, 2.0)))
    text = rows3.read_text()
    assert "lambdas=1,1,1\n" in text
    rows3.write_text(text.replace("lambdas=1,1,1\n", "lambdas=1,1\n", 1))
    rows2 = tmp_path / "rows2.csv"
    rows2.write_text(Path(boundary_16).read_text().replace("lambdas=1,1\n", "lambdas=1,4,2\n", 1))
    for path, dims in ((rows3, "d = 2 but the rows form a d = 3"),
                       (rows2, "d = 3 but the rows form a d = 2")):
        for command, flag in (("verify", "--report"), ("plot", "--out")):
            out = tmp_path / ("out." + command)
            code, _, err = run(capsys, command, "--boundary", str(path), flag, str(out))
            assert code == 1
            assert err.startswith("error: %s: the problem line has %s grid" % (path, dims))
            assert "Traceback" not in err
            assert not out.exists()


def test_benchmark_wrapped_attributes_are_called(tmp_path, monkeypatch, capsys):
    # perfbench/tracer.py times the CLI's layers by wrapping these attributes of
    # quadstop.cli; an import that bypasses one would drop its layer from the trace
    import quadstop.cli as cli
    names = ("main", "save_boundary_csv", "load_boundary_csv", "read_problem_csv",
             "write_json_report", "solve_boundary", "run_verification")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _real=getattr(cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    b = tmp_path / "b.csv"
    assert cli.main(["solve", "--r", "1", "--lambdas", "1,1", "--n", "16", "--out", str(b),
                     "--report", str(tmp_path / "b.json")]) == 0
    assert cli.main(["verify", "--boundary", str(b), "--report", str(tmp_path / "v.json"),
                     *LIGHT_VERIFY]) == 0
    capsys.readouterr()
    assert calls == {"main": 2, "save_boundary_csv": 1, "load_boundary_csv": 1,
                     "read_problem_csv": 1, "write_json_report": 2, "solve_boundary": 1,
                     "run_verification": 1}


def test_benchmark_traces_the_lazily_loaded_layers(tmp_path):
    # perfbench/tracer.py wraps attributes of submodules the package loads on
    # first access: trace one solve and one verify in a fresh interpreter
    b = str(tmp_path / "b.csv")
    code = textwrap.dedent("""
        import importlib.util, json, sys
        import quadstop, quadstop.cli
        spec = importlib.util.spec_from_file_location("tracer", %r)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        trc = tracer.Tracer()
        tracer.instrument(trc, quadstop)
        rcs = [quadstop.cli.main(argv) for argv in %r]
        print(json.dumps([rcs, sorted({span[1] for span in trc.spans}), trc.counts]))
        """) % (str(PYPROJECT.parent / "perfbench" / "tracer.py"),
                [["solve", "--r", "1", "--lambdas", "1,4", "--n", "16", "--out", b],
                 ["verify", "--boundary", b, "--report", str(tmp_path / "v.json"),
                  *LIGHT_VERIFY]])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    rcs, spans, counts = json.loads(run.stdout.splitlines()[-1])
    assert rcs == [0, 0]
    assert {"martin_solver.solve_boundary", "verification.run_verification"} <= set(spans)
    for name in ("martin_solver.radial_moment_calls", "martin_solver.lstsq_calls",
                 "verification.mc_paths"):
        assert counts.get(name, 0) > 0, name


def test_help_exits_zero(capsys):
    assert main(["-h"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err


def _console_script_launcher(name):
    """The launcher an installer writes for the [project.scripts] entry `name`."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    return ("import sys; from %s import %s; sys.argv[0] = %r; sys.exit(%s())"
            % (module, attr.split(".")[0], name, attr))


def test_console_script_runs():
    """The declared `quadstop` entry point runs without an install; an
    installed `quadstop` script, when one is on PATH, gives the same output."""
    argv = ["oracle", "sym-radius", "--r", "0.5", "--d", "3"]
    commands = [[sys.executable, "-c", _console_script_launcher("quadstop")] + argv]
    installed = shutil.which("quadstop")
    if installed:
        commands.append([installed] + argv)
    for cmd in commands:
        out = subprocess.run(cmd, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "2.98470458536"


def test_module_invocation_matches_script():
    out = subprocess.run([sys.executable, "-m", "quadstop", "kernel", "green", "--r", "0.5",
                          "--d", "3", "--dist", "1.0"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0.0585498315243"
