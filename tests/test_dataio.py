import json

import numpy as np
import pytest

from quadstop.dataio import (load_boundary_csv, read_problem_csv,
                             save_boundary_csv, svg_boundary_plot,
                             write_json_report)
from quadstop.grids import make_circle_grid, make_sphere_grid
from quadstop.problem import QuadraticProblem, StarBoundary


def test_roundtrip_2d(tmp_path, p_14, bnd_14):
    f = tmp_path / "b.csv"
    save_boundary_csv(f, p_14, bnd_14)
    back = load_boundary_csv(f)
    assert np.array_equal(back.radii, bnd_14.radii)
    assert np.array_equal(back.grid.nodes, bnd_14.grid.nodes)
    assert np.array_equal(back.grid.weights, bnd_14.grid.weights)


def test_roundtrip_3d(tmp_path, p3_sym, bnd3_sym):
    f = tmp_path / "b3.csv"
    save_boundary_csv(f, p3_sym, bnd3_sym)
    back = load_boundary_csv(f)
    assert np.array_equal(back.radii, bnd3_sym.radii)
    assert back.grid.lat_shape == bnd3_sym.grid.lat_shape
    assert np.allclose(back.grid.nodes, bnd3_sym.grid.nodes, rtol=0.0, atol=0.0)


# the writer's bytes for a 6-node circle and a 2 x 4 sphere boundary: the format
# other tools read, so any change to it must show here
CIRCLE_CSV = """\
# schema_version=7
# problem r=0.29999999999999999 lambdas=1,4
theta,rho,x1,x2
0,4.4907311951024935,4.4907311951024935,0
1.0471975511965976,4.8989794855663575,2.4494897427831792,2.1213203435596428
2.0943951023931953,5.3072277760302198,-2.6536138880151086,2.2980970388562798
3.1415926535897931,5.7154760664940829,-5.7154760664940829,3.4997197352176418e-16
4.1887902047863905,6.1237243569579451,-3.0618621784789752,-2.6516504294495524
5.2359877559829888,6.5319726474218092,3.2659863237109055,-2.8284271247461903
"""
SPHERE_CSV = """\
# schema_version=7
# problem r=0.5 lambdas=1,2,3
lat_index,lon_index,rho,x1,x2,x3
0,0,3.8105117766515302,3.1112698372208092,0,-1.2701705922171767
0,1,4.156921938165306,2.078294534965184e-16,2.3999999999999999,-1.3856406460551018
0,2,4.5033320996790804,-3.6769552621700465,3.1840816777831177e-16,-1.5011106998930268
0,3,4.8497422611928567,-7.2740308723781437e-16,-2.7999999999999998,-1.6165807537309522
1,0,5.196152422706632,4.2426406871192857,0,1.7320508075688774
1,1,5.5425625842204074,2.7710593799535783e-16,3.1999999999999997,1.8475208614068024
1,2,5.8889727457341827,-4.8083261120685235,4.1637991171010006e-16,1.9629909152447276
1,3,6.2353829072479581,-9.3523254073433262e-16,-3.5999999999999996,2.0784609690826525
"""


@pytest.mark.parametrize("p, grid, top, text", [
    (QuadraticProblem(0.3, (1.0, 4.0)), make_circle_grid(6), 1.6, CIRCLE_CSV),
    (QuadraticProblem(0.5, (1.0, 2.0, 3.0)), make_sphere_grid(2, 4), 1.8, SPHERE_CSV),
], ids=["circle6", "sphere2x4"])
def test_boundary_csv_bytes(tmp_path, p, grid, top, text):
    b = StarBoundary(grid, p.beta * np.linspace(1.1, top, grid.n))
    f = tmp_path / "b.csv"
    save_boundary_csv(f, p, b)
    assert f.read_bytes() == text.encode()
    assert np.array_equal(load_boundary_csv(f).radii, b.radii)


def test_header_comments(tmp_path, p_14_r03, bnd_14_r03):
    f = tmp_path / "b.csv"
    save_boundary_csv(f, p_14_r03, bnd_14_r03)
    lines = f.read_text().splitlines()
    assert lines[0].startswith("# schema_version=")
    assert lines[1].startswith("# problem r=")
    assert "lambdas=" in lines[1]


def test_read_problem_roundtrip(tmp_path, p_14_r03, bnd_14_r03):
    f = tmp_path / "b.csv"
    save_boundary_csv(f, p_14_r03, bnd_14_r03)
    p = read_problem_csv(f)
    assert p.r == p_14_r03.r
    assert np.array_equal(p.lam, p_14_r03.lam)


def test_read_problem_missing_metadata(tmp_path, p_14, bnd_14):
    f = tmp_path / "b.csv"
    save_boundary_csv(f, p_14, bnd_14)
    body = [ln for ln in f.read_text().splitlines() if not ln.startswith("# problem")]
    f.write_text("\n".join(body) + "\n")
    assert np.array_equal(load_boundary_csv(f).radii, bnd_14.radii)
    with pytest.raises(ValueError, match="no problem metadata"):
        read_problem_csv(f)


def test_load_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty boundary"):
        load_boundary_csv(empty)

    no_rows = tmp_path / "norows.csv"
    no_rows.write_text("theta,rho\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_boundary_csv(no_rows)

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="unrecognized boundary header"):
        load_boundary_csv(bad_header)

    skew = tmp_path / "skew.csv"
    rows = "".join("%g,1.0\n" % t for t in (0.0, 0.1, 0.7, 1.9, 2.0, 5.1))
    skew.write_text("theta,rho\n" + rows)
    with pytest.raises(ValueError, match="equispaced"):
        load_boundary_csv(skew)
    # one row 5e-5 rad off on an otherwise exact grid: the tolerance is an absolute 1e-9
    theta = 2.0 * np.pi * np.arange(64) / 64
    theta[-1] += 5e-5  # within numpy's default rtol=1e-5 of 6.2 rad
    skew.write_text("theta,rho\n" + "".join("%.17g,1.0\n" % t for t in theta))
    with pytest.raises(ValueError, match="equispaced"):
        load_boundary_csv(skew)


def test_load_incomplete_3d_grid(tmp_path, p3_sym, bnd3_sym):
    f = tmp_path / "b3.csv"
    save_boundary_csv(f, p3_sym, bnd3_sym)
    lines = f.read_text().splitlines()
    f.write_text("\n".join(lines[:-5]) + "\n")  # drop a few rows
    with pytest.raises(ValueError, match="incomplete latitude/longitude"):
        load_boundary_csv(f)


def test_load_duplicate_3d_rows(tmp_path, p3_sym, bnd3_sym):
    # (0, 0) written twice in place of the last node: the row count still matches
    f = tmp_path / "b3.csv"
    save_boundary_csv(f, p3_sym, bnd3_sym)
    lines = f.read_text().splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.startswith("0,0,"))
    f.write_text("\n".join(lines[:-1] + [lines[first]]) + "\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_boundary_csv(f)
    # a fractional or negative index is no node of the grid
    for bad in ("0.5,0,", "-1,0,"):
        f.write_text("\n".join(lines[:first] + [bad + lines[first][4:]] + lines[first + 1:]) + "\n")
        with pytest.raises(ValueError, match="integers >= 0"):
            load_boundary_csv(f)


def test_json_report_deterministic(tmp_path):
    payload = {"b": np.float64(1.5), "a": np.arange(3), "flag": np.bool_(True),
               "nested": {"x": np.int64(7)}}
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_json_report(f1, payload)
    write_json_report(f2, dict(reversed(list(payload.items()))))
    assert f1.read_bytes() == f2.read_bytes()
    doc = json.loads(f1.read_text())
    assert doc["a"] == [0, 1, 2]
    assert doc["b"] == 1.5
    assert doc["flag"] is True
    assert doc["nested"]["x"] == 7
    assert doc["schema_version"] == 7
    assert list(doc) == sorted(doc)


def test_json_report_keeps_explicit_schema(tmp_path):
    f = tmp_path / "r.json"
    write_json_report(f, {"schema_version": 2})
    assert json.loads(f.read_text())["schema_version"] == 2


def test_svg_plot(tmp_path, p_14, bnd_14):
    f = tmp_path / "b.svg"
    svg_boundary_plot(f, p_14, bnd_14)
    text = f.read_text()
    assert text.startswith("<svg")
    assert "<polyline" in text
    assert "<ellipse" in text
    assert text.rstrip().endswith("</svg>")


def test_svg_rejects_3d(tmp_path, p3_sym, bnd3_sym):
    with pytest.raises(ValueError, match="d = 2"):
        svg_boundary_plot(tmp_path / "b.svg", p3_sym, bnd3_sym)
