"""Boundary CSV, report JSON, and SVG plot serialization.

All writers are deterministic: fixed field order, fixed float formatting,
sorted JSON keys, no timestamps.  Schemas carry a version field so the
consuming tests can detect drift.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .grids import make_circle_grid, make_sphere_grid
from .problem import QuadraticProblem, StarBoundary

SCHEMA_VERSION = 7

_FMT = "%.17g"


def save_boundary_csv(path, p: QuadraticProblem, b: StarBoundary) -> None:
    """Write the boundary to CSV: angles/indices, radius, cartesian point.

    A comment line records (r, lambda) so plot/verify can run from the
    file alone; loaders that only want the geometry skip it.
    """
    if p.d == 2:
        columns, index, fmt = "theta,rho,x1,x2", [b.grid.angles], [_FMT]
    elif p.d == 3:
        lat, lon = np.divmod(np.arange(b.grid.n), b.grid.lat_shape[1])
        columns, index, fmt = "lat_index,lon_index,rho,x1,x2,x3", [lat, lon], ["%d", "%d"]
    else:
        raise ValueError("boundary CSV supports d in {2, 3}")
    header = "# schema_version=%d\n# problem r=%s lambdas=%s\n%s\n" % (
        SCHEMA_VERSION, _FMT % p.r, ",".join(_FMT % v for v in p.lam), columns)
    table = np.column_stack(index + [b.radii, b.cartesian_points(p)])
    # np.savetxt's bytes, formatted in one operation rather than row by row
    row = ",".join(fmt + [_FMT] * (p.d + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + (row * table.shape[0]) % tuple(table.ravel().tolist()))


def read_problem_csv(path) -> QuadraticProblem:
    """Recover the problem parameters from a boundary CSV's comment line."""
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if ln.startswith("# problem "):
                fields = {}
                for tok in ln[10:].split():
                    key, eq, value = tok.partition("=")
                    if not eq:
                        raise ValueError("%s: problem metadata %r is not key=value" % (path, tok))
                    fields[key] = value
                for key in ("r", "lambdas"):
                    if key not in fields:
                        raise ValueError("%s: problem metadata line lacks %s=" % (path, key))
                r = float(fields["r"])
                lam = tuple(float(v) for v in fields["lambdas"].split(","))
                return QuadraticProblem(r, lam)
    raise ValueError("%s: no problem metadata line" % path)


def load_boundary_csv(path) -> StarBoundary:
    """Rebuild a StarBoundary from a CSV written by save_boundary_csv."""
    with open(path) as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not rows:
        raise ValueError("%s: empty boundary file" % path)
    header, data = rows[0].split(","), rows[1:]
    if not data:
        raise ValueError("%s: no data rows" % path)
    sphere = header[:3] == ["lat_index", "lon_index", "rho"]
    if not sphere and header[:2] != ["theta", "rho"]:
        raise ValueError("%s: unrecognized boundary header %r" % (path, ",".join(header)))
    vals = np.loadtxt(data, delimiter=",", ndmin=2)
    if not sphere:
        grid = make_circle_grid(vals.shape[0])
        if not np.allclose(vals[:, 0], grid.angles, rtol=0.0, atol=1e-9):
            raise ValueError("%s: theta column is not the expected equispaced grid" % path)
        return StarBoundary(grid, vals[:, 1])
    idx = vals[:, :2].astype(int)
    if not np.array_equal(idx, vals[:, :2]) or np.any(idx < 0):
        raise ValueError("%s: lat_index and lon_index must be integers >= 0" % path)
    n_lat, n_lon = (int(v) + 1 for v in idx.max(axis=0))
    if vals.shape[0] != n_lat * n_lon:
        raise ValueError("%s: incomplete latitude/longitude grid" % path)
    flat = idx[:, 0] * n_lon + idx[:, 1]
    if np.unique(flat).size != flat.size:
        raise ValueError("%s: duplicate (lat_index, lon_index) rows" % path)
    radii = np.empty(flat.size)
    radii[flat] = vals[:, 2]
    return StarBoundary(make_sphere_grid(n_lat, n_lon), radii)


def _jsonable(obj):
    """obj in JSON's types: the floats JSON has no number for (nan, inf) as None,
    dataclasses as field dicts and numpy values as Python ones."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _jsonable(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    return obj


def write_json_report(path, payload: dict) -> None:
    """Write a report dict as deterministic, strict JSON (schema-versioned).

    A float that is not finite, a residual that overflowed say, is
    written as null; allow_nan=False raises on any that got past.
    """
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    with open(path, "w") as fh:
        fh.write(json.dumps(_jsonable(body), indent=2, sort_keys=True, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# SVG plot

_SVG_SIZE = 640
_SVG_MARGIN = 40.0


def _ellipse_radii(p: QuadraticProblem):
    # negative set of (r - L)g: sum lambda_i x_i^2 <= sum lambda_i / r
    return [float(np.sqrt(p.beta_sq / lam)) for lam in p.lam]


def svg_boundary_plot(path, p: QuadraticProblem, b: StarBoundary) -> None:
    """Closed boundary polyline with the negative-set ellipse overlay."""
    if p.d != 2:
        raise ValueError("plotting supports d = 2 boundaries")
    pts = b.cartesian_points(p)
    rx, ry = _ellipse_radii(p)
    ext = 1.1 * max(float(np.abs(pts).max()), rx, ry)
    scale = (_SVG_SIZE - 2.0 * _SVG_MARGIN) / (2.0 * ext)
    mid = _SVG_SIZE / 2.0

    def sx(v):
        return "%.2f" % (mid + scale * v)

    def sy(v):
        return "%.2f" % (mid - scale * v)

    poly = " ".join("%s,%s" % (sx(x[0]), sy(x[1])) for x in np.vstack([pts, pts[:1]]))
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (_SVG_SIZE, _SVG_SIZE, _SVG_SIZE, _SVG_SIZE),
        '<rect width="%d" height="%d" fill="white"/>' % (_SVG_SIZE, _SVG_SIZE),
        '<line x1="0" y1="%s" x2="%d" y2="%s" stroke="#bbbbbb" stroke-width="1"/>'
        % (sy(0.0), _SVG_SIZE, sy(0.0)),
        '<line x1="%s" y1="0" x2="%s" y2="%d" stroke="#bbbbbb" stroke-width="1"/>'
        % (sx(0.0), sx(0.0), _SVG_SIZE),
        '<ellipse cx="%s" cy="%s" rx="%.2f" ry="%.2f" fill="none" '
        'stroke="red" stroke-width="1.5"/>' % (sx(0.0), sy(0.0), scale * rx, scale * ry),
        '<polyline points="%s" fill="none" stroke="#1f4e9c" stroke-width="2"/>' % poly,
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
