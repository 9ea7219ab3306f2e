"""Shared solved-boundary fixtures.

Solves are cheap enough to run once per session; tests must not mutate
the returned boundaries.
"""

import numpy as np
import pytest

import quadstop as q

# verdict lines recorded by the acceptance tests; printed after the run so
# they survive pytest's fd-level output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance", sep="-")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def p_sym():
    return q.QuadraticProblem(1.0, (1.0, 1.0))


@pytest.fixture(scope="session")
def p_14():
    return q.QuadraticProblem(1.0, (1.0, 4.0))


@pytest.fixture(scope="session")
def p_14_r03():
    return q.QuadraticProblem(0.3, (1.0, 4.0))


@pytest.fixture(scope="session")
def p3_sym():
    return q.QuadraticProblem(0.5, (1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def grid64():
    return q.make_circle_grid(64)


@pytest.fixture(scope="session")
def sphere_grid():
    return q.make_sphere_grid(16, 32)


def _solved(p, grid, **kw):
    b, rep = q.solve_boundary(p, grid, **kw)
    assert rep.converged, "fixture solve failed: %r" % (rep,)
    return b


@pytest.fixture(scope="session")
def bnd_sym(p_sym, grid64):
    # cold start so the fixture is a genuine solve, not the oracle echoed back
    return _solved(p_sym, grid64, homotopy_steps=0)


@pytest.fixture(scope="session")
def bnd_14(p_14, grid64):
    return _solved(p_14, grid64)


@pytest.fixture(scope="session")
def bnd_14_r03(p_14_r03, grid64):
    return _solved(p_14_r03, grid64)


@pytest.fixture(scope="session")
def bnd3_sym(p3_sym, sphere_grid):
    return _solved(p3_sym, sphere_grid, homotopy_steps=0)
