"""Two-parameter diagonal family showing why locating an orbit is not
uniformly decidable.

Take the span of diag(1,0) and diag(0,1), x = (1, c) and y = (0, 1). The
orbit of x is the axis-aligned box [-n, n] x [-n|c|, n|c|] at level n, so
d(y, orbit) is 1 when c = 0 and 0 for every c != 0. A single routine
covering both answers would decide c = 0 against c != 0; the truncation
index N ~ 2/|c| blowing up as c -> 0 is the computational face of that
obstruction. Each row of the table reports which route settled the
distance and at what cost; c and -c give the same box, so the table
solves each |c| once.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import linalg, nested, operators, pipeline
from . import open_mapping as om
from .defaults import BUDGET, TOL
from .errors import DimensionError, PipelineRefusal
from .located import OrbitBallContext, orbit_ball

DEFAULT_C_VALUES = (0.0, 1.0, -1.0, 0.5, -0.5, 0.1, -0.1,
                    0.01, -0.01, 0.001, -0.001)


class DemoRow(NamedTuple):
    """One family member: ambient inner radius r of the unit orbit ball,
    truncation index N (None when the pipeline refused), the distance d
    from (0,1) to the orbit, the number of sweep levels consumed (0 when
    the pipeline answered directly), and which route produced d."""
    c: float
    r: float
    N: Optional[int]
    d: float
    levels_to_locate: int
    verdict: str


def diag_subspace() -> operators.OperatorSubspace:
    """Span of the two diagonal matrix units in dimension 2."""
    return operators.make_subspace([np.diag([1.0, 0.0]),
                                    np.diag([0.0, 1.0])])


def _row(sub: operators.OperatorSubspace, c: float, budget: int,
         tol: float) -> DemoRow:
    x = np.array([1.0, float(c)])
    y = np.array([0.0, 1.0])
    ctx = OrbitBallContext(sub, x)
    ball = orbit_ball(sub, x, 1.0, ctx=ctx)
    # inner radius against the ambient plane, not the orbit span: y lives
    # in the plane, and it is the ambient radius that controls truncation.
    # At c = 0 the span collapses and this radius honestly hits 0.
    ambient = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    rr = om.inner_radius(ball, ambient)
    try:
        d, N = pipeline.pipeline_distance(sub, x, y, tol=tol,
                                          ctx=ctx, radius=rr.floor)
    except PipelineRefusal:   # the level sweep settles what it refuses
        report = nested.locate_distance(sub, x, y, budget=budget, tol=tol,
                                        ctx=ctx)
        v = report.verdict
        name = type(v).__name__.lower()
        d = v.upper if isinstance(v, nested.Undecided) else v.d
        return DemoRow(c=float(c), r=rr.r, N=None, d=float(d),
                       levels_to_locate=len(report.levels), verdict=name)
    return DemoRow(c=float(c), r=rr.r, N=N, d=d,
                   levels_to_locate=0, verdict="pipeline")


def demo_table(c_values: Sequence[float] = DEFAULT_C_VALUES,
               budget: int = BUDGET, tol: float = TOL) -> list:
    """One DemoRow per c, in input order; each |c| is solved once, at its
    first c, and its row repeated for -c with c set."""
    cs = [float(c) for c in c_values]
    for c in cs:
        if abs(c) > 1.0:
            raise DimensionError(f"family parameter must satisfy |c| <= 1, got {c:g}")
    budget = linalg.as_budget(budget)
    sub = diag_subspace()
    solved = {}
    for c in cs:
        if abs(c) not in solved:
            solved[abs(c)] = _row(sub, c, budget, tol)
    return [solved[abs(c)]._replace(c=c) for c in cs]


def _fmt(v: float) -> str:
    return f"{float(v):.9g}"


_HEADER = ("c", "r", "N", "d", "levels", "verdict")


def _cells(row: DemoRow) -> tuple:
    """The row's six cells, as the CSV and the table print them."""
    return (_fmt(row.c), _fmt(row.r), "n/a" if row.N is None else str(row.N),
            _fmt(row.d), str(row.levels_to_locate), row.verdict)


def rows_to_csv(rows) -> str:
    return "".join(",".join(cells) + "\n"
                   for cells in [_HEADER, *map(_cells, rows)])


def format_table(rows) -> str:
    body = [_cells(row) for row in rows]
    widths = [max(len(h), *(len(b[j]) for b in body)) if body else len(h)
              for j, h in enumerate(_HEADER)]
    return "".join("  ".join(v.rjust(w) for v, w in zip(cells, widths)) + "\n"
                   for cells in [_HEADER, *body])
