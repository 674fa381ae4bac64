"""Distance to an operator orbit through an increasing sequence of
ball-constrained distances.

The orbit of x under a subspace of operators is swept out by the balls
n * (unit ball) as n grows, so the global distance from y is the limit of
the per-level distances d_n. Each level's near-minimizer y_n is pinned to
the next by a parallelogram-law bound, which yields an explicit Cauchy
certificate for the sequence (y_n) and, when it collapses fast enough, a
certified limit point. The distance ||y - Py|| to the orbit span bounds
every d_n from below, so a level that meets it certifies the distance.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg, located, operators
from .defaults import BUDGET, TOL
from .errors import DimensionError, OrbitLocatorError, SolverFailure


class Level(NamedTuple):
    """One computed level: ball scale n, achieved distance d = ||y - y_n||,
    and the near-minimizer y_n itself."""
    n: int
    d: float
    y: np.ndarray


class Located(NamedTuple):
    """The level minimizers form a certified Cauchy sequence: y_inf is
    within the report tolerance of the limit and d = ||y - y_inf||."""
    d: float
    y_inf: np.ndarray


class Stabilized(NamedTuple):
    """The global distance is d, the level-N distance, within the report
    tolerance plus the level-N solver tolerance. Certified by a lower
    bound: every level distance is at least ||y - Py||, the distance to
    the orbit span, and d_N came within those tolerances of it (0 stands
    in for ||y - Py|| when the rank decision is marginal or the orbit
    span is the whole space)."""
    N: int
    d: float


class Undecided(NamedTuple):
    """No certificate up to the last level read, `budget` (below the
    sweep's budget where the tolerances pass the rounding). The global
    distance lies in [lower, upper]: lower is the span lower bound
    ||y - Py|| (0 when the rank decision is marginal or the orbit span is
    the whole space) and upper is d_budget (d_0 = ||y||, the distance to
    {0}, when no level is read), further apart than the tolerances."""
    budget: int
    lower: float
    upper: float


class DistanceReport(NamedTuple):
    levels: tuple
    cauchy_bounds: tuple
    verdict: object
    tol: float


def cauchy_bound(d_m: float, d_n: float, m: int, n: int,
                 slack: float = 1e-6) -> float:
    """Upper bound on ||y_m - y_n||^2 for level near-minimizers accurate
    to their 2^-level slack, m >= n.

    Parallelogram law against the midpoint of y_m and y_n: the balls are
    nested, so the midpoint lies in the level-m ball and its distance to
    y is at least d_m.
    """
    if not (m >= n >= 1):
        raise DimensionError("level pair must satisfy m >= n >= 1")
    if d_m > d_n + slack:
        raise DimensionError(
            "level distances must be nonincreasing (d_m <= d_n)")
    am = d_m + 2.0 ** -m
    an = d_n + 2.0 ** -n
    return 2.0 * (am * am - d_m * d_m) + 2.0 * (an * an - d_m * d_m)


def tail_bound(N: int, d_N: float) -> float:
    """sup of cauchy_bound(d_m, d_N, m, N) over m >= N and 0 <= d_m <= d_N.

    Later levels can shrink the distance all the way to 0, so the bound
    vanishes only together with d_N; a small value certifies that every
    future minimizer stays near y_N.
    """
    eN = 2.0 ** -N
    return 2.0 * (2.0 * d_N * eN + eN * eN) + 2.0 * (d_N + eN) ** 2


def strict_excess(d: float, y_inf, v, y, tol: float = 1e-8) -> float:
    """Excess ||y - v||^2 - d^2 of an orbit point v over the best distance.

    When y_inf is the nearest point and d = ||y - y_inf||, convexity makes
    the excess at least ||v - y_inf||^2 / 2; a violation beyond tol means
    y_inf was not actually closest, so it is reported loudly.
    """
    v = linalg.as_vector(v)
    y = linalg.as_vector(y)
    y_inf = linalg.as_vector(y_inf)
    excess = float((y - v) @ (y - v)) - float(d) ** 2
    need = 0.5 * float((v - y_inf) @ (v - y_inf)) - tol
    if excess < need:
        raise OrbitLocatorError(
            f"excess {excess:.3e} below the convexity floor {need:.3e}; "
            "the proposed nearest point is not closest")
    return excess


def locate_distance(subspace: operators.OperatorSubspace, x, y, *,
                    budget: int = BUDGET, tol: float = TOL,
                    ctx: located.OrbitBallContext | None = None) -> DistanceReport:
    """Run the level sweep n = 1..budget and report the first certificate.

    Per level the solver tolerance is min(tol, 2^-(n+2)) so the recorded
    y_n is accurate to d_n + 2^-n and the parallelogram certificate
    applies as stated. Two exits are checked in order:

    * Located: tail_bound(n, d_n) <= tol^2, meaning all later minimizers
      stay within about tol of y_n; then y_inf = y_n, d = ||y - y_inf||.
    * Stabilized: d_n is within tol + tol_n of ctx.lower_bound(y), a
      lower bound on every level distance (||y - Py||, or 0 where the
      rank decision behind P is marginal or the rank is full); since y_n
      lies in the orbit, the global distance is d_n.

    The sweep stops before the first level whose tolerance is below
    ctx.rounding_floor, the least tolerance its certificate resolves
    (2^-(n+2) even underflows to 0 at n = 1073).

    Otherwise the verdict is Undecided with bracket [lower bound, d_N],
    N the last level read.

    The levels are read in order from one ctx.distances call, which finds
    every boundary candidate in lockstep: an interior level is Py, a
    certified one its candidate, and ADMM runs only for a level whose gap
    is still open, when the sweep reaches it. So a level past the verdict
    never runs it, and a SolverFailure comes from the first failing level,
    with the levels before it as the partial report.
    """
    budget = linalg.as_budget(budget)
    tol = linalg.as_tol(tol)
    if ctx is None:
        ctx = located.OrbitBallContext(subspace, x)
    lb = ctx.lower_bound(y)   # y is checked here, before any level is solved
    norm_y = float(np.linalg.norm(y))
    tols = []
    for n in range(1, budget + 1):
        tol_n = min(tol, 2.0 ** -(n + 2))
        if tol_n < ctx.rounding_floor(norm_y, n):
            break
        tols.append(tol_n)
    ns = range(1, len(tols) + 1)
    levels: list[Level] = []
    verdict: object = None
    try:
        for n, tol_n, (d_n, point, *_) in zip(ns, tols, ctx.distances(y, ns, tols)):
            levels.append(Level(n=n, d=d_n, y=point))
            if tail_bound(n, d_n) <= tol * tol:
                verdict = Located(d=d_n, y_inf=point)
                break
            if d_n - lb <= tol + tol_n:
                verdict = Stabilized(N=n, d=d_n)
                break
    except SolverFailure as exc:
        raise SolverFailure(
            f"level {len(levels) + 1} of the sweep failed: {exc}",
            lower=exc.lower, upper=exc.upper, iterations=exc.iterations,
            partial=_close_report(levels, None, tol)) from exc
    if verdict is None:
        verdict = Undecided(budget=len(levels), lower=lb,
                            upper=levels[-1].d if levels else norm_y)
    return _close_report(levels, verdict, tol)


def _close_report(levels, verdict, tol: float) -> DistanceReport:
    # adjacent pairs, then the extreme pair once there are 3+ levels
    bounds = []
    for a, b in zip(levels, levels[1:]):
        bounds.append(cauchy_bound(b.d, a.d, b.n, a.n, slack=4.0 * tol))
    if len(levels) >= 3:
        first, last = levels[0], levels[-1]
        bounds.append(cauchy_bound(last.d, first.d, last.n, first.n,
                                   slack=4.0 * tol))
    return DistanceReport(levels=tuple(levels), cauchy_bounds=tuple(bounds),
                          verdict=verdict, tol=tol)
