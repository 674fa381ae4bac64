"""Distance to an operator orbit through an increasing sequence of
ball-constrained distances.

The orbit of x under a subspace of operators is swept out by the balls
n * (unit ball) as n grows, so the global distance from y is the limit of
the per-level distances d_n. Each level's near-minimizer y_n is pinned to
the next by a parallelogram-law bound, which yields an explicit Cauchy
certificate for the sequence (y_n) and, when it collapses fast enough, a
certified limit point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, located, operators
from .defaults import BUDGET, RANK_MARGIN, STAB_TOL, TOL
from .errors import DimensionError, OrbitLocatorError, SolverFailure


@dataclass(frozen=True, eq=False)
class Level:
    """One computed level: ball scale n, achieved distance d = ||y - y_n||,
    and the near-minimizer y_n itself."""
    n: int
    d: float
    y: np.ndarray


@dataclass(frozen=True, eq=False)
class Located:
    """The level minimizers form a certified Cauchy sequence: y_inf is
    within the report tolerance of the limit and d = ||y - y_inf||."""
    d: float
    y_inf: np.ndarray


@dataclass(frozen=True, eq=False)
class Stabilized:
    """The global distance is d, the level-N distance, within the report
    tolerance plus the level-N solver tolerance. Certified by a lower
    bound: every level distance is at least ||y - Py||, the distance to
    the orbit span, and d_N came within those tolerances of it (0 stands
    in for ||y - Py|| when the rank decision is marginal). Levels N and
    N + 1 also agreed within stab_tol."""
    N: int
    d: float


@dataclass(frozen=True, eq=False)
class Undecided:
    """Budget exhausted without a certificate. No positive lower bound on
    the global distance is available from finitely many levels, so the
    bracket is [0, d_budget]."""
    budget: int
    lower: float
    upper: float


@dataclass(frozen=True, eq=False)
class DistanceReport:
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


def stabilize_check(d_N: float, d_N1: float, stab_tol: float = STAB_TOL) -> bool:
    """True when consecutive level distances agree within stab_tol; the
    caller may then report d_N as the global distance with error bar
    stab_tol plus the solver tolerance."""
    return abs(d_N - d_N1) <= stab_tol


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
                    stab_tol: float = STAB_TOL,
                    ctx: located.OrbitBallContext | None = None) -> DistanceReport:
    """Run the level sweep n = 1..budget and report the first certificate.

    Per level the solver tolerance is min(tol, 2^-(n+2)) so the recorded
    y_n is accurate to d_n + 2^-n and the parallelogram certificate
    applies as stated. Two exits are checked in order:

    * Located: tail_bound(n, d_n) <= tol^2, meaning all later minimizers
      stay within about tol of y_n; then y_inf = y_n, d = ||y - y_inf||.
    * Stabilized: d_{n-1} and d_n agree within stab_tol, and d_{n-1} is
      within tol + tol_{n-1} of the exact lower bound ||y - Py|| on every
      level distance; the global distance is d_{n-1}. Agreement alone
      proves nothing about the limit, so the lower bound is the
      certificate. When a singular value of Phi lies within a factor
      RANK_MARGIN of the rank cut, on either side, the rank decision behind
      P is marginal and the lower bound drops to 0.

    Otherwise the verdict is Undecided with bracket [0, d_budget]: no
    finite sweep can certify a positive global lower bound.

    One ctx.solve_levels call first finds and checks every level's
    boundary candidate in lockstep; ctx.distance then takes them up level
    by level and runs ADMM only where a candidate's duality gap misses the
    level's tolerance, so a level past the verdict never runs it and a
    SolverFailure comes from the first failing level the loop reaches.
    """
    if budget < 1:
        raise DimensionError("budget must be at least 1")
    if tol <= 0:
        raise DimensionError("tol must be positive")
    if ctx is None:
        ctx = located.OrbitBallContext(subspace, x)
    y = linalg.as_vector(y)
    tols = [min(tol, 2.0 ** -(n + 2)) for n in range(1, budget + 1)]
    ctx.solve_levels(y, range(1, budget + 1))
    levels: list[Level] = []
    verdict: object = None
    for n, tol_n in enumerate(tols, start=1):
        try:
            res = ctx.distance(y, float(n), tol=tol_n)
        except SolverFailure as exc:
            report = _close_report(levels, None, tol)
            raise SolverFailure(
                f"level {n} of the sweep failed: {exc}",
                lower=exc.lower, upper=exc.upper,
                iterations=exc.iterations, partial=report) from exc
        d_n = float(np.linalg.norm(y - res.point))
        levels.append(Level(n=n, d=d_n, y=res.point))
        if tail_bound(n, d_n) <= tol * tol:
            verdict = Located(d=d_n, y_inf=res.point)
            break
        # the level n - 1 answer came with solver tolerance 2^-(n+1) or tol
        if (len(levels) >= 2 and stabilize_check(levels[-2].d, d_n, stab_tol)
                and levels[-2].d - _lower_bound(ctx, y)
                <= tol + min(tol, 2.0 ** -(n + 1))):
            verdict = Stabilized(N=n - 1, d=levels[-2].d)
            break
    if verdict is None:
        verdict = Undecided(budget=budget, lower=0.0, upper=levels[-1].d)
    return _close_report(levels, verdict, tol)


def _lower_bound(ctx: located.OrbitBallContext, y) -> float:
    """Exact lower bound on the global distance: ||y - Py||, or 0 when the
    rank decision behind P is marginal."""
    return 0.0 if ctx.rank_margin() <= RANK_MARGIN else ctx.span_distance(y)


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
