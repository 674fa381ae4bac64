"""End-to-end distance to an operator orbit and the orbit projector.

The unit orbit ball contains a ball of radius r inside the orbit span W,
so points of the orbit at distance ||y|| from the origin are reachable at
scale N once N > 2||y||/r: the global distance then equals the level-N
ball distance. That, plus the orthogonal projector onto W, is everything
needed to locate orbits and certify the result against ||y - Py||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, located, open_mapping, operators
from .defaults import PROBE_SEED, TOL
from .errors import ConvergenceFailure, DimensionError, PipelineRefusal


@dataclass(frozen=True, eq=False)
class ProbeRow:
    y: np.ndarray
    N: int
    d_pipeline: float
    d_oracle: float


@dataclass(frozen=True, eq=False)
class ProjectionCertificate:
    P: np.ndarray
    rank: int
    r: float
    floor: float
    per_y_trace: tuple
    note: str = ""


def truncation_index(y, r: float) -> int:
    """Smallest integer N with N > 2||y||/r.

    The comparison carries a 1+1e-12 safety factor so values that are
    integers up to roundoff still satisfy the strict inequality.
    """
    r = float(r)
    if r <= 0.0:
        raise DimensionError("truncation needs a positive inner radius")
    ny = float(np.linalg.norm(linalg.as_vector(y))) if np.ndim(y) else float(abs(y))
    ratio = 2.0 * ny / r
    return int(math.floor(ratio * (1.0 + 1e-12))) + 1


def _inner_radius_in_span(
        ctx: located.OrbitBallContext) -> open_mapping.RadiusResult:
    if ctx.rank == 0:
        raise DimensionError("orbit has rank 0; the unit ball is just {0}")
    ball = located.orbit_ball(ctx.subspace, ctx.x, 1.0, ctx=ctx)
    return open_mapping.inner_radius(ball, list(ctx.geo.orbit_basis))


def span_inner_radius(subspace: operators.OperatorSubspace, x):
    """Inner radius of the unit orbit ball inside its own span, with its
    floor, tightest direction and method. Refuses on a rank-0 orbit, where
    the ball is {0} and no radius is meaningful."""
    ctx = located.OrbitBallContext(subspace, x)
    if ctx.rank == 0:
        raise PipelineRefusal(
            "orbit has rank 0: the unit orbit ball is {0}", radius=0.0)
    return _inner_radius_in_span(ctx)


def pipeline_distance(subspace: operators.OperatorSubspace, x, y,
                      tol: float = TOL, *,
                      ctx: located.OrbitBallContext | None = None,
                      radius: float | None = None) -> tuple:
    """Distance from y to the full orbit, via one truncated ball query.

    Takes r = `radius`, or the floor of the inner radius of the unit orbit
    ball inside the orbit span, truncates at N = truncation_index(y, r),
    and returns (ball_distance(y, N), N). Refuses when r <= tol: with a
    vanishing inner radius no truncation level can be trusted, which is
    exactly the obstruction the scaled-axis family exhibits, and the level
    sweep of the nested module is the honest fallback. The result is
    cross-checked against the projector value ||y - Py||.
    """
    if ctx is None:
        ctx = located.OrbitBallContext(subspace, x)
    y = linalg.as_vector(y)
    if radius is None:
        if ctx.rank == 0:
            raise PipelineRefusal(
                "orbit rank is 0: inner radius collapses; use the level "
                "sweep instead", radius=0.0)
        radius = _inner_radius_in_span(ctx).floor
    if radius <= tol:
        raise PipelineRefusal(
            f"inner radius {radius:.3e} is not distinguishable from 0 at "
            f"tolerance {tol:g}; no computable truncation level exists "
            "(scale the generators or fall back to the level sweep)",
            radius=float(radius))
    N = truncation_index(y, radius)
    res = ctx.distance(y, float(N), tol=tol)
    d = float(res.value)
    base = float(np.linalg.norm(y - ctx.geo.P @ y))
    if abs(d - base) > 2.0 * tol:
        raise ConvergenceFailure(
            f"pipeline distance {d:.12g} disagrees with the projector "
            f"value {base:.12g} beyond 2*tol",
            best=d, residual=abs(d - base), iterations=res.iterations)
    return d, N


def build_projection(subspace: operators.OperatorSubspace, x,
                     tol: float = TOL, *,
                     probes: int = 8) -> ProjectionCertificate:
    """Orthogonal projector onto the orbit span, with a probe trace.

    A rank-0 orbit yields the zero projector, radius 0 and an empty
    trace. Otherwise each probe y (canonical basis vectors, then `probes`
    seeded pseudo-random vectors) is pushed through the full pipeline and
    recorded next to the ground-truth value ||y - Py||; pipeline_distance
    raises ConvergenceFailure when a probe's distance disagrees with that
    value, or SolverFailure when its solve does not close.
    """
    ctx = located.OrbitBallContext(subspace, x)
    dim = ctx.x.size
    if ctx.rank == 0:
        return ProjectionCertificate(
            P=np.zeros((dim, dim)), rank=0, r=0.0, floor=0.0, per_y_trace=(),
            note="rank-0 orbit: projector is 0 and no probes apply")
    rr = _inner_radius_in_span(ctx)
    P = ctx.geo.P
    rows = []
    rng = np.random.default_rng(PROBE_SEED)
    probe_list = [np.eye(dim)[i] for i in range(dim)]
    for _ in range(probes):
        v = rng.standard_normal(dim)
        v /= max(float(np.linalg.norm(v)), 1e-300)
        probe_list.append(v * rng.uniform(0.2, 2.0))
    for y in probe_list:
        d_oracle = float(np.linalg.norm(y - P @ y))
        if rr.floor <= tol:
            rows.append(ProbeRow(y=y, N=0, d_pipeline=float("nan"),
                                 d_oracle=d_oracle))
            continue
        d, N = pipeline_distance(subspace, x, y, tol,
                                 ctx=ctx, radius=rr.floor)
        rows.append(ProbeRow(y=y, N=N, d_pipeline=d, d_oracle=d_oracle))
    note = f"probe seed {PROBE_SEED}"
    if rr.floor <= tol:
        note += "; inner radius at tolerance floor, pipeline skipped"
    return ProjectionCertificate(P=P, rank=ctx.rank, r=rr.r, floor=rr.floor,
                                 per_y_trace=tuple(rows), note=note)


def metric_complement_distance(subspace: operators.OperatorSubspace,
                               x) -> float:
    """Distance from 0 to the within-span complement of the unit orbit
    ball: how far one can move inside the orbit span before it becomes
    possible to leave the ball. For a closed balanced convex body with
    interior this is the inscribed-ball radius. Returns the estimate r of
    span_inner_radius, not its rigorous floor: r can exceed the true
    radius when the search misses the maximiser (seen at m >= 6)."""
    rr = _inner_radius_in_span(located.OrbitBallContext(subspace, x))
    return float(rr.r)
