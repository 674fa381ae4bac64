"""End-to-end distance to an operator orbit and the orbit projector.

The unit orbit ball contains a ball of radius r inside the orbit span W,
so points of the orbit at distance ||y|| from the origin are reachable at
scale N once N > 2||y||/r: the global distance then equals the level-N
ball distance. That, plus the orthogonal projector onto W, is everything
needed to locate orbits and certify the result against ||y - Py||, once
every route's one door has refused a zero or a marginal (undecided) rank.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import linalg, located, open_mapping, operators
from .defaults import PROBE_SEED, RANK_MARGIN, TOL
from .errors import ConvergenceFailure, DimensionError, PipelineRefusal


class ProbeRow(NamedTuple):
    y: np.ndarray
    N: int
    d_pipeline: float
    d_oracle: float


class ProjectionCertificate(NamedTuple):
    P: np.ndarray
    rank: int
    r: float
    floor: float
    per_y_trace: tuple
    note: str = ""


def truncation_index(y, r: float):
    """Smallest integer N with N > 2||y||/r for a vector y; for a stack of
    vectors (2-d y), one N per row as an int64 array, each equal to the N
    of that row alone.

    The comparison carries a 1+1e-12 safety factor so values that are
    integers up to roundoff still satisfy the strict inequality.
    """
    r = float(r)
    if not 0.0 < r < np.inf:
        raise DimensionError(f"truncation needs a finite positive inner radius, got {r}")
    arr = np.asarray(y, dtype=float)
    rows = linalg.as_matrix(arr) if arr.ndim == 2 else linalg.as_vector(arr)[None]
    below = np.floor(2.0 * np.linalg.norm(rows, axis=1) / r * (1.0 + 1e-12))
    if arr.ndim < 2:
        return int(below[0]) + 1
    if not below.max() < 2.0 ** 62:
        raise DimensionError("truncation index beyond the int64 range")
    return below.astype(np.int64) + 1


def _inner_radius_in_span(ctx: located.OrbitBallContext, search: bool = True):
    """The door of every pipeline route: PipelineRefusal, naming the rank
    and its margin, at rank 0 and at a marginal rank (ctx.marginal, which
    lower_bound reads too); past it, the inner radius in the span, if search."""
    if ctx.rank == 0 or ctx.marginal:
        raise PipelineRefusal(
            f"orbit rank {ctx.rank} at rank margin {ctx.rank_margin():.3g} is zero or "
            f"marginal (margin <= {RANK_MARGIN:g}): use the level sweep", radius=0.0)
    if not search:
        return None
    ball = located.orbit_ball(ctx.subspace, ctx.x, 1.0, ctx=ctx)
    # U_r from the checked SVD of Phi: an orthonormal basis of the span
    return open_mapping.inner_radius(ball, list(ctx.range_U.T))


def span_inner_radius(subspace: operators.OperatorSubspace, x):
    """Inner radius of the unit orbit ball inside its own span, with its
    floor, tightest direction and method, past _inner_radius_in_span's door."""
    return _inner_radius_in_span(located.OrbitBallContext(subspace, x))


def pipeline_distance(subspace: operators.OperatorSubspace, x, y,
                      tol: float = TOL, *,
                      ctx: located.OrbitBallContext | None = None,
                      radius: float | None = None) -> tuple:
    """Distance from y to the full orbit, via one truncated ball query.

    Takes r = `radius`, or the floor of the inner radius of the unit orbit
    ball inside the orbit span, truncates at N = truncation_index(y, r), and
    returns (ball_distance(y, N), N). Refuses at the door, and when r <= tol:
    with a vanishing inner radius no truncation level can be trusted, which
    is exactly the obstruction the scaled-axis family exhibits, and the level
    sweep of the nested module is the honest fallback. On the interior route
    (Py lies in the level-N ball) the returned distance is ||y - Py|| itself;
    on the certified route it is the ball solve's, and raises
    ConvergenceFailure when it disagrees with ||y - Py|| beyond 2 tol.
    """
    tol = linalg.as_tol(tol)
    if ctx is None:
        ctx = located.OrbitBallContext(subspace, x)
    y = linalg.as_vector(y)
    rr = _inner_radius_in_span(ctx, search=radius is None)
    radius = rr.floor if radius is None else radius
    if radius <= tol:
        raise PipelineRefusal(
            f"inner radius {radius:.3e} is not distinguishable from 0 at "
            f"tolerance {tol:g}; no computable truncation level exists "
            "(scale the generators or fall back to the level sweep)",
            radius=float(radius))
    N = truncation_index(y, radius)
    res = ctx.distance(y, float(N), tol=tol)
    d = float(res.value)
    base = ctx.span_distance(y)
    if abs(d - base) > 2.0 * tol:
        raise ConvergenceFailure(
            f"pipeline distance {d:.12g} disagrees with the projector "
            f"value {base:.12g} beyond 2*tol",
            best=d, residual=abs(d - base), iterations=res.iterations)
    return d, N


_PROBES = 8   # seeded random probes of build_projection, after the basis vectors


@functools.lru_cache(maxsize=16)
def _probe_set(dim: int) -> np.ndarray:
    """The probes of build_projection in R^dim, one per row: the canonical
    basis vectors, then _PROBES draws from default_rng(PROBE_SEED), each a
    normal vector scaled to a uniform length in [0.2, 2). Drawn once per
    dim and shared, so read-only."""
    rng = np.random.default_rng(PROBE_SEED)
    rows = list(np.eye(dim))
    for _ in range(_PROBES):
        v = rng.standard_normal(dim)
        v /= max(float(np.linalg.norm(v)), 1e-300)
        rows.append(v * rng.uniform(0.2, 2.0))
    Y = np.stack(rows)
    Y.flags.writeable = False
    return Y


def build_projection(subspace: operators.OperatorSubspace, x,
                     tol: float = TOL) -> ProjectionCertificate:
    """Orthogonal projector onto the orbit span, with a probe trace.

    A rank-0 orbit yields the zero projector, radius 0 and an empty
    trace. Otherwise each probe y (canonical basis vectors, then _PROBES
    seeded pseudo-random vectors, the read-only rows of _probe_set) is
    recorded with the truncation index N of the radius floor, taken for
    all probes in one row-wise call, the distance pipeline_distance
    returns at that floor, and the ground-truth value ||y - Py||, as the
    context's span_distance computes it, without its check of y. One
    stacked test settles the probes whose least-norm preimage of Py
    already lies in the level-N ball: their distance is ||y - Py|| by the
    interior route, so for them the recorded agreement holds by
    construction. Only the others run pipeline_distance, which raises
    ConvergenceFailure when a certified distance disagrees with
    ||y - Py||, or SolverFailure when its solve does not close. A
    marginal rank is refused at the door, before any probe.
    """
    tol = linalg.as_tol(tol)
    ctx = located.OrbitBallContext(subspace, x)
    dim = ctx.x.size
    if ctx.rank == 0:
        return ProjectionCertificate(
            P=np.zeros((dim, dim)), rank=0, r=0.0, floor=0.0, per_y_trace=(),
            note="rank-0 orbit: projector is 0 and no probes apply")
    rr = _inner_radius_in_span(ctx)
    Y = _probe_set(dim)
    P = ctx.geo.P
    d_oracle = [math.sqrt(r.dot(r)) for r in (y - P @ y for y in Y)]
    note = f"probe seed {PROBE_SEED}"
    if rr.floor <= tol:
        rows = [ProbeRow(y=y, N=0, d_pipeline=float("nan"), d_oracle=d)
                for y, d in zip(Y, d_oracle)]
        note += "; inner radius at tolerance floor, pipeline skipped"
    else:
        Ns = truncation_index(Y, rr.floor)
        inside = ctx.interior_rows(Y, Ns.astype(float))
        rows = []
        for y, N, d, ok in zip(Y, Ns.tolist(), d_oracle, inside):
            d_pipe = d if ok else pipeline_distance(
                subspace, x, y, tol, ctx=ctx, radius=rr.floor)[0]
            rows.append(ProbeRow(y=y, N=N, d_pipeline=d_pipe, d_oracle=d))
    return ProjectionCertificate(P=ctx.geo.P, rank=ctx.rank, r=rr.r, floor=rr.floor,
                                 per_y_trace=tuple(rows), note=note)


def metric_complement_distance(subspace: operators.OperatorSubspace,
                               x) -> float:
    """Distance from 0 to the within-span complement of the unit orbit
    ball: how far one can move inside the orbit span before it becomes
    possible to leave the ball. For a closed balanced convex body with
    interior this is the inscribed-ball radius. Returns the estimate r of
    span_inner_radius, not its rigorous floor: r can exceed the true
    radius when the search misses the maximiser (seen at m >= 6), and it
    can switch between near-tied maximisers (see open_mapping.RadiusResult)."""
    return float(span_inner_radius(subspace, x).r)
