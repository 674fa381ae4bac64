"""Greedy geometric decomposition and inner radii of balanced convex bodies.

For a located, bounded, balanced, convex body C and a target y with
||y|| < r, the doubling recursion u_i = 2 u_{i-1} - x_i either writes y as
a series sum 2^{-i} x_i with every x_i in 2C, or runs into a residual
vector provably bounded away from C; it stops once the residual meets the
precision target. A branch and bound over unit directions for the largest
gauge value gives the inner radius with a rigorous floor, and stops once
its best gauge reaches the body's gauge ceiling. The open-mapping radius
of a surjective matrix is its smallest singular value sigma_min.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import linalg, located
from .defaults import RANK_TOL
from .errors import DimensionError


class DecompositionStep(NamedTuple):
    """One dichotomy step: the chosen vector x_i in 2C (zeros on a witness
    step, which picks no vector), the branch flag, and the achieved
    residual ||y - sum_{j<=i} 2^-j x_j||."""
    i: int
    x: np.ndarray
    lam: int
    residual: float


class Member(NamedTuple):
    """y is certified in 2C: xi = sum_{j<=i} 2^-j x_j over the steps taken,
    which lies in 2C, with ||y - xi|| <= 2^-max_steps r + 4 tol."""
    xi: np.ndarray


class Witness(NamedTuple):
    z: np.ndarray
    dist_z: float


class Undecided(NamedTuple):
    """Dichotomy landed in the dead band, or the residual missed its
    target."""
    residual: float


class Decomposition(NamedTuple):
    steps: tuple
    outcome: object
    r: float
    y: np.ndarray


class RadiusResult(NamedTuple):
    """An inner radius of a body along a subspace W. floor is the rigorous
    lower end: B(0, floor) of W lies inside the body. It is the larger of
    the search's own floor and 1 over the body's gauge ceiling. r =
    1/(largest gauge found) is an estimate, at least floor, that can exceed
    the true radius when the search misses the maximiser (seen at m >= 6),
    and within a factor 1 + _BB_REL of floor when the search stopped at the
    ceiling. direction is the unit vector of that largest gauge, and method
    names the route. r and direction follow the ranking of computed gauges,
    so where maximisers nearly tie, gauges that move in their last bits can
    switch them (wide-draw problem 181: r 1.04448 instead of 1.04476) while
    floor, the certified value, stays a floor (there it did not move)."""
    r: float
    direction: np.ndarray
    method: str
    floor: float


def _lex_smaller(w: np.ndarray) -> np.ndarray:
    # deterministic representative of the antipodal pair {w, -w}
    neg = -w
    return w if tuple(w) <= tuple(neg) else neg


def greedy_decompose(y, C: located.LocatedSet, r: float,
                     max_steps: int = 40, *, tol: float = 1e-9) -> Decomposition:
    """Run the doubling dichotomy for y against the body C.

    Per step, with running vector u (initially y, always of norm < r):
    query d = dist(u, C) at tol, once. d < r/2 continues the decomposition
    with x_i = 2 * nearest(u); d above max(r/4, 10*tol) stops with the
    witness z = u, which is bounded away from C yet shorter than r. The
    branches overlap and continuation is preferred; a query landing in the
    dead band between them, or whose doubled residual would leave the
    radius, is given up as Undecided. The run stops as a Member as soon as
    a continuation's residual ||y - acc|| is at most 2^-max_steps r + 4 tol,
    the target a full run of max_steps continuations must meet, with
    xi = acc = sum_{j<=i} 2^-j x_j. So gauge(xi) <= 2: the x_j lie in 2C,
    and the missing weight 2^-i sits on 0, which lies in 2C as C is
    balanced and convex. An exact oracle meets the target at step 1; an
    inexact one only near step max_steps, and a full run that misses it is
    Undecided.
    """
    y = linalg.as_vector(y)
    r = float(r)
    ny = float(np.linalg.norm(y))
    if not ny < r < np.inf:
        raise DimensionError(
            f"decomposition needs a finite r > ||y|| strictly, got r={r:g}, ||y||={ny:g}")
    max_steps = linalg.as_budget(max_steps, "max_steps")
    tol = linalg.as_tol(tol)
    u = y.copy()
    acc = np.zeros_like(y)
    steps: list[DecompositionStep] = []
    target = (2.0 ** -max_steps) * r + 4.0 * tol
    for i in range(1, max_steps + 1):
        res = C.locate(u, tol)
        d = res.value
        # prefer continuation; the achieved doubled residual must keep the
        # running vector strictly inside radius r
        if d < 0.5 * r and 2.0 * float(np.linalg.norm(u - res.point)) < r:
            x_i = 2.0 * res.point
            u = 2.0 * u - x_i
            acc = acc + (2.0 ** -i) * x_i
            residual = float(np.linalg.norm(y - acc))
            steps.append(DecompositionStep(i=i, x=x_i, lam=0,
                                           residual=residual))
            if residual <= target:
                outcome = Member(xi=acc)
                break
        elif d > max(r / 4.0, 10.0 * tol):
            steps.append(DecompositionStep(
                i=i, x=np.zeros_like(y), lam=1, residual=d))
            outcome = Witness(z=u.copy(), dist_z=d)
            break
        else:
            outcome = Undecided(residual=d)
            break
    else:
        outcome = Undecided(residual=steps[-1].residual)
    return Decomposition(steps=tuple(steps), outcome=outcome, r=r, y=y)


# branch and bound of inner_radius over cube-face cells
_BB_REL = 1e-9      # a cell stays live while its bound exceeds (best + slack) * (1 + _BB_REL)
_BB_KEEP = 4        # live cells split per round (at least m); the rest bound the floor
_BB_HALVINGS = 4    # a split halves the cell's widest side this many times


def inner_radius(C: located.LocatedSet, W_basis) -> RadiusResult:
    """Largest rho with the ball B(0, rho) of span(W_basis) inside C, with
    a rigorous floor; only C's gauge oracle is queried.

    rho is 1 over the maximum gauge g on the unit sphere of W, found by a
    branch and bound (Piyavskii 1972; Shubert 1972) whose cells are
    (m-1)-boxes on the faces {u_i = 1} of the cube, covering the sphere up
    to sign. C.gauge_on(W's basis) is asked once, for the gauge as a
    function of coordinates, the set's gauge ceiling, an upper bound on
    every gauge of the sphere, and its slack, by which rounding can leave
    a computed gauge below the exact one g; each round is one call of that
    function over the cells' centres, the axes first. A computed gauge plus
    the slack, G, is at least g, and a cell with sides h_j and centre c on
    face i holds no gauge above the smaller of G(c/|c|) / cos delta, with
    delta = 2 asin(|h|/4) its angular radius (at the maximiser w*,
    g(u) >= g(w*) cos angle(u, w*) by the supporting plane there), and
    |c| G(c/|c|) + sum_{j != i} (h_j/2) G(e_j), by subadditivity, as the
    face has norm >= 1. A cell stays live while its bound exceeds
    (best + slack) * (1 + _BB_REL); the max(_BB_KEEP, m) with the largest
    centre gauges split into 2**_BB_HALVINGS cells each, and the largest
    bound of the rest is kept. Every cell of a round has the same sides,
    so a round's child offsets are built once per (m, round) (_children).

    The search also stops at the ceiling: after a round whose
    (best + slack) * (1 + _BB_REL) reaches it, no cell can beat the best
    found by more than that factor, the tolerance the cells are pruned at.

    r is 1 over the best gauge found, direction its unit vector, and floor
    1 over the smaller of the ceiling and the larger of
    (best + slack) * (1 + _BB_REL) and that kept bound, so it is at least 1
    over the ceiling, and at most 1 over the largest exact gauge. The live
    cells are ranked by their computed gauges, so r and direction can
    switch between near-tied maximisers (see RadiusResult). Every rank
    runs this search; the line (m = 1) is one cell, its axis. An infinite
    gauge short-circuits to r = 0.
    """
    vectors = [linalg.as_vector(w) for w in W_basis]
    for w in vectors:
        if w.size != C.ambient_dim:
            raise DimensionError(
                f"W_basis vector has length {w.size}, expected {C.ambient_dim}")
    basis, m = linalg.orthonormalize(vectors)
    if m == 0:
        raise DimensionError("W_basis spans nothing; no inner radius")
    B = np.stack(basis, axis=1)
    method = "axis" if m == 1 else "circle-scan" if m == 2 else "sphere-scan"
    g, w, top = _branch_and_bound(C, B)
    if not np.isfinite(g):
        return RadiusResult(0.0, _lex_smaller(B @ w), "unbounded-gauge",
                            floor=0.0)
    if g <= 0.0:
        raise DimensionError("gauge vanishes along W; body is unbounded")
    return RadiusResult(1.0 / g, _lex_smaller(B @ w), method, floor=1.0 / top)


@functools.lru_cache(maxsize=256)
def _children(m: int, depth: int) -> tuple:
    """How _branch_and_bound splits a cell of round `depth` (counted from
    0) in R^m, m >= 2: (kids, h), with kids[i] the offsets from a face-i
    cell's centre to its children's centres, one row per child, and h the
    side lengths every child has along its face's axes. Every cell of a
    round has the same sides, 2 at round 0, and a split halves the widest
    (the first on a tie) _BB_HALVINGS times, so both depend on (m, depth)
    alone. Shared, so read-only."""
    h = np.full(m - 1, 2.0) if depth == 0 else _children(m, depth - 1)[1]
    parts = np.ones(m - 1, dtype=int)
    for _ in range(_BB_HALVINGS):
        parts[np.argmax(h / parts)] *= 2
    grid = ((np.indices(parts).reshape(m - 1, -1).T + 0.5) / parts - 0.5) * h
    kids = np.zeros((m, len(grid), m))
    kids[np.arange(m)[:, None, None], np.arange(len(grid))[:, None],
         _others(m)[:, None, :]] = grid
    h = h / parts
    kids.flags.writeable = h.flags.writeable = False
    return kids, h


def _others(m: int) -> np.ndarray:
    # others[i]: the in-face axes of face i, in order
    return np.arange(m - 1) + (np.arange(m - 1) >= np.arange(m)[:, None])


def _branch_and_bound(C, B: np.ndarray) -> tuple:
    """(best gauge found, its unit direction in the coordinates of B, the
    largest gauge on the sphere the search leaves possible, at most C's
    gauge ceiling); the best is inf, with its direction, as soon as a gauge
    is not finite. The bounds and the stop work on the values plus C's
    slack, upper bounds of the exact gauge; the best is a value as
    computed. It returns after the first round whose best plus slack is
    within a factor 1 + _BB_REL of the ceiling, with the ceiling as the
    largest possible gauge."""
    m = B.shape[1]
    gauges, ceiling, slack = C.gauge_on(B)
    # every cell of a round has the side lengths h along its face's axes
    centres, faces, h, depth = np.eye(m), np.arange(m), np.full(m - 1, 2.0), 0
    best, w, dropped, spread, keep = -np.inf, None, 0.0, None, max(_BB_KEEP, m)
    while True:
        norms = np.sqrt((centres * centres).sum(axis=1))
        dirs = centres / norms[:, None]
        vals = gauges(dirs)
        # argmax stops on the first nan, and otherwise on the first inf
        j = vals.argmax()
        if not np.isfinite(vals[j]):
            return np.inf, dirs[j], np.inf
        if vals[j] > best:
            best, w = float(vals[j]), dirs[j]
        cut = (best + slack) * (1.0 + _BB_REL)
        if cut >= ceiling:
            return best, w, ceiling
        hi = vals + slack
        if spread is None:
            # round 1 gauged the axes: spread[i] holds the values at the
            # in-face axes of face i
            spread = hi[_others(m)]
        # a point of the cell has norm >= 1 and, by subadditivity, a gauge
        # of at most g(centre) + sum_j (h_j / 2) g(e_j)
        bound = norms * hi
        bound += 0.5 * (spread @ h)[faces]
        # cos delta = 1 - 2 sin^2(delta / 2); nonpositive past a quarter sphere
        cos = 1.0 - (h @ h) / 8.0
        if cos > 0.0:
            np.minimum(bound, hi / cos, out=bound)
        # rank by centre gauge, the angular bound's order, also where that
        # bound is void: the subadditivity bound, largest at the corners of
        # a face, would steer the search away from the maximiser
        live = (bound > cut).nonzero()[0]
        live = live[(-vals[live]).argsort(kind="stable")]
        if live.size > keep:
            dropped = max(dropped, float(bound[live[keep:]].max()))
            live = live[:keep]
        if live.size == 0:
            return best, w, min(ceiling, max(cut, dropped))
        kids, h = _children(m, depth)
        depth += 1
        faces = faces[live]
        centres = (centres[live, None, :] + kids[faces]).reshape(-1, m)
        faces = faces.repeat(kids.shape[1])


def open_map_radius(T) -> RadiusResult:
    """Radius r with B(0, r) inside T(closed unit ball), for T onto R^m.

    Equals the m-th singular value of the m-by-n matrix T, from one
    checked SVD of T, with floor = r; T is onto when its row rank, the
    count of singular values above RANK_TOL s_1, is m. The returned
    direction is the corresponding left singular vector.
    """
    T = linalg.as_matrix(T)
    m, n = T.shape
    U, s, _ = linalg.checked_svd(T)
    row_rank = int(np.count_nonzero(s > RANK_TOL * s[0]))
    if row_rank < m:
        raise DimensionError(
            f"matrix with shape {m}x{n} has row rank {row_rank} < {m}; "
            "it is not onto its target")
    r = float(s[m - 1])
    return RadiusResult(r, _lex_smaller(U[:, m - 1]), "sigma-min", floor=r)
