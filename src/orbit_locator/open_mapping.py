"""Greedy geometric decomposition and inner radii of balanced convex bodies.

For a located, bounded, balanced, convex body C and a target y with
||y|| < r, the doubling recursion u_i = 2 u_{i-1} - x_i either writes y as
a series sum 2^{-i} x_i with every x_i in 2C, or runs into a residual
vector provably bounded away from C. A branch and bound over unit
directions for the largest gauge value gives the inner radius with a
rigorous floor, and the open-mapping radius of a surjective matrix is its
smallest singular value sigma_min.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, located
from .defaults import GAUGE_TOL, RANK_TOL
from .errors import DimensionError


@dataclass(frozen=True, eq=False)
class DecompositionStep:
    """One dichotomy step: the chosen vector x_i in 2C (zeros on a witness
    step, which picks no vector), the branch flag, and the achieved
    residual ||y - sum_{j<=i} 2^-j x_j||."""
    i: int
    x: np.ndarray
    lam: int
    residual: float


@dataclass(frozen=True, eq=False)
class Member:
    xi: np.ndarray


@dataclass(frozen=True, eq=False)
class Witness:
    z: np.ndarray
    dist_z: float


@dataclass(frozen=True, eq=False)
class Undecided:
    """Dichotomy landed in the dead band, or the residual missed its
    target."""
    residual: float


@dataclass(frozen=True, eq=False)
class Decomposition:
    steps: tuple
    outcome: object
    r: float
    y: np.ndarray


@dataclass(frozen=True, eq=False)
class RadiusResult:
    """An inner radius of a body along a subspace W. floor is the rigorous
    lower end: B(0, floor) of W lies inside the body. r = 1/(largest gauge
    found) is an estimate, at least floor, that can exceed the true radius
    when the search misses the maximiser (seen at m >= 6). direction is the
    unit vector of that largest gauge, and method names the route."""
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
    radius, is given up as Undecided. A full run of continuations is a
    Member with xi = sum 2^-i x_i (last term doubled so the weights sum to
    1), so gauge(xi) <= 2.
    """
    y = linalg.as_vector(y)
    r = float(r)
    ny = float(np.linalg.norm(y))
    if not ny < r:
        raise DimensionError(
            f"decomposition needs r > ||y|| strictly, got r={r:g}, ||y||={ny:g}")
    if max_steps < 1:
        raise DimensionError("max_steps must be at least 1")
    u = y.copy()
    acc = np.zeros_like(y)
    steps: list[DecompositionStep] = []
    last_x = np.zeros_like(y)
    for i in range(1, max_steps + 1):
        res = C.locate(u, tol)
        d = res.value
        # prefer continuation; the achieved doubled residual must keep the
        # running vector strictly inside radius r
        if d < 0.5 * r and 2.0 * float(np.linalg.norm(u - res.point)) < r:
            x_i = 2.0 * res.point
            u = 2.0 * u - x_i
            acc = acc + (2.0 ** -i) * x_i
            last_x = x_i
            steps.append(DecompositionStep(
                i=i, x=x_i, lam=0,
                residual=float(np.linalg.norm(y - acc))))
            continue
        if d > max(r / 4.0, 10.0 * tol):
            steps.append(DecompositionStep(
                i=i, x=np.zeros_like(y), lam=1, residual=d))
            return Decomposition(steps=tuple(steps),
                                 outcome=Witness(z=u.copy(), dist_z=d),
                                 r=r, y=y)
        return Decomposition(steps=tuple(steps),
                             outcome=Undecided(residual=d), r=r, y=y)
    n = max_steps
    final = float(np.linalg.norm(y - acc))
    if final > (2.0 ** -n) * r + 4.0 * tol:
        return Decomposition(steps=tuple(steps),
                             outcome=Undecided(residual=final), r=r, y=y)
    xi = acc + (2.0 ** -n) * last_x
    return Decomposition(steps=tuple(steps), outcome=Member(xi=xi), r=r, y=y)


# branch and bound of inner_radius over cube-face cells
_BB_REL = 1e-9      # a cell stays live while its bound exceeds best * (1 + _BB_REL)
_BB_KEEP = 4        # live cells split per round (at least m); the rest bound the floor
_BB_HALVINGS = 4    # a split halves the cell's widest side this many times


def inner_radius(C: located.LocatedSet, W_basis) -> RadiusResult:
    """Largest rho with the ball B(0, rho) of span(W_basis) inside C, with
    a rigorous floor; only C's gauge oracle is queried.

    rho is 1 over the maximum gauge g on the unit sphere of W, found by a
    branch and bound (Piyavskii 1972; Shubert 1972) whose cells are
    (m-1)-boxes on the faces {u_i = 1} of the cube, covering the sphere up
    to sign. Each round is one gauge call over its cells' centres, the axes
    first. A computed gauge is sigma1 at a feasible preimage, so at least g,
    and a cell with sides h_j and centre c on face i holds no gauge above
    the smaller of g(c/|c|) / cos delta, with delta = 2 asin(|h|/4) its
    angular radius (at the maximiser w*, g(u) >= g(w*) cos angle(u, w*) by
    the supporting plane there), and |c| g(c/|c|) + sum_{j != i} (h_j/2)
    g(e_j), by subadditivity, as the face has norm >= 1. A cell stays live
    while its bound exceeds best * (1 + _BB_REL); the max(_BB_KEEP, m) with
    the largest centre gauges split into 2**_BB_HALVINGS cells each, and the
    largest bound of the rest is kept.

    r is 1 over the best gauge found, direction its unit vector, and floor
    1 over the larger of best * (1 + _BB_REL) and that kept bound. The line
    (m = 1) is one tight gauge, with floor = r. An infinite gauge
    short-circuits to r = 0.
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
    if m == 1:
        method, w = "axis", np.ones(1)
        g = top = C.gauge(B[:, 0], GAUGE_TOL)
    else:
        method = "circle-scan" if m == 2 else "sphere-scan"
        g, w, top = _branch_and_bound(C, B)
    if not np.isfinite(g):
        return RadiusResult(0.0, _lex_smaller(B @ w), "unbounded-gauge",
                            floor=0.0)
    if g <= 0.0:
        raise DimensionError("gauge vanishes along W; body is unbounded")
    return RadiusResult(1.0 / g, _lex_smaller(B @ w), method, floor=1.0 / top)


def _branch_and_bound(C, B: np.ndarray) -> tuple:
    """(best gauge found, its unit direction in the coordinates of B, the
    largest gauge on the sphere the search leaves possible); the best is
    inf, with its direction, as soon as a gauge is not finite."""
    m = B.shape[1]
    # every cell of a round has the side lengths h along its face's axes
    centres, faces, h = np.eye(m), np.arange(m), np.full(m - 1, 2.0)
    best, w, dropped, axes, keep = -np.inf, None, 0.0, None, max(_BB_KEEP, m)
    while True:
        norms = np.linalg.norm(centres, axis=1)
        dirs = centres / norms[:, None]
        vals = C.gauges(dirs @ B.T, GAUGE_TOL)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            return np.inf, dirs[int(np.argmax(bad))], np.inf
        j = int(np.argmax(vals))
        if vals[j] > best:
            best, w = float(vals[j]), dirs[j]
        axes = vals if axes is None else axes  # round 1 gauged the axes
        # a point of the cell has norm >= 1 and, by subadditivity, a gauge
        # of at most g(centre) + sum_j (h_j / 2) g(e_j)
        sides = np.stack([np.insert(h, i, 0.0) for i in range(m)])
        bound = norms * vals + 0.5 * (sides @ axes)[faces]
        # cos delta = 1 - 2 sin^2(delta / 2); nonpositive past a quarter sphere
        cos = 1.0 - (h @ h) / 8.0
        if cos > 0.0:
            bound = np.minimum(bound, vals / cos)
        # rank by centre gauge, the angular bound's order, also where that
        # bound is void: the subadditivity bound, largest at the corners of
        # a face, would steer the search away from the maximiser
        live = np.flatnonzero(bound > best * (1.0 + _BB_REL))
        live = live[np.argsort(-vals[live], kind="stable")]
        if live.size > keep:
            dropped = max(dropped, float(bound[live[keep:]].max()))
            live = live[:keep]
        if live.size == 0:
            return best, w, max(best * (1.0 + _BB_REL), dropped)
        # halve the widest side (the first on a tie) _BB_HALVINGS times
        parts = np.ones(m - 1, dtype=int)
        for _ in range(_BB_HALVINGS):
            parts[np.argmax(h / parts)] *= 2
        offsets = [((np.arange(p) + 0.5) / p - 0.5) * s for p, s in zip(parts, h)]
        grid = np.stack(np.meshgrid(*offsets, indexing="ij"), -1).reshape(-1, m - 1)
        kids = np.stack([np.insert(grid, i, 0.0, axis=1) for i in range(m)])
        centres = (centres[live, None, :] + kids[faces[live]]).reshape(-1, m)
        faces = np.repeat(faces[live], grid.shape[0])
        h = h / parts


def open_map_radius(T, rank_tol: float = RANK_TOL) -> RadiusResult:
    """Radius r with B(0, r) inside T(closed unit ball), for T onto R^m.

    Equals the m-th singular value of the m-by-n matrix T, from the
    eigenvalues of T T' (sym_eigh_desc checks the residual of every
    eigenpair), with floor = r. The returned direction is the
    corresponding left singular vector.
    """
    T = linalg.as_matrix(T)
    m, n = T.shape
    G = T @ T.T
    lams, U = linalg.sym_eigh_desc(G, 1e-14)
    lam_top = float(lams[0])
    row_rank = int(np.sum(lams > (rank_tol ** 2) * max(lam_top, 1e-300)))
    if row_rank < m:
        raise DimensionError(
            f"matrix with shape {m}x{n} has row rank {row_rank} < {m}; "
            "it is not onto its target")
    r = float(np.sqrt(max(float(lams[-1]), 0.0)))
    u_min = _lex_smaller(U[:, -1])
    return RadiusResult(r, u_min, "sigma-min", floor=r)
