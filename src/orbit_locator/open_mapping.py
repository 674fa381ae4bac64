"""Greedy geometric decomposition and inner radii of balanced convex bodies.

For a located, bounded, balanced, convex body C and a target y with
||y|| < r, the doubling recursion u_i = 2 u_{i-1} - x_i either writes y as
a series sum 2^{-i} x_i with every x_i in 2C, or runs into a residual
vector provably bounded away from C. Scanning unit directions for the
largest gauge value turns the same machinery into an inner-radius
computation, and applying it to the image of the unit ball under a
surjective matrix recovers the open-mapping radius sigma_min.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, located
from .defaults import GAUGE_TOL, PROBE_SEED, RANK_TOL
from .errors import ConvergenceFailure, DimensionError


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
    """Dichotomy landed in the dead band (or the residual missed its
    target) and a finer re-query did not separate the branches."""
    residual: float


@dataclass(frozen=True, eq=False)
class Decomposition:
    steps: tuple
    outcome: object
    r: float
    y: np.ndarray


@dataclass(frozen=True, eq=False)
class RadiusResult:
    r: float
    direction: np.ndarray
    method: str
    tol: float


def _lex_smaller(w: np.ndarray) -> np.ndarray:
    # deterministic representative of the antipodal pair {w, -w}
    neg = -w
    return w if tuple(w) <= tuple(neg) else neg


def greedy_decompose(y, C: located.LocatedSet, r: float,
                     max_steps: int = 40, *, tol: float = 1e-9) -> Decomposition:
    """Run the doubling dichotomy for y against the body C.

    Per step, with running vector u (initially y, always of norm < r):
    query d = dist(u, C). d < r/2 continues the decomposition with
    x_i = 2 * nearest(u); d above max(r/4, 10*tol) stops with the witness
    z = u, which is bounded away from C yet shorter than r. The branches
    overlap and continuation is preferred; a query landing in the dead
    band between them is retried at tol/100 and then given up as
    Undecided. A full run of continuations is a Member with
    xi = sum 2^-i x_i (last term doubled so the weights sum to 1), so
    gauge(xi) <= 2.
    """
    y = linalg.as_vector(y)
    r = float(r)
    ny = float(np.linalg.norm(y))
    if not ny < r:
        raise DimensionError(
            f"decomposition needs r > ||y|| strictly, got r={r:g}, ||y||={ny:g}")
    if max_steps < 1:
        raise DimensionError("max_steps must be at least 1")
    threshold = max(r / 4.0, 10.0 * tol)
    u = y.copy()
    acc = np.zeros_like(y)
    steps: list[DecompositionStep] = []
    last_x = np.zeros_like(y)
    for i in range(1, max_steps + 1):
        d = None
        for qtol in (tol, tol / 100.0):
            res = C.locate(u, qtol)
            d = res.value
            # prefer continuation; the achieved doubled residual must keep
            # the running vector strictly inside radius r
            doubled = 2.0 * float(np.linalg.norm(u - res.point))
            if d < 0.5 * r and doubled < r:
                break
            if d > threshold:
                break
        if d < 0.5 * r and 2.0 * float(np.linalg.norm(u - res.point)) < r:
            x_i = 2.0 * res.point
            u = 2.0 * u - x_i
            acc = acc + (2.0 ** -i) * x_i
            last_x = x_i
            steps.append(DecompositionStep(
                i=i, x=x_i, lam=0,
                residual=float(np.linalg.norm(y - acc))))
            continue
        if d > threshold:
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


def inner_radius(C: located.LocatedSet, W_basis, tol: float = 1e-6, *,
                 samples: int = 512) -> RadiusResult:
    """Largest rho with the ball B(0, rho) of span(W_basis) inside C.

    Equals 1 over the maximum gauge on the unit sphere of W. The sphere is
    scanned with a deterministic sample in one row-wise gauge call: the
    single axis in one dimension, a uniform half-circle of angles in two,
    a seeded set of directions above that. The best sample is refined by
    pattern descent in its tangent space, one gauge call per round (a
    round probes four step sizes at once), and the result is certified two
    ways: gauge checks at the worst direction and a full greedy membership
    run at radius r(1-tol). An infinite gauge along any sampled direction
    short-circuits to r = 0 with that direction reported.
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
    # scan with a coarse gauge (selects the best cell only), refine and
    # certify with a tight one; an incomplete gauge descent overestimates,
    # so the scan can misrank cells only within its own tolerance. The one
    # direction of a line is scanned tight and needs no refinement.
    scan_tol = max(min(1e-6, tol / 4.0), GAUGE_TOL)
    tight_tol = GAUGE_TOL
    if m == 1:
        method, dirs, scan_tol = "axis", np.ones((1, 1)), tight_tol
    elif m == 2:
        thetas = np.linspace(0.0, np.pi, samples, endpoint=False)
        method = "circle-scan"
        dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    else:
        rng = np.random.default_rng(PROBE_SEED)
        method = "sphere-scan"
        dirs = rng.standard_normal((max(samples, 256 * m), m))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = C.gauges(dirs @ B.T, scan_tol)
    if np.any(~np.isfinite(vals)):
        j = int(np.argmax(~np.isfinite(vals)))
        return RadiusResult(0.0, _lex_smaller(B @ dirs[j]),
                            "unbounded-gauge", tol)
    best = _argmax_lex(vals, dirs @ B.T)
    w, g = dirs[best], float(vals[best])
    if m > 1:
        w = _refine(C, B, w, scan_tol, len(dirs))
        g = C.gauge(B @ w, tight_tol)
    if g <= 0.0:
        raise DimensionError("gauge vanishes along W; body is unbounded")
    return _certified(C, 1.0 / g, _lex_smaller(B @ w), method, tol)


def _refine(C, B: np.ndarray, w0: np.ndarray, gtol: float,
            count: int) -> np.ndarray:
    """Pattern-ascend the gauge from the unit direction w0 (coordinates in
    the orthonormal columns of B) over the tangent chart w(z) ~ w0 + T z,
    starting at the spacing of a count-point sample of the sphere."""
    m = w0.size
    Tspan, _ = linalg.orthonormalize(
        [e - float(e @ w0) * w0 for e in np.eye(m)], 1e-8)
    Tm = np.stack(Tspan, axis=1)

    def neg_gauge(rows, P):
        # one search: its probes are the rows of P[0]
        W = w0 + P[0] @ Tm.T
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        return -C.gauges(W @ B.T, gtol)[None, :]

    z, _, _ = located.compass_min(
        neg_gauge, np.zeros((1, Tm.shape[1])),
        init_step=np.pi / max(8.0, count ** (1.0 / (m - 1))),
        step_tol=1e-9)
    w = w0 + Tm @ z[0]
    return w / float(np.linalg.norm(w))


def _argmax_lex(vals: np.ndarray, dirs_ambient) -> int:
    """Index of the largest value; values within 1e-12 max(top, 1) of it
    tie, and the lexicographically smallest _lex_smaller direction wins."""
    top = float(np.max(vals))
    tied = np.flatnonzero(vals >= top - 1e-12 * max(top, 1.0))
    W = np.asarray(dirs_ambient, dtype=float)[tied]
    # _lex_smaller(w) is -w exactly when the first nonzero entry is positive
    lead = W[np.arange(len(W)), (W != 0.0).argmax(axis=1)]
    W = np.where((lead > 0.0)[:, None], -W, W)
    # lexsort is stable and takes its primary key last
    return int(tied[np.lexsort(W.T[::-1])[0]])


def _certified(C, r: float, direction: np.ndarray, method: str,
               tol: float) -> RadiusResult:
    # the edge check at r*direction and the check just outside, in one call
    g_edge, g_out = C.gauges(np.outer((1.0, 1.0 + 5.0 * tol), r * direction),
                             GAUGE_TOL)
    if g_edge > 1.0 + tol:
        raise ConvergenceFailure(
            f"radius certificate failed: gauge at r*direction is {g_edge:.9f}",
            best=r, residual=g_edge - 1.0, iterations=0)
    if not g_out > 1.0 - tol:
        raise ConvergenceFailure(
            "radius certificate failed: direction is not extremal",
            best=r, residual=1.0 - g_out, iterations=0)
    probe = (1.0 - tol) * r * direction
    dec = greedy_decompose(probe, C, r, max_steps=20, tol=min(tol, 1e-9))
    if not isinstance(dec.outcome, Member):
        raise ConvergenceFailure(
            f"radius membership run did not close ({type(dec.outcome).__name__})",
            best=r, residual=np.nan, iterations=len(dec.steps))
    return RadiusResult(r=r, direction=direction, method=method, tol=tol)


def open_map_radius(T, tol: float = 1e-6,
                    rank_tol: float = RANK_TOL) -> RadiusResult:
    """Radius r with B(0, r) inside T(closed unit ball), for T onto R^m.

    Equals the m-th singular value of the m-by-n matrix T. The returned
    direction is the corresponding left singular vector, and the value is
    certified by a greedy membership run against the image ellipsoid just
    inside the radius.
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
    C = located.linear_image_ball(T, 1.0)
    probe = (1.0 - 10.0 * tol) * r * u_min
    dec = greedy_decompose(probe, C, r, max_steps=20, tol=min(tol, 1e-9))
    if not isinstance(dec.outcome, Member):
        raise ConvergenceFailure(
            f"open-mapping membership run did not close "
            f"({type(dec.outcome).__name__})",
            best=r, residual=np.nan, iterations=len(dec.steps))
    return RadiusResult(r=r, direction=u_min, method="sigma-min", tol=tol)
