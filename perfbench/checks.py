"""References computed apart from orbit_locator, and the checks that hold
its outputs against them or against properties the method must have.

Nothing here imports the program: references come from numpy's SVD, and
the checks read outputs as plain dicts and arrays. A failed check raises
CheckError.
"""

from __future__ import annotations

import math

import numpy as np

RANK_RTOL = 1e-9        # rank cut, relative to the largest singular value
ROUND = 1e-9            # relative room for rounding in exact identities

SCAN_ARC = 4096         # half-circle samples for a rank-2 scan
SCAN_FACE = 121         # grid points per cube-face edge for a rank-3 scan
REFINE = 41             # local refinement grid around the best sample


class CheckError(AssertionError):
    """An output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---- references -------------------------------------------------------------

def orbit_projector(basis, x):
    """Projector onto span{B_i x} and its rank, from numpy's SVD."""
    A = np.stack([B @ x for B in basis], axis=1)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((x.size, x.size)), 0
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    Ur = U[:, :rank]
    return Ur @ Ur.T, rank


def orbit_distance(P, y) -> float:
    """Distance from y to the orbit: ||y - P y||."""
    return float(np.linalg.norm(y - P @ y))


def frobenius_frame(basis) -> np.ndarray:
    """A Frobenius-orthonormal basis of span{B_i}, shape (k, d, d)."""
    d = basis[0].shape[0]
    V = np.stack([B.ravel() for B in basis])
    _, _, Vt = np.linalg.svd(V, full_matrices=False)
    return Vt.reshape(len(basis), d, d)


def _phi(basis, x):
    Q = frobenius_frame(basis)
    return Q, np.stack([Qj @ x for Qj in Q], axis=1)


def inner_radius_floor(basis, x) -> float:
    """A rigorous lower bound on the inner radius of the unit orbit ball in
    its span: the smallest nonzero singular value of Phi = [Q_j x] for a
    Frobenius-orthonormal Q. A point w of the span with |w| below it has
    the preimage t = pinv(Phi) w with sigma1 <= |t| <= 1."""
    _, Phi = _phi(basis, x)
    s = np.linalg.svd(Phi, compute_uv=False)
    s = s[s > RANK_RTOL * s[0]]
    return float(s[-1])


def preimage_sigma(basis, x, w) -> float:
    """sigma1 of the least-Frobenius-norm operator of the span sending x
    to w. The orbit-ball gauge of w never exceeds it."""
    Q, Phi = _phi(basis, x)
    t = np.linalg.pinv(Phi, rcond=RANK_RTOL) @ w
    M = np.einsum("k,kij->ij", t, Q)
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _sphere_samples(m: int):
    """Unit directions covering the sphere of R^m up to sign, with the
    largest angle from any direction (or its negative) to the nearest
    sample."""
    if m == 1:
        return np.ones((1, 1)), 0.0
    if m == 2:
        th = np.pi * (np.arange(SCAN_ARC) + 0.5) / SCAN_ARC
        return np.stack([np.cos(th), np.sin(th)], axis=1), np.pi / (2 * SCAN_ARC)
    if m == 3:
        # faces x=1, y=1, z=1 of the cube; central projection onto the
        # sphere is 1-Lipschitz there, so the angle is at most h/sqrt(2)
        g = np.linspace(-1.0, 1.0, SCAN_FACE)
        a, b = (v.ravel() for v in np.meshgrid(g, g, indexing="ij"))
        one = np.ones_like(a)
        pts = np.concatenate([np.stack(c, axis=1) for c in
                              ((one, a, b), (a, one, b), (a, b, one))])
        h = 2.0 / (SCAN_FACE - 1)
        return pts / np.linalg.norm(pts, axis=1, keepdims=True), h / math.sqrt(2.0)
    raise ValueError(f"no sphere scan for rank {m}")


def inner_radius_bracket(basis, x):
    """(lo, hi) bracketing the inner radius of the unit orbit ball in its
    span, for a basis whose images B_i x are independent (k equals the
    orbit rank). Then each point w of the span has exactly one preimage
    and the gauge is sigma1 of it, a norm g. A dense scan over directions
    gives g_scan <= max g <= g_scan / cos(delta) for a sample whose
    largest gap angle is delta: at the maximiser w*, the supporting plane
    of the gauge ball is normal to w*, so g(u) >= g(w*) cos angle(u, w*).
    A local refinement around the best sample tightens hi."""
    A = np.stack([B @ x for B in basis], axis=1)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    m = A.shape[1]
    if not (s[-1] > RANK_RTOL * s[0]):
        raise ValueError("inner_radius_bracket needs independent images B_i x")
    T = np.linalg.pinv(A) @ U          # preimage coefficients per span coordinate
    stack = np.stack(basis)

    def gauges(C):
        Ms = np.einsum("nk,kij->nij", C @ T.T, stack)
        return np.linalg.svd(Ms, compute_uv=False)[:, 0]

    C, delta = _sphere_samples(m)
    g = gauges(C)
    j = int(np.argmax(g))
    g_scan = float(g[j])
    g_best = g_scan
    if m >= 2:
        c = C[j]
        # orthonormal tangent basis at the best sample
        tangent = np.linalg.svd(np.eye(m) - np.outer(c, c))[0][:, :m - 1]
        offs = np.linspace(-2.0 * delta, 2.0 * delta, REFINE)
        grids = np.meshgrid(*([offs] * (m - 1)), indexing="ij")
        Z = np.stack([gr.ravel() for gr in grids], axis=1)
        local = c[None, :] + Z @ tangent.T
        local /= np.linalg.norm(local, axis=1, keepdims=True)
        g_best = max(g_best, float(gauges(local).max()))
    return math.cos(delta) / g_scan, 1.0 / g_best


# ---- checks -----------------------------------------------------------------

def check_levels(levels, ref: float, tol: float) -> None:
    """Level distances d_n never increase (beyond the solver tolerance)
    and never drop below the distance to the whole orbit."""
    ds = [float(d) for d in levels]
    require(len(ds) >= 1, "sweep reported no levels")
    for a, b in zip(ds, ds[1:]):
        require(b <= a + tol, f"level distance rose from {a:.12g} to {b:.12g}")
    low = min(ds)
    require(low >= ref - ROUND * max(1.0, ref),
            f"level distance {low:.12g} below the orbit distance {ref:.12g}")


def check_verdict(verdict: dict, ref: float, tol: float) -> None:
    """A settled verdict's d matches the orbit distance within 2 tol; an
    Undecided bracket contains it."""
    kind = verdict["kind"]
    if kind in ("Located", "Stabilized"):
        d = float(verdict["d"])
        require(abs(d - ref) <= 2.0 * tol,
                f"{kind} d={d:.12g} but the orbit distance is {ref:.12g}")
    elif kind == "Undecided":
        lo, hi = float(verdict["lower"]), float(verdict["upper"])
        slack = ROUND * max(1.0, ref)
        require(lo - slack <= ref <= hi + slack,
                f"Undecided bracket [{lo:.12g}, {hi:.12g}] misses {ref:.12g}")
    else:
        raise CheckError(f"unknown verdict {kind!r}")


def check_sweep(out: dict, ref: float, tol: float) -> None:
    check_levels(out["levels"], ref, tol)
    check_verdict(out["verdict"], ref, tol)


def check_failure_bracket(lower: float, upper: float, ref: float) -> None:
    """A solver failure's bracket is for a ball distance, which is never
    below the orbit distance: the upper end must not be below it."""
    require(lower <= upper, f"failure bracket [{lower:.12g}, {upper:.12g}] is empty")
    require(upper >= ref - ROUND * max(1.0, ref),
            f"failure bracket upper {upper:.12g} below the orbit distance {ref:.12g}")


def check_projector(P, rank: int, P_ref, rank_ref: int) -> None:
    require(int(rank) == rank_ref, f"rank {rank} but numpy gives {rank_ref}")
    err = float(np.max(np.abs(np.asarray(P, dtype=float) - P_ref)))
    require(err <= 1e-9, f"projector differs from numpy's by {err:.3e}")


def check_probes(probes, P_ref, tol: float) -> None:
    """Each probe's pipeline distance is within 2 tol of ||y - P y||."""
    require(len(probes) >= 1, "no probes reported")
    for y, d in probes:
        ref = orbit_distance(P_ref, np.asarray(y, dtype=float))
        require(abs(float(d) - ref) <= 2.0 * tol,
                f"probe distance {float(d):.12g} but the orbit distance is {ref:.12g}")


def check_radius_floor(r: float, floor: float) -> None:
    require(r >= floor * (1.0 - ROUND),
            f"inner radius {r:.12g} below the rigorous floor {floor:.12g}")


def check_radius_bracket(r: float, bracket, tol: float) -> None:
    lo, hi = bracket
    require(lo * (1.0 - ROUND) <= r <= hi * (1.0 + 2.0 * tol),
            f"inner radius {r:.12g} outside the scan bracket [{lo:.12g}, {hi:.12g}]")


def check_radius_direction(r: float, direction, basis, x) -> None:
    """r is 1 over the gauge at the returned unit direction, and the gauge
    never exceeds sigma1 of the least-norm preimage."""
    w = np.asarray(direction, dtype=float)
    require(abs(float(np.linalg.norm(w)) - 1.0) <= 1e-9, "radius direction is not a unit vector")
    check_radius_floor(r, 1.0 / preimage_sigma(basis, x, w))


def check_decomposition(y, r: float, steps, outcome: str, P_ref, x_norm: float,
                        tol: float = 1e-9) -> None:
    """A Member run whose residuals, recomputed from the step vectors,
    halve at every step; every step vector is twice an orbit-ball point,
    so it lies in the orbit span with norm at most 2 |x|."""
    require(outcome == "Member", f"decomposition ended in {outcome}, not Member")
    y = np.asarray(y, dtype=float)
    acc = np.zeros_like(y)
    for i, xi in enumerate(steps, start=1):
        xi = np.asarray(xi, dtype=float)
        nx = float(np.linalg.norm(xi))
        require(nx <= 2.0 * x_norm * (1.0 + ROUND) + tol,
                f"step {i} vector has norm {nx:.6g} > 2|x|")
        require(float(np.linalg.norm(xi - P_ref @ xi)) <= 1e-9 * max(1.0, nx),
                f"step {i} vector leaves the orbit span")
        acc = acc + 2.0 ** -i * xi
        res = float(np.linalg.norm(y - acc))
        require(res <= 2.0 ** -i * r + 4.0 * tol,
                f"residual {res:.3e} at step {i} exceeds r/2^{i} = {2.0 ** -i * r:.3e}")


def check_ball_point(out: dict, basis, x, y, n: float, tol: float, ref: float) -> None:
    """The point is M x for M = sum c_i B_i from the reported coefficients,
    sigma1(M) <= n (1 + tol), and d = |y - point| >= the orbit distance."""
    c = np.asarray(out["coeffs"], dtype=float)
    M = np.einsum("k,kij->ij", c, np.stack(basis))
    point = np.asarray(out["point"], dtype=float)
    err = float(np.linalg.norm(point - M @ x))
    require(err <= 1e-9 * max(1.0, float(np.linalg.norm(point))),
            f"point differs from M x by {err:.3e}")
    sigma = float(np.linalg.svd(M, compute_uv=False)[0])
    require(sigma <= n * (1.0 + tol), f"sigma1(M) = {sigma:.12g} exceeds n = {n:g}")
    d = float(out["d"])
    require(abs(d - float(np.linalg.norm(y - point))) <= 1e-9 * max(1.0, d),
            "d is not |y - point|")
    require(d >= ref - ROUND * max(1.0, ref), f"ball distance {d:.12g} below the orbit distance")


def check_omt(r: float, direction, T) -> None:
    """r is the smallest singular value of T and the direction a unit
    left singular vector for it."""
    s = np.linalg.svd(T, compute_uv=False)
    require(abs(float(r) - s[-1]) <= 1e-9 * s[0], f"omt r={float(r):.12g} but sigma_min is {s[-1]:.12g}")
    u = np.asarray(direction, dtype=float)
    require(abs(float(np.linalg.norm(u)) - 1.0) <= 1e-9, "omt direction is not a unit vector")
    require(abs(float(np.linalg.norm(T.T @ u)) - s[-1]) <= 1e-9 * s[0],
            "omt direction is not a singular vector for sigma_min")


def check_demo_rows(rows, tol: float) -> None:
    """The diagonal family: the inner radius is |c|, d = 1 at c = 0 and
    0 elsewhere, and the truncation index is floor(2/|c|) + 1 for y = (0, 1)."""
    require(len(rows) >= 1, "demo printed no rows")
    for row in rows:
        c = float(row["c"])
        require(abs(float(row["r"]) - abs(c)) <= tol, f"demo r={row['r']} at c={c:g}")
        want_d = 1.0 if c == 0.0 else 0.0
        require(abs(float(row["d"]) - want_d) <= tol, f"demo d={row['d']} at c={c:g}")
        want_n = None if c == 0.0 else math.floor(2.0 / abs(c)) + 1
        require(row["N"] == want_n, f"demo N={row['N']} at c={c:g}, expected {want_n}")
