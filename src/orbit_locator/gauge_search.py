"""Minimisers of sigma1 over the null coordinates of an orbit-ball gauge.

With A the matrix of a vector's least-norm preimage and N_1..N_p the
matrices of the span operators that kill x, the gauge is the least
sigma1(A + sum_l z_l N_l) over z in R^p, a convex function of z. At
p = 1 it is a function of one variable. At dimension 2 it is a weighted
sum of the distances from z to two fixed complex points, and
pair_line_min finds its minimum in closed form, by Heron's reflection,
where the rank cut keeps the two weights close enough; its other rows and
every row at 3 and more go to sigma1_newton, bracketed Newton steps that
stop on a dual gap, with line_derivs taking value, slope and curvature
(linalg.sigma1_curvature at weight [[1]], as in the SQP) from one SVD and U'NV.
At p >= 2 the optimum generically ties the top singular values, where
those derivatives do not exist, and the derivative-free pattern search
compass_min runs instead, probing the objective itself. All three work on
many rows at once, the searches in lockstep, as the gauge kernel
evaluates whole stacks of vectors.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg

_LEVELS = 4   # step sizes probed per compass_min round: s, s/2, ..., s/8
_MAX_EVALS = 50_000      # compass_min's per-search cap on probes
_NEWTON_ROUNDS = 50      # sigma1_newton's cap on lockstep rounds


@functools.lru_cache(maxsize=16)
def _pattern(m: int) -> np.ndarray:
    """The probes of one compass_min round in R^m for a unit step, in probe
    order: +-e_i, then (+-e_i +- e_j) / sqrt(2) for i < j, at each of the
    _LEVELS step scales 1, 1/2, ..., largest first. Shared, so read-only."""
    dirs = []
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        dirs.append(e)
        dirs.append(-e)
    for i in range(m):
        for j in range(i + 1, m):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    e = np.zeros(m)
                    e[i] = si
                    e[j] = sj
                    dirs.append(e / np.sqrt(2.0))
    D = np.stack(dirs) if dirs else np.zeros((0, m))
    D = np.concatenate([D * 0.5 ** i for i in range(_LEVELS)])
    D.flags.writeable = False
    return D


def compass_min(fn, z0, *, init_step, step_tol):
    """Derivative-free coordinate/diagonal pattern descent, one search per
    row of z0, all run in lockstep.

    Search i minimizes its own objective over R^m from z0[i] (init_step
    and step_tol are scalars or one value per search). Each round probes
    every pattern direction at the four step sizes s, s/2, s/4 and s/8 at
    once and moves to the best improving probe, keeping s; when no probe
    improves, s shrinks by 16, and the search stops once s is at most
    step_tol. On convex objectives the final value is within O(step) of
    the minimum. fn(rows, P) evaluates the objectives of the searches
    rows[j] at the points P[j], shape (len(rows), p, m), and returns shape
    (len(rows), p); each round makes one call covering every search still
    active. A search moves only to a lower value, so no returned value
    exceeds fn(z0). Returns (z, fn(z), evaluations) with z of the shape of
    z0, one value per search and the total number of evaluations;
    evaluations and _MAX_EVALS (a per-search cap) count probes.
    """
    z = np.array(z0, dtype=float)
    S, m = z.shape
    D = _pattern(m)
    every = np.arange(S)
    f = np.asarray(fn(every, z[:, None, :]), dtype=float)[:, 0]
    evals = S
    if m:
        step = np.full(S, init_step, dtype=float)
        floor = np.full(S, step_tol, dtype=float)
        # the active searches are kept compacted and written back only when
        # one stops; all of them have made the same number of evaluations
        act = every[step > floor]
        za, fa, sa, la = z[act], f[act], step[act], floor[act]
        rows = np.arange(act.size)
        per_search = 1
        while act.size and per_search < _MAX_EVALS:
            cand = za[:, None, :] + sa[:, None, None] * D
            vals = np.asarray(fn(act, cand), dtype=float)
            evals += vals.size
            per_search += D.shape[0]
            j = vals.argmin(axis=1)
            low = vals[rows, j]
            better = low < fa - 1e-18
            moved = np.count_nonzero(better)
            if moved:
                np.copyto(za, cand[rows, j], where=better[:, None])
                np.copyto(fa, low, where=better)
            if moved == act.size:
                continue
            np.multiply(sa, 0.5 ** _LEVELS, out=sa, where=~better)
            keep = sa > la
            if np.count_nonzero(keep) < act.size:
                z[act], f[act] = za, fa
                act, za, fa, sa, la = (act[keep], za[keep], fa[keep],
                                       sa[keep], la[keep])
                rows = rows[:act.size]
        z[act], f[act] = za, fa
    return z, f, evals


def sigma1_newton(derivs, c, tol, width):
    """Bracketed Newton minimisation of phi(z) = sigma1(A + z N) over one
    real z, for a d x d matrix N of unit Frobenius norm, one search per
    row, all run in lockstep from z = 0.

    derivs(z) returns (phi, phi', phi'') of every search at its point in
    z, shape (S,) each: phi' any subgradient where phi has a kink, and
    phi'' inf or nan where it is undefined. phi is convex, so the sign of
    phi' says on which side of a point the minimum lies: each search keeps
    the last point on either side as the ends of its bracket, and since
    every new point falls inside the bracket, the ends also hold its least
    values. Until a side has a point, its end is that of the box
    |z + c| <= width phi(0), c = <N, A> and width = sqrt(d), which holds
    the minimum: phi(z) >= ||A + z N||_F / width >= |z + c| / width, and
    the minimum is at most phi(0). The next point is the Newton step
    z - phi'/phi'' when it falls strictly inside the bracket and at most
    half as far as the step before (no creeping next to a near-kink),
    otherwise the crossing of the tangents at the bracket's ends, or,
    before the search has points on both sides, the box's end.

    Every point gives the dual lower bound (phi - phi'(c + z)) /
    (1 + width |phi'|), from W = u1 v1' - phi' N: <W, N> = 0, so
    <W, A + w N> = <W, A> <= ||W||_* phi(w) for every w, and
    ||W||_* <= 1 + sqrt(d) |phi'|. With points on both sides the value at
    the tangents' crossing bounds the minimum from below too, by
    convexity; it is the bound that closes at a kink. Every search takes
    a step each round, a search whose least value is within its tol (a
    scalar or one per row) of its best lower bound too, as that can only
    tighten both, until all of them are, or for _NEWTON_ROUNDS rounds.
    Returns (z, phi(z), lower, rounds): the point of the least value found
    per search, that value, the best lower bound (at least 0) and the
    number of rounds."""
    c = np.asarray(c, dtype=float)
    z = np.zeros(c.size)
    f, g, h = derivs(z)
    # the bracket's ends (z, phi, phi'); a box end has phi = inf
    lo = np.stack([-c - width * f, np.full(c.size, np.inf), np.zeros(c.size)])
    hi = np.stack([-c + width * f, lo[1], lo[2]])
    low, step = np.zeros(c.size), np.full(c.size, np.inf)
    rounds = 1
    # box ends make the crossing inf or nan; only rows with both ends use it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            # a point with phi' = 0 is a minimum: it closes its gap as lo
            left = g <= 0.0
            pt = np.stack([z, f, g])
            np.copyto(lo, pt, where=left)
            np.copyto(hi, pt, where=~left)
            (zl, fl, gl), (zh, fh, gh) = lo, hi
            np.maximum(low, (f - g * (c + z)) / (1.0 + width * np.abs(g)), out=low)
            both = np.isfinite(fl + fh)
            cross = (fh - fl + gl * zl - gh * zh) / (gl - gh)
            np.maximum(low, fl + gl * (cross - zl), out=low, where=both)
            if rounds == _NEWTON_ROUNDS or np.all(np.minimum(fl, fh) - low <= tol):
                at_lo = fl <= fh
                return np.where(at_lo, zl, zh), np.where(at_lo, fl, fh), low, rounds
            # z is an end now, so a Newton step strictly inside the bracket
            # heads for the minimum, which takes phi'' > 0
            newton = z - g / h
            ok = (newton > zl) & (newton < zh) & (np.abs(newton - z) <= 0.5 * step)
            z, z_prev = np.where(ok, newton, np.where(both, cross, np.where(left, zh, zl))), z
            step = np.abs(z - z_prev)
            f, g, h = derivs(z)
            rounds += 1


def pair_line_min(A, N, tol):
    """Minimiser of phi_i(z) = sigma1(A_i + z N) over real z, within tol
    (a scalar or one per row) of the least value, for a stack A of
    flattened 2 x 2 rows and one flattened 2 x 2 matrix N, in closed form.

    [[a, b], [c, e]] has sigma1 = |w_1| + |w_2| with
    w_1 = ((a + e) + i(c - b)) / 2 and w_2 = ((a - e) + i(c + b)) / 2, as
    in linalg.batch_spectral_norms. With p_j the pair of A_i and q_j that
    of N, phi(z) = |q_1| |z - zeta_1| + |q_2| |z - zeta_2| with
    zeta_j = -p_j / q_j, and |q_1|^2 - |q_2|^2 = det N. An N that kills x
    has rank one, so the weights are equal and phi is a sum of distances
    from a real point to two fixed complex points: Heron's reflection
    puts its minimum at
    z* = (Re zeta_1 |Im zeta_2| + Re zeta_2 |Im zeta_1|)
    / (|Im zeta_1| + |Im zeta_2|), where the segment from zeta_1 to the
    mirror image of zeta_2 across the real axis crosses it, or, when both
    points are real, anywhere between them: the midpoint when both
    imaginary parts come out 0.

    The rank cut leaves the weights apart by up to sigma2(N), at most
    |N x| / |x|. With zeta_h the point of the larger weight and psi the
    sum of the distances, phi = min_j |q_j| psi + (max_j |q_j| -
    min_j |q_j|) |z - zeta_h|, so phi(z*) is within that difference times
    |z* - Re zeta_h| of the minimum. Returns (z, open): z* per row and the
    rows whose bound exceeds their tol, left for sigma1_newton."""
    a, b, c, e = N
    q1, q2 = complex(a + e, c - b) / 2.0, complex(a - e, c + b) / 2.0
    # zeta_j = p_j u_j with u_j = -1 / q_j is real-linear in the entries
    # of A: the columns of L give Re zeta_1, Im zeta_1, Re zeta_2, Im zeta_2
    u1, u2 = -1.0 / q1, -1.0 / q2
    L = 0.5 * np.array([[u1.real, u1.imag, u2.real, u2.imag],
                        [u1.imag, -u1.real, -u2.imag, u2.real],
                        [-u1.imag, u1.real, -u2.imag, u2.real],
                        [u1.real, u1.imag, -u2.real, -u2.imag]])
    Z = A @ L
    re, im = Z[:, 0::2], np.abs(Z[:, 1::2])
    height = im[:, 0] + im[:, 1]
    z = np.divide(re[:, 0] * im[:, 1] + re[:, 1] * im[:, 0], height,
                  out=0.5 * (re[:, 0] + re[:, 1]), where=height > 0.0)
    w1, w2 = abs(q1), abs(q2)
    far = re[:, int(w2 > w1)]
    return z, np.flatnonzero(abs(w1 - w2) * np.abs(z - far) > tol)


def line_derivs(A, N, d):
    """sigma1_newton's derivs for phi_i(z) = sigma1(A_i + z N), with A a
    stack of flattened d x d rows and N one flattened d x d matrix, from
    one stacked SVD U diag(s) V' of A_i + z N and T = U'N V: phi = s_1,
    phi' = T[1, 1] = u_1'N v_1 and phi'' = linalg.sigma1_curvature at the
    weight [[1]], undefined (inf or nan) where s_1 ties s_2."""
    Nm = N.reshape(d, d)

    def derivs(z):
        U, s, Vt = np.linalg.svd((A + z[:, None] * N).reshape(-1, d, d))
        T = np.swapaxes(U, 1, 2) @ Nm @ np.swapaxes(Vt, 1, 2)
        curv = linalg.sigma1_curvature(T[:, None], s, np.ones((1, 1)))
        return s[:, 0], T[:, 0, 0], curv[:, 0, 0]
    return derivs
