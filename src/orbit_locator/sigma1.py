"""sigma1, the largest singular value, on stacks of d x d matrices.

Every certificate of an orbit ball {M x : sigma1(M) <= n} is a statement
about sigma1 of a span operator, and its calculus lives here, arrays in
and arrays out. values takes sigma1 from the Gram. The boundary SQP reads
the rest off one contraction T = U'D_k V of its directions D_k in the
singular frames of X = U diag(s) V': the symmetric r x r KKT multiplier
M on the cluster of the top r pairs, W = U_r M V_r' (multiplier; sigma1's
subdifferential at an r-fold value is {U_r M V_r' : M >= 0}, Overton,
SIAM J. Matrix Anal. Appl. 9, 1988), the certificate's coordinates of W
(contract), the block curvature <M, E''> (curvature) and the KKT step
(step). The gauge's searches over null coordinates, pair_line_min,
sigma1_newton (on line_derivs) and compass_min, run their rows in
lockstep.
"""

from __future__ import annotations

import functools

import numpy as np

_EPS = float(np.finfo(float).eps)   # machine epsilon
_BETA = 1e-2           # the cluster's band sigma_j >= (1 - _BETA) sigma1, and its eigenvalue test
_LEVELS = 4   # step sizes probed per compass_min round: s, s/2, ..., s/8
_MAX_EVALS = 50_000      # compass_min's per-search cap on probes
_NEWTON_ROUNDS = 50      # sigma1_newton's cap on lockstep rounds
_UPPER = [np.triu_indices(r, 1) for r in range(5)]   # a cluster's pairs i < l < r <= 4


def values(Ms) -> np.ndarray:
    """Largest singular value of each d x d matrix X in a stack as
    sqrt(lmax(X'X)), from one stacked eigvalsh of the Grams. sigma1 is
    well conditioned there: with |X'X - fl(X'X)| <= d eps |X|'|X|, whose
    norm is at most d eps ||X||_F^2 <= d^2 eps sigma1^2, and eigvalsh
    backward stable (d eps more), the value is within a factor
    1 + d (d + 1) eps of sigma1 of X."""
    lam = np.linalg.eigvalsh(np.swapaxes(Ms, -1, -2) @ Ms)[..., -1]
    return np.sqrt(np.maximum(lam, 0.0))


def curvature(T, s, M) -> np.ndarray:
    """Hessian of c -> <M, E(c)> at c = 0, shape (..., K, K), with E(c)
    the r x r block of the top r singular values of X + sum_k c_k D_k and M
    a symmetric weight (..., r, r), for each X = U diag(s) V' of a stack,
    from s and T = U'D_k V (..., K, d, d), the K directions in the full
    singular frames (Overton and Womersley, SIAM J. Matrix Anal. Appl. 16,
    1995, on the dilation [[0, X], [X', 0]]). With u_ij = T[j, i] + T[i, j]
    and w_ij = T[j, i] - T[i, j] over k, i < r, it is the symmetric part of
    sum_{i,l < r} M_il [sum_{j >= r} u_ij u_lj' / (s_i - s_j) + sum_j w_ij
    w_lj' / (s_i + s_j)] / 2: the pairs j >= r couple with the block
    through their +s and -s partners, the block's own -s partners give the
    terms j < r. At r = 1 that is M times the curvature of sigma1, not
    finite where s1 ties s2; at M = I_r it is the curvature of the Ky Fan
    sum s1 + ... + s_r, finite where the block's values tie."""
    r = M.shape[-1]
    P, Q = T[..., :, :r], np.swapaxes(T[..., :r, :], -1, -2)   # [k, j, i]: T[j, i], T[i, j]
    V = np.concatenate([P + Q, P - Q], axis=-2)[..., r:, :]   # u_ij for j >= r, all w_ij
    partners = np.concatenate([-s[..., r:], s], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        X = V / (s[..., None, None, :r] + partners[..., None, :, None])
        rows = V.shape[:-2] + (-1,)   # one flat row over (j, i) per direction
        S = X.reshape(rows) @ np.swapaxes((V @ M[..., None, :, :]).reshape(rows), -1, -2)
        return 0.25 * (S + np.swapaxes(S, -1, -2))


# ---- the SQP's multiplier and step: T (rows, K, d, d), s (rows, d) and
# grad (rows, K), the objective's gradient in the coordinates of the D_k

def multiplier(T, s, grad):
    """(M, r): each row's symmetric KKT multiplier M, W = U_p M V_p', p the
    call's largest cluster, and its constraint's size r. A row's cluster is
    its r <= min(d, 4) pairs with sigma_j >= (1 - _BETA) sigma1. M is the top
    pair's least-squares weight max(0, -<grad, g> / ||g||^2), g = T[0, 0], or
    on a cluster of r >= 2 the fit of -grad by <D_k, U_r M V_r'>
    (_cluster_cols, sym_solve) with negative eigenvalues clipped. If c clear
    _BETA lam_max, the constraint keeps the r pairs at c = r, the top pair
    at c <= 1, and otherwise M is fitted again on c pairs."""
    g = T[:, :, 0, 0]
    r = (s[:, :4] >= (1.0 - _BETA) * s[:, :1]).sum(axis=1)
    M = np.zeros((len(T),) + (r.max(initial=1),) * 2)
    M[:, 0, 0] = np.maximum(0.0, -np.einsum("rk,rk->r", grad, g)
                            / np.maximum(np.einsum("rk,rk->r", g, g), 1e-300))
    for k in range(M.shape[-1], 1, -1):
        rows = np.flatnonzero(r == k)
        if rows.size:
            C = _cluster_cols(T[rows], k)
            m = sym_solve(np.swapaxes(C, 1, 2) @ C, -(grad[rows, None] @ C)[:, 0],
                          _EPS * C.shape[-1])
            m[:, k:] *= 0.5 ** 0.5
            at = np.diag(np.arange(k))   # M's entries as indices into m
            at[_UPPER[k]] = at.T[_UPPER[k]] = np.arange(k, m.shape[1])
            lam, Z = np.linalg.eigh(m[:, at])
            M[rows] = 0.0   # a refit on fewer pairs drops the larger fit
            M[rows, :k, :k] = (Z * np.maximum(lam, 0.0)[:, None]) @ np.swapaxes(Z, 1, 2)
            r[rows] = np.maximum((lam > _BETA * lam[:, -1:]).sum(axis=1), 1)
    return M, r


def contract(T, M):
    """(c, tr M) for W = U_p M V_p' with no W formed: its coordinates
    c_k = <D_k, W> = <M, T_k[:p, :p]>, and tr M, which is ||W||_* as the
    pairs are orthonormal and M >= 0."""
    p = M.shape[-1]
    return np.einsum("rkil,ril->rk", T[:, :, :p, :p], M), np.trace(M, axis1=1, axis2=2)


def step(H, T, s, grad, M, r, n) -> np.ndarray:
    """The SQP's step per row to the level n (one per row) on the KKT system
    of the row's constraint: the top pair's sigma1 = n on every row, then
    sym(U_r' X V_r) = n I_r on the rows of each cluster size r >= 2, columns
    _cluster_cols, right side n - sigma_i on the diagonal and 0 off it. The
    Lagrangian's Hessian is H + <M_r, E''>, curvature at M's leading r x r
    block, or H where M_00 = 0 or that is not finite."""
    L = np.repeat(H[None], len(T), axis=0)
    sizes = [np.flatnonzero((r == k) & (M[:, 0, 0] > 0.0)) for k in range(1, M.shape[-1] + 1)]
    for k, rows in enumerate(sizes, 1):
        if rows.size:
            C = curvature(T[rows], s[rows], M[rows, :k, :k])
            ok = np.isfinite(C).all(axis=(1, 2))
            L[rows[ok]] += C[ok]
    delta = _kkt_step(L, T[:, :, :1, 0], grad, (n - s[:, 0])[:, None])
    for k, rows in enumerate(sizes[1:], 2):
        if rows.size:
            delta[rows] = _kkt_step(L[rows], _cluster_cols(T[rows], k), grad[rows], np.pad(
                n[rows, None] - s[rows, :k], ((0, 0), (0, k * (k - 1) // 2))))
    return delta


def sym_solve(A, b, rcond):
    """pinv(A) b for a stack of symmetric A, one right side b per matrix,
    with pinv's cut: from the eigenpairs of A, dropping the eigenvalues of
    size at most rcond times the largest."""
    lam, Z = np.linalg.eigh(A)
    size = np.abs(lam)
    kept = size > rcond * size.max(axis=-1, keepdims=True)
    w = (b[..., None, :] @ Z)[..., 0, :] / np.where(kept, lam, np.inf)
    return (Z @ w[..., None])[..., 0]


def _kkt_step(L, J, g, r) -> np.ndarray:
    """The step delta of [[L, J], [J', 0]] [delta; lam] = [-g; r] per row
    (J: rows, k, m) by sym_solve, cut eps (k + m), whatever lam's signs."""
    k, m = J.shape[1:]
    K = np.zeros((len(J), k + m, k + m))
    K[:, :k, :k], K[:, :k, k:], K[:, k:, :k] = L, J, np.swapaxes(J, 1, 2)
    return sym_solve(K, np.concatenate([-g, r], axis=1), _EPS * (k + m))[:, :k]


def _cluster_cols(T, r) -> np.ndarray:
    """The columns T[i, i], then (T[i, l] + T[l, i]) / sqrt 2 for i < l < r,
    of frames T (rows, k, d, d): the coordinates <D_k, U_r M V_r'> in M's
    Frobenius coordinates (the M_ii, then sqrt 2 M_il), and the gradients of
    sym(U_r' X V_r)'s entries, the off-diagonal ones times sqrt 2."""
    i, l = _UPPER[r]
    return np.concatenate([np.diagonal(T[:, :, :r, :r], 0, 2, 3),
                           (T[:, :, i, l] + T[:, :, l, i]) * 0.5 ** 0.5], -1)


# ---- the gauge's searches over null coordinates -----------------------------

@functools.lru_cache(maxsize=16)
def _pattern(m: int) -> np.ndarray:
    """The probes of one compass_min round in R^m for a unit step, in probe
    order: +-e_i, then (+-e_i +- e_j) / sqrt(2) for i < j, at each of the
    _LEVELS step scales 1, 1/2, ..., largest first. Shared, so read-only."""
    dirs = [sign * e for e in np.eye(m) for sign in (1.0, -1.0)]
    for i in range(m):
        for j in range(i + 1, m):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    e = np.zeros(m)
                    e[[i, j]] = si, sj
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
    phi' = T[1, 1] = u_1'N v_1 and phi'' = curvature at the weight [[1]],
    undefined (inf or nan) where s_1 ties s_2."""
    Nm = N.reshape(d, d)

    def derivs(z):
        U, s, Vt = np.linalg.svd((A + z[:, None] * N).reshape(-1, d, d))
        T = np.swapaxes(U, 1, 2) @ Nm @ np.swapaxes(Vt, 1, 2)
        curv = curvature(T[:, None], s, np.ones((1, 1)))
        return s[:, 0], T[:, 0, 0], curv[:, 0, 0]
    return derivs
