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
(step). The gauge's searches over null coordinates run their rows in
lockstep: pair_line_min and sigma1_newton (on line_derivs) on one, and on
two or more cluster_min, the same tie calculus with the level a variable.
"""

from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(float).eps)   # machine epsilon
_BETA = 1e-2           # the cluster's band sigma_j >= (1 - _BETA) sigma1, and its eigenvalue test
_HALVES = 0.5 ** np.arange(1, 12)   # the backtracking steps of the SQP and of cluster_min
_RHO_CAP = 1e10          # cluster_min's cap on its proximal weight rho
_CLUSTER_ROUNDS = 100    # cluster_min's cap on lockstep rounds
_PSD_STEPS = 50          # accelerated projected gradient steps of an exact _least_norm
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
            lam, Z = np.linalg.eigh(_sym(m, k))
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


def _sym(m, r):
    """The symmetric r x r matrices of the coordinates m (..., entries) of
    _cluster_cols: M_ii = m_ii, M_il = M_li = m_il / sqrt 2."""
    m = m.copy()
    m[..., r:] *= 0.5 ** 0.5
    at = np.diag(np.arange(r))   # M's entries as indices into m
    at[_UPPER[r]] = at.T[_UPPER[r]] = np.arange(r, m.shape[-1])
    return m[..., at]


# ---- the gauge's searches over null coordinates -----------------------------

def cluster_min(A, N, tol):
    """Minimiser of sigma1(A_i + sum_l z_l N_l) over z in R^p, one search
    per row of the stack A of flattened d x d rows, all run in lockstep
    from z = 0, for p >= 2 flattened d x d matrices N with orthonormal
    rows: the boundary SQP's tie calculus with the level a variable.

    Each round takes the SVD U diag(s) V' of each row's X = A_i + N z and
    T_l = U'N_l V; the row's cluster is its r <= min(d, 4) pairs with
    s_j >= (1 - _BETA) s_1. For each k <= r, M is the least-norm
    subgradient multiplier on the top k pairs (_least_norm): M >= 0 and
    tr M = 1 with c(M) = (<N_l, U_k M V_k'>)_l of least norm. W = U_k M V_k'
    has ||W||_* = 1, and W' = W - sum_l c_l N_l is orthogonal to every N_l,
    so <W', A_i> = <W', X> <= ||W'||_* sigma1(X) at every z: each M gives a
    lower bound on the row's minimum, taken less its rounding. The
    candidate steps are, for each k, the KKT step (_kkt_step) of
    min w + delta'(<M, E''> + rho s_1 I) delta / 2 (curvature) subject to
    the top k values moving together to s_1 + w (T_l[i, i] delta - w =
    s_1 - s_i on the diagonal, 0 off it); for k >= 2 that step plus its
    second-order correction, the KKT step that cancels the block's
    curvature along it, so that a tie holds through a full step; and the
    subgradient step -c(M) / (rho s_1) of the whole cluster.

    A row moves to its lowest full step if that is below its value (rho
    quartered), else to its lowest step at the first of the halvings
    1/2, ..., 2^-11 that has one (rho doubled), else rho grows 16-fold and
    the row takes its lowest full step only if rounding cannot tell it from
    its start. After a failed full search the row's next M on its whole
    cluster is solved exactly over M >= 0, which makes -c(M) a descent
    direction at a tie the minimum lacks. A row stops once its value is
    within its tol (a scalar or one per row) of its best lower bound, once
    rho exceeds _RHO_CAP, or after _CLUSTER_ROUNDS rounds. Every value is
    sigma1.values of its point. Returns (z, value, lower, rounds)."""
    S, p = len(A), len(N)
    d = int(round(A.shape[1] ** 0.5))
    Nm = N.reshape(p, d, d)

    def trial(B, Z, valid):   # sigma1.values at the points Z (rows, q, p), inf where not valid
        return np.where(valid, values((B[:, None] + Z @ N).reshape(-1, d, d)).reshape(Z.shape[:2]),
                        np.inf)

    z, f = np.zeros((S, p)), values(A.reshape(S, d, d))
    low, rho, stuck = np.zeros(S), np.full(S, 1e-2), np.zeros(S, dtype=bool)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (S,))
    act, rounds = np.arange(S), 0
    while act.size and rounds < _CLUSTER_ROUNDS:
        rounds += 1
        za, Aa = z[act], A[act]
        U, s, Vt = np.linalg.svd((Aa[:, None] + za[:, None] @ N).reshape(-1, d, d))
        T = np.swapaxes(U, 1, 2)[:, None] @ Nm @ np.swapaxes(Vt, 1, 2)[:, None]
        r = (s[:, :4] >= (1.0 - _BETA) * s[:, :1]).sum(axis=1)
        R, prox = r.max(), rho[act] * s[:, 0]
        steps = np.zeros((len(act), 2 * R, p))   # sizes 1..R, corrected 2..R, subgradient
        for k in range(1, R + 1):
            g = np.flatnonzero(r >= k)
            Tg, sg, whole = T[g], s[g], r[g] == k
            M = _least_norm(Tg, k, whole & stuck[act[g]])
            c = contract(Tg, M)[0]
            W = U[g, :, :k] @ M @ Vt[g, :k] - (c[:, None] @ N).reshape(-1, d, d)
            dual = (W.reshape(len(g), -1) * Aa[g]).sum(axis=1) * (1.0 - 2.0 * d * d * _EPS)
            low[act[g]] = np.maximum(low[act[g]], dual / np.linalg.svd(
                W, compute_uv=False).sum(axis=1))
            with np.errstate(divide="ignore", invalid="ignore"):
                H = curvature(Tg, sg, M)
            L = np.zeros((len(g), p + 1, p + 1))
            L[:, :p, :p] = (np.where(np.isfinite(H).all(axis=(1, 2))[:, None, None], H, 0.0)
                            + prox[g, None, None] * np.eye(p))
            J = np.zeros((len(g), p + 1, k * (k + 1) // 2))
            J[:, :p], J[:, p, :k] = _cluster_cols(Tg, k), -1.0
            rhs = np.pad(sg[:, :1] - sg[:, :k], ((0, 0), (0, k * (k - 1) // 2)))
            step = steps[g, k - 1] = _kkt_step(L, J, np.broadcast_to(
                np.eye(p + 1)[p], (len(g), p + 1)), rhs)[:, :p]
            if k > 1:
                # Q_e = <E_e, E''>(step, step) / 2 at the unit weights E_e
                # of the block's entries, in the coordinates of J's columns
                TD = (step[:, :, None, None] * Tg).sum(axis=1)
                n = (len(g), J.shape[2])
                with np.errstate(divide="ignore", invalid="ignore"):
                    Q = 0.5 * curvature(np.broadcast_to(TD[:, None, None], n + (1, d, d)),
                                        np.broadcast_to(sg[:, None], n + (d,)),
                                        np.broadcast_to(_sym(np.eye(n[1]), k), n + (k, k)))
                    dc = _kkt_step(L, J, np.zeros((len(g), p + 1)), -Q[..., 0, 0])[:, :p]
                steps[g, R + k - 2] = step + np.where(np.isfinite(dc), dc, 0.0)
            steps[g[whole], -1] = -c[whole] / prox[g[whole], None]
        keep = (f[act] - low[act] > tol[act]) & (rho[act] <= _RHO_CAP)
        act, za, Aa, steps, r = act[keep], za[keep], Aa[keep], steps[keep], r[keep]
        if not act.size:
            break
        fa, rows = f[act], np.arange(len(act))
        valid = np.r_[np.arange(1, R + 1), np.arange(2, R + 1), 1] <= r[:, None]   # the sizes
        full = trial(Aa, za[:, None] + steps, valid)
        j = full.argmin(axis=1)
        won = full[rows, j] < fa
        lost = np.flatnonzero(~won)
        cand = za[lost, None, None] + _HALVES[:, None, None] * steps[lost, None]
        half = trial(Aa[lost], cand.reshape(len(lost), 2 * R * len(_HALVES), p),
                     np.tile(valid[lost], len(_HALVES))).reshape(cand.shape[:3])
        a = (half.min(axis=2) < fa[lost, None]).argmax(axis=1)
        i = half[np.arange(len(lost)), a].argmin(axis=1)
        best = half[np.arange(len(lost)), a, i]
        ok = best < fa[lost]
        h = lost[ok]
        halved = np.isin(rows, h)
        # a failed search still takes the full step whose value its
        # rounding cannot tell from the start's
        take = won | ~halved & (full[rows, j] <= fa * (1.0 + d * (d + 1) * _EPS))
        z[act[take]], f[act[take]] = za[take] + steps[take, j[take]], full[take, j[take]]
        z[act[h]], f[act[h]] = cand[ok, a[ok], i[ok]], best[ok]
        rho[act] *= np.where(won, 0.25, np.where(halved, 2.0, 16.0))
        stuck[act] = ~won
    return z, f, low, rounds


def _least_norm(T, r, exact):
    """cluster_min's multipliers on the top r pairs: the M of least
    ||c(M)|| subject to tr M = 1, from the bordered normal equations on
    _cluster_cols, projected onto {M >= 0, tr M = 1} (_spectraplex); on the
    rows of the mask exact, then _PSD_STEPS accelerated projected gradient
    steps (FISTA) on ||c(M)||^2 / 2 over that set, whose minimiser has
    c(M) != 0 at a tie the minimum lacks."""
    if r == 1:
        return np.ones((len(T), 1, 1))
    C = _cluster_cols(T, r)
    G = np.swapaxes(C, 1, 2) @ C
    e = np.zeros((len(T), C.shape[-1], 1))
    e[:, :r] = 1.0
    M = _spectraplex(_sym(_kkt_step(G, e, np.zeros(e.shape[:2]), np.ones((len(T), 1))), r))
    rows = np.flatnonzero(exact)
    if rows.size:
        # the gradient of ||c(M)||^2 / 2 is sym(sum_l c_l T_l[:r, :r]), and
        # its Lipschitz constant the top eigenvalue of G
        B, X = T[rows, :, :r, :r], M[rows]
        t, Y, X0, theta = 1.0 / np.linalg.eigvalsh(G[rows])[:, -1:, None], X, X, 1.0
        for _ in range(_PSD_STEPS):
            D = (contract(T[rows], Y)[0][:, :, None, None] * B).sum(axis=1)
            X, X0 = _spectraplex(Y - t * (D + np.swapaxes(D, 1, 2)) / 2.0), X
            theta, previous = (1.0 + (1.0 + 4.0 * theta * theta) ** 0.5) / 2.0, theta
            Y = X + (previous - 1.0) / theta * (X - X0)
        M[rows] = X
    return M


def _spectraplex(S):
    """The nearest M >= 0 with tr M = 1 to each symmetric S of a stack, in
    Frobenius norm: S's eigenvalues projected onto the simplex."""
    lam, Z = np.linalg.eigh(S)
    u = lam[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    q = (u - css / np.arange(1, u.shape[1] + 1) > 0.0).sum(axis=1)
    theta = css[np.arange(len(u)), q - 1] / q
    return (Z * np.maximum(lam - theta[:, None], 0.0)[:, None]) @ np.swapaxes(Z, 1, 2)


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
