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
(step). psd_qp solves the small QP over {M >= 0, tr M = 1} that is the
dual of a step under the cluster's linear matrix inequality (Overton,
SIAM J. Optim. 2, 1992). The gauge's searches over null coordinates run
their rows in lockstep: pair_line_min and sigma1_newton (on line_derivs)
on one, and on two or more cluster_min, the same tie calculus with the
level a variable and one psd_qp step per row and round.
"""

from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(float).eps)   # machine epsilon
_BETA = 1e-2           # the cluster's band sigma_j >= (1 - _BETA) sigma1, and its eigenvalue test
_HALVES = 0.5 ** np.arange(1, 12)   # the backtracking steps of the SQP and of cluster_min
_RHO_CAP = 1e10          # cluster_min's cap on its proximal weight rho
_CLUSTER_ROUNDS = 100    # cluster_min's cap on lockstep rounds
_QP_ITERS = 60           # psd_qp's cap on interior-point iterations
_QP_TOL = 1e-12          # psd_qp's stop on <L, S> and _settle's on its step, Q and b at scale 1
_SETTLE = 8              # _settle's Newton steps
_CENTRE = 0.1            # psd_qp's centring: each step aims at mu times this
_FRACTION = 0.99         # psd_qp's share of the longest step that keeps its factors >= 0
_NEWTON_ROUNDS = 50      # sigma1_newton's cap on lockstep rounds
_UPPER = [np.triu_indices(r, 1) for r in range(5)]   # a cluster's pairs i < l < r <= 4
# per r, the entries (i, l) of _cluster_cols' coordinates, (i, i) first, and their weights
_PAIRS = [(np.r_[np.arange(r), i], np.r_[np.arange(r), l]) for r, (i, l) in enumerate(_UPPER)]
_WEIGHTS = [np.where(i == l, 0.5, 0.5 ** 0.5) for i, l in _PAIRS]


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
    of frames T (..., d, d): the coordinates <D_k, U_r M V_r'> in M's
    Frobenius coordinates (the M_ii, then sqrt 2 M_il), and the gradients of
    sym(U_r' X V_r)'s entries, the off-diagonal ones times sqrt 2; for one
    matrix X (..., r, r) those of sym(X)."""
    i, l = _PAIRS[r]
    return (T[..., i, l] + T[..., l, i]) * _WEIGHTS[r]


def _sym(m, r):
    """The symmetric r x r matrices of the coordinates m (..., entries) of
    _cluster_cols: M_ii = m_ii, M_il = M_li = m_il / sqrt 2."""
    m = m.copy()
    m[..., r:] *= 0.5 ** 0.5
    return m[..., _AT[r]]


# per r, each entry of an r x r matrix as an index into _cluster_cols'
# coordinates, and the coordinates' basis E (m, r, r) and those e of I
_AT = [np.zeros((r, r), dtype=int) for r in range(5)]
for _r, (_i, _l) in enumerate(_PAIRS):
    _AT[_r][_i, _l] = _AT[_r][_l, _i] = np.arange(len(_i))
_BASIS = [(_sym(np.eye(len(i)), r), _cluster_cols(np.eye(r), r))
          for r, (i, _) in enumerate(_PAIRS)]


def psd_qp(Q, b) -> np.ndarray:
    """The lambda of least lambda'Q lambda / 2 + b'lambda per row over the
    symmetric r x r L >= 0 with tr L = 1, lambda = _cluster_cols(L), for Q
    (rows, m, m) symmetric positive semidefinite and b (rows, m),
    m = r(r + 1)/2 and r <= 4. A primal-dual interior-point solve
    (Alizadeh, Haeberly and Overton, SIAM J. Optim. 8, 1998) from L = I / r
    and the dual slack S = _sym(Q lambda + b) - y I, least eigenvalue 1:
    HKM steps (_newton at P = L^-1) toward L S = _CENTRE mu I,
    mu = <L, S> / r, each _FRACTION of the longest that keeps L and S
    positive definite, until <L, S> is below _QP_TOL, then _settle where it
    converges. Q and b are scaled to a largest entry of 1, and a row's
    result does not depend on the others."""
    rows, m = b.shape
    r = int((2 * m) ** 0.5)
    if r == 1:
        return np.ones((rows, 1))
    Q, b = _scaled(Q, b)
    e = _BASIS[r][1]
    lam = np.tile(e / r, (rows, 1))
    s = (Q @ lam[..., None])[..., 0] + b
    y = np.linalg.eigvalsh(_sym(s, r))[:, 0] - 1.0
    s -= y[:, None] * e
    act = np.arange(rows)
    for _ in range(_QP_ITERS):
        gap = (lam[act] * s[act]).sum(axis=1)
        x, X = np.linalg.eigh(np.stack([_sym(lam[act], r), _sym(s[act], r)]))
        go = (gap > _QP_TOL) & (x[:, :, 0] > 0.0).all(axis=0)
        act, gap, x, X = act[go], gap[go], x[:, go], X[:, go]
        if not act.size:
            break
        Xh = (X / np.sqrt(x)[..., None, :]) @ np.swapaxes(X, 2, 3)   # L^-1/2, S^-1/2
        u = _newton(Q[act], b[act], lam[act], y[act], s[act], Xh[0] @ Xh[0],
                    (_CENTRE * gap / r)[:, None, None] * np.eye(r))
        # the longest step is 1 / the largest -eig of L^-1/2 dL L^-1/2 and of S's
        rate = -np.linalg.eigvalsh(Xh @ np.stack([_sym(u[:, :m], r), _sym(u[:, m + 1:], r)])
                                   @ Xh)[:, :, 0].min(axis=0)
        u *= (_FRACTION / np.maximum(rate, _FRACTION))[:, None]
        lam[act], y[act], s[act] = lam[act] + u[:, :m], y[act] + u[:, m], s[act] + u[:, m + 1:]
    exact, ok = _settle(Q, b, lam)
    return np.where(ok[:, None], exact, lam)


def _scaled(Q, b):
    """Q and b scaled per row to a largest entry of 1: the same minimiser."""
    size = np.maximum(np.abs(Q).max(axis=(1, 2)), np.abs(b).max(axis=1))
    size = np.where(size > 0.0, size, 1.0)
    return Q / size[:, None, None], b / size[:, None]


def _newton(Q, b, lam, y, s, P, target):
    """The Newton step [d lambda, d y, d s] per row on psd_qp's KKT
    equations, Q lambda + b - y e - s = 0 (e and s the coordinates of I and
    of the dual slack S), tr L = 1 and sym(P (L S - target)) = 0: the HKM
    linearisation at P = L^-1, the AHO one at P = I, whose Jacobian stays
    regular at a strictly complementary solution, where L and S are
    singular. nan on a row whose Jacobian LAPACK finds singular."""
    rows, m = b.shape
    r = int((2 * m) ** 0.5)
    (E, e), L, S = _BASIS[r], _sym(lam, r), _sym(s, r)
    K = np.zeros((rows, 2 * m + 1, 2 * m + 1))
    K[:, :m, :m], K[:, :m, m], K[:, :m, m + 1:], K[:, m, :m] = Q, -e, -np.eye(m), e
    K[:, m + 1:, :m] = np.swapaxes(_cluster_cols(P[:, None] @ E @ S[:, None], r), 1, 2)
    K[:, m + 1:, m + 1:] = np.swapaxes(_cluster_cols(P[:, None] @ L[:, None] @ E, r), 1, 2)
    v = np.concatenate([s - (Q @ lam[..., None])[..., 0] - b + y[:, None] * e,
                        1.0 - lam[:, :r].sum(axis=1, keepdims=True),
                        _cluster_cols(P @ (target - L @ S), r)], axis=1)
    try:
        return np.linalg.solve(K, v[..., None])[..., 0]
    except np.linalg.LinAlgError:   # row by row, so that a singular row gives nan alone
        return np.concatenate([_newton(Q[j:j + 1], b[j:j + 1], lam[j:j + 1], y[j:j + 1],
                                       s[j:j + 1], P[j:j + 1], target[j:j + 1])
                               for j in range(rows)]) if rows > 1 else np.full(v.shape, np.nan)


def _settle(Q, b, lam):
    """(lambda, ok): full _newton steps to psd_qp's KKT point (target 0)
    from lambda, with y the least eigenvalue of _sym(Q lambda + b) and S
    the rest of it, each row until its step is within _QP_TOL or for _SETTLE
    steps; ok where the step came within _QP_TOL and no eigenvalue of L or
    S is below -_QP_TOL, Q and b scaled to a largest entry of 1."""
    rows, m = b.shape
    r = int((2 * m) ** 0.5)
    if r == 1:
        return np.ones((rows, 1)), np.ones(rows, dtype=bool)
    Q, b = _scaled(Q, b)
    g = (Q @ lam[..., None])[..., 0] + b
    y = np.linalg.eigvalsh(_sym(g, r))[:, 0]
    lam, s = lam.copy(), g - y[:, None] * _BASIS[r][1]
    act = np.arange(rows)
    for _ in range(_SETTLE):
        I = np.broadcast_to(np.eye(r), (len(act), r, r))
        u = _newton(Q[act], b[act], lam[act], y[act], s[act], I, 0.0 * I)
        lam[act], y[act], s[act] = lam[act] + u[:, :m], y[act] + u[:, m], s[act] + u[:, m + 1:]
        act = act[~(np.abs(u).max(axis=1) <= _QP_TOL)]   # a nan step stays
        if not act.size:
            break
    ok = np.isfinite(lam).all(axis=1) & np.isfinite(s).all(axis=1)
    ok[act] = False
    lam[~ok], s[~ok] = 0.0, 0.0
    low = np.linalg.eigvalsh(np.stack([_sym(lam, r), _sym(s, r)]))[:, :, 0]
    return lam, ok & (low >= -_QP_TOL).all(axis=0)


# ---- the gauge's searches over null coordinates -----------------------------

def _cluster_qp(Q, b, start):
    """psd_qp's lambda, by _settle from start on the rows where it
    converges and by psd_qp on the others."""
    lam, ok = _settle(Q, b, start)
    if not ok.all():
        lam[~ok] = psd_qp(Q[~ok], b[~ok])
    return lam


def cluster_min(A, N, tol):
    """Minimiser of sigma1(A_i + sum_l z_l N_l) over z in R^p, one search
    per row of the stack A of flattened d x d rows, all run in lockstep
    from z = 0, for p >= 2 flattened d x d matrices N with orthonormal
    rows: the boundary SQP's tie calculus with the level a variable.

    Each round takes the SVD U diag(s) V' of each row's X = A_i + N z and
    T_l = U'N_l V; the row's cluster is its r <= min(d, 4) pairs with
    s_j >= (1 - _BETA) s_1, and the rows of each r run in one batch. The
    step delta solves min w + delta'H delta / 2 subject to diag(s_1..s_r)
    + sym(sum_l delta_l T_l[:r, :r]) <= (s_1 + w) I, with H the curvature
    at the last round's multiplier in this round's frames plus rho s_1 I
    (rho s_1 I alone where the curvature is not finite or H indefinite).
    Its dual is psd_qp's problem on Q = C'H^-1 C, C = _cluster_cols(T, r),
    and b = _cluster_cols(s_1 I - diag(s_1..s_r)): the multiplier
    L >= 0, tr L = 1, and delta = -H^-1 c with c = C lambda =
    (<N_l, W>)_l, W = U_r L V_r'. The QP is solved by _settle from the last
    round's multiplier, psd_qp where that fails, and again with the
    constraint moved by the block's second-order terms along delta (the
    second-order correction, which keeps a tie through a full step), whose
    delta the row takes. ||W||_* = 1 and W' = W - sum_l c_l N_l is
    orthogonal to every N_l, so <W', A_i> = <W', X> <= ||W'||_* sigma1(X)
    at every z: each round gives a lower bound, taken less its rounding.

    A row moves by delta if its value there is at most the start's times
    1 + d (d + 1) eps, sigma1.values' rounding (rho quartered), else by the
    first of the halvings delta / 2, ..., delta 2^-11 that lowers it (rho
    doubled), else rho grows 16-fold. A row stops once its value is within
    its tol (a scalar or one per row) of its best lower bound, once rho
    exceeds _RHO_CAP, or after _CLUSTER_ROUNDS rounds. Every value is
    sigma1.values of its point. Returns (z, value, lower, rounds): the
    point of each row's least value found, that value, its best lower
    bound and the number of rounds."""
    S, p = len(A), len(N)
    d = int(round(A.shape[1] ** 0.5))
    Nm = N.reshape(p, d, d)

    def trial(B, Z):   # sigma1.values at the points Z (rows, q, p)
        return values((B[:, None] + Z @ N).reshape(-1, d, d)).reshape(Z.shape[:2])

    z, f, W = np.zeros((S, p)), values(A.reshape(S, d, d)), np.zeros((S, d, d))
    zb, fb = z.copy(), f.copy()   # the least value found and its point
    low, rho = np.zeros(S), np.full(S, 1e-2)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (S,))
    act, rounds = np.flatnonzero(f > 0.0), 0   # sigma1 = 0 is the minimum
    while act.size and rounds < _CLUSTER_ROUNDS:
        rounds += 1
        za, Aa = z[act], A[act]
        U, s, Vt = np.linalg.svd((Aa[:, None] + za[:, None] @ N).reshape(-1, d, d))
        T = np.swapaxes(U, 1, 2)[:, None] @ Nm @ np.swapaxes(Vt, 1, 2)[:, None]
        size = (s[:, :4] >= (1.0 - _BETA) * s[:, :1]).sum(axis=1)
        steps = np.zeros((len(act), p))
        for r in np.unique(size):   # the rows of each cluster size r in one batch
            g = np.flatnonzero(size == r)
            Tg, sg, Ur, Vr, n = T[g], s[g], U[g, :, :r], Vt[g, :r], r * (r + 1) // 2
            m = _cluster_cols(np.swapaxes(Ur, 1, 2) @ W[act[g]] @ np.swapaxes(Vr, 1, 2), r)
            with np.errstate(divide="ignore", invalid="ignore"):
                H = curvature(Tg, sg, _sym(m, r))
            prox = rho[act[g], None, None] * sg[:, :1, None] * np.eye(p)
            H = np.where(np.isfinite(H).all(axis=(1, 2))[:, None, None], H + prox, prox)
            H = np.where(np.linalg.eigvalsh(H)[:, :1, None] > 0.0, H, prox)
            C = _cluster_cols(Tg, r)
            HC = np.linalg.solve(H, C)
            Q, b = np.swapaxes(C, 1, 2) @ HC, np.pad(sg[:, :1] - sg[:, :r], ((0, 0), (0, n - r)))
            # round 1 has no last multiplier to start from
            lam = psd_qp(Q, b) if rounds == 1 else _cluster_qp(Q, b, m)
            W[act[g]] = Ur @ _sym(lam, r) @ Vr
            Wp = W[act[g]] - ((C @ lam[..., None])[..., 0] @ N).reshape(-1, d, d)
            dual = (Wp.reshape(len(g), -1) * Aa[g]).sum(axis=1) * (1.0 - 2.0 * d * d * _EPS)
            low[act[g]] = np.maximum(low[act[g]], dual / np.linalg.svd(
                Wp, compute_uv=False).sum(axis=1))
            # the second-order correction: the block's terms <E_e, E''>(delta, delta) / 2
            # at the unit weights E_e of its entries move the constraint's constant
            delta = -(HC @ lam[..., None])[..., 0]
            TD = np.broadcast_to((delta[:, :, None, None] * Tg).sum(axis=1)[:, None, None],
                                 (len(g), n, 1, d, d))
            with np.errstate(divide="ignore", invalid="ignore"):
                Qe = 0.5 * curvature(TD, np.broadcast_to(sg[:, None], TD.shape[:2] + (d,)),
                                     np.broadcast_to(_BASIS[r][0], TD.shape[:2] + (r, r)))
            lam = _cluster_qp(Q, np.where(np.isfinite(Qe[..., 0, 0]), b - Qe[..., 0, 0], b), lam)
            steps[g] = -(HC @ lam[..., None])[..., 0]
        keep = (fb[act] - low[act] > tol[act]) & (rho[act] <= _RHO_CAP)
        act, za, Aa, steps = act[keep], za[keep], Aa[keep], steps[keep]
        if not act.size:
            break
        fa = f[act]
        full = trial(Aa, za[:, None] + steps[:, None])[:, 0]
        # a full step whose value rounding cannot tell from the start's is taken
        won = full <= fa * (1.0 + d * (d + 1) * _EPS)
        lost = np.flatnonzero(~won)
        cand = za[lost, None] + _HALVES[:, None] * steps[lost, None]
        half = trial(Aa[lost], cand)
        a = (half < fa[lost, None]).argmax(axis=1)
        best = half[np.arange(len(lost)), a]
        ok = best < fa[lost]
        h = lost[ok]
        z[act[won]], f[act[won]] = za[won] + steps[won], full[won]
        z[act[h]], f[act[h]] = cand[ok, a[ok]], best[ok]
        rho[act] *= np.where(won, 0.25, np.where(np.isin(np.arange(len(act)), h), 2.0, 16.0))
        least = act[f[act] < fb[act]]
        zb[least], fb[least] = z[least], f[least]
    return zb, fb, low, rounds


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
