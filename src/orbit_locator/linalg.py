"""Dense real linear algebra on desk-scale problems.

Eigen- and singular values come from LAPACK through numpy. The symmetric
eigensolver and the checked SVD check every returned pair after the fact:
for a symmetric matrix the residual norm ||S v - lam v|| bounds the
distance from lam to the spectrum, so a pair that does not meet its bound
raises ConvergenceFailure instead of passing as certified. Small stacks
of matrices get closed-form spectral norms (d <= 3), which the
enumeration oracles use as a route independent of LAPACK. The calculus of
sigma1 that the solvers use (Gram values, curvature, the SQP's multiplier
and step, the gauge's searches) is in the sigma1 module.
"""

from __future__ import annotations

import numpy as np

from .defaults import RANK_TOL
from .errors import ConvergenceFailure, DimensionError


def as_vector(v) -> np.ndarray:
    """Validate and convert to a finite 1-d float array."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"expected a nonempty 1-d vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionError("vector entries must be finite")
    return arr


def as_matrix(M, *, square: bool = False) -> np.ndarray:
    """Validate and convert to a finite 2-d float array."""
    arr = np.asarray(M, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionError(f"expected a nonempty 2-d matrix, got shape {arr.shape}")
    if square and arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionError("matrix entries must be finite")
    return arr


def as_rows(V, width: int) -> np.ndarray:
    """Validate and convert to a finite 2-d float array of rows of length
    width."""
    arr = as_matrix(V)
    if arr.shape[1] != width:
        raise DimensionError(f"expected rows of length {width}, got shape {arr.shape}")
    return arr


def as_tol(tol) -> float:
    """A tolerance as a float, raising DimensionError unless it is positive
    and finite (NaN fails too)."""
    tol = float(tol)
    if not 0.0 < tol < np.inf:
        raise DimensionError(f"tol must be positive and finite, got {tol}")
    return tol


def as_level(n) -> float:
    """A ball level as a float, raising DimensionError unless it is
    nonnegative (NaN fails here) and finite."""
    n = float(n)
    if not n >= 0.0:
        raise DimensionError(f"scale n must be nonnegative, got {n}")
    if n == np.inf:
        raise DimensionError(f"scale n must be finite, got {n}")
    return n


def as_budget(budget, name: str = "budget") -> int:
    """A level budget (or the count name) as an int, raising DimensionError
    unless it is an integer of at least 1 (a numpy integer passes, a bool
    does not)."""
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)) or budget < 1:
        raise DimensionError(f"{name} must be an integer of at least 1, got {budget!r}")
    return int(budget)


def orthonormalize(vectors) -> tuple[list[np.ndarray], int]:
    """Modified Gram-Schmidt with a drop rule.

    Vectors whose residual after projection onto the previously accepted ones
    has norm <= RANK_TOL * (max input norm) are dropped. Returns the
    orthonormal list and its length (the numerical rank of the input span).
    """
    vs = [as_vector(v) for v in vectors]
    if not vs:
        return [], 0
    max_norm = max(float(np.linalg.norm(v)) for v in vs)
    if max_norm == 0.0:
        return [], 0
    threshold = RANK_TOL * max_norm
    basis: list[np.ndarray] = []
    for v in vs:
        w = v.astype(float, copy=True)
        # two projection passes: the second mops up roundoff from the first
        for _ in range(2):
            for q in basis:
                w -= np.dot(q, w) * q
        nw = float(np.linalg.norm(w))
        if nw > threshold:
            basis.append(w / nw)
    return basis, len(basis)


def sym_eigh_desc(S, tol: float = 1e-12):
    """All eigenvalues (descending) and eigenvectors of a symmetric matrix.

    LAPACK's eigh, then every pair is checked after the fact: for symmetric
    S the residual ||S v - lam v|| bounds the distance from lam to the
    spectrum. Raises ConvergenceFailure when LAPACK fails or a residual
    exceeds 50 * tol * ||S||_F * max(1, d).
    """
    S = as_matrix(S, square=True)
    S = 0.5 * (S + S.T)
    d = S.shape[0]
    scale = float(np.linalg.norm(S, ord="fro"))
    try:
        lams, V = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh failed: {exc}") from exc
    lams = lams[::-1]
    V = V[:, ::-1]
    resid = np.linalg.norm(S @ V - V * lams, axis=0)
    worst = float(resid.max())
    bound = 50.0 * max(tol, 1e-14) * scale * max(1.0, d)
    if not worst <= bound:
        raise ConvergenceFailure(
            f"eigenpair residual {worst:.3e} exceeds {bound:.3e}",
            best=lams, residual=worst)
    return lams, V


def checked_svd(M):
    """Full SVD (U, s, Vt) of a finite 2-d array M, s descending, with
    every pair checked.

    LAPACK's SVD, then each column pair of the full factors is checked
    after the fact, with s padded by zeros: M v_i = s_i u_i and
    M' u_i = s_i v_i. These are the eigenpairs (s_i, [u_i; v_i] / sqrt 2)
    of the symmetric dilation [[0, M], [M', 0]], so the residual bounds the
    distance from s_i to the singular values as in sym_eigh_desc. Raises
    ConvergenceFailure when LAPACK fails or a residual exceeds
    50 * 1e-14 * ||M||_F * max(1, d, k) for M of shape (d, k).
    """
    M = np.asarray(M, dtype=float)
    try:
        U, s, Vt = np.linalg.svd(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"svd failed: {exc}") from exc
    p = s.size
    # pair i: column i of M V - U S and row i of U'M - S V', S padded
    left = M @ Vt.T
    left[:, :p] -= U[:, :p] * s
    right = U.T @ M
    right[:p] -= s[:, None] * Vt[:p]
    worst = float(np.sqrt(max(np.einsum("ij,ij->j", left, left).max(),
                              np.einsum("ij,ij->i", right, right).max())))
    scale = float(np.sqrt(np.vdot(M, M)))
    bound = 50.0 * 1e-14 * scale * max(1, *M.shape)
    if not worst <= bound:
        raise ConvergenceFailure(
            f"singular pair residual {worst:.3e} exceeds {bound:.3e}",
            best=s, residual=worst)
    return U, s, Vt


def singular_values(M) -> np.ndarray:
    """Singular values of M, descending."""
    return np.linalg.svd(as_matrix(M), compute_uv=False)


def spectral_norm(M) -> float:
    """Largest singular value (operator 2-norm)."""
    return float(singular_values(M)[0])


def top_singular_triple(M):
    """(sigma1, u, v) with M v = sigma1 u and unit u, v."""
    U, s, Vt = np.linalg.svd(as_matrix(M), full_matrices=False)
    return float(s[0]), U[:, 0], Vt[0]


def top_singular_pairs(M, *, rel_gap: float = 1e-6, max_pairs: int = 4):
    """Singular triples clustered at the top of the spectrum.

    Returns [(s, u, v), ...] for every singular value within rel_gap
    (relatively) of the largest, capped at max_pairs, with s recomputed as
    u @ M @ v so the triple is exactly consistent with the returned unit
    vectors. Empty for the zero matrix.
    """
    M = as_matrix(M)
    U, sig, Vt = np.linalg.svd(M, full_matrices=False)
    out = []
    for i in range(min(len(sig), max_pairs)):
        if sig[i] < sig[0] * (1.0 - rel_gap) or sig[i] <= 1e-300:
            break
        u, v = U[:, i], Vt[i]
        out.append((float(u @ M @ v), u, v))
    return out


def clip_spectral(M, bound: float) -> np.ndarray:
    """Nearest matrix (Frobenius) with spectral norm <= bound: singular
    values above the bound are clipped down to it."""
    U, s, Vt = np.linalg.svd(as_matrix(M), full_matrices=False)
    return (U * np.minimum(s, bound)) @ Vt


def nuclear_norm(M) -> float:
    """Sum of singular values."""
    return float(np.sum(singular_values(M)))


# --- closed-form batch spectral norms -------------------------------------
#
# For d <= 3 deliberately a different computational route from LAPACK:
# enumerative oracles (grids, nets) use these so the two sides of a
# solver-vs-oracle comparison share no eigensolver.

_EYE3 = np.eye(3)


def batch_spectral_norms(Ms: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of matrices, shape (N, d, d): closed form
    for d <= 3, one stacked SVD for larger d."""
    Ms = np.asarray(Ms, dtype=float)
    if Ms.ndim != 3:
        raise DimensionError(f"expected a stack of matrices, got shape {Ms.shape}")
    d = Ms.shape[2]
    if d == 1:
        return np.abs(Ms[:, 0, 0])
    if d == 2:
        # [[a, b], [c, e]] has singular values (|z1| +- |z2|) / 2 with
        # z1 = (a + e) + i(c - b) and z2 = (a - e) + i(c + b)
        a, b, c, e = Ms[:, 0, 0], Ms[:, 0, 1], Ms[:, 1, 0], Ms[:, 1, 1]
        return 0.5 * (np.hypot(a + e, c - b) + np.hypot(a - e, c + b))
    if d == 3:
        G = np.matmul(Ms.transpose(0, 2, 1), Ms)
        return np.sqrt(np.maximum(_batch_sym3_top_eig(G), 0.0))
    return np.linalg.svd(Ms, compute_uv=False)[:, 0]


def _batch_sym3_top_eig(G: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of a stack of symmetric 3x3 matrices (trig formula)."""
    a = G[:, 0, 0]
    b = G[:, 1, 1]
    c = G[:, 2, 2]
    de = G[:, 0, 1]
    f = G[:, 1, 2]
    g = G[:, 0, 2]
    p1 = de * de + f * f + g * g
    q = (a + b + c) / 3.0
    diag_dev = (a - q) ** 2 + (b - q) ** 2 + (c - q) ** 2
    p2 = diag_dev + 2.0 * p1
    p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
    # a scalar multiple of the identity (p = 0) has the eigenvalue q; the
    # stand-in divisor only keeps those rows finite
    round_ = p > 1e-300
    pm = np.where(round_, p, 1.0)
    Bm = (G - q[:, None, None] * _EYE3) / pm[:, None, None]
    detB = (Bm[:, 0, 0] * (Bm[:, 1, 1] * Bm[:, 2, 2] - Bm[:, 1, 2] * Bm[:, 2, 1])
            - Bm[:, 0, 1] * (Bm[:, 1, 0] * Bm[:, 2, 2] - Bm[:, 1, 2] * Bm[:, 2, 0])
            + Bm[:, 0, 2] * (Bm[:, 1, 0] * Bm[:, 2, 1] - Bm[:, 1, 1] * Bm[:, 2, 0]))
    r = np.minimum(np.maximum(detB / 2.0, -1.0), 1.0)
    phi = np.arccos(r) / 3.0
    return np.where(round_, q + 2.0 * pm * np.cos(phi), q)
