"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own linear algebra:
rank comes from Gaussian elimination, singular values from the symmetric
eigenvalues of the Hermitian dilation [[0, M], [M^T, 0]] (the library takes
them from LAPACK's SVD). Tests compare library output against these routes.
"""

from itertools import islice

import numpy as np
import pytest

from orbit_locator import make_subspace

# relative spectral-norm band of a membership check: sigma1 <= n (1 + MEM_TOL)
MEM_TOL = 1e-9


def gauss_rank(vectors, tol: float = 1e-9) -> int:
    """Rank by row echelon with partial pivoting."""
    rows = [np.asarray(v, dtype=float).ravel() for v in vectors]
    if not rows:
        return 0
    A = np.array(rows, dtype=float)
    scale = float(np.abs(A).max())
    if scale == 0.0:
        return 0
    m, n = A.shape
    rank = 0
    col = 0
    while rank < m and col < n:
        p = rank + int(np.argmax(np.abs(A[rank:, col])))
        if abs(A[p, col]) <= tol * scale:
            col += 1
            continue
        A[[rank, p]] = A[[p, rank]]
        A[rank] = A[rank] / A[rank, col]
        for i in range(m):
            if i != rank:
                A[i] -= A[i, col] * A[rank]
        rank += 1
        col += 1
    return rank


def svd_values(M) -> np.ndarray:
    """Singular values, descending: the eigenvalues of the dilation
    [[0, M], [M^T, 0]] are +-sigma_i plus |m - n| zeros, so its top
    min(m, n) eigenvalues are the singular values of M."""
    M = np.atleast_2d(np.asarray(M, float))
    m, n = M.shape
    D = np.zeros((m + n, m + n))
    D[:m, m:] = M
    D[m:, :m] = M.T
    lams = np.linalg.eigvalsh(D)[::-1][:min(m, n)]
    return np.clip(lams, 0.0, None)


def svd_sigma(M) -> float:
    """Top singular value, through the dilation route of svd_values."""
    return float(svd_values(M)[0])


def svd_sigmas(Ms) -> np.ndarray:
    """Top singular value of each square matrix in a stack, through the
    dilation route of svd_values: the top eigenvalue of [[0, M], [M^T, 0]]."""
    Ms = np.asarray(Ms, float)
    d = Ms.shape[-1]
    D = np.zeros(Ms.shape[:-2] + (2 * d, 2 * d))
    D[..., :d, d:] = Ms
    D[..., d:, :d] = np.swapaxes(Ms, -1, -2)
    return np.clip(np.linalg.eigvalsh(D)[..., -1], 0.0, None)


def stretched_null_problem():
    """Diagonal generators M and K in dimension 12 whose orbit through
    x = 0.05 e_12 is the last axis, with K spanning the null space. M is
    Frobenius-orthogonal to K when S (S - 1) = 10/4, so M / 0.05 is the
    least-norm preimage of e_12, while (M - K) / 0.05 = I / 0.05 is a
    preimage of sigma1 20: sigma1 of the least-norm preimage is S = 2.16
    times the gauge."""
    S = 0.5 * (1.0 + np.sqrt(11.0))
    M = np.diag([S] + [0.5] * 10 + [1.0])
    K = np.diag([S - 1.0] + [-0.5] * 10 + [0.0])
    return make_subspace([M, K]), 0.05 * np.eye(12)[11]


def quaternion_left():
    """Left multiplication by 1, i, j, k on the quaternions R^4: every
    operator of their span is a scaled orthogonal matrix."""
    def L(a, b, c, d):
        return np.array([[a, -b, -c, -d], [b, a, -d, c],
                         [c, d, a, -b], [d, -c, b, a]], dtype=float)
    return [L(1, 0, 0, 0), L(0, 1, 0, 0), L(0, 0, 1, 0), L(0, 0, 0, 1)]


def matrix_units(d):
    """The d^2 matrix units E_ij of dimension d: a basis of the full
    algebra M_d."""
    out = []
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d))
            E[i, j] = 1.0
            out.append(E)
    return out


# the x = (1, c) of family50's 20 diagonal-family problems, in draw order
FAMILY50_CS = [0.0, 1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 0.1, -0.1, 0.75,
               0.33, -0.33, 0.6, -0.6, 0.9, -0.9, 0.45, -0.45, 0.05, -0.05]


def family50_draw(seed=424242):
    """The 50 problems (basis, x, y) of the acceptance family50 draw, with
    generator `seed`: first the diagonal units with x = (1, c), c from
    FAMILY50_CS, and y scaled by 1.2, then dim 2..4, k 1..3 and y scaled
    by 1.5, drawn in the order dim, k, basis, x, y."""
    g = np.random.default_rng(seed)
    for c in FAMILY50_CS:
        yield [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], np.array([1.0, c]), g.normal(size=2) * 1.2
    for _ in range(50 - len(FAMILY50_CS)):
        dim = int(g.integers(2, 5))
        k = int(g.integers(1, 4))
        basis = [g.normal(size=(dim, dim)) for _ in range(k)]
        x = g.normal(size=dim)
        y = g.normal(size=dim) * 1.5
        yield basis, x, y


def family50_problem(index, seed=424242):
    """Problem `index` of the family50 draw with generator `seed`."""
    return next(islice(family50_draw(seed), index, None))


def wide_draw(count, seed=7, dims=(2, 6), ks=(1, 5)):
    """The first `count` problems (basis, x, y) of a random draw with
    generator `seed`, dim `integers(*dims)`, k `integers(*ks)` and y scaled
    by 1.5, drawn in the order dim, k, basis, x, y. The defaults give the
    wide draw (generator seed 7, dim 2..5, k 1..4)."""
    g = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(g.integers(*dims))
        k = int(g.integers(*ks))
        basis = [g.normal(size=(dim, dim)) for _ in range(k)]
        x = g.normal(size=dim)
        y = g.normal(size=dim) * 1.5
        yield basis, x, y


# the seed-13 draw: dim 6..8 and k 3..8
SEED13 = {"seed": 13, "dims": (6, 9), "ks": (3, 9)}
# the seed-17 draw: larger problems, dim 8..12 and k 4..12
SEED17 = {"seed": 17, "dims": (8, 13), "ks": (4, 13)}


def scale_draw(dim, k, seeds=(0, 1)):
    """The scale problems (basis, x, y) of dimension dim with k basis
    operators, one per s in seeds, each from generator 1000 dim + s: a
    standard normal basis (k, dim, dim), x, and y scaled by 1.5. They are
    swept at budget 30 and tol 1e-6."""
    for s in seeds:
        g = np.random.default_rng(1000 * dim + s)
        basis = list(g.normal(size=(k, dim, dim)))
        x = g.normal(size=dim)
        yield basis, x, g.normal(size=dim) * 1.5


def wide_draw_problem(index, **draw):
    """Problem `index` of the wide draw, or of the draw `wide_draw` makes
    from the keywords `draw`."""
    return list(wide_draw(index + 1, **draw))[-1]


@pytest.fixture
def diag_sub():
    """Span of the two diagonal matrix units in dimension 2."""
    return make_subspace([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


@pytest.fixture
def ptp():
    """Upper-left 2x2 block units in dimension 3 with a unit-norm block
    component: x = (0.6, 0.8, 0.3), so the orbit span is the block plane
    and the projected length is exactly 1."""
    basis = []
    for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        B = np.zeros((3, 3))
        B[i, j] = 1.0
        basis.append(B)
    sub = make_subspace(basis)
    x = np.array([0.6, 0.8, 0.3])
    P_expected = np.diag([1.0, 1.0, 0.0])
    return sub, x, P_expected


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
