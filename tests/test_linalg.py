import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbit_locator import ConvergenceFailure, DimensionError, linalg, sigma1
from orbit_locator.sigma1 import line_derivs, sigma1_newton
from conftest import gauss_rank, svd_sigma, svd_values


def test_as_vector_rejects_matrices():
    with pytest.raises(DimensionError):
        linalg.as_vector(np.eye(2))


def test_as_matrix_square_flag():
    with pytest.raises(DimensionError):
        linalg.as_matrix(np.ones((2, 3)), square=True)
    M = linalg.as_matrix([[1, 2], [3, 4]])
    assert M.dtype == float and M.shape == (2, 2)


def test_orthonormalize_known_case():
    vecs = [np.array([2.0, 0.0]), np.array([1.0, 1.0])]
    Q, rank = linalg.orthonormalize(vecs)
    assert rank == 2
    G = np.array([[np.dot(a, b) for b in Q] for a in Q])
    assert np.allclose(G, np.eye(2), atol=1e-12)


def test_orthonormalize_detects_dependence():
    vecs = [np.array([1.0, 2.0, 0.0]),
            np.array([2.0, 4.0, 0.0]),
            np.array([0.0, 0.0, 3.0])]
    Q, rank = linalg.orthonormalize(vecs)
    assert rank == 2 == gauss_rank(vecs)


def test_orthonormalize_rank_matches_elimination(rng):
    for _ in range(40):
        m = rng.integers(1, 6)
        d = rng.integers(1, 6)
        r = int(rng.integers(0, min(m, d) + 1))
        # build vectors of known rank r
        A = rng.normal(size=(m, r)) @ rng.normal(size=(r, d)) if r else np.zeros((m, d))
        vecs = [A[i] for i in range(m)]
        Q, rank = linalg.orthonormalize(vecs)
        assert rank == gauss_rank(vecs)
        for v in vecs:
            proj = sum(np.dot(v, q) * q for q in Q) if Q else np.zeros_like(v)
            assert np.linalg.norm(v - proj) <= 1e-8 * max(1.0, np.linalg.norm(v))


@pytest.mark.parametrize("shape", [(3, 3), (2, 5), (5, 2), (4, 1)])
def test_checked_svd_matches_numpy(rng, shape):
    M = rng.normal(size=shape)
    U, s, Vt = linalg.checked_svd(M)
    assert U.shape == (shape[0], shape[0]) and Vt.shape == (shape[1], shape[1])
    assert np.allclose(s, svd_values(M), rtol=1e-13, atol=0.0)
    S = np.zeros(shape)
    S[np.arange(s.size), np.arange(s.size)] = s
    assert np.allclose(U @ S @ Vt, M, atol=1e-13)
    # a zero matrix passes with zero singular values
    assert np.all(linalg.checked_svd(np.zeros(shape))[1] == 0.0)


@pytest.mark.parametrize("corrupt", ["value", "left", "right"])
def test_checked_svd_rejects_bad_pair(rng, monkeypatch, corrupt):
    # a singular value off by 1e-6, or a left or right vector turned by
    # 1e-6, must be refused
    M = rng.normal(size=(4, 3))
    svd = np.linalg.svd

    def perturbed(A, *args, **kwargs):
        U, s, Vt = (a.copy() for a in svd(A, *args, **kwargs))
        if corrupt == "value":
            s[1] *= 1.0 + 1e-6
        elif corrupt == "left":
            U[:, 0] += 1e-6 * U[:, 3]
        else:
            Vt[2] += 1e-6 * Vt[0]
        return U, s, Vt

    monkeypatch.setattr(np.linalg, "svd", perturbed)
    with pytest.raises(ConvergenceFailure):
        linalg.checked_svd(M)


def test_singular_values_rectangular(rng):
    for shape in [(2, 5), (5, 2), (3, 3), (1, 4)]:
        M = rng.normal(size=shape)
        ours = linalg.singular_values(M)
        ref = svd_values(M)
        assert np.allclose(ours, ref, atol=1e-9)


def test_spectral_norm_matches_svd(rng):
    for _ in range(30):
        M = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        assert abs(linalg.spectral_norm(M) - svd_sigma(M)) <= 1e-10 * max(1.0, svd_sigma(M))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sigma1_curvature_matches_second_differences(d):
    # the curvature of sigma1 along a random direction N, from the SVD
    # alone, against central differences of the dilation oracle; the
    # Newton line search's derivatives (its route at d = 2 is new) give
    # the same value, sigma1 and a slope matching first differences
    g = np.random.default_rng(d)
    X, N = g.normal(size=(2, d, d))
    U, s, Vt = np.linalg.svd(X)
    assert s[1] < 0.95 * s[0]
    curv = sigma1.curvature((U.T @ N @ Vt.T)[None], s, np.ones((1, 1)))
    assert curv.shape == (1, 1)
    h = 1e-4
    up, mid, down = (svd_sigma(X + c * h * N) for c in (1.0, 0.0, -1.0))
    assert abs(curv[0, 0] - (up - 2.0 * mid + down) / (h * h)) <= 1e-6 * abs(curv[0, 0])
    f, slope, line_curv = line_derivs(X.reshape(1, -1), N.ravel(), d)(np.zeros(1))
    assert f[0] == pytest.approx(mid, rel=1e-14)
    assert slope[0] == pytest.approx((up - down) / (2.0 * h), rel=1e-7)
    assert line_curv[0] == pytest.approx(curv[0, 0], rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_frame_diagonal_is_the_singular_value_slopes(d):
    # the diagonal of T = U'D V gives the slopes u_i'D v_i of the simple
    # singular values along D, the gradients the SQP reads off its turn,
    # against central differences of the dilation oracle
    g = np.random.default_rng(10 + d)
    X, D = g.normal(size=(2, d, d))
    U, s, Vt = np.linalg.svd(X)
    assert np.all(s[1:] < 0.95 * s[:-1])
    h = 1e-6
    fd = (svd_values(X + h * D) - svd_values(X - h * D)) / (2.0 * h)
    assert np.allclose(np.diagonal(U.T @ D @ Vt.T), fd, rtol=0.0, atol=1e-8)


def test_sigma1_curvature_at_an_exact_tie():
    # sigma1 has no second derivative where s1 ties s2, and the curvature
    # comes out non-finite there. On the line diag(1 - w, w), w = z / sqrt 2,
    # sigma1 = max(|1 - w|, |w|) has its minimum 1/2 at such a kink; Newton
    # steps cannot reach it, and the crossing of the bracket's tangents
    # puts the search on it, closing the dual gap
    U, s, Vt = np.linalg.svd(0.5 * np.eye(3))
    N = np.random.default_rng(0).normal(size=(2, 3, 3))
    assert not np.isfinite(sigma1.curvature(U.T @ N @ Vt.T, s, np.ones((1, 1)))).any()
    A, N = np.diag([1.0, 0.0]).ravel(), np.diag([-1.0, 1.0]).ravel() / np.sqrt(2.0)
    derivs = line_derivs(A[None], N, 2)
    assert not np.isfinite(derivs(np.array([np.sqrt(0.5)]))[2]).any()
    z, f, lower, rounds = sigma1_newton(derivs, A @ N[None].T, 1e-12, np.sqrt(2.0))
    assert f[0] - lower[0] <= 1e-12 and f[0] == pytest.approx(0.5, abs=1e-12)
    assert z[0] == pytest.approx(np.sqrt(0.5), abs=1e-12)


def exact_tie(g, d, K, r=2):
    """X = U diag(s) V' with s = (2, ..., 2, 1, 0.3, 0.1)[:d], r values 2,
    and random orthogonal U, V, K random directions D_k, and T = U'D_k V in
    those frames."""
    U, V = (np.linalg.qr(g.normal(size=(d, d)))[0] for _ in range(2))
    s = np.array([2.0] * r + [1.0, 0.3, 0.1][:d - r])
    D = g.normal(size=(K, d, d))
    return U @ np.diag(s) @ V.T, D, s, U.T @ D @ V


def second_differences(fn, K, h):
    """Central second differences of fn at 0 along the unit axes of R^K."""
    E = h * np.eye(K)
    return np.array([[sum(a * b * fn(a * E[i] + b * E[j]) for a in (1, -1) for b in (1, -1))
                      for j in range(K)] for i in range(K)]) / (4.0 * h * h)


@pytest.mark.parametrize("d,r,mu", [(3, 2, 1.0), (4, 2, 1.0), (3, 1, 0.7), (4, 3, 1.3),
                                    (5, 4, 0.6)], ids=["3", "4", "r1", "r3", "r4"])
def test_block_curvature_at_an_exact_tie(d, r, mu):
    # at s1 = ... = s_r the Ky Fan sum s1 + ... + s_r is smooth while sigma1
    # is not (r > 1): the block curvature at M = mu I_r matches mu times the
    # sum's second differences, the error falling as h^2, and at M = [[1]]
    # the value is finite only at r = 1
    g = np.random.default_rng(40 + d)
    X, D, s, T = exact_tie(g, d, 3, r)
    curv = sigma1.curvature(T, s, mu * np.eye(r))
    assert np.allclose(curv, curv.T, rtol=0.0, atol=1e-14)

    def ky_fan(c):
        return mu * svd_values(X + np.tensordot(c, D, 1))[:r].sum()

    errs = [np.abs(curv - second_differences(ky_fan, 3, h)).max() for h in (1e-2, 1e-3)]
    assert errs[1] <= 2e-2 * errs[0] and errs[1] <= 1e-5 * np.abs(curv).max(), errs
    finite = np.isfinite(sigma1.curvature(T, s, np.ones((1, 1))))
    assert finite.all() if r == 1 else not finite.any()


def test_block_curvature_is_linear_in_its_weight():
    # a 1 x 1 weight w gives w times the curvature of sigma1, the sum over
    # the pairs j >= 2 written out here; a 2 x 2 weight is linear too
    g = np.random.default_rng(44)
    X, D = g.normal(size=(4, 4)), g.normal(size=(3, 4, 4))
    U, s, Vt = np.linalg.svd(X)
    T = U.T @ D @ Vt.T
    want = np.zeros((3, 3))
    for j in range(1, 4):
        a, b = T[:, j, 0], T[:, 0, j]
        want += (s[0] * (np.outer(a, a) + np.outer(b, b))
                 + s[j] * (np.outer(a, b) + np.outer(b, a))) / (s[0] ** 2 - s[j] ** 2)
    for w in (1.0, 0.37, 2.5):
        got = sigma1.curvature(T, s, np.array([[w]]))
        assert np.allclose(got, w * want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
    A, B = (np.array([[1.0, c], [c, 0.4]]) for c in (0.3, -0.2))
    both = sigma1.curvature(T, s, A + 2.0 * B)
    apart = sigma1.curvature(T, s, A) + 2.0 * sigma1.curvature(T, s, B)
    assert np.allclose(both, apart, rtol=1e-13, atol=1e-13 * np.abs(both).max())


def test_nuclear_norm(rng):
    M = rng.normal(size=(3, 4))
    assert abs(linalg.nuclear_norm(M) - float(svd_values(M).sum())) <= 1e-9


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_batch_spectral_norms(rng, d):
    Ms = rng.normal(size=(64, d, d))
    got = linalg.batch_spectral_norms(Ms)
    ref = np.array([svd_sigma(M) for M in Ms])
    assert np.allclose(got, ref, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(-4.0, 4.0))
def test_spectral_norm_scaling_property(seed, c):
    M = np.random.default_rng(seed).normal(size=(3, 3))
    lhs = linalg.spectral_norm(c * M)
    assert abs(lhs - abs(c) * linalg.spectral_norm(M)) <= 1e-9 * max(1.0, abs(c))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_spectral_norm_triangle_property(seed):
    g = np.random.default_rng(seed)
    A = g.normal(size=(3, 3))
    B = g.normal(size=(3, 3))
    assert linalg.spectral_norm(A + B) <= (linalg.spectral_norm(A)
                                           + linalg.spectral_norm(B) + 1e-9)
