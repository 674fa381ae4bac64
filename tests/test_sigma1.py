"""sigma1.psd_qp against its own optimality certificate, and the cluster
search it drives (sigma1.cluster_min) on the gauge rows of two quality
bodies: (dim, k, seed) draws whose basis (k, dim, dim), x and 200
directions come, in that order, from default_rng(seed)."""

import numpy as np
import pytest

from orbit_locator import OrbitBallContext, located, make_subspace, sigma1
from orbit_locator.sigma1 import _cluster_cols, _sym


def qp_problem(seed, rows, r, p):
    """psd_qp data as cluster_min builds it: Q = C'C from the cluster
    columns of normal frames T (rows, p, 6, 6), so of rank at most p, and b
    the coordinates of a diagonal s_1 I - diag(s) >= 0 with a zero first
    entry."""
    g = np.random.default_rng(seed)
    C = _cluster_cols(g.normal(size=(rows, p, 6, 6)), r)
    b = np.zeros((rows, C.shape[-1]))
    b[:, 1:r] = np.abs(g.normal(size=(rows, r - 1))) * 10.0 ** g.uniform(-12, 0, size=(rows, 1))
    return np.swapaxes(C, 1, 2) @ C, b


@pytest.mark.parametrize("r, p", [(2, 2), (2, 5), (3, 3), (3, 8), (4, 5), (4, 16)])
def test_psd_qp_meets_its_optimality_certificate(r, p):
    # lambda minimises the convex objective over {L >= 0, tr L = 1} if and
    # only if it minimises the objective's linearisation g'mu there, whose
    # least value is the least eigenvalue of mat(g), g = Q lambda + b: the
    # difference is the duality gap, which must be near rounding
    Q, b = qp_problem(100 * r + p, 200, r, p)
    lam = sigma1.psd_qp(Q, b)
    L = _sym(lam, r)
    assert np.allclose(np.trace(L, axis1=1, axis2=2), 1.0, rtol=0.0, atol=1e-14)
    assert np.linalg.eigvalsh(L)[:, 0].min() >= -1e-14
    g = (Q @ lam[..., None])[..., 0] + b
    size = np.maximum(np.abs(Q).max(axis=(1, 2)), np.abs(b).max(axis=1))
    gap = ((g * lam).sum(axis=1) - np.linalg.eigvalsh(_sym(g, r))[:, 0]) / size
    assert gap.max() <= 1e-12, gap.max()


def test_psd_qp_rows_are_independent():
    # a row solved in a stack ends bit for bit where it ends alone, and a
    # cluster of one pair has the one multiplier 1
    Q, b = qp_problem(7, 12, 3, 4)
    lam = sigma1.psd_qp(Q, b)
    for i in range(len(b)):
        assert np.array_equal(sigma1.psd_qp(Q[i:i + 1], b[i:i + 1])[0], lam[i]), i
    assert np.array_equal(sigma1.psd_qp(np.ones((3, 1, 1)), np.zeros((3, 1))), np.ones((3, 1)))


def body_gauges(dim, k, seed, monkeypatch, rows=slice(None)):
    """(tol, value, lower) of the one cluster_min search that the body's
    gauges of the chosen directions run."""
    g = np.random.default_rng(seed)
    ctx = OrbitBallContext(make_subspace(list(g.normal(size=(k, dim, dim)))), g.normal(size=dim))
    V = g.normal(size=(200, dim))[rows]
    calls = []
    search = located.cluster_min

    def recorded(A, N, tol):
        out = search(A, N, tol)
        calls.append((np.broadcast_to(tol, (len(A),)), out[1], out[2]))
        return out

    monkeypatch.setattr(located, "cluster_min", recorded)
    ctx.gauges(V)
    (tol, f, lower), = calls
    return tol, f, lower


# (dim, k, seed): rows of 200 whose value - lower the cluster search closed
# to tol when it took per-size least-norm multipliers and projected
# gradient steps; 99% (198) is the floor now
CLOSED_BEFORE = {(3, 7, 7): 179, (5, 12, 2): 187}


@pytest.mark.parametrize("dim, k, seed", list(CLOSED_BEFORE))
def test_cluster_search_closes_the_quality_bodies(dim, k, seed, monkeypatch):
    tol, f, lower = body_gauges(dim, k, seed, monkeypatch)
    assert np.all(lower <= f), np.max(lower - f)
    closed = int((f - lower <= tol).sum())
    assert closed >= max(CLOSED_BEFORE[dim, k, seed], 198), closed


def test_cluster_search_leaves_a_three_fold_tie_the_minimum_lacks(monkeypatch):
    # direction 181 of the (5, 12, 2) body stopped at sigma / sigma1 =
    # (1, 1, 1, 0.30) with value - lower = 6.2e-5 (value 1.06838) when the
    # multiplier of the tie came from 50 projected gradient steps
    tol, f, lower = body_gauges(5, 12, 2, monkeypatch, rows=slice(181, 182))
    assert lower[0] <= f[0] and f[0] - lower[0] <= tol[0], (f[0], f[0] - lower[0])
    assert f[0] < 1.06838


def test_settle_leaves_a_singular_start_to_its_row():
    # Newton steps from L = 0 meet a singular Jacobian; that row alone is
    # refused, and every other row ends where it ends by itself
    Q, b = qp_problem(11, 4, 3, 6)
    start = sigma1.psd_qp(Q, b)
    start[2] = 0.0
    lam, ok = sigma1._settle(Q, b, start)
    assert ok.tolist() == [True, True, False, True]
    for i in (0, 1, 3):
        alone = sigma1._settle(Q[i:i + 1], b[i:i + 1], start[i:i + 1])
        assert alone[1][0] and np.array_equal(alone[0][0], lam[i]), i
