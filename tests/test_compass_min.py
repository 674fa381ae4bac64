"""The searches behind every gauge with a null space and every inner
radius, against references that do not use them: dense grids and golden
section on the dilation oracle of conftest. At one null coordinate the
closed form pair_line_min runs at dimension 2 and sigma1_newton on the
rows it leaves open and at 3 and more; at two or more the cluster search
cluster_min runs, whose lower bounds are checked against its values and
whose values are checked against those of the pattern search it replaced
(compass_min, pinned)."""

import numpy as np
import pytest

from orbit_locator import (OrbitBallContext, diag_subspace, located,
                           make_subspace, sigma1, span_inner_radius)
from orbit_locator.defaults import GAUGE_TOL
from orbit_locator.sigma1 import line_derivs, pair_line_min, sigma1_newton
from conftest import scale_draw, stretched_null_problem, svd_sigma, svd_sigmas, svd_values

GOLD = (np.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo, hi, iters=90):
    """Row-wise golden-section search of a function unimodal on [lo, hi]:
    f maps an array of abscissae to the values there. Returns the least
    value found per row and its abscissa."""
    a, b = np.array(lo, float), np.array(hi, float)
    c, d = b - GOLD * (b - a), a + GOLD * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc <= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        new = np.where(left, b - GOLD * (b - a), a + GOLD * (b - a))
        fnew = f(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, fnew, fd), np.where(left, fc, fnew)
    return np.minimum(fc, fd), np.where(fc <= fd, c, d)


def reference_min(A, Ns, R=4.0, grid=41):
    """min over z in [-R, R]^m of sigma1(A + sum z_j N_j), m = 1 or 2: a
    dense grid brackets the minimiser of the (convex) profile in z_1,
    golden section finishes; in two coordinates the profile value at z_1
    is itself a golden-section minimum over z_2 on [-R, R]."""
    def profile(s):
        M = A + s[..., None, None] * Ns[0]
        if len(Ns) == 1:
            return svd_sigmas(M)
        return golden_min(lambda t: svd_sigmas(M + t[..., None, None] * Ns[1]),
                          np.full(s.shape, -R), np.full(s.shape, R))[0]
    zs = np.linspace(-R, R, grid)
    i = int(np.argmin(profile(zs)))
    assert 0 < i < grid - 1, "minimiser outside the reference box"
    h = zs[1] - zs[0]
    return float(golden_min(profile, [zs[i] - h], [zs[i] + h])[0][0])


@pytest.mark.parametrize("m", [2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compass_min_reaches_sigma1_minimum(m, seed):
    # the cluster search on two null coordinates, given in an orthonormal
    # basis of their plane, lands on the reference minimum and closes its
    # dual gap; one coordinate runs the line searches tested below
    g = np.random.default_rng(40 + seed)
    A = g.normal(size=(3, 3))
    Ns = [g.normal(size=(3, 3)) for _ in range(m)]
    ref = reference_min(A, Ns)
    N = np.linalg.qr(np.stack(Ns).reshape(m, 9).T)[0].T
    tol = GAUGE_TOL / 4.0
    z, f, lower, rounds = sigma1.cluster_min(A.reshape(1, 9), N, tol)
    assert z.shape == (1, m) and f.shape == lower.shape == (1,) and rounds > 1
    assert lower[0] <= f[0] and f[0] - lower[0] <= tol, (f[0], lower[0])
    assert abs(f[0] - ref) <= 1e-12 * ref, (f[0], ref)
    assert f[0] == pytest.approx(sigma1.values((A.reshape(1, 9) + z @ N).reshape(1, 3, 3))[0],
                                 rel=1e-15, abs=0.0)


def test_lockstep_rows_equal_one_row_runs():
    # every row of a lockstep cluster search, with its own tolerance, ends
    # where a search of that row alone ends, bit for bit, with the same
    # lower bound; the lockstep runs as many rounds as its longest row
    g = np.random.default_rng(5)
    S, m = 4, 3
    A = g.normal(size=(S, 9))
    N = np.linalg.qr(g.normal(size=(9, m)))[0].T
    tol = np.array([1e-10, 1e-6, 1e-12, 1e-4])
    z, f, lower, rounds = sigma1.cluster_min(A, N, tol)
    most = 0
    for i in range(S):
        zi, fi, li, ri = sigma1.cluster_min(A[i:i + 1], N, tol[i])
        assert np.array_equal(z[i], zi[0]) and f[i] == fi[0] and lower[i] == li[0], i
        most = max(most, ri)
    assert rounds == most


def null_space_problem(seed, dim=2):
    """dim + 1 operators on R^dim whose orbit has rank dim, built like the
    span corpus shape (2, 3, 2): the last operator sends x into the span
    of the other images, so the orbit map has a one-dimensional kernel and
    every gauge runs a search over one null coordinate."""
    g = np.random.default_rng(seed)
    x = g.normal(size=dim)
    basis = [g.normal(size=(dim, dim)) for _ in range(dim)]
    kill_x = np.eye(dim) - np.outer(x, x) / float(x @ x)
    mix = g.normal(size=dim)
    basis.append(sum(m * B for m, B in zip(mix, basis))
                 + g.normal(size=(dim, dim)) @ kill_x)
    return basis, x


def reference_gauges(basis, x, V):
    """Gauge of each row of V for the unit orbit ball of a null_space_problem:
    the least sigma1 over the line of coefficient vectors c with
    sum c_i B_i x = v, by golden section over the kernel coordinate on the
    dilation oracle."""
    B = np.stack(basis)
    Phi = np.stack([Bi @ x for Bi in basis])            # rows B_i x
    C0 = np.linalg.solve(Phi.T @ Phi, V.T).T @ Phi.T    # least-norm c
    ker = np.linalg.svd(Phi.T)[2][-1]

    def mats(C):
        return np.einsum("qk,kij->qij", C, B)

    # sigma1 grows at least like |s| sigma1(ker) - sigma1(c0) along the line
    span = 2.0 * svd_sigmas(mats(C0)) / svd_sigma(mats(ker[None])[0])
    return golden_min(lambda s: svd_sigmas(mats(C0 + s[:, None] * ker)),
                      -span, span)[0]


def record_newton(monkeypatch):
    """Route the kernel's sigma1_newton through a recorder: a list that
    gets (tol, (z, f, lower, rounds)) for each call."""
    calls = []
    newton = located.sigma1_newton

    def recorded(derivs, c, tol, width):
        out = newton(derivs, c, tol, width)
        calls.append((np.broadcast_to(tol, np.shape(c)), out))
        return out

    monkeypatch.setattr(located, "sigma1_newton", recorded)
    return calls


def check_gauge_rows(ctx, V, vals, ts):
    """What the inner radius's floor rests on, row by row: each value is
    sigma1 of mat of its coefficients, that operator sends x to v, and no
    value exceeds sigma1 of the least-norm preimage (the search's start)."""
    M = ctx.mat(ts)
    assert np.allclose(vals, svd_sigmas(M), rtol=1e-12, atol=0.0)
    miss = np.linalg.norm(M @ ctx.x - V, axis=1)
    assert np.all(miss <= 1e-9 * np.linalg.norm(V, axis=1)), miss.max()
    start = sigma1.values(ctx.mat(ctx.min_norm_preimage(V)))
    assert np.all(vals <= start)


@pytest.mark.parametrize("dim, seed", [(2, 0), (2, 1), (2, 7), (3, 0), (3, 1),
                                       (4, 0), (4, 1)])
def test_newton_gauges_match_golden_section(dim, seed, monkeypatch):
    # one null coordinate: every row lands on the golden-section minimum of
    # the line. At d = 2 the closed form runs and no Newton search; at
    # d >= 3 one Newton search closes every row's dual gap at the kernel's
    # tolerance
    basis, x = null_space_problem(seed, dim)
    ctx = OrbitBallContext(make_subspace(basis), x)
    assert (ctx.rank, ctx.null_vecs.shape[1]) == (dim, 1)
    V = np.random.default_rng(100 + seed).normal(size=(32, dim))
    calls = record_newton(monkeypatch)
    monkeypatch.setattr(located, "cluster_min", None)
    vals, ts = ctx.gauges(V)
    if dim == 2:
        assert calls == []
    else:
        (tol, (_, f, lower, _)), = calls
        assert np.all(f - lower <= tol), np.max(f - lower - tol)
        assert np.allclose(tol, GAUGE_TOL * np.maximum(
            1.0, np.linalg.norm(ctx.min_norm_preimage(V), axis=1)) / 4.0)
    ref = reference_gauges(basis, x, V)
    assert np.all(np.abs(vals - ref) <= 1e-10 * ref), np.max(np.abs(vals - ref) / ref)
    check_gauge_rows(ctx, V, vals, ts)


def test_newton_gauges_flat_and_kinked_minima(monkeypatch):
    # the diagonal family at c = 0, x = e_1: the null coordinate is the
    # diag(0, 1) direction and sigma1 = max(|s|, |z|) is flat around z = 0,
    # where the closed form of d = 2 puts the midpoint of its two real
    # points -s and s, with no Newton search. The stretched problem's line
    # (sigma1 = max(|S + z'(S - 1)|, |1/2 - z'/2|, 1) / 0.05 at z' the
    # coefficient of K) has its minimum 20 at a kink where all twelve
    # singular values tie
    calls = record_newton(monkeypatch)
    ctx = OrbitBallContext(diag_subspace(), [1.0, 0.0])
    V = np.array([[1.0, 0.0], [-0.3, 0.0], [2.5, 0.0]])
    vals, ts = ctx.gauges(V)
    assert np.array_equal(vals, np.abs(V[:, 0]))
    check_gauge_rows(ctx, V, vals, ts)
    assert calls == []
    sub, x = stretched_null_problem()
    ctx = OrbitBallContext(sub, x)
    V = np.eye(12)[11][None]
    vals, ts = ctx.gauges(V)
    assert vals[0] == pytest.approx(20.0, rel=1e-14)
    check_gauge_rows(ctx, V, vals, ts)
    (tol, (_, f, lower, rounds)), = calls
    assert np.all(f - lower <= tol) and rounds <= 3, (f - lower, rounds)


def pair_rows(p):
    """Flattened 2 x 2 rows [a, b, c, e] with the complex pairs p (one row
    per row of p): w_1 = ((a + e) + i(c - b)) / 2 and
    w_2 = ((a - e) + i(c + b)) / 2 solved for the entries."""
    p = np.atleast_2d(p)
    a, e = (p[:, 0] + p[:, 1]).real, (p[:, 0] - p[:, 1]).real
    c, b = (p[:, 0] + p[:, 1]).imag, (p[:, 1] - p[:, 0]).imag
    return np.stack([a, b, c, e], axis=1)


def test_closed_form_gauges_at_dimension_2(monkeypatch):
    # the line sigma1(A + z N) = |q_1| |z - zeta_1| + |q_2| |z - zeta_2|,
    # built from chosen points zeta_j and weights |q_j| (p_j = -zeta_j q_j):
    # every row lands within its tol of the golden-section minimum, and
    # within 1e-10 of it relative, by pair_line_min's closed form or, on
    # the rows it leaves open, by the kernel's Newton search
    def check(zetas, q, tol):
        zetas = np.asarray(zetas, dtype=complex)
        A, N = pair_rows(-zetas * q), pair_rows(q)[0]
        M, Nm = A.reshape(-1, 2, 2), N.reshape(2, 2)
        z, rows = pair_line_min(A, N, tol)
        rounds = 0
        if rows.size:
            z[rows], _, _, rounds = sigma1_newton(line_derivs(A[rows], N, 2), A[rows] @ N,
                                                  tol, np.sqrt(2.0))
        got = svd_sigmas(M + z[:, None, None] * Nm)
        R = 2.0 * np.abs(zetas).max(axis=1) + 1.0
        ref, _ = golden_min(lambda s: svd_sigmas(M + s[:, None, None] * Nm), -R, R, 120)
        assert np.all(got - ref <= tol), np.max(got - ref - tol)
        assert np.all(np.abs(got - ref) <= 1e-10 * ref), np.max(np.abs(got - ref) / ref)
        return z, rows, rounds

    tol = GAUGE_TOL / 4.0
    # N of rank one (|q_1| = |q_2|): a flat minimum between two real points
    # (any point between them; the rounding of zeta's imaginary parts
    # picks one), a kink at a real point, both points on one side of the
    # real axis and on opposite sides, all in closed form
    q = 0.5 * np.exp(1j * np.array([0.4, -1.1]))
    z, rows, _ = check([[-1.0, 1.0], [-1.0, 1.0 + 1.0j], [-1.0 + 0.5j, 2.0 + 1.5j],
                        [-1.0 + 0.5j, 2.0 - 1.5j]], q, tol)
    assert rows.size == 0 and -1.0 <= z[0] <= 1.0
    assert np.allclose(z[1:], [-1.0, -0.25, -0.25], rtol=0.0, atol=1e-12)
    # weights apart by 1e-9, the rank cut's reach: the closed form's error
    # bound exceeds tol on every row, and Newton puts the two rows whose
    # points are real on the heavier point, where the minimum is (1e-9
    # below the midpoint's value). The third row's minimum lies next to the
    # near-kink at 2 + 1e-6i, where Newton steps crept 1e-6 a round from
    # one side for 16 rounds until a step had to halve; it sets the
    # lockstep's count, as the other two rows close in 3
    q = np.array([0.5 + 5e-10, -0.5 + 5e-10]) * np.exp(0.7j)
    z, rows, rounds = check([[-1.0, 1.0], [3.0, -2.0], [-1.0 + 0.5j, 2.0 + 1e-6j]], q, tol)
    assert rows.tolist() == [0, 1, 2] and rounds <= 9, rounds
    assert abs(z[0] + 1.0) <= 2.0 * tol and abs(z[1] - 3.0) <= 2.0 * tol
    # a null matrix that kills x only up to the rank cut: the orbit of
    # x = e_1 has the singular values 1 and 5e-10, so rank 1, and the null
    # matrix [[0, 0.6], [eps, 0.8]] has sigma2 = 3e-10; every gauge is |s|
    # at v = (s, 0), where z = 0. The rows the closed form leaves open go
    # to one Newton search, which closes each dual gap within its tol
    calls = record_newton(monkeypatch)
    eps = 5e-10
    ctx = OrbitBallContext(make_subspace([np.diag([1.0, 0.0]),
                                          np.array([[0.0, 0.6], [eps, 0.8]])]), [1.0, 0.0])
    assert (ctx.rank, ctx.null_vecs.shape[1]) == (1, 1)
    assert svd_values(ctx.null_mats[0].reshape(2, 2))[1] == pytest.approx(3e-10, rel=1e-6)
    V = np.array([[1.0, 0.0], [-0.3, 0.0], [2.5, 0.0], [40.0, 0.0]])
    vals, ts = ctx.gauges(V)
    (newton_tol, (_, f, lower, _)), = calls
    assert np.all(f - lower <= newton_tol), np.max(f - lower - newton_tol)
    t_hat = ctx.min_norm_preimage(V)
    tol = GAUGE_TOL * np.maximum(1.0, np.linalg.norm(t_hat, axis=1)) / 4.0
    A, N = ctx.mat(t_hat), ctx.null_mats[0].reshape(2, 2)
    R = 2.0 * np.abs(V[:, 0]) + 1.0
    ref, _ = golden_min(lambda s: svd_sigmas(A + s[:, None, None] * N), -R, R, 120)
    assert np.all(vals - ref <= tol), np.max(vals - ref - tol)
    assert np.allclose(vals, np.abs(V[:, 0]), rtol=1e-15, atol=0.0)
    check_gauge_rows(ctx, V, vals, ts)


def record_cluster(monkeypatch):
    """Route the kernel's cluster_min through a recorder: a list that gets
    (tol, (z, f, lower, rounds)) for each call."""
    calls = []
    search = located.cluster_min

    def recorded(A, N, tol):
        out = search(A, N, tol)
        calls.append((np.broadcast_to(tol, (len(A),)), out))
        return out

    monkeypatch.setattr(located, "cluster_min", recorded)
    return calls


# compass_min's values, the pattern search that cluster_min replaced, on
# the first six directions of bodies (dim, k, seed): the basis (k, dim, dim),
# x, then the directions, each drawn from default_rng(seed); and on the
# query gauges of the scale problems (conftest.scale_draw) of rows (dim, k)
COMPASS = {(3, 6, 6): [0.3841657146, 0.5375752719, 0.9429359165, 0.8942215705, 0.8079415421,
                       0.4604084196],
           (3, 7, 7): [1.5718747094, 1.6776432919, 1.0057869337, 0.6345747475, 1.1996926780,
                       0.3681755162],
           (3, 8, 8): [0.8861592456, 1.6321448625, 0.7164996769, 0.9582801084, 0.5515107565,
                       0.8659547011],
           (4, 9, 1): [1.9812241933, 3.1147401155, 2.9836163710, 1.4413863574, 2.6911379978,
                       0.9802740875],
           (5, 12, 2): [1.0343910615, 0.3374344673, 1.3789214486, 0.8400521580, 1.1847571715,
                        1.4624971160]}
COMPASS_SCALE = {(16, 24): [6.4585442148, 2.5631365398], (32, 48): [3.6134881102, 4.9501423580]}


def check_cluster_rows(vals, calls, compass):
    """Each gauge is at least the lower bound of its cluster search and
    either within its tol of it or at most compass_min's value (relative
    1e-6)."""
    tol, (_, _, lower, _) = calls[-1]
    assert np.all(lower <= vals), np.max(lower - vals)
    ok = (vals <= np.asarray(compass) * (1.0 + 1e-6)) | (vals - lower <= tol)
    assert ok.all(), (vals[~ok], np.asarray(compass)[~ok], (vals - lower)[~ok])


@pytest.mark.parametrize("dim, k, seed", list(COMPASS))
def test_cluster_gauges_close_or_match_the_pattern_search(dim, k, seed, monkeypatch):
    g = np.random.default_rng(seed)
    ctx = OrbitBallContext(make_subspace(list(g.normal(size=(k, dim, dim)))), g.normal(size=dim))
    assert (ctx.rank, ctx.null_vecs.shape[1]) == (dim, k - dim)
    calls = record_cluster(monkeypatch)
    vals, _ = ctx.gauges(g.normal(size=(6, dim)))
    check_cluster_rows(vals, calls, COMPASS[dim, k, seed])


@pytest.mark.parametrize("dim, k", list(COMPASS_SCALE))
def test_scale_query_gauges_close_or_match_the_pattern_search(dim, k, monkeypatch):
    calls = record_cluster(monkeypatch)
    for (basis, x, y), compass in zip(scale_draw(dim, k), COMPASS_SCALE[dim, k]):
        ctx = OrbitBallContext(make_subspace(basis), x)
        g, _ = ctx._query_gauge(ctx._query(y))
        check_cluster_rows(np.array([g]), calls, [compass])


@pytest.mark.parametrize("dim, k", [(3, 6), (3, 7), (3, 8)])
def test_pattern_search_gauges_with_3_to_5_null_coordinates(dim, k, monkeypatch):
    # two or more null coordinates run the cluster search; its values
    # carry what the branch and bound's floor rests on
    g = np.random.default_rng(k)
    ctx = OrbitBallContext(make_subspace([g.normal(size=(dim, dim)) for _ in range(k)]),
                           g.normal(size=dim))
    assert (ctx.rank, ctx.null_vecs.shape[1]) == (dim, k - dim)
    monkeypatch.setattr(located, "sigma1_newton", None)
    V = g.normal(size=(6, dim))
    vals, ts = ctx.gauges(V)
    check_gauge_rows(ctx, V, vals, ts)


@pytest.mark.parametrize("seed", [None, 0, 1])
def test_pattern_search_gauges_at_dimension_2(seed, monkeypatch):
    # two null coordinates at d = 2: the cluster search lands every row on
    # the golden-section minimum over the null plane. seed None is the full
    # M_2, where the gauge is |v| / |x|
    g = np.random.default_rng(seed)
    basis = (list(np.eye(4).reshape(4, 2, 2)) if seed is None
             else [g.normal(size=(2, 2)) for _ in range(4)])
    x = g.normal(size=2)
    ctx = OrbitBallContext(make_subspace(basis), x)
    assert (ctx.rank, ctx.null_vecs.shape[1]) == (2, 2)
    monkeypatch.setattr(located, "sigma1_newton", None)
    V = g.normal(size=(3, 2))
    vals, ts = ctx.gauges(V)
    # the null matrices are Frobenius-orthonormal, so the minimiser has
    # |z| <= sqrt(2) sigma1(A) + |A|_F, inside the box of half-width R
    Ns = list(ctx.null_mats.reshape(2, 2, 2))
    ref = np.array([reference_min(A, Ns, R=2.0 * np.sqrt(2.0) * np.linalg.norm(A))
                    for A in ctx.mat(ctx.min_norm_preimage(V))])
    assert np.all(np.abs(vals - ref) <= 1e-10 * ref), np.max(np.abs(vals - ref) / ref)
    if seed is None:
        assert np.allclose(vals, np.linalg.norm(V, axis=1) / np.linalg.norm(x),
                           rtol=1e-12, atol=0.0)
    check_gauge_rows(ctx, V, vals, ts)


def test_tight_gauge_search_rounds(monkeypatch):
    # one tight gauge on a null-space ball at d = 3: the Newton rounds are
    # sequential and each costs one stacked derivative evaluation, so their
    # number sets the cost of every inner radius with one null coordinate
    # there
    basis, x = null_space_problem(7, dim=3)
    ctx = OrbitBallContext(make_subspace(basis), x)
    assert (ctx.rank, ctx.null_vecs.shape[1]) == (3, 1)
    v = np.array([np.cos(0.3), np.sin(0.3), 0.0])
    calls = record_newton(monkeypatch)
    monkeypatch.setattr(located, "cluster_min", None)
    val, _ = ctx.gauge(v)
    ref = float(reference_gauges(basis, x, v[None])[0])
    assert abs(val - ref) <= 1e-9 * ref, (val, ref)
    (tol, (_, f, lower, rounds)), = calls
    assert f[0] - lower[0] <= tol[0]
    # Newton takes 9 here
    assert rounds <= 11, rounds


def test_null_space_inner_radius():
    basis, x = null_space_problem(7)
    sub = make_subspace(basis)
    # a half circle of 4096 directions, then golden section in the angle
    # around the largest gauge found
    count = 4096
    thetas = np.arange(count) * np.pi / count

    def circle(th):
        return np.stack([np.cos(th), np.sin(th)], axis=-1)

    j = int(np.argmax(reference_gauges(basis, x, circle(thetas))))
    h = np.pi / count
    low, _ = golden_min(lambda th: -reference_gauges(basis, x, circle(th)),
                        [thetas[j] - h], [thetas[j] + h], 60)
    r_ref = -1.0 / float(low[0])
    rr = span_inner_radius(sub, x)
    assert abs(rr.r - r_ref) <= 1e-7 * r_ref, (rr.r, r_ref)
