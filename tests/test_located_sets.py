import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbit_locator import (MEM_TOL, DimensionError, GridOracleRefusal,
                           LocatedSet, OrbitBallContext, OrbitLocatorError,
                           SolverFailure, Stabilized, ball_distance,
                           euclidean_ball, gauge_of_orbit_ball,
                           grid_oracle_distance, linear_image_ball,
                           locate_distance, make_subspace, orbit_ball)
from orbit_locator import located
from orbit_locator.operators import GRID_CHUNK
from conftest import svd_sigma, svd_sigmas, svd_values


def diag_formula(n, c=0.1):
    # distance from (0,1) to [-n,n] x [-nc,nc]
    return max(0.0, 1.0 - c * n)


def test_euclidean_ball_basics():
    B = euclidean_ball([1.0, 0.0], 2.0)
    inside = B.locate([0.0, 0.5], 1e-9)
    assert inside.value == 0.0
    out = B.locate([4.0, 0.0], 1e-9)
    assert abs(out.value - 1.0) <= 1e-12
    assert np.allclose(out.point, [3.0, 0.0])
    with pytest.raises(OrbitLocatorError):
        B.gauge([1.0, 0.0])  # off-center balls are not balanced
    C = euclidean_ball([0.0, 0.0], 2.0)
    assert abs(C.gauge([1.0, 0.0]) - 0.5) <= 1e-12


def test_orbit_ball_diag_sweep(diag_sub):
    x = np.array([1.0, 0.1])
    y = np.array([0.0, 1.0])
    ctx = OrbitBallContext(diag_sub, x)
    for n in range(1, 13):
        res = ctx.distance(y, float(n), tol=1e-8)
        assert abs(res.value - diag_formula(n)) <= 2e-6, (n, res.value)


def test_orbit_ball_interior_shortcut(diag_sub):
    res = ball_distance(diag_sub, [1.0, 0.1], 30.0, [0.5, 0.2], tol=1e-8)
    assert res.value == 0.0
    assert res.method == "interior"


def test_gauge_diag_values(diag_sub):
    g = gauge_of_orbit_ball(diag_sub, [1.0, 0.1], [2.0, 0.05])
    assert abs(g - 2.0) <= 1e-9
    # off the orbit span the gauge is infinite
    g_off = gauge_of_orbit_ball(diag_sub, [1.0, 0.0], [0.0, 1.0])
    assert g_off == np.inf


def test_gauge_with_free_null_direction(diag_sub):
    # x kills the second generator, so its coefficient is free and the
    # gauge search must push it to zero
    g = gauge_of_orbit_ball(diag_sub, [1.0, 0.0], [0.7, 0.0])
    assert abs(g - 0.7) <= 1e-6


def test_gauge_agrees_with_membership_bisection(ptp):
    """Scaling cross-check: gauge(v) should be the level t at which v
    enters the t-ball, probed here through the distance solver. Queries
    stay a few percent away from the boundary, where membership is
    cleanly decidable."""
    sub, x, _ = ptp
    ctx = OrbitBallContext(sub, x)
    rng = np.random.default_rng(5)
    for _ in range(4):
        v = ctx.geo.P @ rng.normal(size=3)
        g, _ = ctx.gauge(v)
        for delta in (0.3, 0.1, 0.03):
            assert ctx.distance(v, g * (1 + delta), tol=1e-8).value <= 1e-7
            assert ctx.distance(v, g * (1 - delta), tol=1e-6).value > 1e-7
        lo, hi = 0.0, 2.0 * g + 1e-6
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            d = ctx.distance(v, mid, tol=1e-6).value if mid > 0 else np.linalg.norm(v)
            if d <= 1e-5:
                hi = mid
            else:
                lo = mid
        assert lo <= g * (1 + 1e-6) and hi >= g * (1 - 1e-6), (lo, g, hi)
        assert abs(hi - g) <= 0.02 * max(1.0, g), (g, hi)


def test_rank_deficient_distance_constant(diag_sub):
    # orbit span is the first axis; (0,1) stays at distance 1 at any level
    for n in (1.0, 4.0, 9.5):
        res = ball_distance(diag_sub, [1.0, 0.0], n, [0.0, 1.0], tol=1e-8)
        assert abs(res.value - 1.0) <= 1e-8


def test_degenerate_level_zero(diag_sub):
    res = ball_distance(diag_sub, [1.0, 0.1], 0.0, [0.3, 0.4], tol=1e-9)
    assert abs(res.value - 0.5) <= 1e-12


def test_linear_image_ball_against_samples(rng):
    for T in [np.array([[1.5, 0.3], [0.0, 0.8]]),
              np.array([[1.0, 0.0], [0.0, 0.0]])]:  # includes a singular map
        S = linear_image_ball(T, 1.0)
        theta = np.linspace(0.0, 2.0 * np.pi, 20_000, endpoint=False)
        boundary = T @ np.stack([np.cos(theta), np.sin(theta)])
        for _ in range(6):
            y = rng.normal(size=2) * 1.5
            d = S.locate(y, 1e-10).value
            brute = float(np.min(np.linalg.norm(boundary.T - y, axis=1)))
            if S.locate(y, 1e-10).method == "ellipsoid-ls":
                brute = min(brute, d)  # y projects to the interior
            assert d <= brute + 1e-6
            assert brute <= d + 2e-3


def test_linear_image_ball_gauge():
    T = np.diag([2.0, 0.5])
    S = linear_image_ball(T, 1.0)
    assert abs(S.gauge([1.0, 0.0]) - 0.5) <= 1e-12
    assert S.gauge([0.0, 1.0]) == 2.0
    Tth = np.array([[1.0], [0.0]])
    seg = linear_image_ball(Tth, 1.0)
    assert seg.gauge([0.0, 1.0]) == np.inf


def test_grid_oracle_brackets_solver(diag_sub):
    x = np.array([1.0, 0.1])
    y = np.array([0.0, 1.0])
    for n in (1.0, 5.0):
        d = ball_distance(diag_sub, x, n, y, tol=1e-8).value
        lo, hi = grid_oracle_distance(diag_sub, x, n, y, eps=0.02)
        assert lo - 1e-9 <= d <= hi + 1e-9, (n, lo, d, hi)


def test_grid_oracle_memory_is_bounded(diag_sub):
    # the grid is walked in chunks, never built whole: at least 8 chunks
    # here (the refusal below proves the size), and the peak allocation
    # stays far below the 51 MB of materialising the meshgrid
    x = np.array([1.0, 0.5])
    y = np.array([0.3, 2.0])
    with pytest.raises(GridOracleRefusal):
        grid_oracle_distance(diag_sub, x, 1.0, y, eps=5e-3,
                             cap=8 * GRID_CHUNK - 1)
    tracemalloc.start()
    try:
        lo, hi = grid_oracle_distance(diag_sub, x, 1.0, y, eps=5e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak
    d = ball_distance(diag_sub, x, 1.0, y, tol=1e-8).value
    assert lo - 1e-9 <= d <= hi + 1e-9, (lo, d, hi)


def test_grid_oracle_refuses_many_coefficients():
    basis = [np.zeros((5, 5)) for _ in range(5)]
    for i, B in enumerate(basis):
        B[i, i] = 1.0
    sub = make_subspace(basis)
    with pytest.raises(GridOracleRefusal):
        grid_oracle_distance(sub, np.ones(5), 1.0, np.zeros(5), eps=0.5)


def test_located_set_without_gauge():
    S = LocatedSet(2, lambda y, tol: None, None, description="bare")
    with pytest.raises(OrbitLocatorError):
        S.gauge([1.0, 0.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_distance_is_lipschitz(seed):
    sub = make_subspace([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    ctx = OrbitBallContext(sub, np.array([1.0, 0.3]))
    g = np.random.default_rng(seed)
    y1 = g.normal(size=2) * 2.0
    y2 = y1 + g.normal(size=2) * 0.5
    d1 = ctx.distance(y1, 2.0, tol=1e-8).value
    d2 = ctx.distance(y2, 2.0, tol=1e-8).value
    assert abs(d1 - d2) <= np.linalg.norm(y1 - y2) + 1e-6


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


# the seed-17 draw: larger problems, dim 8..12 and k 4..12
SEED17 = {"seed": 17, "dims": (8, 13), "ks": (4, 13)}


def wide_draw_problem(index, **draw):
    """Problem `index` of the wide draw, or of the draw `wide_draw` makes
    from the keywords `draw`."""
    return list(wide_draw(index + 1, **draw))[-1]


@pytest.fixture
def admm_runs(monkeypatch):
    """The ADMM iterations of each _admm call the test makes, in order."""
    runs = []
    admm = OrbitBallContext._admm

    def counted(self, y, n, tol, t, f, iters):
        out = admm(self, y, n, tol, t, f, iters)
        runs.append(out[1] - iters)
        return out

    monkeypatch.setattr(OrbitBallContext, "_admm", counted)
    return runs


def family50_problem(index, seed=424242):
    """Problem `index` (from 20 on) of the acceptance family50 draw
    (generator seed 424242, or `seed`): 20 diagonal-family queries come
    first, then dim 2..4, k 1..3, drawn in the order dim, k, basis, x, y."""
    g = np.random.default_rng(seed)
    for _ in range(20):
        g.normal(size=2)
    for _ in range(index - 19):
        dim = int(g.integers(2, 5))
        k = int(g.integers(1, 4))
        basis = [g.normal(size=(dim, dim)) for _ in range(k)]
        x = g.normal(size=dim)
        y = g.normal(size=dim) * 1.5
    return basis, x, y


@pytest.mark.parametrize("dim,k", [(2, 3), (3, 2), (4, 3), (5, 4)])
def test_sigma1_hessian_matches_second_differences(dim, k):
    g = np.random.default_rng(100 * dim + k)
    sub = make_subspace([g.normal(size=(dim, dim)) for _ in range(k)])
    ctx = OrbitBallContext(sub, g.normal(size=dim))
    t = g.normal(size=k)
    U, sig, Vt = np.linalg.svd(ctx.mat(t))
    assert sig[1] < 0.95 * sig[0]
    hess = ctx._sigma1_hessian(U, sig, Vt)
    # central second differences of sigma1 through the dilation oracle
    h = 1e-4
    E = h * np.eye(k)
    fd = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            fd[i, j] = sum(si * sj * svd_sigma(ctx.mat(t + si * E[i] + sj * E[j]))
                           for si in (1, -1) for sj in (1, -1)) / (4 * h * h)
    assert np.allclose(hess, hess.T, rtol=0.0, atol=1e-14)
    assert np.abs(hess - fd).max() <= 1e-6 * np.abs(hess).max()


def test_newton_step_certifies_quickly():
    # a boundary solve with a simple top singular value: the step on the
    # Lagrangian Hessian converges fast where the first-order step took 145
    # iterations and a projected-gradient burst
    basis, x, y = family50_problem(20)
    assert (len(basis), x.size) == (3, 3)
    sub = make_subspace(basis)
    res = OrbitBallContext(sub, x).distance(y, 1.0, 1e-6)
    assert res.method == "certified"
    assert res.iterations <= 30, res.iterations
    assert svd_sigma(sub.matrix(res.coeffs)) <= 1.0 + MEM_TOL


@pytest.mark.parametrize("index", [23, 137])
def test_sweep_settles_where_first_order_failed(index):
    basis, x, y = wide_draw_problem(index)
    sub = make_subspace(basis)
    res = OrbitBallContext(sub, x).distance(y, 1.0, 1e-6)
    assert res.method == "certified"
    assert svd_sigma(sub.matrix(res.coeffs)) <= 1.0 + MEM_TOL
    report = locate_distance(sub, x, y, budget=12, tol=1e-6)
    assert isinstance(report.verdict, Stabilized), report.verdict
    # the distance to the orbit span, by least squares on the images B_i x
    images = np.stack([B @ x for B in basis], axis=1)
    c = np.linalg.lstsq(images, y, rcond=None)[0]
    span_d = float(np.linalg.norm(y - images @ c))
    assert abs(report.verdict.d - span_d) <= 2e-6


def test_near_tie_witness_certifies():
    # the top two singular values of the optimal witness nearly tie, yet
    # sigma1 is smooth there: the level certifies on a feasible witness
    basis, x, y = wide_draw_problem(35)
    sub = make_subspace(basis)
    res = OrbitBallContext(sub, x).distance(y, 1.0, 1e-6)
    assert res.method == "certified"
    s = svd_values(sub.matrix(res.coeffs))
    assert s[0] <= 1.0 + MEM_TOL and s[1] >= 0.99 * s[0]


def test_certified_witness_is_feasible():
    # the top two singular values of the optimal witness nearly tie here;
    # a sigma1 that comes out low lets an infeasible point be "certified"
    basis, x, y = wide_draw_problem(30)
    assert len(basis) == 3 and x.shape == (2,)
    sub = make_subspace(basis)
    try:
        res = OrbitBallContext(sub, x).distance(y, 1.0, 1e-6)
    except SolverFailure as exc:
        assert exc.lower <= exc.upper
        return
    assert res.method == "certified"
    assert svd_sigma(sub.matrix(res.coeffs)) <= 1.0 + MEM_TOL


def test_near_tie_level_takes_no_admm(admm_runs):
    # seed-17 problem 24 (dim 9, k 10) at level 12: sigma2/sigma1 = 0.990
    # at the optimum, a simple top value. The first-order step once taken
    # on such rows stopped at 3 times the distance and ADMM took 7415
    # iterations; the Newton step certifies it alone
    basis, x, y = wide_draw_problem(24, **SEED17)
    assert (x.size, len(basis)) == (9, 10)
    sub = make_subspace(basis)
    res = OrbitBallContext(sub, x).distance(y, 12.0, 1e-6)
    assert res.method == "certified"
    assert res.iterations <= 10, res.iterations
    assert svd_sigma(sub.matrix(res.coeffs)) <= 12.0 * (1.0 + MEM_TOL)
    assert admm_runs == []


def test_gauge_rejects_wrong_length(diag_sub):
    with pytest.raises(DimensionError):
        gauge_of_orbit_ball(diag_sub, [1.0, 0.5], [1.0, 2.0, 3.0])
    ball = orbit_ball(diag_sub, [1.0, 0.5], 1.0)
    with pytest.raises(DimensionError):
        ball.gauges(np.ones((4, 3)))


def test_gauge_oracle_type_error_propagates():
    # an oracle that fails at a non-default tolerance must not be rerun
    # silently at its default one
    def broken(V, tol=1e-10):
        if tol != 1e-10:
            raise TypeError("oracle bug")
        return np.linalg.norm(V, axis=1)

    S = LocatedSet(2, lambda y, tol: None, broken, description="broken")
    with pytest.raises(TypeError, match="oracle bug"):
        S.gauge([1.0, 0.0], 1e-6)


def rank_one_pair(g, dim):
    """Two generators whose images of x are parallel: orbit rank 1, so the
    gauge has a one-dimensional null space."""
    x = g.normal(size=dim)
    B1 = g.normal(size=(dim, dim))
    kill_x = np.eye(dim) - np.outer(x, x) / float(x @ x)
    return [B1, 0.7 * B1 + g.normal(size=(dim, dim)) @ kill_x], x


@pytest.mark.parametrize("shape", ["d3k2r1", "d3k2r2", "d2k3r2"])
def test_batched_gauges_match_one_row(shape):
    g = np.random.default_rng(11)
    if shape == "d3k2r1":
        basis, x = rank_one_pair(g, 3)
    else:
        dim, k = int(shape[1]), int(shape[3])
        basis = [g.normal(size=(dim, dim)) for _ in range(k)]
        x = g.normal(size=dim)
    sub = make_subspace(basis)
    ctx = OrbitBallContext(sub, x)
    assert ctx.rank == int(shape[5])
    rows = [ctx.geo.P @ g.normal(size=x.size) for _ in range(10)]
    rows.append(np.zeros(x.size))
    if ctx.rank < x.size:
        rows.append(g.normal(size=x.size))      # off the orbit span
    V = np.stack(rows)
    for tol in (1e-10, 1e-6):
        vals, ts = ctx.gauges(V, tol)
        assert vals[10] == 0.0 and np.all(ts[10] == 0.0)
        if ctx.rank < x.size:
            assert vals[11] == np.inf and np.all(np.isnan(ts[11]))
        for v, val, t in zip(V, vals, ts):
            one, t_one = ctx.gauge(v, tol)
            if not np.isfinite(one):
                assert t_one is None and val == np.inf
                continue
            assert abs(val - one) <= tol * max(1.0, one), (val, one)
            assert np.allclose(ctx.point(t), v, atol=1e-9)
            assert abs(svd_sigma(ctx.mat(t)) - val) <= 1e-9 * max(1.0, val)
        ball = orbit_ball(sub, x, 2.0, ctx=ctx)
        assert np.array_equal(ball.gauges(V, tol), vals / 2.0)
    for S in (euclidean_ball(np.zeros(x.size), 2.0),
              linear_image_ball(basis[0][:, :2], 1.5)):
        batch = S.gauges(V)
        assert np.allclose(batch, [S.gauge(v) for v in V], rtol=1e-15, atol=0.0)


def test_interior_witness_is_feasible():
    # wide-draw problem 55 (dim 3, k 4, orbit rank 3): sigma1 of the
    # least-norm preimage of Py sits above gauge(Py), so levels between the
    # two reach the interior route only through the gauge's search
    basis, x, y0 = wide_draw_problem(55)
    sub = make_subspace(basis)
    ctx = OrbitBallContext(sub, x)
    assert ctx.null_vecs.shape[1] == 1
    g = np.random.default_rng(3)
    through_search = 0
    for y in [y0] + [g.normal(size=3) * 1.5 for _ in range(3)]:
        Py = ctx.geo.P @ y
        gauge, _ = ctx.gauge(Py)
        ub = svd_sigma(ctx.mat(ctx.min_norm_preimage(Py)))
        assert gauge < ub
        for n in (0.5 * gauge, 1.001 * gauge, 0.5 * (gauge + ub),
                  1.001 * ub, 2.0 * ub):
            try:
                res = ctx.distance(y, n, tol=1e-6)
            except SolverFailure:
                res = None
            interior = res is not None and res.method == "interior"
            assert interior == (gauge <= n - 5e-10 * max(1.0, gauge)), (n, gauge)
            if not interior:
                continue
            through_search += n < ub
            M = sub.matrix(res.coeffs)
            assert svd_sigma(M) <= n * (1.0 + MEM_TOL)
            assert np.allclose(M @ x, res.point, atol=1e-9)
            assert np.allclose(res.point, Py, atol=1e-12)
    assert through_search >= 4


def family50_diag_problem(index):
    """Problem `index` (below 20) of the acceptance family50 draw: the
    diagonal subspace with x = (1, c) and the index-th query of the draw."""
    cs = [0.0, 1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 0.1, -0.1, 0.75]
    g = np.random.default_rng(424242)
    for _ in range(index + 1):
        y = g.normal(size=2) * 1.2
    return [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], np.array([1.0, cs[index]]), y


@pytest.mark.parametrize("source,index", [
    ("family50", 7),    # diag c = 0.1: a clustered corner at level 1
    ("family50", 20),
    ("family50", 44),   # clustered at level 6
    ("wide", 35),       # the top pair nearly ties at level 1
])
def test_lockstep_sqp_rows_match_one_row_solves(source, index):
    if source == "wide":
        basis, x, y = wide_draw_problem(index)
    elif index < 20:
        basis, x, y = family50_diag_problem(index)
    else:
        basis, x, y = family50_problem(index)
    ctx = OrbitBallContext(make_subspace(basis), x)
    q = ctx._query(y)
    ns, starts = [], []
    for n in range(1, 13):
        inside, g, t_rep = ctx._interior(q, float(n))
        if not inside:
            ns.append(float(n))
            starts.append(t_rep * min(1.0, n * (1.0 - 1e-12) / g))
    assert len(ns) >= 2
    tols = [min(1e-6, 2.0 ** -(n + 2)) for n in ns]
    ts, iters, _, _ = ctx._sqp(y, ns, starts, tols)
    assert iters.shape == (len(ns),)
    for n, tol, t0, t in zip(ns, tols, starts, ts):
        t1 = ctx._sqp(y, n, [t0], tol)[0]
        d = float(np.linalg.norm(ctx.point(t) - y))
        d1 = float(np.linalg.norm(ctx.point(t1[0]) - y))
        assert abs(d - d1) <= 1e-12, (n, d, d1)
        assert svd_sigma(ctx.mat(t)) <= n * (1.0 + MEM_TOL)


def test_cert_gap_is_a_valid_bound(diag_sub):
    # level-1 points near the corner (1, 1) of the diag c = 0.1 ball, where
    # the top two singular values tie or nearly tie; the query's nearest
    # point is the corner (1, 0.1). The single-pair multiplier is loose
    # there, but f - gap must stay a lower bound: at most the squared
    # distance of a feasible grid point, the grid oracle's upper end
    x = np.array([1.0, 0.1])
    y = np.array([2.0, 1.0])
    ctx = OrbitBallContext(diag_sub, x)
    _, hi = grid_oracle_distance(diag_sub, x, 1.0, y, eps=1e-2)
    g = np.random.default_rng(11)
    ts = np.vstack([[1.0, 1.0], 1.0 - g.uniform(0.0, 0.02, size=(40, 2))])
    cases = [(ctx, y, 1.0, ts, hi)]
    # the level 1-3 candidates of wide-draw problem 35, whose top pair
    # nearly ties; any grid gives a valid upper end, so a coarse one serves
    basis, x, y = wide_draw_problem(35)
    sub = make_subspace(basis)
    ctx = OrbitBallContext(sub, x)
    ctx.solve_levels(y, [1, 2, 3], 1e-6)
    for n, entry in ctx._query(y)["levels"].items():
        _, hi = grid_oracle_distance(sub, x, n, y, eps=0.5)
        cases.append((ctx, y, n, entry[0][None], hi))
    assert len(cases) == 4
    for ctx, y, n, ts, hi in cases:
        assert np.all(svd_sigmas(ctx.mat(ts)) <= n * (1.0 + MEM_TOL))
        f = ctx._f(ts, y)
        gap = ctx._cert_gap(ts, y, n)
        assert np.all(gap >= 0.0)
        assert np.all(np.sqrt(np.maximum(f - gap, 0.0)) <= hi + 1e-12)


def test_band_multiplier_closes_the_tied_corner(diag_sub):
    # the corner t = (1, 1) of the diag c = 0.1 level-1 ball is the exact
    # optimum for y = (2, 1), and its top singular values tie: the
    # single-pair multiplier left a gap of 0.81 there, the band multiplier
    # fits the subgradient over both pairs
    ctx = OrbitBallContext(diag_sub, np.array([1.0, 0.1]))
    y = np.array([2.0, 1.0])
    t = np.array([[1.0, 1.0]])
    assert abs(ctx._f(t, y)[0] - 1.81) <= 1e-12
    assert 0.0 <= ctx._cert_gap(t, y, 1.0)[0] <= 1e-12


@pytest.mark.parametrize("source,index", [("family50", 20), ("wide", 35)])
def test_cached_levels_are_certified(source, index):
    # _sqp stops each level once its gap meets the level's tolerance; on
    # wide-draw 35 it cannot close levels 1-3, which ADMM then closes. After
    # the sweep every level in the query cache is certified at its own
    # tolerance and lies within it of a solve at 1e-12
    if source == "wide":
        basis, x, y = wide_draw_problem(index)
    else:
        basis, x, y = family50_problem(index)
    sub = make_subspace(basis)
    ctx = OrbitBallContext(sub, x)
    tols = {float(n): min(1e-6, 2.0 ** -(n + 2)) for n in range(1, 13)}
    ctx.solve_levels(y, list(tols), list(tols.values()))
    levels = ctx._query(y)["levels"]
    assert len(levels) >= 3
    left_open = {n for n, (_, _, f, gap) in levels.items()
                 if gap > tols[n] * np.sqrt(f)}
    assert left_open == ({1.0, 2.0, 3.0} if source == "wide" else set())
    locate_distance(sub, x, y, budget=12, tol=1e-6, ctx=ctx)
    for n, (t, _, f, gap) in levels.items():
        tol = tols[n]
        assert abs(f - ctx._f(t, y)) <= 1e-15 * max(1.0, f)
        assert gap <= tol * np.sqrt(f), (n, gap, f)
        tight = OrbitBallContext(sub, x).distance(y, n, 1e-12).value
        assert abs(np.sqrt(f) - tight) <= tol, (n, np.sqrt(f), tight)


@pytest.mark.parametrize("draw,count,kinds,most", [
    ({}, 200, {"Stabilized": 180, "Undecided": 20}, 1000),
    (SEED17, 30, {"Stabilized": 25, "Undecided": 5}, 3000),
], ids=["seed7", "seed17"])
def test_wide_draw_sweeps_certify(admm_runs, draw, count, kinds, most):
    # a whole draw, swept as in the benchmark: no SolverFailure, the
    # verdict split pinned, and no ADMM run above `most` iterations (on the
    # wide draw the most was 6105 before ADMM balanced its residuals, on
    # the seed-17 draw 6657 before every row took the Newton step)
    found = {}
    for basis, x, y in wide_draw(count, **draw):
        try:
            verdict = locate_distance(make_subspace(basis), x, y,
                                      budget=12, tol=1e-6).verdict
            kind = type(verdict).__name__
        except SolverFailure:
            kind = "SolverFailure"
        found[kind] = found.get(kind, 0) + 1
    assert found == kinds
    assert admm_runs and max(admm_runs) <= most, max(admm_runs)


def marginal_rank_x():
    """x = (1, 5e-10) on the diagonal subspace: the second singular value
    of Phi lies below the rank cut, so the rank decision drops a nonzero
    eigenvalue and the dropped direction still moves x toward (0, 1)."""
    return np.array([1.0, 5e-10])


@pytest.mark.parametrize("shape", ["diag", "d3k2r1", "wide2", "marginal"])
def test_dual_bound_is_below_every_feasible_value(shape, diag_sub):
    # weak duality: _dual(W) <= f(t) for every d x d W and feasible t
    g = np.random.default_rng(5)
    if shape == "d3k2r1":
        basis, x = rank_one_pair(g, 3)
        sub = make_subspace(basis)
    elif shape == "wide2":
        basis, x, _ = wide_draw_problem(2)     # dim 3, k 4, orbit rank 3
        sub = make_subspace(basis)
    else:
        sub = diag_sub
        x = marginal_rank_x() if shape == "marginal" else np.array([1.0, 0.3])
    ctx = OrbitBallContext(sub, x)
    assert (ctx.null_vecs.shape[1] == 0) == (shape == "diag")
    d, k = x.size, ctx.k
    spread = 0
    for n in (0.5, 1.0, 3.0):
        y = g.normal(size=d) * 2.0
        t = (ctx.feasify(g.normal(size=(64, k)) * 3.0, n)
             * g.uniform(0.0, 1.0, size=(64, 1)))
        if shape == "diag":
            # corners, where the top singular values tie and the band
            # multiplier can spread over both pairs
            t = np.concatenate([t, n * np.array([[1.0, 1.0], np.sign(y)])])
        assert np.all(svd_sigmas(ctx.mat(t)) <= n * (1.0 + 1e-12))
        f = ctx._f(t, y)
        # random multipliers of every size, and the single-pair and band
        # multipliers of the feasible points and of the level's candidate
        band = ctx._multiplier(t, y)
        spread += np.count_nonzero(np.abs(band[:, 1] - band[:, 0]).max(axis=(1, 2)) > 1e-3)
        W = np.concatenate([
            g.normal(size=(64, d, d)) * g.uniform(0.0, 3.0, size=(64, 1, 1)),
            1e-6 * g.normal(size=(8, d, d)), band.reshape(-1, d, d)])
        assert ctx._dual(W, y, n).max() <= f.min()
        ctx.solve_levels(y, [n], 1e-6)
        entry = ctx._query(y)["levels"].get(n)
        if entry is not None:
            tn, _, fn, _ = entry
            assert svd_sigma(ctx.mat(tn)) <= n * (1.0 + MEM_TOL)
            assert ctx._dual(W, y, n).max() <= fn
            assert ctx._dual(ctx._multiplier(tn[None], y), y, n).max() <= fn * (1.0 + 1e-13)
    assert spread > 0 or shape != "diag"


@pytest.mark.parametrize("n", [1.0, 4.0, 12.0])
def test_dual_bound_pays_for_the_dropped_eigenvalue(diag_sub, n):
    # the exact minimum is (1 - 5e-10 n)^2 at coefficients (0, n), below
    # the minimum 1 over the range of Phi; W = 0 gives that range minimum,
    # so only the term for the dropped direction keeps it a lower bound
    ctx = OrbitBallContext(diag_sub, marginal_rank_x())
    assert ctx.rank == 1
    y = np.array([0.0, 1.0])
    exact = (1.0 - 5e-10 * n) ** 2
    g = np.random.default_rng(int(n))
    t = ctx.feasify(g.normal(size=(32, 2)) * n, n)
    W = np.concatenate([np.zeros((1, 2, 2)), ctx._multiplier(t, y).reshape(-1, 2, 2),
                        1e-3 * g.normal(size=(32, 2, 2))])
    bound = ctx._dual(W, y, n)
    assert bound[0] > exact - 1e-8
    assert np.all(bound <= exact)


# wide-draw problems (generator seed 7) whose level raised SolverFailure
# before the duality-gap certificate: index, level, and the bracket
# [lower, upper] that failure reported
FORMER_FAILURES = [
    (2, 1, 2.1476532137584075, 2.196670177609015),
    (10, 1, 2.4896692937790164, 2.4896916038407717),
    (12, 1, 2.336068685423819, 2.336098654693324),
    (20, 1, 2.992601854247423, 3.0111372999456414),
    (21, 1, 2.149003459360921, 2.149007097307129),
    (30, 1, 0.9329284696574335, 0.932936335652415),
    (72, 1, 2.299740649858401, 2.300090656717865),
    (141, 1, 2.486714514278605, 2.486734033756524),
    (146, 1, 3.0649748670970913, 3.068313140438384),
    (159, 4, 0.7737286152482808, 0.7737322702329558),
    (165, 1, 3.957852088081341, 3.959732536154312),
    (189, 1, 2.090368522984375, 2.090468050092012),
    (194, 1, 3.246991496692753, 3.2470025228329313),
]


@pytest.mark.parametrize("index,n,lower,upper", FORMER_FAILURES)
def test_former_failures_certify(index, n, lower, upper):
    basis, x, y = wide_draw_problem(index)
    sub = make_subspace(basis)
    res = OrbitBallContext(sub, x).distance(y, float(n), min(1e-6, 2.0 ** -(n + 2)))
    assert res.method == "certified"
    assert svd_sigma(sub.matrix(res.coeffs)) <= n * (1.0 + MEM_TOL)
    assert lower <= res.value <= upper, (lower, res.value, upper)


def test_seed1_family50_problem_44_stabilizes():
    # its level 1 failed with the bracket [2.578556899114269,
    # 2.5785918990323826] before the duality-gap certificate
    basis, x, y = family50_problem(44, seed=1)
    sub = make_subspace(basis)
    ctx = OrbitBallContext(sub, x)
    report = locate_distance(sub, x, y, budget=12, tol=1e-6, ctx=ctx)
    assert isinstance(report.verdict, Stabilized), report.verdict
    assert report.verdict.N == 3
    methods = []
    for level in report.levels:
        res = ctx.distance(y, float(level.n), min(1e-6, 2.0 ** -(level.n + 2)))
        methods.append(res.method)
        assert svd_sigma(sub.matrix(res.coeffs)) <= level.n * (1.0 + MEM_TOL)
    assert methods[0] == "certified"
    assert 2.578556899114269 <= report.levels[0].d <= 2.5785918990323826


def test_admm_failure_bracket_is_honest(monkeypatch):
    # wide-draw problem 189 at level 1 needs 138 iterations, 129 of them
    # ADMM; stopped after 100 it must fail with a bracket around the
    # distance
    basis, x, y = wide_draw_problem(189)
    sub = make_subspace(basis)
    d = OrbitBallContext(sub, x).distance(y, 1.0, 1e-6).value
    monkeypatch.setattr(located, "MAX_SOLVER_ITERS", 100)
    ctx = OrbitBallContext(sub, x)
    with pytest.raises(SolverFailure) as info:
        ctx.distance(y, 1.0, 1e-6)
    exc = info.value
    assert exc.iterations == 100
    assert ctx.span_distance(y) <= exc.lower <= d <= exc.upper, (exc.lower, d, exc.upper)
