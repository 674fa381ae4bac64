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
from orbit_locator.operators import GRID_CHUNK
from conftest import svd_sigma, svd_values


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


def test_warm_start_same_answer(diag_sub):
    x = np.array([1.0, 0.1])
    y = np.array([0.0, 1.0])
    ctx = OrbitBallContext(diag_sub, x)
    cold = ctx.distance(y, 5.0, tol=1e-9)
    warm = ctx.distance(y, 5.0, tol=1e-9,
                        warm=diag_sub.to_ortho_coeffs(cold.coeffs))
    assert abs(cold.value - warm.value) <= 1e-8


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


def wide_draw_problem(index):
    """Problem `index` of the wide draw (generator seed 7, dim 2..5, k 1..4,
    y scaled by 1.5), drawn in the order dim, k, basis, x, y."""
    g = np.random.default_rng(7)
    for _ in range(index + 1):
        dim = int(g.integers(2, 6))
        k = int(g.integers(1, 5))
        basis = [g.normal(size=(dim, dim)) for _ in range(k)]
        x = g.normal(size=dim)
        y = g.normal(size=dim) * 1.5
    return basis, x, y


def family50_problem(index):
    """Problem `index` (from 20 on) of the acceptance family50 draw
    (generator seed 424242): 20 diagonal-family queries come first, then
    dim 2..4, k 1..3, drawn in the order dim, k, basis, x, y."""
    g = np.random.default_rng(424242)
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


def test_near_tie_keeps_first_order_step(monkeypatch):
    # the top two singular values of the optimal witness nearly tie; the
    # curvature of sigma1 blows up there, so every step stays first order
    gaps = []
    hessian = OrbitBallContext._sigma1_hessian

    def recorded(self, U, sig, Vt):
        gaps.append(sig[1] / sig[0])
        return hessian(self, U, sig, Vt)

    monkeypatch.setattr(OrbitBallContext, "_sigma1_hessian", recorded)
    basis, x, y = wide_draw_problem(35)
    sub = make_subspace(basis)
    res = OrbitBallContext(sub, x).distance(y, 1.0, 1e-6)
    assert res.method == "certified"
    s = svd_values(sub.matrix(res.coeffs))
    assert s[0] <= 1.0 + MEM_TOL and s[1] >= 0.99 * s[0]
    assert gaps == []


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
    ts, iters = ctx._sqp(y, ns, starts)
    assert iters.shape == (len(ns),)
    for n, t0, t in zip(ns, starts, ts):
        t1, _ = ctx._sqp(y, n, [t0])
        d = float(np.linalg.norm(ctx.point(t) - y))
        d1 = float(np.linalg.norm(ctx.point(t1[0]) - y))
        assert abs(d - d1) <= 1e-12, (n, d, d1)
        assert svd_sigma(ctx.mat(t)) <= n * (1.0 + MEM_TOL)


def test_cert_gap_target_decides_as_full_search(diag_sub):
    # level-1 points near the corner (1, 1) of the diag c = 0.1 ball, where
    # the top two singular values tie or nearly tie; the query's nearest
    # point is the corner (1, 0.1)
    x = np.array([1.0, 0.1])
    y = np.array([2.0, 1.0])
    ctx = OrbitBallContext(diag_sub, x)
    _, hi = grid_oracle_distance(diag_sub, x, 1.0, y, eps=1e-2)
    g = np.random.default_rng(11)
    ts = np.vstack([[1.0, 1.0], 1.0 - g.uniform(0.0, 0.02, size=(40, 2))])
    cases = [(ctx, y, 1.0, ts, hi)]
    # the level 1-3 candidates of wide-draw problem 35, whose top pair
    # nearly ties: there the search still improves after its first iterate
    basis, x, y = wide_draw_problem(35)
    ctx = OrbitBallContext(make_subspace(basis), x)
    ctx.solve_levels(y, [1, 2, 3])
    for n, entry in ctx._query(y)["levels"].items():
        cases.append((ctx, y, n, entry[0][None], None))
    met = total = 0
    for ctx, y, n, ts, hi in cases:
        f = ctx._f(ts, y)
        full = ctx._cert_gap(ts, y, n)
        targets = [scale * full for scale in (0.5, 1.0, 2.0, 10.0)]
        targets += [tol * np.sqrt(f) for tol in (1e-6, 1e-3, 1e-1)]
        for target in targets:
            gap = ctx._cert_gap(ts, y, n, target)
            assert np.array_equal(gap <= target, full <= target)
            assert np.all(gap >= full)
            met += int(np.count_nonzero(gap <= target))
            total += gap.size
            # the corner's gap is 0, so its bound is the distance itself:
            # allow rounding
            if hi is not None:
                for gp in (gap, full):
                    assert np.all(np.sqrt(np.maximum(f - gp, 0.0)) <= hi + 1e-12)
    # both decisions occur
    assert 0 < met < total
