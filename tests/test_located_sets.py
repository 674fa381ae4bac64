import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbit_locator import (RANK_TOL, ConvergenceFailure,
                           DimensionError, GridOracleRefusal,
                           LocatedSet, OrbitBallContext, OrbitLocatorError,
                           SolverFailure, Stabilized, ball_distance,
                           coefficient_box, covering_gap, demo_table, epsilon_net,
                           euclidean_ball, gauge_of_orbit_ball,
                           greedy_decompose, grid_oracle_distance,
                           inner_radius, linear_image_ball, locate_distance,
                           make_subspace, orbit, orbit_ball)
from orbit_locator import linalg, located, sigma1
from orbit_locator.operators import GRID_CHUNK
from conftest import (MEM_TOL, SEED13, SEED17, family50_draw, family50_problem,
                      matrix_units, quaternion_left, scale_draw, svd_sigma, svd_sigmas,
                      svd_values, wide_draw, wide_draw_problem)


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


@pytest.mark.parametrize("s_min", [1e-4, 1e-6])
def test_linear_image_ball_gauge_at_high_condition(s_min):
    # T = U diag(1, 0.3, 0.01, s_min) V': the gauge of U's last column is
    # 1 / s_min; a preimage from the normal equations of T'T fails its own
    # range test here and reports inf
    for seed in range(20):
        g = np.random.default_rng(seed)
        U = np.linalg.qr(g.normal(size=(4, 4)))[0]
        V = np.linalg.qr(g.normal(size=(4, 4)))[0]
        T = U @ np.diag([1.0, 0.3, 0.01, s_min]) @ V.T
        val = linear_image_ball(T, 1.0).gauge(U[:, -1])
        assert abs(val * s_min - 1.0) <= 1e-8, (seed, val)


def test_grid_oracle_brackets_solver(diag_sub):
    x = np.array([1.0, 0.1])
    y = np.array([0.0, 1.0])
    for n in (1.0, 5.0):
        d = ball_distance(diag_sub, x, n, y, tol=1e-8).value
        lo, hi = grid_oracle_distance(diag_sub, x, n, y, eps=0.02)
        assert lo - 1e-9 <= d <= hi + 1e-9, (n, lo, d, hi)


def test_grid_oracle_on_a_zero_orbit_is_the_norm_of_y():
    # x in the kernel of every basis matrix: the orbit is {0}, and the
    # bracket closes at ||y|| without a grid
    sub = make_subspace([np.diag([1.0, 0.0])])
    assert grid_oracle_distance(sub, [0.0, 1.0], 1.0, [3.0, 4.0], eps=0.1) == (5.0, 5.0)


_DIAG = make_subspace([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


@pytest.mark.parametrize("call,match", [
    (lambda: linalg.as_matrix(np.ones(3)), "nonempty 2-d matrix"),
    (lambda: linalg.as_matrix(np.zeros((0, 2))), "nonempty 2-d matrix"),
    (lambda: linalg.as_matrix([[np.nan]]), "must be finite"),
    (lambda: _DIAG.matrix([1.0]), "expected 2 coefficients"),
    (lambda: orbit(_DIAG, [1.0, 0.0, 0.0]), r"x has shape \(3,\)"),
    (lambda: OrbitBallContext(_DIAG, [1.0, 0.5]).gauge_on(np.ones((3, 1))),
     "columns of length 2"),
    (lambda: linalg.batch_spectral_norms(np.eye(2)), "stack of matrices"),
    (lambda: inner_radius(euclidean_ball(np.zeros(2), 1.0), [np.zeros(2)]),
     "spans nothing"),
    (lambda: inner_radius(euclidean_ball(np.zeros(2), 1.0), []), "spans nothing"),
    (lambda: inner_radius(euclidean_ball(np.zeros(2), np.inf), [np.array([1.0, 0.0])]),
     "gauge vanishes"),
], ids=["matrix-1d", "matrix-empty", "matrix-nan", "coefficient-count", "orbit-x-length",
        "gauge-on-columns", "norms-one-matrix", "radius-zero-basis", "radius-empty-basis",
        "radius-zero-gauge"])
def test_typed_refusals(call, match):
    # each malformed input is refused with a DimensionError that names it
    with pytest.raises(DimensionError, match=match):
        call()


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


@pytest.fixture
def admm_runs(monkeypatch):
    """The ADMM iterations of each _admm call the test makes, in order."""
    runs = []
    admm = OrbitBallContext._admm

    def counted(self, q, n, tol, t, f, iters):
        out = admm(self, q, n, tol, t, f, iters)
        runs.append(out[1] - iters)
        return out

    monkeypatch.setattr(OrbitBallContext, "_admm", counted)
    return runs


@pytest.fixture
def sqp_rows(monkeypatch):
    """The row iterations of each _sqp call the test makes, summed over
    its rows, in order."""
    rows = []
    sqp = OrbitBallContext._sqp

    def counted(self, q, n, t0, tol):
        out = sqp(self, q, n, t0, tol)
        rows.append(int(out[1].sum()))
        return out

    monkeypatch.setattr(OrbitBallContext, "_sqp", counted)
    return rows


@pytest.mark.parametrize("dim,k", [(2, 3), (3, 2), (4, 3), (5, 4)])
def test_sigma1_hessian_matches_second_differences(dim, k):
    g = np.random.default_rng(100 * dim + k)
    sub = make_subspace([g.normal(size=(dim, dim)) for _ in range(k)])
    ctx = OrbitBallContext(sub, g.normal(size=dim))
    t = g.normal(size=k)
    U, sig, Vt = np.linalg.svd(ctx.mat(t))
    assert sig[1] < 0.95 * sig[0]
    hess = sigma1.curvature(U.T @ ctx.stack @ Vt.T, sig, np.ones((1, 1)))
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


@pytest.mark.parametrize("n, tol", [(np.nan, 1e-6), (1.0, np.nan), (1.0, np.inf),
                                    (np.inf, 1e-6)])
def test_distance_rejects_nan_level_and_nan_or_inf_tol(diag_sub, n, tol, monkeypatch):
    # refused with a typed error naming the bad value before any candidate
    # is solved: an infinite level is refused as a level, not by the
    # rounding floor its tolerance then falls below
    monkeypatch.setattr(OrbitBallContext, "_solve_levels", None)
    ctx = OrbitBallContext(diag_sub, [1.0, 0.1])
    message = ("scale n must be finite" if n == np.inf else "scale n must be nonnegative"
               if np.isnan(n) else "tol must be positive and finite")
    with pytest.raises(DimensionError, match=message):
        ctx.distance([0.0, 1.0], n, tol)


@pytest.mark.parametrize("make", [
    lambda sub: grid_oracle_distance(sub, [1.0, 0.5], 1.0, [0.0, 1.0], eps=np.nan),
    lambda sub: epsilon_net(sub, [1.0, 0.5], 1.0, eps=np.nan),
    lambda sub: euclidean_ball([0.0, 0.0], np.nan),
    lambda sub: locate_distance(sub, [1.0, 0.5], [0.0, 1.0], budget=1.5),
    lambda sub: locate_distance(sub, [1.0, 0.5], [0.0, 1.0], budget=True),
    lambda sub: demo_table([0.5], budget=2.5),
    lambda sub: covering_gap(sub, [1.0, 0.5], 1.0, [[0.0, 0.0]], samples=0),
    lambda sub: greedy_decompose([0.3, 0.1], euclidean_ball([0.0, 0.0], 1.0), 1.0,
                                 tol=np.nan),
    lambda sub: greedy_decompose([0.3, 0.1], euclidean_ball([0.0, 0.0], 1.0), 1.0,
                                 max_steps=1.5),
    lambda sub: greedy_decompose([0.3, 0.1], euclidean_ball([0.0, 0.0], 1.0), 1.0,
                                 max_steps=np.nan),
    lambda sub: greedy_decompose([0.3, 0.1], euclidean_ball([0.0, 0.0], 1.0), 1.0,
                                 max_steps=True),
    lambda sub: covering_gap(sub, [1.0, 0.5], 1.0, [[0.0, 0.0]], samples=1.5),
    lambda sub: covering_gap(sub, [1.0, 0.5], 1.0, [[0.0, 0.0]], samples=True),
])
def test_nan_eps_and_radius_are_refused(diag_sub, make, monkeypatch):
    # NaN fails the positivity checks instead of reaching int(NaN) in the
    # grid or a NaN distance. The same typed error, before any level is
    # solved, refuses a budget that is not an integer >= 1 (1.5 and 2.5
    # ended in a bare TypeError from range(), True ran one level), a
    # covering gap from no samples (it read 0.0, a perfect cover) and a NaN
    # oracle tolerance (Undecided with residual 0.0 on an exact body). The
    # counts max_steps and samples follow the budget's rule: 1.5 and NaN
    # ended in a bare TypeError, and max_steps=True ran one step
    monkeypatch.setattr(OrbitBallContext, "_solve_levels", None)
    with pytest.raises(DimensionError):
        make(diag_sub)


@pytest.mark.parametrize("make", [
    lambda sub, n: epsilon_net(sub, [1.0, 0.5], n, eps=0.1),
    lambda sub, n: grid_oracle_distance(sub, [1.0, 0.5], n, [0.0, 1.0], eps=0.1),
    lambda sub, n: linear_image_ball(np.eye(2), n).locate([3.0, 4.0]),
    lambda sub, n: orbit_ball(sub, [1.0, 0.5], n).gauge([1.0, 0.0]),
    lambda sub, n: covering_gap(sub, [1.0, 0.5], n, [[0.0, 0.0]]),
    lambda sub, n: coefficient_box(sub, n),
], ids=["epsilon_net", "grid_oracle_distance", "linear_image_ball", "orbit_ball",
        "covering_gap", "coefficient_box"])
@pytest.mark.parametrize("n", [np.nan, -1.0], ids=["nan", "negative"])
def test_nan_and_negative_level_are_refused(diag_sub, make, n):
    # a NaN level reached int(NaN) in the grid sizing or gave NaN distances
    # and gauges, and the ellipsoid at n = -1 put (3, 4) at distance 4.0;
    # the covering gap read 0.0 (a perfect cover) at NaN and 1.118 at -1,
    # and the coefficient box came out NaN or negative:
    # every entry point refuses such a level with the one typed error
    with pytest.raises(DimensionError, match="scale n must be nonnegative"):
        make(diag_sub, n)


@pytest.mark.parametrize("make", [
    lambda sub: linear_image_ball(np.eye(2), 0.0),
    lambda sub: orbit_ball(sub, [1.0, 0.5], 0),
], ids=["linear_image_ball", "orbit_ball"])
def test_level_zero_view_is_refused(diag_sub, make):
    # both views divide their gauges, ceilings and slacks by n: at n = 0 the
    # ellipsoid's locate and the orbit ball's inner radius raised a bare
    # ZeroDivisionError and its gauge of 0 came back NaN
    with pytest.raises(DimensionError, match=r"level-0 ball is \{0\}"):
        make(diag_sub)
    # the distance to the level-0 ball stays answered, by the degenerate route
    res = ball_distance(diag_sub, [1.0, 0.5], 0.0, [3.0, 4.0])
    assert (res.value, res.method) == (5.0, "degenerate")


@pytest.mark.parametrize("n", [5.0, 40.0])
def test_distance_refuses_a_tolerance_below_the_rounding_floor(n, monkeypatch):
    # wide-draw problem 20 at tol 1e-17 (floors 1.4e-15 at n = 5, 6.4e-15
    # at n = 40): n = 5 came back "certified" on rounding after 173
    # iterations and n = 40 raised SolverFailure after seconds of ADMM;
    # both are refused before the query's record is built
    basis, x, y = wide_draw_problem(20)
    ctx = OrbitBallContext(make_subspace(basis), x)

    def unreached(self, y):
        raise AssertionError("a refused tolerance builds no query record")

    monkeypatch.setattr(OrbitBallContext, "_query", unreached)
    with pytest.raises(DimensionError, match="rounding floor"):
        ctx.distance(y, n, 1e-17)
    with pytest.raises(DimensionError, match="rounding floor"):
        next(ctx.distances(y, [1.0, n], [1e-6, 1e-17]))


def test_rounding_floor_is_the_edge_of_distance(diag_sub):
    # eps (||y|| + 4 sqrt(dim) n sigma1(Phi)), with sigma1 from the dilation:
    # a tolerance at the floor is solved, the next double below is refused,
    # and level 0 has no floor
    x, y = np.array([1.0, 0.1]), np.array([0.0, 1.0])
    ctx = OrbitBallContext(diag_sub, x)
    floor = ctx.rounding_floor(1.0, 5.0)
    sigma1 = svd_sigma(ctx.Phi)
    assert floor == pytest.approx(np.finfo(float).eps * (1.0 + 4.0 * np.sqrt(2.0) * 5.0 * sigma1),
                                  rel=1e-12)
    assert abs(ctx.distance(y, 5.0, floor).value - 0.5) <= 1e-12
    with pytest.raises(DimensionError, match="rounding floor"):
        ctx.distance(y, 5.0, np.nextafter(floor, 0.0))
    assert ctx.distance(y, 0.0, 1e-300).method == "degenerate"


def test_distances_rejects_tolerances_of_the_wrong_length(diag_sub):
    # numpy's broadcast raised a bare ValueError here
    ctx = OrbitBallContext(diag_sub, [1.0, 0.1])
    with pytest.raises(DimensionError, match="expected one tolerance or 3"):
        next(ctx.distances([0.0, 1.0], range(1, 4), [1e-6] * 30))
    with pytest.raises(DimensionError):
        ctx.distance([0.0, 1.0], 1.0, [1e-6, 1e-6])


def test_gauge_rejects_wrong_length(diag_sub):
    with pytest.raises(DimensionError):
        gauge_of_orbit_ball(diag_sub, [1.0, 0.5], [1.0, 2.0, 3.0])
    ball = orbit_ball(diag_sub, [1.0, 0.5], 1.0)
    with pytest.raises(DimensionError):
        ball.gauges(np.ones((4, 3)))


def test_gauge_oracle_type_error_propagates():
    # an oracle's own TypeError is not taken for a signature mismatch and
    # retried another way: it reaches the caller of gauges and of the
    # inner radius, whose compiled gauge falls back to the oracle
    def broken(V):
        raise TypeError("oracle bug")

    S = LocatedSet(2, lambda y, tol: None, broken, description="broken")
    with pytest.raises(TypeError, match="oracle bug"):
        S.gauges(np.eye(2))
    with pytest.raises(TypeError, match="oracle bug"):
        inner_radius(S, list(np.eye(2)))


def rank_one_pair(g, dim):
    """Two generators whose images of x are parallel: orbit rank 1, so the
    gauge has a one-dimensional null space."""
    x = g.normal(size=dim)
    B1 = g.normal(size=(dim, dim))
    kill_x = np.eye(dim) - np.outer(x, x) / float(x @ x)
    return [B1, 0.7 * B1 + g.normal(size=(dim, dim)) @ kill_x], x


def shaped_problem(g, shape):
    """A (basis, x) of the shape "d<dim>k<k>r<orbit rank>": d3k2r1 is a
    rank_one_pair, the others are random (k > dim gives a null space)."""
    if shape == "d3k2r1":
        return rank_one_pair(g, 3)
    dim, k = int(shape[1]), int(shape[3])
    return [g.normal(size=(dim, dim)) for _ in range(k)], g.normal(size=dim)


@pytest.mark.parametrize("shape", ["d3k2r1", "d3k2r2", "d2k3r2"])
def test_batched_gauges_match_one_row(shape):
    g = np.random.default_rng(11)
    basis, x = shaped_problem(g, shape)
    sub = make_subspace(basis)
    ctx = OrbitBallContext(sub, x)
    assert ctx.rank == int(shape[5])
    rows = [ctx.geo.P @ g.normal(size=x.size) for _ in range(10)]
    rows.append(np.zeros(x.size))
    if ctx.rank < x.size:
        rows.append(g.normal(size=x.size))      # off the orbit span
    V = np.stack(rows)
    vals, ts = ctx.gauges(V)
    assert vals[10] == 0.0 and np.all(ts[10] == 0.0)
    if ctx.rank < x.size:
        assert vals[11] == np.inf and np.all(np.isnan(ts[11]))
    for v, val, t in zip(V, vals, ts):
        one, t_one = ctx.gauge(v)
        if not np.isfinite(one):
            assert t_one is None and val == np.inf
            continue
        assert abs(val - one) <= 1e-10 * max(1.0, one), (val, one)
        assert np.allclose(ctx.point(t), v, atol=1e-9)
        assert abs(svd_sigma(ctx.mat(t)) - val) <= 1e-9 * max(1.0, val)
    ball = orbit_ball(sub, x, 2.0, ctx=ctx)
    assert np.array_equal(ball.gauges(V), vals / 2.0)
    for S in (euclidean_ball(np.zeros(x.size), 2.0),
              linear_image_ball(basis[0][:, :2], 1.5)):
        batch = S.gauges(V)
        assert np.allclose(batch, [S.gauge(v) for v in V], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("shape", ["d3k2r1", "d3k2r2", "d2k3r2", "d3k3r3"])
def test_gauges_on_matches_gauges(shape):
    # the compiled form combines the generators mat(t_hat(b_j)) where
    # gauges builds each row's preimage: the same search up to rounding
    g = np.random.default_rng(12)
    basis, x = shaped_problem(g, shape)
    sub = make_subspace(basis)
    ctx = OrbitBallContext(sub, x)
    assert (ctx.rank, ctx.null_vecs.shape[1]) == (int(shape[5]), len(basis) - int(shape[5]))
    B = ctx.geo.U[:, :ctx.geo.rank]
    U = np.concatenate([g.normal(size=(12, ctx.rank)), np.eye(ctx.rank)])
    want, _ = ctx.gauges(U @ B.T)
    got, ts = ctx.gauge_on(B)[0](U)
    assert np.all(np.abs(got - want) <= 1e-12 * want), (got, want)
    assert np.allclose(ctx.point(ts), U @ B.T, atol=1e-12)
    assert np.allclose(svd_sigmas(ctx.mat(ts)), got, rtol=1e-12, atol=0.0)
    ball = orbit_ball(sub, x, 2.0, ctx=ctx)
    assert np.array_equal(ball.gauge_on(B)[0](U), got / 2.0)
    # a set without a compiled form applies its gauges to U @ B.T
    S = linear_image_ball(basis[0][:, :2], 1.5)
    assert np.array_equal(S.gauge_on(B)[0](U), S.gauges(U @ B.T))


def ceiling_problems():
    """Random orbit balls for the gauge ceiling: dim 2-5, k 1-6, drawn
    from default_rng(0..4), each once as drawn and once with its last
    operator remade to send x into the span of the other images, which
    gives the orbit map a null space."""
    out = []
    for seed in range(5):
        g = np.random.default_rng(seed)
        dim, k = int(g.integers(2, 6)), int(g.integers(1, 7))
        basis = [g.normal(size=(dim, dim)) for _ in range(k)]
        x = g.normal(size=dim)
        out.append((basis, x))
        if k >= 2:
            kill_x = np.eye(dim) - np.outer(x, x) / float(x @ x)
            mix = g.normal(size=k - 1)
            last = (sum(a * B for a, B in zip(mix, basis[:-1]))
                    + g.normal(size=(dim, dim)) @ kill_x)
            out.append((basis[:-1] + [last], x))
    return out


@pytest.mark.parametrize("basis, x", ceiling_problems())
def test_gauge_ceiling_covers_a_dense_scan(basis, x):
    # every gauge on the unit sphere of the orbit span is at most the
    # one-eigenvalue ceiling, with and without a null space; the ceiling
    # of the level-n ball is the unit ball's over n
    sub = make_subspace(basis)
    ctx = OrbitBallContext(sub, x)
    B = ctx.geo.U[:, :ctx.geo.rank]
    m = B.shape[1]
    g = np.random.default_rng(7)
    U = np.concatenate([np.eye(m), g.normal(size=(64, m))])
    U /= np.linalg.norm(U, axis=1)[:, None]
    vals, _ = ctx.gauges(U @ B.T)
    ceiling = ctx.gauge_on(B)[1]
    assert np.isfinite(ceiling) and vals.max() <= ceiling, (vals.max(), ceiling)
    ball = orbit_ball(sub, x, 1.5, ctx=ctx)
    assert ball.gauge_on(B)[1] == ceiling / 1.5
    if m < x.size:
        # a column off the orbit span has an infinite gauge
        off = np.concatenate([B, (np.eye(x.size) - ctx.geo.P)[:, :1]], axis=1)
        assert ctx.gauge_on(off)[1] == np.inf


def test_gauge_on_at_rank_zero():
    # x = 0 kills every operator: the orbit span is {0}, whose only
    # direction, the zero column, has gauge, ceiling and slack 0
    ctx = OrbitBallContext(make_subspace([np.eye(2)]), np.zeros(2))
    assert ctx.rank == 0
    gauge, ceiling, slack = ctx.gauge_on(np.zeros((2, 1)))
    assert (ceiling, slack) == (0.0, 0.0)
    assert np.array_equal(gauge(np.ones((1, 1)))[0], [0.0])


def test_ellipsoid_gauge_ceiling_is_sigma1():
    # the ellipsoid's ceiling on span(B) is sigma1(T^+ B) / n, up to its
    # rounding margin, which grows with the condition of T: the maps here
    # have singular values in [1, 2], so it stays near 1e-13. Sets without
    # a ceiling report inf
    g = np.random.default_rng(3)
    for d, m, k in ((3, 2, 2), (5, 3, 2), (6, 6, 4), (4, 4, 1)):
        left = np.linalg.qr(g.normal(size=(d, m)))[0]
        right = np.linalg.qr(g.normal(size=(m, m)))[0]
        T = (left * np.linspace(1.0, 2.0, m)) @ right
        B = np.linalg.qr(T @ g.normal(size=(m, k)))[0]
        S = linear_image_ball(T, 1.7)
        want = svd_sigma(np.linalg.pinv(T) @ B) / 1.7
        ceiling = S.gauge_on(B)[1]
        assert abs(ceiling - want) <= 1e-12 * want, (ceiling, want)
    flat = linear_image_ball(np.array([[1.0], [0.0]]), 1.0)
    assert flat.gauge_on(np.eye(2))[1] == np.inf
    assert euclidean_ball(np.zeros(2), 1.0).gauge_on(np.eye(2))[1] == np.inf
    with pytest.raises(DimensionError):
        flat.gauge_on(np.eye(3))


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


@pytest.mark.parametrize("source,index", [
    ("family50", 7),    # diag c = 0.1: a clustered corner at level 1
    ("family50", 20),
    ("family50", 44),   # clustered at level 6
    ("wide", 35),       # the top pair nearly ties at level 1
])
def test_lockstep_sqp_rows_match_one_row_solves(source, index):
    draw = wide_draw_problem if source == "wide" else family50_problem
    basis, x, y = draw(index)
    ctx = OrbitBallContext(make_subspace(basis), x)
    q = ctx._query(y)
    g, t_rep = ctx._query_gauge(q)
    ns = [float(n) for n in range(1, 13) if not located._clears(g, float(n))]
    starts = [t_rep * min(1.0, n * (1.0 - 1e-12) / g) for n in ns]
    assert len(ns) >= 2
    tols = [min(1e-6, 2.0 ** -(n + 2)) for n in ns]
    ts, iters, _, _ = ctx._sqp(q, ns, starts, tols)
    assert iters.shape == (len(ns),)
    for n, tol, t0, t in zip(ns, tols, starts, ts):
        t1 = ctx._sqp(q, n, [t0], tol)[0]
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
    for n, entry in ctx._solve_levels(ctx._query(y), [1.0, 2.0, 3.0], [1e-6] * 3).items():
        _, hi = grid_oracle_distance(sub, x, n, y, eps=0.5)
        cases.append((ctx, y, n, entry[0][None], hi))
    assert len(cases) == 4
    for ctx, y, n, ts, hi in cases:
        assert np.all(svd_sigmas(ctx.mat(ts)) <= n * (1.0 + MEM_TOL))
        f = ctx._f(ts, y)
        gap = ctx._cert_gap(ts, ctx._query(y), n)
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
    assert 0.0 <= ctx._cert_gap(t, ctx._query(y), 1.0)[0] <= 1e-12


def assert_multiplier_is_the_fit(T, sig, grad, M, r):
    """sigma1.multiplier's (M, r) at (T, sig, grad), checked row by row.
    What any cluster size satisfies: M >= 0; tr M, as sigma1.contract gives
    it, is ||M||_*, which is ||W||_* for W = U_p M V_p'; r lies between 1
    and the band's size, the pairs j < 4 with sigma_j >= 0.99 sigma1; and
    where M is the unclipped fit (r >= 2, or the top pair's weight M_00 > 0
    off the band) the residual -grad - c, c = tcoords(W), is orthogonal to
    tcoords(U_r B V_r') for every symmetric r x r B. On the rows whose band
    holds at most two pairs, also the 2 x 2 form: off the band M is
    [[top, 0], [0, 0]] with top the top pair's least-squares weight; on it
    M's leading 2 x 2 block is the least-squares fit of -grad over
    symmetric blocks, minimum-norm in Frobenius norm, with its negative
    eigenvalues clipped, and r = 2 exactly where lam_2 > 0.01 lam_1."""
    c, nuc = sigma1.contract(T, M)
    lam = np.linalg.eigvalsh(M)
    assert np.all(lam[:, 0] >= -1e-15 * np.maximum(1.0, lam[:, -1])), lam
    assert np.allclose(nuc, np.abs(lam).sum(axis=1), rtol=1e-13, atol=0.0), (nuc, lam)
    band = np.count_nonzero(sig[:, :4] >= 0.99 * sig[:, :1], axis=1)
    assert np.all((1 <= r) & (r <= band)), (r, band)
    rho = -grad - c
    for i in np.flatnonzero((r >= 2) | ((band == 1) & (M[:, 0, 0] > 0.0))):
        B = np.tensordot(rho[i], T[i, :, :r[i], :r[i]], 1)
        scale = np.abs(grad[i]).max() * np.abs(T[i]).max()
        assert np.abs(B + B.T).max() <= 1e-12 * scale, (i, B, scale)
    g = T[:, :, 0, 0]
    top = np.maximum(0.0, -np.sum(grad * g, axis=1) / np.sum(g * g, axis=1))
    one = band == 1
    assert np.allclose(M[one, 0, 0], top[one], rtol=1e-14, atol=0.0)
    assert not np.delete(M[one].reshape(-1, M.shape[-1] ** 2), 0, axis=1).any()
    for i in np.flatnonzero(band == 2):
        # the coordinates M_00, M_11 and sqrt 2 M_01 are Frobenius ones
        C = np.stack([T[i, :, 0, 0], T[i, :, 1, 1],
                      (T[i, :, 0, 1] + T[i, :, 1, 0]) / np.sqrt(2.0)], axis=1)
        m = np.linalg.lstsq(C, -grad[i], rcond=None)[0] * [1.0, 1.0, np.sqrt(0.5)]
        w, Z = np.linalg.eigh(m[[0, 2, 2, 1]].reshape(2, 2))
        want = np.zeros_like(M[i])
        want[:2, :2] = (Z * np.maximum(w, 0.0)) @ Z.T
        assert np.abs(M[i] - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), (M[i], want)
        assert r[i] == (2 if w[0] > 0.01 * w[1] else 1), (r[i], w)


@pytest.mark.parametrize("source,index", [
    ("family50", 9),    # diag c = 0.75
    ("family50", 12),   # diag c = 0.6
    ("wide", 35),
])
def test_multiplier_is_the_clipped_fit(source, index, monkeypatch):
    # every fit of the problem's sweep, whose top pairs reach the band
    draw = wide_draw_problem if source == "wide" else family50_problem
    fits = []
    fit = sigma1.multiplier

    def kept(T, s, grad):
        out = fit(T, s, grad)
        fits.append((T, s, grad) + out)
        return out

    monkeypatch.setattr(sigma1, "multiplier", kept)
    basis, x, y = draw(index)
    locate_distance(make_subspace(basis), x, y, budget=12, tol=1e-6)
    assert any((s[:, 1] >= 0.99 * s[:, 0]).any() for _, s, *_ in fits)
    for args in fits:
        assert_multiplier_is_the_fit(*args)


@pytest.mark.parametrize("k", [3, 2, 4])
def test_multiplier_follows_a_rotated_tie(k):
    # mat(t) = U diag(2, 2, 0.5) V' (dimension 3, k = 3), U diag(2, 2) V'
    # (dimension 2, k = 2, where the fit has a line of solutions) or
    # U diag(2, 2, 2, 0.5) V' (dimension 4, k = 4, a three-fold tie whose
    # fit has a plane of solutions) with random orthogonal U, V lies in a
    # random span, so its top values tie exactly, and U_r Q, V_r Q frame
    # them as well for every orthogonal Q. Queries y put -grad at
    # tcoords(U_r P V_r') for a random P >= 0 plus noise. The fit turns
    # with the frame, M -> Q'MQ, so W = U_p M V_p' is the same, and so are
    # c = tcoords(W) and tr M = ||W||_*, as the certificate takes them
    d, tie = k, 3 if k == 4 else 2
    g = np.random.default_rng(31 + k)
    U, V = (np.linalg.qr(g.normal(size=(d, d)))[0] for _ in range(2))
    s = np.array({2: [2.0, 2.0], 3: [2.0, 2.0, 0.5], 4: [2.0, 2.0, 2.0, 0.5]}[k])
    X = U @ np.diag(s) @ V.T
    sub = make_subspace([X] + [g.normal(size=(d, d)) for _ in range(k - 1)])
    ctx = OrbitBallContext(sub, g.normal(size=d))
    t = ctx.tcoords(X)[None]
    spread = 0
    for seed in range(4):
        A = g.normal(size=(tie, tie))
        w = ctx.tcoords(U[:, :tie] @ A @ A.T @ V[:, :tie].T) + 0.05 * g.normal(size=k)
        # 2 Phi'(y - Phi t) = w, so -grad = w
        y = ctx.point(t[0]) + np.linalg.solve(ctx.Phi.T, w / 2.0)
        grad = ctx._grad(t, y)
        T = (U.T @ ctx.stack @ V)[None]
        fit = sigma1.multiplier(T, s[None], grad)
        assert_multiplier_is_the_fit(T, s[None], grad, *fit)
        M = fit[0][0]
        p = M.shape[-1]
        spread += fit[1][0] == tie
        W = U[:, :p] @ M @ V[:, :p].T
        c, nuc = sigma1.contract(T, M[None])
        assert np.abs(ctx.tcoords(W) - c[0]).max() <= 1e-13
        assert nuc[0] == pytest.approx(np.linalg.svd(W, compute_uv=False).sum(), rel=1e-13)
        if tie == 2:
            turns = (rotation(0.3 + seed), np.diag([1.0, -1.0]) @ rotation(seed))
        else:
            turns = tuple(np.linalg.qr(g.normal(size=(tie, tie)))[0] for _ in range(2))
        for R in turns:
            Q = np.eye(d)
            Q[:tie, :tie] = R
            Tr = ((U @ Q).T @ ctx.stack @ (V @ Q))[None]
            Mr = sigma1.multiplier(Tr, s[None], grad)[0][0]
            Mq = Q[:p, :p].T @ M @ Q[:p, :p]
            assert np.abs(Mr - Mq).max() <= 1e-12 * max(1.0, np.abs(M).max())
            Wr = (U @ Q)[:, :p] @ Mr @ (V @ Q)[:, :p].T
            assert np.abs(Wr - W).max() <= 1e-12 * max(1.0, np.abs(W).max())
            cr, nucr = sigma1.contract(Tr, Mr[None])
            assert np.abs(cr - c).max() <= 1e-12 * max(1.0, np.abs(c).max())
            assert nucr[0] == pytest.approx(nuc[0], rel=1e-13)
    assert spread >= 2


def rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


@pytest.mark.parametrize("basis, x", [
    (quaternion_left(), np.array([0.5, -0.1, 0.7, 0.2])),
    ([np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])], np.array([0.6, -0.8])),
    (matrix_units(3), np.array([0.6, -0.3, 0.9])),
], ids=["quaternion", "complex", "M3"])
def test_tied_spectra_certify_in_the_sqp(basis, x, admm_runs):
    # every operator of the quaternion ball and of the complex disk
    # span{I, J} is a scaled orthogonal matrix, so all its singular values
    # tie, and the full algebra M_3 holds every operator. Each ball is the
    # Euclidean ball of radius n |x|, so a level's distance is
    # |y| - n |x| off it. The cluster multiplier over the tied pairs (all
    # four of the quaternion ball's, both of the disk's; M_3's optima are
    # rank one) certifies every boundary level of the sweep in the SQP: no
    # ADMM run
    g = np.random.default_rng(3)
    y = g.normal(size=x.size)
    y *= 5.5 * np.linalg.norm(x) / np.linalg.norm(y)
    rep = locate_distance(make_subspace(basis), x, y, budget=12, tol=1e-6)
    assert isinstance(rep.verdict, Stabilized) and len(rep.levels) == 6
    for lv in rep.levels:
        want = max(0.0, np.linalg.norm(y) - lv.n * np.linalg.norm(x))
        assert abs(lv.d - want) <= min(1e-6, 2.0 ** -(lv.n + 2)), (lv.n, lv.d, want)
    assert admm_runs == []


@pytest.mark.parametrize("source,index,count,left_open", [
    ("family50", 20, 12, set()), ("wide", 35, 3, set()), ("wide", 181, 1, {1.0}),
], ids=["family50-20", "wide-35", "wide-181"])
def test_tabled_levels_are_certified(source, index, count, left_open, monkeypatch):
    # _sqp stops each level once its gap meets the level's tolerance. On
    # wide-draw 35, whose level 1-3 optima nearly tie, the multiplier over
    # the cluster of the two tied pairs closes every level; on wide-draw
    # 181 it cannot close level 1, where the step walks toward a tie the
    # optimum lacks, and the sweep's ADMM closes it. With those closed
    # every level of the table is certified at its own tolerance and lies
    # within it of a solve at 1e-12
    if source == "wide":
        basis, x, y = wide_draw_problem(index)
    else:
        basis, x, y = family50_problem(index)
    sub = make_subspace(basis)
    ctx = OrbitBallContext(sub, x)
    tols = {float(n): min(1e-6, 2.0 ** -(n + 2)) for n in range(1, 13)}
    levels = ctx._solve_levels(ctx._query(y), list(tols), list(tols.values()))
    assert len(levels) == count
    assert {n for n, (_, _, f, gap) in levels.items()
            if gap > tols[n] * np.sqrt(f)} == left_open
    closed = {}
    admm = OrbitBallContext._admm

    def kept(self, q, n, *args):
        closed[n] = out = admm(self, q, n, *args)
        return out

    monkeypatch.setattr(OrbitBallContext, "_admm", kept)
    locate_distance(sub, x, y, budget=12, tol=1e-6, ctx=ctx)
    assert set(closed) == left_open
    levels.update(closed)
    for n, (t, _, f, gap) in levels.items():
        tol = tols[n]
        assert abs(f - ctx._f(t, y)) <= 1e-15 * max(1.0, f)
        assert gap <= tol * np.sqrt(f), (n, gap, f)
        tight = OrbitBallContext(sub, x).distance(y, n, 1e-12).value
        assert abs(np.sqrt(f) - tight) <= tol, (n, np.sqrt(f), tight)


@pytest.mark.parametrize("draw,count,kinds,levels,rows,runs,iterations,most", [
    (None, 50, {"Stabilized": 43, "Undecided": 7}, 225, 222, 0, 0, 0),
    ({}, 200, {"Stabilized": 182, "Undecided": 18}, 820, 1655, 4, 764, 700),
    (SEED13, 40, {"Stabilized": 33, "Undecided": 7}, 228, 786, 3, 168, 100),
    (SEED17, 30, {"Stabilized": 25, "Undecided": 5}, 167, 768, 8, 1652, 450),
], ids=["family50", "seed7", "seed13", "seed17"])
def test_wide_draw_sweeps_certify(admm_runs, sqp_rows, draw, count, kinds, levels, rows,
                                  runs, iterations, most):
    # a whole draw (family50 for draw None), swept as in the benchmark: no
    # SolverFailure, and the draw's ledger pinned: the verdict split, the
    # levels of all sweeps, the SQP's row iterations in all, the number of
    # levels that run ADMM and their iterations in all, and no ADMM run
    # above `most` iterations. No draw has a cluster of three or more
    # pairs, so the r x r multiplier acts as the 2 x 2 one did. With a
    # multiplier diagonal in the top two pairs and the top pair as the one
    # constraint the wide draws ran ADMM
    # on 48, 20 and 37 levels for 4669, 3864 and 9805 iterations, at most
    # 626, 522 and 1577 in one run; on the wide draw the most was 6105
    # before ADMM balanced its residuals, on the seed-17 draw 6657 before
    # every row took the Newton step. Wide problems 13 and 96 reach the
    # span lower bound only at level 12, the last level of the budget. The
    # boundary SQP starts from the representative of the query's gauge:
    # with the gauges at two or more null coordinates on the pattern search
    # the seed-17 draw took 764 SQP row iterations, from the cluster
    # search's representatives it takes 768
    found, swept = {}, 0
    for basis, x, y in family50_draw() if draw is None else wide_draw(count, **draw):
        try:
            rep = locate_distance(make_subspace(basis), x, y, budget=12, tol=1e-6)
            kind = type(rep.verdict).__name__
            swept += len(rep.levels)
        except SolverFailure:
            kind = "SolverFailure"
        found[kind] = found.get(kind, 0) + 1
    assert found == kinds
    assert (swept, sum(sqp_rows)) == (levels, rows), (swept, sum(sqp_rows))
    assert (len(admm_runs), sum(admm_runs)) == (runs, iterations), admm_runs
    assert max(admm_runs, default=0) <= most, admm_runs


@pytest.mark.parametrize("dim,k,levels,rows,runs,iterations", [
    (16, 24, 10, 95, 2, 738),
    (64, 32, 6, 21, 0, 0),
], ids=["dim16", "dim64"])
def test_scale_draw_sweeps_certify(admm_runs, sqp_rows, dim, k, levels, rows, runs,
                                   iterations):
    # the two scale problems of a (dim, k) row, swept at budget 30: both
    # Stabilized, and their ledger pinned as in test_wide_draw_sweeps_certify.
    # The optima tie three or four singular values; with the multiplier
    # held to the top two pairs the SQP stalled there, and the rows took
    # 132 and 39 SQP row iterations and ran ADMM 5 times for 1608
    # iterations at dim 16, and 2 times for 3859 at dim 64. With the query
    # gauges (8 null coordinates) on the pattern search the dim-16 rows
    # took 94 SQP row iterations and one ADMM run of 210; from the cluster
    # search's representative they take 95 and two runs of 738 in all
    swept = 0
    for basis, x, y in scale_draw(dim, k):
        rep = locate_distance(make_subspace(basis), x, y, budget=30, tol=1e-6)
        assert isinstance(rep.verdict, Stabilized)
        swept += len(rep.levels)
    assert (swept, sum(sqp_rows)) == (levels, rows), (swept, sum(sqp_rows))
    assert (len(admm_runs), sum(admm_runs)) == (runs, iterations), admm_runs


def marginal_rank_x():
    """x = (1, 5e-10) on the diagonal subspace: the second singular value
    of Phi lies below the rank cut, so the rank decision drops a nonzero
    eigenvalue and the dropped direction still moves x toward (0, 1)."""
    return np.array([1.0, 5e-10])


def conditioned_problem(seed, kappa):
    """A (basis, x) in dimension 4 with k = 4 whose Phi = [Q_k x] has
    singular values 1, 1/kappa^(1/3), 1/kappa^(2/3), 1/kappa: the
    Frobenius-orthonormal units R e_i e_i' S' mixed by a random matrix,
    and x = S s. Phi is R diag(s) times an orthogonal matrix."""
    g = np.random.default_rng(seed)
    R = np.linalg.qr(g.normal(size=(4, 4)))[0]
    S = np.linalg.qr(g.normal(size=(4, 4)))[0]
    units = np.stack([np.outer(R[:, i], S[:, i]) for i in range(4)])
    basis = list(np.einsum("ji,iab->jab", g.normal(size=(4, 4)), units))
    return basis, S @ kappa ** -(np.arange(4) / 3.0)


def test_context_factors_phi_once(monkeypatch):
    # one checked SVD of Phi builds the context: no eigensolver, no
    # Gram-Schmidt, and rank_margin reads the stored singular values
    basis, x, _ = wide_draw_problem(2)     # dim 3, k 4, orbit rank 3
    sub = make_subspace(basis)
    svd = np.linalg.svd
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    def banned(*args, **kwargs):
        raise AssertionError("the context factors Phi once")

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(located.linalg, "sym_eigh_desc", banned)
    monkeypatch.setattr(located.linalg, "orthonormalize", banned)
    ctx = OrbitBallContext(sub, x)
    assert calls == [(3, 4)]
    margin = ctx.rank_margin()
    assert calls == [(3, 4)]
    sv = svd(ctx.Phi, compute_uv=False)
    assert ctx.rank == int(np.sum(sv > RANK_TOL * sv[0])) == 3
    assert margin == pytest.approx(min(sv / (RANK_TOL * sv[0])), rel=1e-12)
    assert np.allclose(ctx.range_lams, sv ** 2, rtol=1e-13, atol=0.0)
    # the factor's pieces: P, the least-norm preimage, which gives _sqp's
    # unconstrained step -pinv(H) grad, and the null vectors
    assert np.allclose(ctx.geo.P, ctx.Phi @ np.linalg.pinv(ctx.Phi), atol=1e-12)
    t, v = (np.random.default_rng(2).normal(size=m) for m in (ctx.k, ctx.dim))
    assert np.allclose(ctx.min_norm_preimage(v - ctx.point(t)),
                       -np.linalg.pinv(ctx.H) @ ctx._grad(t, v), atol=1e-10)
    assert np.linalg.norm(ctx.Phi @ ctx.null_vecs) <= 1e-12
    # a corrupted factor is refused
    def corrupt(*args, **kwargs):
        U, s, Vt = (a.copy() for a in svd(*args, **kwargs))
        s[0] *= 1.0 + 1e-6
        return U, s, Vt

    monkeypatch.setattr(np.linalg, "svd", corrupt)
    with pytest.raises(ConvergenceFailure):
        OrbitBallContext(sub, x)


def gram_kernel_problems():
    """Orbit balls without a null space: random ones at dim 2, 3 and 5
    (default_rng(0..2), k = dim), and conditioned_problem at kappa(Phi)
    = 1, 1e4 and 1e8, whose least-norm generators spread over kappa."""
    out = []
    for dim in (2, 3, 5):
        for seed in range(3):
            g = np.random.default_rng(seed)
            out.append(([g.normal(size=(dim, dim)) for _ in range(dim)],
                        g.normal(size=dim)))
    for kappa in (1.0, 1e4, 1e8):
        out.extend(conditioned_problem(seed, kappa) for seed in range(3))
    return out


@pytest.mark.parametrize("basis, x", gram_kernel_problems())
def test_gram_kernel_matches_svd_below_its_ceiling(basis, x, monkeypatch):
    # without a null space the compiled gauge is sigma1 of X = u G, the
    # combination of the generators, as the root of the top eigenvalue of
    # X'X: on unit rows it is within d^2 eps of LAPACK's sigma1 of the same
    # X, relative, and never above the ceiling. It runs no SVD and no
    # search over null coordinates
    ctx = OrbitBallContext(make_subspace(basis), x)
    assert ctx.rank == ctx.k and not ctx.null_vecs.shape[1]
    B = ctx.geo.U[:, :ctx.rank]
    d, m = ctx.dim, ctx.rank
    g = np.random.default_rng(9)
    U = np.concatenate([np.eye(m), g.normal(size=(200, m))])
    U /= np.linalg.norm(U, axis=1)[:, None]
    gauge, ceiling, slack = ctx.gauge_on(B)
    X = (U @ ctx.mat(ctx.min_norm_preimage(B.T)).reshape(m, -1)).reshape(-1, d, d)
    want = np.linalg.svd(X, compute_uv=False)[:, 0]

    def refused(*args, **kwargs):
        raise AssertionError("the kernel ran an SVD or a cluster search")

    monkeypatch.setattr(np.linalg, "svd", refused)
    monkeypatch.setattr(located, "cluster_min", refused)
    got, _ = gauge(U)
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= d * d * eps * want), np.max(np.abs(got - want) / want)
    assert got.max() <= ceiling, (got.max(), ceiling)
    assert 0.0 < slack < ceiling


def test_preimage_at_kappa_1e6():
    # the least-norm preimage hits its target at kappa(Phi) = 1e6, where
    # the normal equations of Phi'Phi miss it by up to 6.6e-5 ||v||
    for seed in range(5):
        basis, x = conditioned_problem(seed, 1e6)
        ctx = OrbitBallContext(make_subspace(basis), x)
        sv = svd_values(ctx.Phi)
        assert ctx.rank == 4 and sv[0] / sv[-1] == pytest.approx(1e6, rel=1e-6)
        V = np.random.default_rng(seed).normal(size=(8, 4))
        miss = ctx.min_norm_preimage(V) @ ctx.Phi.T - V @ ctx.geo.P.T
        assert np.all(np.linalg.norm(miss, axis=1)
                      <= 1e-9 * np.linalg.norm(V, axis=1)), seed


def certificate_cases():
    """(ctx, y, n, rows t) for the certificate test: random rows on a
    problem with and one without a null space, and rows whose top
    singular values tie, lie within 1% (the band) or 4% of each other."""
    g = np.random.default_rng(3)
    diag = make_subspace([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    full = make_subspace([g.normal(size=(2, 2)) for _ in range(4)])  # all of M_2
    basis, x, _ = wide_draw_problem(2)   # dim 3, k 4: a null space
    cases = []
    for sub, xv, ties in ((diag, np.array([1.0, 0.3]), True),
                          (full, g.normal(size=2), True),
                          (make_subspace(basis), x, False)):
        ctx = OrbitBallContext(sub, xv)
        t = g.normal(size=(24, ctx.k)) * g.uniform(0.1, 3.0, size=(24, 1))
        if ties:
            # mat(t) = U diag(1, s2) V' with exact ties, s2 in the band and
            # s2 just off it
            U = np.linalg.qr(g.normal(size=(2, 2)))[0]
            V = np.linalg.qr(g.normal(size=(2, 2)))[0]
            s2 = np.array([1.0, 1.0, 0.995, 0.96])
            M = np.einsum("ai,ri,bi->rab", U, np.stack([np.ones(4), s2], 1), V)
            if sub is diag:
                M = np.array([np.diag(np.diag(m)) for m in M])
                M[:, 0, 0], M[:, 1, 1] = 1.0, s2 * [1.0, -1.0, 1.0, -1.0]
            t = np.concatenate([t, ctx.tcoords(M)])
        cases.append((ctx, g.normal(size=xv.size) * 2.0, 1.0, t))
    return cases


def test_certificate_from_multiplier_coordinates():
    # the gap from the coordinates <M, T_k[:p, :p]> (and tr M as the
    # nuclear norm without a null space) equals f - _dual on the formed
    # multiplier W = U_p M V_p', fed as ADMM feeds _dual; the tied rows
    # use the band fit
    banded = spread = 0
    for ctx, y, n, t in certificate_cases():
        f = ctx._f(t, y)
        W = multiplier(ctx, t, y)
        want = f - dual_of(ctx, W, y, n)
        gap = ctx._cert_gap(t, ctx._query(y), n)
        assert np.all(np.abs(gap - want) <= 1e-12 * np.maximum(1.0, f))
        sig = np.linalg.svd(ctx.mat(t), compute_uv=False)
        banded += np.count_nonzero(sig[:, 1] >= 0.99 * sig[:, 0])
        spread += np.count_nonzero(
            np.abs(W - top_pair_multiplier(ctx, t, y)).max(axis=(1, 2)) > 1e-9)
    assert banded >= 6 and spread >= 1, (banded, spread)


def test_sym_solve_is_pinv():
    # pinv(A) b from the eigenpairs of symmetric A, singular stacks and
    # the masked matrices of the band fit included, against numpy's pinv
    g = np.random.default_rng(9)
    X = g.normal(size=(6, 4, 4))
    A = X + np.swapaxes(X, 1, 2)
    A[3:] = X[3:, :, :2] @ np.swapaxes(X[3:, :, :2], 1, 2)     # rank 2
    mask = np.array([True, False, True, True])
    A[5] *= mask[:, None] & mask[None, :]
    b = g.normal(size=(6, 4))
    want = (np.linalg.pinv(A, rcond=1e-12) @ b[..., None])[..., 0]
    got = sigma1.sym_solve(A, b, 1e-12)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


def dual_of(ctx, W, y, n):
    """_dual at a stack of formed multipliers W, fed as ADMM feeds it."""
    return ctx._dual(*ctx._cut(W), ctx._query(y), n)


def turn(ctx, t, y):
    """(U, Vt, grad, T, M) at each row t of a stack: the SVD of mat(t),
    the gradient of f, T = U'Q_k V and sigma1.multiplier's M."""
    U, s, Vt = np.linalg.svd(ctx.mat(t))
    grad = ctx._grad(t, y)
    T = np.swapaxes(U, 1, 2)[:, None] @ ctx.stack @ np.swapaxes(Vt, 1, 2)[:, None]
    return U, Vt, grad, T, sigma1.multiplier(T, s, grad)[0]


def multiplier(ctx, t, y):
    """The KKT multiplier U_p M V_p' of each row t of a stack, formed."""
    U, Vt, _, _, M = turn(ctx, t, y)
    p = M.shape[-1]
    return U[:, :, :p] @ M @ Vt[:, :p]


def top_pair_multiplier(ctx, t, y):
    """The top pair's multiplier mu u1 v1' of each row t of a stack,
    formed, with mu = max(0, -<grad, g_1> / ||g_1||^2): what the band
    multiplier is outside the band."""
    U, Vt, grad, T, _ = turn(ctx, t, y)
    g = T[:, :, 0, 0]
    top = np.maximum(0.0, -np.sum(grad * g, axis=1) / np.sum(g * g, axis=1))
    return top[:, None, None] * (U[:, :, :1] @ Vt[:, :1])


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
        # random multipliers of every size, the band and single-pair
        # multipliers of the feasible points, and the band multiplier of
        # the level's candidate
        band, single = multiplier(ctx, t, y), top_pair_multiplier(ctx, t, y)
        spread += np.count_nonzero(np.abs(band - single).max(axis=(1, 2)) > 1e-3)
        W = np.concatenate([
            g.normal(size=(64, d, d)) * g.uniform(0.0, 3.0, size=(64, 1, 1)),
            1e-6 * g.normal(size=(8, d, d)), band, single])
        assert dual_of(ctx, W, y, n).max() <= f.min()
        entry = ctx._solve_levels(ctx._query(y), [n], [1e-6]).get(n)
        if entry is not None:
            tn, _, fn, _ = entry
            assert svd_sigma(ctx.mat(tn)) <= n * (1.0 + MEM_TOL)
            assert dual_of(ctx, W, y, n).max() <= fn
            assert dual_of(ctx, multiplier(ctx, tn[None], y), y, n).max() <= fn * (1.0 + 1e-13)
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
    W = np.concatenate([np.zeros((1, 2, 2)), multiplier(ctx, t, y),
                        top_pair_multiplier(ctx, t, y),
                        1e-3 * g.normal(size=(32, 2, 2))])
    bound = dual_of(ctx, W, y, n)
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


def test_context_keeps_nothing_of_a_query():
    # the context holds only its geometry: sweeps, distances, span
    # distances and gauges of new queries leave its attributes as they
    # were (a value-keyed query cache grew here). rand47 has a null
    # coordinate, so the query gauge's search runs too
    basis, x, y = family50_problem(47)
    sub = make_subspace(basis)
    ctx = OrbitBallContext(sub, x)
    assert ctx.null_vecs.shape[1] == 1
    # the first query builds the geometry the solvers read on first use
    locate_distance(sub, x, y, budget=12, tol=1e-6, ctx=ctx)
    before = pickle.dumps(vars(ctx))
    for v in [y] + list(np.random.default_rng(4).normal(size=(3, 2)) * 1.5):
        locate_distance(sub, x, v, budget=12, tol=1e-6, ctx=ctx)
        ctx.distance(v, 2.0, 1e-6)
        ctx.span_distance(v)
        ctx.gauge(ctx.geo.P @ v)
    assert pickle.dumps(vars(ctx)) == before


def test_admm_failure_bracket_is_honest(monkeypatch):
    # wide-draw problem 181 at level 1 needs 662 iterations, 655 of them
    # ADMM; stopped after 100 it must fail with a bracket around the
    # distance
    basis, x, y = wide_draw_problem(181)
    sub = make_subspace(basis)
    d = OrbitBallContext(sub, x).distance(y, 1.0, 1e-6).value
    monkeypatch.setattr(located, "MAX_SOLVER_ITERS", 100)
    ctx = OrbitBallContext(sub, x)
    with pytest.raises(SolverFailure) as info:
        ctx.distance(y, 1.0, 1e-6)
    exc = info.value
    assert exc.iterations == 100
    assert ctx.span_distance(y) <= exc.lower <= d <= exc.upper, (exc.lower, d, exc.upper)
