import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbit_locator import (RANK_TOL, DimensionError, Located,
                           OrbitBallContext, OrbitLocatorError, SolverFailure,
                           Stabilized, Undecided, cauchy_bound, locate_distance,
                           make_subspace, orbit, strict_excess, tail_bound)


def test_cauchy_bound_frozen_values():
    # hand-checked: equal levels m = n = 3, d = 1:
    # 2((1+1/8)^2 - 1) + 2((1+1/8)^2 - 1) = 4*(0.265625) = 1.0625
    assert abs(cauchy_bound(1.0, 1.0, 3, 3) - 1.0625) <= 1e-15
    # mixed levels m=10 > n=5 with d_m=0.5, d_n=1
    assert abs(cauchy_bound(0.5, 1.0, 10, 5) - 1.6289081573486328) <= 1e-15


def test_cauchy_bound_rejects_bad_order():
    with pytest.raises(DimensionError):
        cauchy_bound(1.0, 1.0, 2, 5)
    with pytest.raises(DimensionError):
        # distances must be nonincreasing in the level
        cauchy_bound(2.0, 1.0, 5, 2)


def test_tail_bound_values():
    assert abs(tail_bound(3, 1.0) - 3.0625) <= 1e-15
    # at d_N = 0 the bound is 4^(1-N)
    assert abs(tail_bound(10, 0.0) - 4.0 ** -9) <= 1e-20
    assert tail_bound(30, 0.0) < 1e-12


def test_strict_excess():
    y = np.array([0.0, 1.0])
    y_inf = np.array([0.0, 0.0])
    v = np.array([2.0, 1.0])
    # consistent: claimed d = 1 to the limit point, v at distance 2
    exc = strict_excess(1.0, y_inf, v, y)
    assert abs(exc - 3.0) <= 1e-12
    # inconsistent claim: d = 1.4 leaves too little excess for a point
    # 2 away from the limit
    with pytest.raises(OrbitLocatorError):
        strict_excess(1.4, y_inf, v, y)


def test_sweep_stabilizes_on_diag(diag_sub):
    x = np.array([1.0, 0.1])
    y = np.array([0.0, 1.0])
    report = locate_distance(diag_sub, x, y, budget=12, tol=1e-6)
    assert isinstance(report.verdict, Stabilized)
    assert report.verdict.N == 10
    assert abs(report.verdict.d) <= 1e-6
    assert len(report.levels) == 10
    for lv in report.levels:
        assert abs(lv.d - max(0.0, 1.0 - 0.1 * lv.n)) <= 2.0 ** -lv.n + 1e-6


def test_sweep_locates_at_loose_tol(diag_sub):
    # at c = 0.095 no level reaches the distance 0 before the Cauchy test
    # settles it: level 11 is Located
    x = np.array([1.0, 0.095])
    y = np.array([0.0, 1.0])
    report = locate_distance(diag_sub, x, y, budget=12, tol=1e-3)
    assert isinstance(report.verdict, Located)
    assert len(report.levels) == 11
    assert report.verdict.d <= 2e-3
    assert np.linalg.norm(report.verdict.y_inf - y) <= 5e-3
    # at c = 0.1 level 10 reaches y itself, and the span lower bound 0
    # certifies it before the Cauchy test can
    report = locate_distance(diag_sub, np.array([1.0, 0.1]), y,
                             budget=12, tol=1e-3)
    assert isinstance(report.verdict, Stabilized)
    assert report.verdict.N == 10 and len(report.levels) == 10
    assert abs(report.verdict.d) <= 1e-3


def test_sweep_undecided_within_budget(diag_sub):
    x = np.array([1.0, 0.1])
    y = np.array([0.0, 1.0])
    report = locate_distance(diag_sub, x, y, budget=5, tol=1e-6)
    v = report.verdict
    assert isinstance(v, Undecided)
    assert v.budget == 5 and v.lower == 0.0
    assert abs(v.upper - 0.5) <= 1e-6


@pytest.mark.parametrize("c,budget", [(0.01, 1073), (0.01, 60), (0.001, 200)])
def test_sweep_stops_before_levels_finer_than_rounding(diag_sub, c, budget):
    # x = (1, c), y = (0, 1): d_n = 1 - c n. The level tolerance 2^-(n+2)
    # underflowed to 0 at n = 1073, and budget 60 (c = 0.01) and 200
    # (c = 0.001) ran ADMM out of iterations at levels 52 and 61. The sweep
    # reads level n only while 2^-(n+2) >= eps (||y|| + 4 sqrt(2) n
    # sigma1(Phi)), here sigma1(Phi) = 1, and brackets the distance by the
    # last level read
    y = np.array([0.0, 1.0])
    report = locate_distance(diag_sub, np.array([1.0, c]), y, budget=budget, tol=1e-6)
    v = report.verdict
    assert isinstance(v, Undecided), v
    N = len(report.levels)
    eps = np.finfo(float).eps
    assert 2.0 ** -(N + 2) >= eps * (1.0 + 4.0 * np.sqrt(2.0) * N)
    assert 2.0 ** -(N + 3) < eps * (1.0 + 4.0 * np.sqrt(2.0) * (N + 1))
    assert v.budget == N == 42
    assert v.lower == 0.0 and v.upper == report.levels[-1].d
    assert abs(v.upper - (1.0 - c * N)) <= 2.0 ** -(N + 2)


def test_sweep_reads_no_level_below_rounding(diag_sub):
    # a tolerance below the rounding of level 1's certificate reads no
    # level: the bracket is [lower bound, ||y||], ||y|| the distance to the
    # level-0 ball {0}
    report = locate_distance(diag_sub, [1.0, 0.1], [0.0, 2.0], budget=12, tol=1e-17)
    v = report.verdict
    assert report.levels == () and report.cauchy_bounds == ()
    assert isinstance(v, Undecided) and (v.budget, v.lower, v.upper) == (0, 0.0, 2.0)


def test_located_implies_stabilized(diag_sub):
    # x = (1, 0.1), y = (0, 2.05): Py = y lies in the level-21 ball, so d_21
    # = 0 and the sweep ends Located there; the Stabilized test holds at the
    # same level
    x, y = np.array([1.0, 0.1]), np.array([0.0, 2.05])
    report = locate_distance(diag_sub, x, y, budget=30, tol=1e-6)
    v = report.verdict
    assert isinstance(v, Located) and len(report.levels) == 21 and v.d == 0.0
    N, d = report.levels[-1].n, report.levels[-1].d
    lb = OrbitBallContext(diag_sub, x).lower_bound(y)
    assert d - lb <= 1e-6 + min(1e-6, 2.0 ** -(N + 2))
    # tail_bound(N, d) >= 2 d^2, so the Located test forces d <= tol / sqrt(2)
    # (up to one rounding of tail_bound) and with it the Stabilized test,
    # whatever the lower bound lb >= 0
    eps = np.finfo(float).eps
    for tol in np.logspace(-15, 1, 33):
        edge = tol / np.sqrt(2.0)
        ds = np.concatenate([[0.0], np.logspace(-14, 1, 61) * tol,
                             edge * (1.0 + np.arange(-8, 9) * eps)])
        for N in range(1, 80):
            for d in ds:
                if tail_bound(N, d) <= tol * tol:
                    assert d <= edge * (1.0 + 2.0 * eps) and d <= tol, (N, d, tol)


def test_lower_bound_checks_y_in_every_case(diag_sub):
    # the sweep's lower bound: ||y - Py|| at a clear rank below full, 0 at a
    # marginal rank (5e-10 sits a factor 2 below the rank cut) and at full
    # rank; a bad y is refused in all three
    y = np.array([0.3, -0.4])
    for x, want in [([1.0, 0.0], 0.4), ([1.0, 5e-10], 0.0), ([1.0, 0.1], 0.0)]:
        ctx = OrbitBallContext(diag_sub, x)
        assert ctx.lower_bound(y) == want
        for bad in ([0.3, np.nan], [0.3, -0.4, 0.0]):
            with pytest.raises(DimensionError):
                ctx.lower_bound(bad)


def test_stabilized_needs_the_span_lower_bound(diag_sub):
    # x = (1, 1e-8): the orbit span is the whole plane, so the distance from
    # y = (0, 1) is 0, while the level distances 1 - 1e-8 n barely move;
    # near-equal levels must not settle the sweep
    y = np.array([0.0, 1.0])
    report = locate_distance(diag_sub, np.array([1.0, 1e-8]), y, budget=12)
    v = report.verdict
    assert isinstance(v, Undecided), v
    assert v.lower == 0.0 and abs(v.upper - (1.0 - 12e-8)) <= 1e-6
    # x = (1, 0): the span is the first axis and d_1 = ||y - Py|| = 1
    report = locate_distance(diag_sub, np.array([1.0, 0.0]), y, budget=12)
    assert isinstance(report.verdict, Stabilized)
    assert report.verdict.N == 1 and abs(report.verdict.d - 1.0) <= 1e-6


def test_stabilized_at_a_marginal_rank(diag_sub, monkeypatch):
    # x = (1, 5e-10): the singular value 5e-10 of Phi falls a factor 2
    # below the rank cut, so the span is taken to be the first axis and
    # ||y - Py|| = 1 = d_1, but in exact arithmetic the distance is 0; a
    # marginal rank leaves only the lower bound 0, which still certifies
    # a distance near 0
    x = np.array([1.0, 5e-10])
    ctx = OrbitBallContext(diag_sub, x)
    assert ctx.rank == 1 and 1.0 < ctx.rank_margin() <= 100.0
    report = locate_distance(diag_sub, x, np.array([0.0, 1.0]), budget=12)
    assert isinstance(report.verdict, Undecided), report.verdict
    report = locate_distance(diag_sub, x, np.array([0.5, 0.0]), budget=12)
    assert isinstance(report.verdict, Stabilized)
    assert report.verdict.d <= 1e-6
    assert abs(OrbitBallContext(diag_sub, [1.0, 1e-8]).rank_margin() - 10.0) <= 1e-9
    assert OrbitBallContext(diag_sub, [1.0, 1e-6]).rank_margin() > 100.0
    assert OrbitBallContext(diag_sub, [1.0, 0.0]).rank_margin() > 1e8
    assert OrbitBallContext(diag_sub, [0.0, 0.0]).rank_margin() == np.inf
    # the margin comes from the singular values the context stored: the
    # same number, with no SVD per call
    contexts = [OrbitBallContext(diag_sub, v) for v in
                ([1.0, 5e-10], [1.0, 1e-8], [1.0, 1e-6], [1.0, 0.0], [0.0, 0.0])]
    sv = [np.linalg.svd(c.Phi)[1] for c in contexts]

    def banned(*args, **kwargs):
        raise AssertionError("rank_margin makes no SVD")

    monkeypatch.setattr(np.linalg, "svd", banned)
    for c, s in zip(contexts, sv):
        assert np.array_equal(c.geo.sv, s)
        cut = RANK_TOL * s[0]
        with np.errstate(divide="ignore"):
            want = np.inf if cut == 0.0 else float(np.min(np.maximum(s / cut, cut / s)))
        assert c.rank_margin() == want


def test_report_certificates_hold(diag_sub):
    x = np.array([1.0, 0.1])
    y = np.array([0.0, 1.0])
    report = locate_distance(diag_sub, x, y, budget=8, tol=1e-6)
    levels = report.levels
    # adjacent pairs, then the extreme pair
    pairs = list(zip(levels, levels[1:]))
    if len(levels) >= 3:
        pairs.append((levels[0], levels[-1]))
    assert len(report.cauchy_bounds) == len(pairs)
    for (a, b), bound in zip(pairs, report.cauchy_bounds):
        gap = float(np.linalg.norm(b.y - a.y)) ** 2
        assert gap <= bound + 4e-6, (a.n, b.n, gap, bound)


def test_verdict_matches_projection(diag_sub, ptp):
    y = np.array([0.0, 1.0])
    rep = locate_distance(diag_sub, np.array([1.0, 0.0]), y, budget=6, tol=1e-6)
    assert isinstance(rep.verdict, Stabilized)
    assert abs(rep.verdict.d - 1.0) <= 1e-9
    sub, x, _ = ptp
    geo = orbit(sub, x)
    target = np.array([0.1, -0.2, 0.7])
    rep2 = locate_distance(sub, x, target, budget=8, tol=1e-6)
    want = float(np.linalg.norm(target - geo.P @ target))
    assert abs(rep2.verdict.d - want) <= 3e-6


def test_solver_failure_carries_partial(diag_sub, monkeypatch):
    # level 3, a boundary level, is left open after the lockstep search
    # and its ADMM fails: levels 1 and 2 are the partial report
    x = np.array([1.0, 0.1])
    y = np.array([0.0, 1.0])
    solve = OrbitBallContext._solve_levels

    def open_level_3(self, q, ns, tols):
        table = solve(self, q, ns, tols)
        t, iters, f, _ = table[3.0]
        table[3.0] = (t, iters, f, np.inf)
        return table

    def stalled(self, q, n, tol, t, f, iters):
        raise SolverFailure("stalled", lower=0.1, upper=0.9, iterations=7)

    monkeypatch.setattr(OrbitBallContext, "_solve_levels", open_level_3)
    monkeypatch.setattr(OrbitBallContext, "_admm", stalled)
    with pytest.raises(SolverFailure) as exc:
        locate_distance(diag_sub, x, y, budget=12, tol=1e-6)
    partial = exc.value.partial
    assert partial is not None
    assert len(partial.levels) == 2
    assert exc.value.lower == 0.1 and exc.value.upper == 0.9


def test_open_levels_run_admm_in_level_order_up_to_the_verdict(diag_sub, monkeypatch):
    # every boundary level (1-10, as gauge(Py) = 10) is left open after the
    # lockstep search: ADMM closes them one at a time, in level order, as
    # the sweep reaches them, and the sweep stops at its verdict, level 7,
    # so the open levels 8-10 never run it
    x = np.array([1.0, 0.1])
    y = np.array([0.0, 1.0])
    want = locate_distance(diag_sub, x, y, budget=12, tol=0.3)
    solve, admm = OrbitBallContext._solve_levels, OrbitBallContext._admm
    tabled, ran = [], []

    def all_open(self, q, ns, tols):
        table = solve(self, q, ns, tols)
        tabled.extend(sorted(table))
        return {n: (t, iters, f, np.inf) for n, (t, iters, f, _) in table.items()}

    def counted(self, q, n, tol, t, f, iters):
        ran.append(n)
        return admm(self, q, n, tol, t, f, iters)

    monkeypatch.setattr(OrbitBallContext, "_solve_levels", all_open)
    monkeypatch.setattr(OrbitBallContext, "_admm", counted)
    report = locate_distance(diag_sub, x, y, budget=12, tol=0.3)
    assert tabled == [float(n) for n in range(1, 11)]
    assert ran == [float(n) for n in range(1, 8)]
    for rep in (want, report):
        assert isinstance(rep.verdict, Stabilized) and rep.verdict.N == 7
        assert len(rep.levels) == 7
    for level, ref in zip(report.levels, want.levels):
        assert abs(level.d - ref.d) <= 2.0 ** -(level.n + 2), (level.n, level.d, ref.d)


def test_input_validation(diag_sub):
    with pytest.raises(DimensionError):
        locate_distance(diag_sub, [1.0, 0.0], [0.0, 1.0], budget=0)
    # a numpy integer is a budget like an int
    assert len(locate_distance(diag_sub, [1.0, 0.1], [0.0, 1.0], budget=np.int64(2)).levels) == 2
    with pytest.raises(DimensionError):
        locate_distance(diag_sub, [1.0, 0.0], [0.0, 1.0], tol=0.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_sweep_rejects_nan_and_inf_tol(diag_sub, tol, monkeypatch):
    # a NaN tolerance closes no gap and an infinite one closes every gap:
    # both are refused before the sweep solves a level
    monkeypatch.setattr(OrbitBallContext, "_solve_levels", None)
    with pytest.raises(DimensionError, match="tol must be positive and finite"):
        locate_distance(diag_sub, [1.0, 0.1], [0.0, 1.0], tol=tol)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(0.0, 2.0),
       st.integers(1, 20), st.integers(1, 20))
def test_cauchy_bound_nonnegative_property(dm, dn, m, n):
    if m < n or dm > dn:
        return
    assert cauchy_bound(dm, dn, m, n) >= 0.0
