"""One test per acceptance criterion, each at its stated tolerance and
time budget, each ending in a single printed PASS line (pytest -v adds
its own verdict per test). Criteria 4, 5 and 8 share one batch of 50
instances built in a module fixture."""

import time
from collections import Counter

import numpy as np
import pytest

from orbit_locator import (GridOracleRefusal, Located, Member,
                           OrbitBallContext, Stabilized, Undecided, Witness,
                           ball_distance, cauchy_bound, demo_table,
                           diag_subspace, euclidean_ball, greedy_decompose,
                           grid_oracle_distance, linear_image_ball,
                           locate_distance, make_subspace,
                           metric_complement_distance, op_norm, orbit,
                           orbit_ball, open_map_radius, pipeline_distance)
from conftest import MEM_TOL, family50_draw, svd_sigma


def _diag():
    return diag_subspace()


@pytest.fixture(scope="module")
def family50():
    """The 20 diagonal-family and 30 random-basis instances of the family50
    draw with their level sweeps (budget 12, tol 1e-6), plus the wall time
    spent building them."""
    t0 = time.perf_counter()
    instances = [(make_subspace(basis), x, y) for basis, x, y in family50_draw()]
    reports = [locate_distance(sub, x, y, budget=12, tol=1e-6)
               for (sub, x, y) in instances]
    elapsed = time.perf_counter() - t0
    return instances, reports, elapsed


def test_criterion_01_demo_ground_truth():
    t0 = time.perf_counter()
    rows = {row.c: row for row in demo_table()}
    elapsed = time.perf_counter() - t0
    assert abs(rows[0.0].d - 1.0) <= 1e-6
    for c in (1.0, -1.0, 0.1, -0.1, 0.01, -0.01):
        assert abs(rows[c].d) <= 1e-6, (c, rows[c].d)
    assert elapsed < 10.0, f"demo took {elapsed:.1f}s"
    print(f"\n[criterion 1] demo ground truth (d=1 at c=0, d=0 off it, "
          f"{elapsed:.2f}s): PASS")


def test_criterion_02_norm_law():
    t0 = time.perf_counter()
    sub = _diag()
    rng = np.random.default_rng(99)
    ab = rng.uniform(-5.0, 5.0, size=(1000, 2))
    worst = max(abs(op_norm(sub, c) - max(abs(c[0]), abs(c[1])))
                for c in ab)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, worst
    assert elapsed < 5.0, f"norm law took {elapsed:.1f}s"
    print(f"\n[criterion 2] operator norm law on 1000 samples "
          f"(worst {worst:.2e}, {elapsed:.2f}s): PASS")


def test_criterion_03_truncation_bound():
    sub = _diag()
    x = np.array([1.0, 0.1])
    y = np.array([0.0, 1.0])
    d, N = pipeline_distance(sub, x, y)
    assert N == 21
    P = orbit(sub, x).P
    want = float(np.linalg.norm(y - P @ y))
    d21 = ball_distance(sub, x, 21.0, y, tol=1e-7).value
    assert abs(d21 - want) <= 1e-6
    d26 = ball_distance(sub, x, 26.0, y, tol=1e-7).value
    assert abs(d26 - want) <= 2e-6
    print(f"\n[criterion 3] truncation N=21, ball distance 0 at 21 and 26: PASS")


def test_criterion_04_cauchy_certificate(family50):
    instances, reports, build_s = family50
    t0 = time.perf_counter()
    tol = 1e-6
    checked = 0
    for report in reports:
        levels = report.levels
        for j in range(len(levels)):
            for i in range(j):
                a, b = levels[i], levels[j]  # b.n > a.n
                gap = float(np.linalg.norm(b.y - a.y)) ** 2
                bound = cauchy_bound(b.d, a.d, b.n, a.n, slack=4.0 * tol)
                assert gap <= bound + 4.0 * tol, (a.n, b.n, gap, bound)
                checked += 1
    elapsed = build_s + (time.perf_counter() - t0)
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"
    print(f"\n[criterion 4] parallelogram certificate on {checked} level "
          f"pairs across 50 instances ({elapsed:.1f}s): PASS")


def test_criterion_05_verdicts_match_projection(family50):
    instances, reports, _ = family50
    settled = 0
    for (sub, x, y), report in zip(instances, reports):
        ds = [lv.d for lv in report.levels]
        for a, b in zip(ds, ds[1:]):
            assert b <= a + 2e-6, (a, b)
        v = report.verdict
        if isinstance(v, (Located, Stabilized)):
            P = orbit(sub, x).P
            want = float(np.linalg.norm(y - P @ y))
            assert abs(v.d - want) <= 3e-6, (v.d, want)
            settled += 1
    assert settled >= 40  # the sweep settles the vast majority
    print(f"\n[criterion 5] {settled}/50 verdicts match the projection "
          f"distance within 3e-6, levels nonincreasing: PASS")


def test_criterion_05_family50_verdicts_pinned(family50):
    instances, reports, _ = family50
    kinds = Counter(type(report.verdict).__name__ for report in reports)
    assert kinds == {"Stabilized": 43, "Undecided": 7}, kinds
    # every certified level witness is in its ball by the dilation oracle;
    # a level solved alone on the sweep's context, which keeps nothing of
    # the query, is within 1e-12 of the sweep's answer
    checked = 0
    for (sub, x, y), report in zip(instances, reports):
        ctx = OrbitBallContext(sub, x)
        again = locate_distance(sub, x, y, budget=12, tol=1e-6, ctx=ctx)
        assert [lv.d for lv in again.levels] == [lv.d for lv in report.levels]
        for level in again.levels:
            res = ctx.distance(y, float(level.n),
                               tol=min(1e-6, 2.0 ** -(level.n + 2)))
            assert np.abs(res.point - level.y).max() <= 1e-12, level.n
            if res.method == "certified":
                sigma = svd_sigma(sub.matrix(res.coeffs))
                assert sigma <= level.n * (1.0 + MEM_TOL), (level.n, sigma)
                checked += 1
    print(f"\n[criterion 5] family50: 43 Stabilized, 7 Undecided, "
          f"{checked} certified level witnesses feasible: PASS")


def test_table_route_matches_distance_per_level(family50):
    # on a context that ran the sweep, each level's (d, point) read by
    # distances is the sweep's, and ctx.distance for that level, like a
    # fresh context that solves the level alone, is within 1e-12 of it
    instances, reports, _ = family50
    count = 0
    for (sub, x, y), report in zip(instances, reports):
        ctx = OrbitBallContext(sub, x)
        locate_distance(sub, x, y, budget=12, tol=1e-6, ctx=ctx)
        ns = [level.n for level in report.levels]
        tols = [min(1e-6, 2.0 ** -(n + 2)) for n in ns]
        for level, tol, (d, point, *_, method) in zip(report.levels, tols,
                                                       ctx.distances(y, ns, tols)):
            assert d == level.d and np.array_equal(point, level.y)
            res = ctx.distance(y, level.n, tol)
            alone = OrbitBallContext(sub, x).distance(y, level.n, tol)
            assert alone.method == res.method == method
            for got in (res, alone):
                assert abs(got.value - d) <= 1e-12, (level.n, got.value, d)
                assert np.abs(got.point - point).max() <= 1e-12
            count += 1
    assert count == 225


def test_criterion_05_undecided_bracket(family50):
    # an Undecided verdict brackets the distance between the span lower
    # bound ||y - Py|| and the budget level's distance
    instances, reports, _ = family50
    sub, x, y = instances[37]
    v = reports[37].verdict
    assert sub.dim == 2 and sub.k == 1
    assert isinstance(v, Undecided), v
    assert v.lower == OrbitBallContext(sub, x).span_distance(y)
    assert abs(v.lower - 1.65013) <= 1e-5 and abs(v.upper - 1.66025) <= 1e-5
    undecided = 0
    for (sub, x, y), report in zip(instances, reports):
        v = report.verdict
        if isinstance(v, Undecided):
            P = orbit(sub, x).P
            want = float(np.linalg.norm(y - P @ y))
            assert v.lower <= want + 1e-12 and want <= v.upper, (v.lower, want, v.upper)
            undecided += 1
    assert undecided == 7
    print(f"\n[criterion 5] family50: {undecided} Undecided brackets "
          f"hold the projection distance: PASS")


def test_full_rank_undecided_lower_is_zero(family50):
    # where the orbit span is the whole space the distance to the orbit
    # closure is 0, and the bracket's lower end is 0, not the rounding
    # residue ||y - Py|| of a computed P = U U' (problems 20, 27 and 38
    # reported 5.98e-16, 9.9e-16 and 2.0e-16); the upper end, d_12, does
    # not move
    instances, reports, _ = family50
    uppers = {20: 0.09668981584610711, 27: 0.1935786925403116,
              38: 0.33135627095863757}
    full = [i for i, (sub, x, _) in enumerate(instances)
            if isinstance(reports[i].verdict, Undecided)
            and OrbitBallContext(sub, x).rank == sub.dim]
    assert set(uppers) <= set(full)
    for i in full:
        assert reports[i].verdict.lower == 0.0, (i, reports[i].verdict.lower)
    for i, upper in uppers.items():
        v = reports[i].verdict
        assert v.upper == pytest.approx(upper, rel=1e-12), (i, v.upper)


def test_criterion_06_open_map_radius():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(30):
        d = int(rng.integers(2, 5))
        Q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
        Q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
        smin = float(rng.uniform(0.05, 1.0))
        cond = float(rng.uniform(1.0, 50.0))
        sig = np.sort(rng.uniform(smin, smin * cond, size=d))[::-1]
        sig[-1] = smin
        T = Q1 @ np.diag(sig) @ Q2.T
        res = open_map_radius(T)
        worst = max(worst, abs(res.r - smin) / smin)
    elapsed = time.perf_counter() - t0
    assert worst <= 0.02, worst
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    print(f"\n[criterion 6] open-mapping radius vs known sigma_min on 30 "
          f"maps (worst rel err {worst:.2e}, {elapsed:.1f}s): PASS")


def test_criterion_07_greedy_decomposition():
    oracle_tol = 1e-9
    runs = [
        (np.array([0.3, 0.1]), euclidean_ball(np.zeros(2), 1.0), 1.0),
        (np.array([0.6, 0.0]), euclidean_ball(np.zeros(2), 1.0), 1.0),
        (np.array([0.4, 0.1]),
         orbit_ball(_diag(), np.array([1.0, 0.5]), 1.0), 0.5),
    ]
    for y, C, r in runs:
        dec = greedy_decompose(y, C, r, tol=oracle_tol)
        assert isinstance(dec.outcome, Member)
        for step in dec.steps:
            assert step.residual <= 2.0 ** -step.i * r + 2.0 * oracle_tol
        assert float(C.gauge(dec.outcome.xi)) <= 2.0 + 1e-6
    seg = linear_image_ball(np.array([[1.0], [0.0]]), 1.0)
    dec = greedy_decompose(np.array([0.1, 0.15]), seg, 0.5, tol=oracle_tol)
    assert isinstance(dec.outcome, Witness)
    assert dec.outcome.dist_z >= 0.29
    assert float(np.linalg.norm(dec.outcome.z)) < 0.5
    print("\n[criterion 7] member runs halve residuals with gauge <= 2; "
          "segment run yields a witness: PASS")


def test_criterion_08_projector_algebra(family50):
    instances, _, _ = family50
    extra_sub = make_subspace([np.eye(2)])
    cases = [(sub, x) for (sub, x, _) in instances]
    cases.append((extra_sub, np.array([0.6, 0.8])))
    for sub, x in cases:
        P = orbit(sub, x).P
        assert np.linalg.norm(P @ P - P) <= 1e-10
        assert np.linalg.norm(P - P.T) <= 1e-10
        for B in sub.basis:
            bx = B @ x
            assert np.linalg.norm(P @ bx - bx) <= 1e-10
    print(f"\n[criterion 8] P^2=P, P^T=P, P B_i x = B_i x on "
          f"{len(cases)} instances: PASS")


def test_criterion_09_metric_complement_identity(ptp):
    sub, x, _ = ptp
    got = metric_complement_distance(sub, x)
    assert abs(got - 1.0) <= 1e-6
    for c in (0.25, 0.6, 1.0):
        dsub = _diag()
        got_c = metric_complement_distance(dsub, [1.0, c])
        assert abs(got_c - min(1.0, c)) <= 1e-6, (c, got_c)
    print("\n[criterion 9] metric complement distance = ||Px|| on the "
          "block instance and min(1,|c|) on the diagonal family: PASS")


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(1010)
    sub_d = _diag()
    cases = []
    for c, n in [(0.1, 1.0), (0.5, 2.0), (1.0, 0.7), (0.3, 1.5)]:
        cases.append((sub_d, np.array([1.0, c]), float(n), 0.03))
    while len(cases) < 20:
        k = int(rng.integers(1, 4))
        basis = [rng.normal(size=(2, 2)) for _ in range(k)]
        sub = make_subspace(basis)
        x = rng.normal(size=2)
        n = float(rng.uniform(0.6, 1.6))
        cases.append((sub, x, n, 0.15 if k == 3 else 0.05))
    checked = 0
    for sub, x, n, eps in cases:
        y = rng.normal(size=sub.dim) * 1.4
        d = ball_distance(sub, x, n, y, tol=1e-6).value
        bracket = None
        # an ill-conditioned basis inflates the coefficient box; coarsen
        # until the enumeration fits (the bracket stays rigorous)
        for scale in (1.0, 2.0, 4.0, 8.0):
            try:
                bracket = grid_oracle_distance(sub, x, n, y, eps=eps * scale)
                break
            except GridOracleRefusal:
                continue
        assert bracket is not None, "grid refused even the coarsest mesh"
        lo, hi = bracket
        assert lo - 1e-3 <= d <= hi + 1e-3, (lo, d, hi)
        checked += 1
    assert checked == 20
    print("\n[criterion 10] solver distance inside the enumeration "
          "bracket on 20 instances: PASS")
