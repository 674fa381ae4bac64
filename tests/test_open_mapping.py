from fractions import Fraction

import numpy as np
import pytest

from orbit_locator import (DEFAULT_C_VALUES, DimensionError,
                           DistanceResult, LocatedSet, Member,
                           OrbitBallContext, Witness, diag_subspace,
                           euclidean_ball, greedy_decompose, inner_radius,
                           linear_image_ball, make_subspace, open_map_radius,
                           orbit_ball, truncation_index)
from orbit_locator import open_mapping as om
from orbit_locator.open_mapping import Undecided as DeadBand
from conftest import (matrix_units, quaternion_left, stretched_null_problem,
                      svd_sigma, svd_values)


def unit_disc():
    return euclidean_ball(np.zeros(2), 1.0)


def segment():
    # the interval [-1,1] embedded on the first axis of the plane
    return linear_image_ball(np.array([[1.0], [0.0]]), 1.0)


def test_decompose_disc_member():
    dec = greedy_decompose([0.3, 0.1], unit_disc(), 1.0)
    assert isinstance(dec.outcome, Member)
    assert np.linalg.norm(dec.outcome.xi - [0.3, 0.1]) <= 1e-7
    # residuals halve step by step
    for step in dec.steps:
        assert step.residual <= 2.0 ** -step.i + 1e-8


def test_decompose_needs_strict_inclusion():
    with pytest.raises(DimensionError):
        greedy_decompose([1.0, 0.0], unit_disc(), 1.0)
    with pytest.raises(DimensionError):
        greedy_decompose([0.1, 0.0], unit_disc(), 1.0, max_steps=0)
    # an infinite radius would make the Member target, 2^-max_steps r, vacuous
    for r in (np.inf, np.nan):
        with pytest.raises(DimensionError):
            greedy_decompose([5.0, 7.0], unit_disc(), r)


def test_decompose_segment_witness():
    dec = greedy_decompose([0.1, 0.15], segment(), 0.5)
    assert isinstance(dec.outcome, Witness)
    assert abs(dec.outcome.dist_z - 0.3) <= 1e-9
    assert np.linalg.norm(dec.outcome.z) < 0.5
    assert dec.steps[-1].lam == 1


def test_decompose_dead_band():
    # an oracle whose distances are right but whose points are off by a
    # fixed sideways shift: doubling the offset overshoots the radius
    # while the distance gives no witness, so the run must stop undecided
    def loc(y, tol):
        y = np.asarray(y, dtype=float)
        ny = float(np.linalg.norm(y))
        d = max(0.0, ny - 1.0)
        near = y if ny <= 1.0 else y / ny
        return DistanceResult(d, near + np.array([0.0, 0.8]), None,
                              0.0, 0, "sloppy")

    S = LocatedSet(2, loc, None, description="sloppy disc")
    dec = greedy_decompose([0.2, 0.0], S, 1.0)
    assert isinstance(dec.outcome, DeadBand)


def test_decompose_orbit_ball(diag_sub):
    ball = orbit_ball(diag_sub, np.array([1.0, 0.5]), 1.0)
    dec = greedy_decompose([0.4, 0.1], ball, 0.5)
    assert isinstance(dec.outcome, Member)
    xi = dec.outcome.xi
    assert float(ball.gauge(xi)) <= 2.0 + 1e-6
    assert np.linalg.norm(xi - [0.4, 0.1]) <= 1e-6


_SPAN_SHAPES = ((2, 1, 1), (3, 1, 1), (4, 1, 1), (3, 2, 1),
                (2, 2, 2), (3, 2, 2), (4, 2, 2), (2, 3, 2))


def span_problem(i):
    """(basis, x, y, r) of problem i of the span corpus (generator seed
    1729, shapes (dim, k, orbit rank), unscaled): operators past the orbit
    rank send x into the span of the first images, so the orbit map has a
    null space, and the target is y = 0.9 r along B_0 x with r the least
    nonzero singular value of Phi, a floor on the inner radius."""
    g = np.random.default_rng(1729)
    for dim, k, rank in _SPAN_SHAPES[:i + 1]:
        x = g.normal(size=dim)
        basis = [g.normal(size=(dim, dim)) for _ in range(k)]
        kill_x = np.eye(dim) - np.outer(x, x) / float(x @ x)
        for j in range(rank, k):
            mix = g.normal(size=rank)
            basis[j] = (sum(a * basis[b] for b, a in enumerate(mix))
                        + g.normal(size=(dim, dim)) @ kill_x)
    sv = np.linalg.svd(OrbitBallContext(make_subspace(basis), x).Phi,
                       compute_uv=False)
    r = float(sv[sv > 1e-10 * sv[0]][-1])
    w = basis[0] @ x
    return basis, x, 0.9 * r * w / float(np.linalg.norm(w)), r


def _member_checks(dec, C, max_steps=40, tol=1e-9):
    assert isinstance(dec.outcome, Member)
    xi = dec.outcome.xi
    assert np.linalg.norm(dec.y - xi) <= 2.0 ** -max_steps * dec.r + 4.0 * tol
    assert C.gauge(xi) <= 2.0 + 1e-9


@pytest.mark.parametrize("case", ["disc", "diag", "span03", "span07"])
def test_exact_oracles_decompose_in_one_step(case):
    # an exact oracle returns u itself for every u inside C, so the first
    # residual is rounding and already meets the full run's target
    if case == "disc":
        C, y, r = unit_disc(), np.array([0.3, 0.1]), 1.0
    elif case == "diag":
        C = orbit_ball(make_subspace([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
                       np.array([1.0, 0.5]), 1.0)
        y, r = np.array([0.4, 0.1]), 0.5
    else:
        basis, x, y, r = span_problem(int(case[4:]))
        C = orbit_ball(make_subspace(basis), x, 1.0)
    dec = greedy_decompose(y, C, r)
    assert len(dec.steps) == 1 and dec.steps[0].lam == 0
    _member_checks(dec, C)


def test_inexact_oracle_runs_to_its_target():
    # a disc oracle whose point for u falls short of u by 1e-6 along u:
    # every continuation leaves a running vector of norm 2e-6, so the
    # residual 2^(1-i) 1e-6 reaches 2^-40 + 4e-9 at step 9, not step 1
    def loc(y, tol):
        y = np.asarray(y, dtype=float)
        ny = float(np.linalg.norm(y))
        near = y * max(0.0, 1.0 - 1e-6 / ny) if ny > 0.0 else y
        if ny > 1.0:
            near = y / ny
        return DistanceResult(max(0.0, ny - 1.0), near, None, 0.0, 0, "short")

    disc = unit_disc()
    S = LocatedSet(2, loc, disc.gauges)
    dec = greedy_decompose([0.3, 0.1], S, 1.0)
    assert len(dec.steps) == 9
    for step in dec.steps:
        assert step.residual <= 2.0 ** -step.i + 4e-9
    _member_checks(dec, S)


def test_inner_radius_boxes(diag_sub):
    e = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for c in (0.4, 1.0, 2.5):
        ball = linear_image_ball(np.diag([1.0, c]), 1.0)
        rr = inner_radius(ball, e)
        assert abs(rr.r - min(1.0, c)) <= 2e-6
        assert rr.method == "circle-scan"


@pytest.mark.parametrize("m, method", [(1, "axis"), (2, "circle-scan"),
                                       (3, "sphere-scan"), (4, "sphere-scan"),
                                       (9, "sphere-scan")])
def test_inner_radius_rotated_ellipsoid(m, method):
    # a rotated ellipsoid cut by a random m-dimensional span W: the worst
    # direction falls inside a cell, never on a centre the search starts
    # from, and the exact gauge lets the floor be held to the true radius.
    # At m = 9 every cell of the first split is wider than a quarter
    # sphere, so only the subadditivity bound keeps the floor above 0
    rng = np.random.default_rng(100 + m)
    for _ in range(3):
        T = rng.normal(size=(m + 1, m + 1))
        W = rng.normal(size=(m + 1, m))
        ball = linear_image_ball(T, 1.0)
        rr = inner_radius(ball, list(W.T))
        BW = np.linalg.qr(W)[0]
        r_true = 1.0 / svd_sigma(np.linalg.solve(T, BW))
        assert abs(rr.r - r_true) <= 1e-9 * r_true, (rr.r, r_true)
        assert 0.0 < rr.floor <= r_true <= rr.r * (1.0 + 1e-12), (rr.floor, r_true, rr.r)
        assert rr.method == method


@pytest.mark.parametrize("m", range(2, 10))
def test_ellipsoid_floor_from_the_ceiling(m):
    # the ellipsoid's exact gauge ceiling holds the floor to the true radius
    # at every rank, where the search's own floor falls to a third of it
    # by m = 9; the estimate r may miss the maximiser, the floor may not
    rng = np.random.default_rng(100 + m)
    for _ in range(3):
        T = rng.normal(size=(m + 1, m + 1))
        W = rng.normal(size=(m + 1, m))
        rr = inner_radius(linear_image_ball(T, 1.0), list(W.T))
        r_true = 1.0 / svd_sigma(np.linalg.solve(T, np.linalg.qr(W)[0]))
        assert r_true * (1.0 - 1e-6) <= rr.floor <= r_true, (rr.floor, r_true)
        assert r_true <= rr.r * (1.0 + 1e-12)


def _flat_orbit_ball(basis, x):
    return orbit_ball(make_subspace(basis), x, 1.0), float(np.linalg.norm(x))


@pytest.mark.parametrize("ball, r", [
    # the complex multiplication disk: span{I, J}, sigma1 = |a + ib|
    _flat_orbit_ball([np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])],
                     np.array([0.6, -0.8])),
    _flat_orbit_ball(quaternion_left(), np.array([0.5, -0.1, 0.7, 0.2])),
    # the full algebra M_2: the orbit map has a two-dimensional kernel
    _flat_orbit_ball(matrix_units(2), np.array([0.3, 1.1])),
    # Euclidean balls at ranks where splitting every side of a cell at
    # once would gauge 2^(m-1) children per cell
    (euclidean_ball(np.zeros(12), 1.0), 1.0),
    (euclidean_ball(np.zeros(16), 1.0), 1.0),
], ids=["complex", "quaternion", "M2", "ball12", "ball16"])
def test_inner_radius_flat_gauge(ball, r):
    # the gauge is |v| / r on every direction, so no cell is ever pruned
    # by its value: only the width ends the search, and the cap on the
    # cells split per round, each into 16 children, is what bounds its cost.
    # The radius asks the gauge oracle only, never the distance oracle
    rows = []

    def gauges(V):
        rows.append(len(V))
        return ball.gauges(V)

    m = ball.ambient_dim
    counted = LocatedSet(m, None, gauges)
    rr = inner_radius(counted, list(np.eye(m)))
    assert abs(rr.r - r) <= 1e-9 * r, (rr.r, r)
    assert 0.0 < rr.floor <= r
    assert rows[0] == m and len(rows) > 2
    assert max(rows) <= 16 * max(4, m), rows


def counting(S):
    """S with its gauge ceiling and slack, whose gauge_on functions record
    the rows of every call: one call per branch-and-bound round."""
    rows = []

    def gauge_on(B):
        gauge, ceiling, slack = S.gauge_on(B)

        def counted(U):
            rows.append(len(U))
            return gauge(U)
        return counted, ceiling, slack

    return LocatedSet(S.ambient_dim, None, S.gauges, gauge_on=gauge_on), rows


@pytest.mark.parametrize("ball, r, exact", [
    _flat_orbit_ball([np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])],
                     np.array([0.6, -0.8])) + (False,),
    _flat_orbit_ball(quaternion_left(), np.array([0.5, -0.1, 0.7, 0.2]))
    + (False,),
    _flat_orbit_ball(matrix_units(2), np.array([0.3, 1.1])) + (True,),
    _flat_orbit_ball(matrix_units(3), np.array([0.6, -0.3, 0.9])) + (True,),
], ids=["complex", "quaternion", "M2", "M3"])
def test_flat_orbit_balls_with_their_ceiling(ball, r, exact):
    # the floor stays at most the radius with the one-eigenvalue ceiling in
    # play. On M_2 and M_3 the least-norm generators are v x'/|x|^2, so
    # the ceiling is the flat value 1/r, also with their null spaces, and
    # the first round (the axes) reaches it: one gauge call, and a floor
    # within rounding of r. On the complex and quaternion balls the
    # generators are orthogonal matrices over |x|, so the ceiling is
    # sqrt(m)/|x| and the search runs its course
    counted, rows = counting(ball)
    m = ball.ambient_dim
    rr = inner_radius(counted, list(np.eye(m)))
    assert abs(rr.r - r) <= 1e-9 * r, (rr.r, r)
    assert 0.0 < rr.floor <= r, (rr.floor, r)
    assert counted.gauge_on(np.eye(m))[1] * r == pytest.approx(
        1.0 if exact else np.sqrt(m), rel=1e-12)
    if exact:
        assert rows == [m]
        assert rr.floor >= r * (1.0 - 1e-12), (rr.floor, r)
    else:
        assert len(rows) > 2


def test_floor_covers_a_maximiser_the_search_drops():
    # the gauge max_k |<a_k, u>| of a polygon: five a_k of norm 1 - 1e-6
    # sit on the centres of second-round cells of the face {u_1 = 1}, and
    # the longest, of norm 1, on the edge between two cells there. Those
    # two cells rank below the five, so the cap drops them and the search
    # never sees the maximiser: the floor must come from their bound. The
    # polygon has no distance oracle, which the radius never asks
    def unit(t):
        return np.array([1.0, t]) / np.hypot(1.0, t)

    A = np.array([(1.0 - 1e-6) * unit(t) for t in (1 / 16, 3 / 16, 5 / 16,
                                                    7 / 16, 9 / 16)]
                 + [unit(12 / 16)])
    gauge = lambda V: np.abs(V @ A.T).max(axis=1)
    rr = inner_radius(LocatedSet(2, None, gauge), list(np.eye(2)))
    assert 1.0 / rr.r == pytest.approx(1.0 - 1e-6, rel=1e-12)
    assert 1.0 < 1.0 / rr.floor < 1.01
    # a ceiling 1.001, above the largest gauge 1: no round reaches it, so
    # the search runs as before (the slack 0 of an exact gauge) and its
    # floor is 1 over the smaller of the ceiling and the dropped cells' bound
    capped = inner_radius(LocatedSet(2, None, gauge, gauge_on=lambda B: (
        lambda U: gauge(U @ B.T), 1.001, 0.0)), list(np.eye(2)))
    assert capped.r == rr.r and np.array_equal(capped.direction, rr.direction)
    assert capped.floor == 1.0 / 1.001


# r of the demo family's unit orbit balls, by |c|: the double nearest the
# true radius |c| (the normal-equation preimage missed 0.1 and 0.001 by an
# ulp, 0x1.999999999999bp-4 and 0x1.0624dd2f1a9fbp-10)
_DEMO_R = {0.0: "0x0.0p+0", 1.0: "0x1.0000000000000p+0",
           0.5: "0x1.0000000000000p-1", 0.1: "0x1.999999999999ap-4",
           0.01: "0x1.47ae147ae147bp-7", 0.001: "0x1.0624dd2f1a9fcp-10"}
_DEMO_N = {1.0: 3, 0.5: 5, 0.1: 21, 0.01: 201, 0.001: 2001}


@pytest.mark.parametrize("c", DEFAULT_C_VALUES)
def test_demo_radius_is_one_round(c):
    # on the demo family the ceiling equals the largest gauge, on an axis,
    # so each radius is one gauge_on round (c = 0 stops on the infinite
    # gauge of the second axis); r is the pinned double and N keeps its value
    ball = orbit_ball(diag_subspace(), np.array([1.0, c]), 1.0)
    counted, rows = counting(ball)
    rr = inner_radius(counted, list(np.eye(2)))
    assert rows == [2]
    assert rr.r == float.fromhex(_DEMO_R[abs(c)])
    if c != 0.0:
        assert rr.floor <= rr.r
        assert truncation_index(np.array([0.0, 1.0]), rr.floor) == _DEMO_N[abs(c)]


def _body(kind, m):
    """An orbit ball (dim 3, k 3: the orbit span is R^3) or an ellipsoid
    (T of size m + 1) with a random m-dimensional W inside its span."""
    rng = np.random.default_rng(40 + m)
    if kind == "orbit ball":
        basis = [rng.normal(size=(3, 3)) for _ in range(3)]
        S = orbit_ball(make_subspace(basis), rng.normal(size=3), 1.0)
    else:
        S = linear_image_ball(rng.normal(size=(m + 1, m + 1)), 1.0)
    return S, rng.normal(size=(S.ambient_dim, m))


@pytest.mark.parametrize("kind", ["orbit ball", "ellipsoid"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_inner_radius_asks_gauge_on_once(kind, m):
    # the radius asks the body one question, gauge_on(W's basis), at every
    # rank, the line included, and no gauge outside the function it returns
    S, W = _body(kind, m)
    asked = []

    def gauges(V):
        asked.append("gauges")
        return S.gauges(V)

    def gauge_on(B):
        asked.append("gauge_on")
        return S.gauge_on(B)

    spy = LocatedSet(S.ambient_dim, None, gauges, gauge_on=gauge_on)
    rr = inner_radius(spy, list(W.T))
    assert asked == ["gauge_on"]
    assert rr.method == {1: "axis", 2: "circle-scan", 3: "sphere-scan"}[m]
    plain = inner_radius(S, list(W.T))
    assert (rr.r, rr.floor) == (plain.r, plain.floor)
    assert 0.0 < rr.floor <= rr.r


def _rotated_line(kappa):
    # the 1-axis ellipsoid T = Q1 diag(1, 1/kappa) Q2' cut by a random line
    rng = np.random.default_rng(7)
    Q1, Q2 = (np.linalg.qr(rng.normal(size=(2, 2)))[0] for _ in range(2))
    T = Q1 @ np.diag([1.0, 1.0 / kappa]) @ Q2.T
    w = rng.normal(size=2)
    w /= np.linalg.norm(w)
    return linear_image_ball(T, 1.0), w, 1.0 / np.linalg.norm(np.linalg.solve(T, w))


@pytest.mark.parametrize("line", ["stretched", "ellipsoid"])
def test_line_floor_carries_the_margin(line):
    # a line whose ceiling is not within 1 + 1e-9 of its gauge g: the
    # stretched orbit ball (ceiling 43.2, sigma1 of the least-norm
    # preimage, against g = 20) and an ellipsoid with kappa = 1e6, whose
    # eps kappa rounding margin is about 1.6e-8. Its floor is at most
    # 1 / (g (1 + 1e-9)), not 1 / g = r, which rounding in the gauge can
    # leave above the true radius (the SVD gauge was off by 1.3e-10
    # relative at kappa = 1e6); one ulp covers the rounding of the product
    if line == "stretched":
        sub, x = stretched_null_problem()
        S, w = orbit_ball(sub, x, 1.0), np.eye(12)[11]
        r_true = 0.05
    else:
        S, w, r_true = _rotated_line(1e6)
    g = S.gauge(w)
    assert S.gauge_on(w[:, None])[1] > g * (1.0 + 1e-9)
    rr = inner_radius(S, [w])
    assert rr.method == "axis" and rr.r == 1.0 / g
    eps = np.finfo(float).eps
    assert rr.floor * g <= (1.0 + eps) / (1.0 + 1e-9), rr.floor * g
    assert rr.floor <= r_true, (rr.floor, r_true)


def _conditioned_line(seed, kappa=1e8):
    """T = Q1 diag(1, 1/kappa) Q2' with Q1, Q2 from the QR of
    default_rng(seed) normals, and a unit normal draw w."""
    rng = np.random.default_rng(seed)
    Q1, Q2 = (np.linalg.qr(rng.normal(size=(2, 2)))[0] for _ in range(2))
    w = rng.normal(size=2)
    return Q1 @ np.diag([1.0, 1.0 / kappa]) @ Q2.T, w / np.linalg.norm(w)


def _exact_solve(M, w):
    """M^-1 w for a 2 x 2 M in rationals, from the doubles as given."""
    (a, b), (c, d) = [[Fraction(float(v)) for v in row] for row in M]
    p, q = (Fraction(float(v)) for v in w)
    det = a * d - b * c
    return [(d * p - b * q) / det, (a * q - c * p) / det]


def test_ellipsoid_line_floor_holds_at_kappa_1e8():
    # the ellipsoid line of _conditioned_line: 1 / |T^-1 w| is the exact
    # radius, and floor^2 |T^-1 w|^2 <= 1 in rationals. The gauge's
    # rounding slack carries it: with the bare 1 + 1e-9 margin seeds 1 and
    # 8 came out 2.4e-9 and 1.7e-9 above
    for seed in range(40):
        T, w = _conditioned_line(seed)
        rr = inner_radius(linear_image_ball(T, 1.0), [w])
        u = _exact_solve(T, w)
        below = Fraction(rr.floor) ** 2 * (u[0] ** 2 + u[1] ** 2) <= 1
        assert below, seed
        assert rr.floor <= rr.r


def _orbit_line_basis(seed, kappa=1e8):
    """x = e_1 and two Frobenius-orthonormal operators whose first columns
    are those of Phi = T / 2 for the T of _conditioned_line, so
    kappa(Phi) = kappa and the orbit span is the plane; with the unit w."""
    T, w = _conditioned_line(seed, kappa)
    Phi = 0.5 * T
    lam, Z = np.linalg.eigh(np.eye(2) - Phi.T @ Phi)
    A = (Z * np.sqrt(lam)) @ Z.T
    return [np.column_stack([Phi[:, j], A[:, j]]) for j in range(2)], w


def _floor_below_line_radius(basis, w, floor):
    """Whether floor <= 1 / g(w) in rationals, for x = e_1 and a basis of
    two operators: the exact gauge of w is sigma1 of the one
    M = c_1 B_1 + c_2 B_2 with M x = w, so the test is
    floor^2 lmax(M'M) <= 1, that is floor^2 (trace + sqrt(trace^2 - 4 det)) / 2 <= 1."""
    c = _exact_solve(np.column_stack([B[:, 0] for B in basis]), w)
    M = [[c[0] * Fraction(float(basis[0][i, j])) + c[1] * Fraction(float(basis[1][i, j]))
          for j in range(2)] for i in range(2)]
    G = [[M[0][i] * M[0][j] + M[1][i] * M[1][j] for j in range(2)] for i in range(2)]
    trace, det = G[0][0] + G[1][1], G[0][0] * G[1][1] - G[0][1] ** 2
    room = 2 / Fraction(floor) ** 2 - trace
    return room >= 0 and trace ** 2 - 4 * det <= room ** 2


def test_orbit_line_floor_holds_at_kappa_1e8():
    # the same line on an orbit ball, with kappa(Phi) = 1e8. Without the
    # generators' slack 20 of the 40 floors came out above, by up to 5e-8
    for seed in range(40):
        basis, w = _orbit_line_basis(seed)
        rr = inner_radius(orbit_ball(make_subspace(basis), np.eye(2)[0], 1.0), [w])
        assert _floor_below_line_radius(basis, w, rr.floor), seed
        assert rr.floor <= rr.r


@pytest.mark.parametrize("s", [2e-4, 2e-6, 2e-8])
def test_orbit_line_floor_holds_on_an_ill_conditioned_basis(s):
    # the line of an orthogonal Phi, spanned by B_1 and B_1 + s B_2: the
    # basis is not Frobenius-orthonormal and has kappa about 2 / s, up to
    # 1e8, so the QR frame of make_subspace is off from the span by about
    # eps / s. Without the frame's rounding in the slack 17 to 22 of the
    # 40 floors came out above, by up to 3e-12, 3e-10 and 6e-8
    for seed in range(40):
        (B1, B2), w = _orbit_line_basis(seed, kappa=1.0)
        basis = [B1, B1 + s * B2]
        rr = inner_radius(orbit_ball(make_subspace(basis), np.eye(2)[0], 1.0), [w])
        assert _floor_below_line_radius(basis, w, rr.floor), seed
        assert rr.floor <= rr.r


def test_cell_templates_are_shared_and_read_only():
    # a round's child offsets and sides are built once per (m, round) and
    # shared by every search: read-only, and no search leaves state in
    # them, so two searches give bit-identical results in either order
    kids, h = om._children(3, 1)
    assert om._children(3, 1)[0] is kids
    assert not kids.flags.writeable and not h.flags.writeable
    with pytest.raises(ValueError):
        kids[0, 0, 0] = 1.0
    rng = np.random.default_rng(21)
    bodies = []
    for dim in (3, 4):
        sub = make_subspace([rng.normal(size=(dim, dim)) for _ in range(3)])
        ctx = OrbitBallContext(sub, rng.normal(size=dim))
        bodies.append((orbit_ball(sub, ctx.x, 1.0, ctx=ctx), ctx.geo.U[:, :3]))

    def run(order):
        om._children.cache_clear()
        return [om._branch_and_bound(*bodies[i]) for i in order]

    forward, backward = run([0, 1]), run([1, 0])[::-1]
    assert om._children.cache_info().currsize > 1   # both split cells
    for (g1, w1, top1), (g2, w2, top2) in zip(forward, backward):
        assert g1 == g2 and top1 == top2 and np.array_equal(w1, w2)


def test_inner_radius_segment_ambient_vs_span():
    e = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    rr = inner_radius(segment(), e)
    assert rr.r == 0.0 and rr.method == "unbounded-gauge"
    rr_span = inner_radius(segment(), [np.array([1.0, 0.0])])
    assert abs(rr_span.r - 1.0) <= 2e-6
    assert rr_span.method == "axis"


def test_inner_radius_off_the_orbit_span():
    # the demo at c = 0: the orbit span of x = (1, 0) is the first axis,
    # so the ambient plane's second axis has no preimage. The compiled
    # gauge falls back to the per-row span test and the radius collapses
    ball = orbit_ball(make_subspace([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
                      np.array([1.0, 0.0]), 1.0)
    U = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    assert np.array_equal(ball.gauge_on(np.eye(2))[0](U), [1.0, np.inf, np.inf])
    rr = inner_radius(ball, list(np.eye(2)))
    assert rr.method == "unbounded-gauge"
    assert rr.r == 0.0 and rr.floor == 0.0


def test_inner_radius_sphere_scan():
    ball = linear_image_ball(np.diag([1.0, 0.7, 0.4]), 1.0)
    e = [np.eye(3)[i] for i in range(3)]
    rr = inner_radius(ball, e)
    assert abs(rr.r - 0.4) <= 5e-4
    assert rr.method == "sphere-scan"


def test_inner_radius_rejects_wrong_length(diag_sub):
    ball = orbit_ball(diag_sub, np.array([1.0, 0.5]), 1.0)
    with pytest.raises(DimensionError):
        inner_radius(ball, [np.array([1.0, 0.0, 0.0])])


def test_inner_radius_deterministic(diag_sub):
    e = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    ball = orbit_ball(diag_sub, np.array([1.0, 0.3]), 1.0)
    r1 = inner_radius(ball, e)
    r2 = inner_radius(ball, e)
    assert r1.r == r2.r
    assert np.array_equal(r1.direction, r2.direction)


def test_open_map_radius_diag():
    res = open_map_radius(np.diag([2.0, 0.5]))
    assert abs(res.r - 0.5) <= 1e-9
    assert res.method == "sigma-min"
    res_id = open_map_radius(np.eye(3))
    assert abs(res_id.r - 1.0) <= 1e-9


def test_open_map_radius_random(rng):
    for _ in range(5):
        d = int(rng.integers(2, 5))
        Q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
        Q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
        sig = np.sort(rng.uniform(0.2, 3.0, size=d))[::-1]
        T = Q1 @ np.diag(sig) @ Q2.T
        res = open_map_radius(T)
        assert abs(res.r - sig[-1]) / sig[-1] <= 0.02


def test_open_map_radius_small_sigma():
    # T = U diag(1, 0.3, s) V': sigma_min comes from an SVD of T, accurate
    # to about eps relative to sigma_1; through the eigenvalues of T T' it
    # carried an error of order eps / s and could refuse T as not onto
    for s in (1e-6, 1e-8):
        for seed in range(20):
            g = np.random.default_rng(seed)
            U = np.linalg.qr(g.normal(size=(3, 3)))[0]
            V = np.linalg.qr(g.normal(size=(3, 3)))[0]
            res = open_map_radius(U @ np.diag([1.0, 0.3, s]) @ V.T)
            assert abs(res.r - s) <= 1e-7 * s, (s, seed, res.r)
            assert res.floor == res.r
            assert abs(abs(res.direction @ U[:, 2]) - 1.0) <= 1e-6


def test_open_map_radius_rectangular(rng):
    T = np.array([[1.0, 0.0, 0.5], [0.0, 2.0, 0.0]])
    res = open_map_radius(T)
    want = float(svd_values(T)[-1])
    assert abs(res.r - want) <= 1e-8


def test_open_map_radius_rank_deficient():
    with pytest.raises(DimensionError) as exc:
        open_map_radius(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert "row rank" in str(exc.value)
    with pytest.raises(DimensionError):
        open_map_radius(np.zeros((3, 2)))  # more rows than columns
