import numpy as np
import pytest

from orbit_locator import (DimensionError, DistanceResult, LocatedSet,
                           Member, Witness, euclidean_ball, greedy_decompose,
                           inner_radius, linear_image_ball, make_subspace,
                           open_map_radius, orbit_ball)
from orbit_locator.open_mapping import Undecided as DeadBand
from conftest import svd_sigma, svd_values


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
    assert float(ball.gauge(xi, 1e-10)) <= 2.0 + 1e-6
    assert np.linalg.norm(xi - [0.4, 0.1]) <= 1e-6


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


def _quaternion_left():
    # left multiplication by 1, i, j, k on the quaternions R^4
    def L(a, b, c, d):
        return np.array([[a, -b, -c, -d], [b, a, -d, c],
                         [c, d, a, -b], [d, -c, b, a]], dtype=float)
    return [L(1, 0, 0, 0), L(0, 1, 0, 0), L(0, 0, 1, 0), L(0, 0, 0, 1)]


def _matrix_units(d):
    out = []
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d))
            E[i, j] = 1.0
            out.append(E)
    return out


def _flat_orbit_ball(basis, x):
    return orbit_ball(make_subspace(basis), x, 1.0), float(np.linalg.norm(x))


@pytest.mark.parametrize("ball, r", [
    # the complex multiplication disk: span{I, J}, sigma1 = |a + ib|
    _flat_orbit_ball([np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])],
                     np.array([0.6, -0.8])),
    _flat_orbit_ball(_quaternion_left(), np.array([0.5, -0.1, 0.7, 0.2])),
    # the full algebra M_2: the orbit map has a two-dimensional kernel
    _flat_orbit_ball(_matrix_units(2), np.array([0.3, 1.1])),
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

    def gauges(V, tol):
        rows.append(len(V))
        return ball.gauges(V, tol)

    m = ball.ambient_dim
    counted = LocatedSet(m, None, gauges)
    rr = inner_radius(counted, list(np.eye(m)))
    assert abs(rr.r - r) <= 1e-9 * r, (rr.r, r)
    assert 0.0 < rr.floor <= r
    assert rows[0] == m and len(rows) > 2
    assert max(rows) <= 16 * max(4, m), rows


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
    polygon = LocatedSet(2, None, lambda V, tol: np.abs(V @ A.T).max(axis=1))
    rr = inner_radius(polygon, list(np.eye(2)))
    assert 1.0 / rr.r == pytest.approx(1.0 - 1e-6, rel=1e-12)
    assert 1.0 < 1.0 / rr.floor < 1.01


def test_inner_radius_segment_ambient_vs_span():
    e = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    rr = inner_radius(segment(), e)
    assert rr.r == 0.0 and rr.method == "unbounded-gauge"
    rr_span = inner_radius(segment(), [np.array([1.0, 0.0])])
    assert abs(rr_span.r - 1.0) <= 2e-6
    assert rr_span.method == "axis"


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
