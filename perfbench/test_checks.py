"""Each check of the benchmark accepts a right answer and rejects a
deliberately wrong one. Run with ``python3 -m pytest perfbench``."""

import math

import numpy as np
import pytest

import checks

TOL = 1e-6


@pytest.fixture
def problem():
    rng = np.random.default_rng(5)
    basis = [rng.normal(size=(3, 3)) for _ in range(2)]
    x = rng.normal(size=3)
    y = rng.normal(size=3)
    P, rank = checks.orbit_projector(basis, x)
    return basis, x, y, P, rank


def diag_family(c):
    return [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], np.array([1.0, c])


def test_projector_reference_is_a_projector(problem):
    basis, x, _, P, rank = problem
    assert rank == 2
    assert np.allclose(P @ P, P) and np.allclose(P, P.T)
    for B in basis:
        assert np.allclose(P @ (B @ x), B @ x)


def test_perturbed_projector_is_rejected(problem):
    _, _, _, P, rank = problem
    checks.check_projector(P, rank, P, rank)
    with pytest.raises(checks.CheckError):
        checks.check_projector(P + 1e-6 * np.eye(3), rank, P, rank)
    with pytest.raises(checks.CheckError):
        checks.check_projector(P, rank + 1, P, rank)


def test_distance_off_by_1e4_is_rejected(problem):
    _, _, y, P, _ = problem
    ref = checks.orbit_distance(P, y)
    for kind in ("Located", "Stabilized"):
        checks.check_verdict({"kind": kind, "d": ref}, ref, TOL)
        with pytest.raises(checks.CheckError):
            checks.check_verdict({"kind": kind, "d": ref + 1e-4}, ref, TOL)
    checks.check_probes([(y, ref)], P, TOL)
    with pytest.raises(checks.CheckError):
        checks.check_probes([(y, ref - 1e-4)], P, TOL)


def test_wrong_verdict_bracket_is_rejected(problem):
    _, _, y, P, _ = problem
    ref = checks.orbit_distance(P, y)
    checks.check_verdict({"kind": "Undecided", "lower": 0.0, "upper": ref + 0.5}, ref, TOL)
    with pytest.raises(checks.CheckError):
        checks.check_verdict({"kind": "Undecided", "lower": ref + 0.1, "upper": ref + 0.2},
                             ref, TOL)
    checks.check_failure_bracket(ref, ref + 1e-3, ref)
    with pytest.raises(checks.CheckError):
        checks.check_failure_bracket(ref - 0.2, ref - 0.1, ref)


def test_bad_level_sequence_is_rejected():
    checks.check_levels([2.0, 1.5, 1.5], 1.5, TOL)
    with pytest.raises(checks.CheckError):
        checks.check_levels([2.0, 1.5, 1.6], 1.5, TOL)
    with pytest.raises(checks.CheckError):
        checks.check_levels([2.0, 1.4], 1.5, TOL)


def test_wrong_demo_n_is_rejected():
    rows = [{"c": 0.0, "r": 0.0, "N": None, "d": 1.0},
            {"c": 0.1, "r": 0.1, "N": 21, "d": 0.0},
            {"c": -0.001, "r": 0.001, "N": 2001, "d": 0.0}]
    checks.check_demo_rows(rows, TOL)
    for change in ({"N": 20}, {"d": 1e-4}, {"r": 0.11}):
        bad = [dict(rows[0]), {**rows[1], **change}, dict(rows[2])]
        with pytest.raises(checks.CheckError):
            checks.check_demo_rows(bad, TOL)
    with pytest.raises(checks.CheckError):
        checks.check_demo_rows([{**rows[0], "N": 1}], TOL)


def test_decomposition_that_does_not_halve_is_rejected(problem):
    basis, x, _, P, _ = problem
    r = 1.0
    y = 0.9 * r * (basis[0] @ x) / np.linalg.norm(basis[0] @ x)
    steps = [2.0 * y] + [np.zeros(3)] * 5
    checks.check_decomposition(y, r, steps, "Member", P, 10.0)
    with pytest.raises(checks.CheckError):
        checks.check_decomposition(y, r, [np.zeros(3)] + steps[1:], "Member", P, 10.0)
    with pytest.raises(checks.CheckError):
        checks.check_decomposition(y, r, steps, "Witness", P, 10.0)
    off_span = np.cross(basis[0] @ x, basis[1] @ x)
    with pytest.raises(checks.CheckError):
        checks.check_decomposition(y, r, [2.0 * y + 1e-3 * off_span] + steps[1:],
                                   "Member", P, 10.0)


def test_ball_point_off_the_operator_is_rejected(problem):
    basis, x, y, P, _ = problem
    c = np.array([0.3, -0.2])
    M = c[0] * basis[0] + c[1] * basis[1]
    n = float(np.linalg.svd(M, compute_uv=False)[0])
    point = M @ x
    good = {"coeffs": c, "point": point, "d": float(np.linalg.norm(y - point))}
    ref = checks.orbit_distance(P, y)
    checks.check_ball_point(good, basis, x, y, n, TOL, ref)
    with pytest.raises(checks.CheckError):
        checks.check_ball_point({**good, "point": point + 1e-4}, basis, x, y, n, TOL, ref)
    with pytest.raises(checks.CheckError):
        checks.check_ball_point(good, basis, x, y, 0.99 * n, TOL, ref)
    with pytest.raises(checks.CheckError):
        checks.check_ball_point({**good, "d": good["d"] + 1e-4}, basis, x, y, n, TOL, ref)


def test_wrong_omt_radius_is_rejected():
    T = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.5], [0.3, 0.0, 1.0]])
    U, s, _ = np.linalg.svd(T)
    checks.check_omt(s[-1], U[:, -1], T)
    with pytest.raises(checks.CheckError):
        checks.check_omt(s[-1] * (1 + 1e-6), U[:, -1], T)
    with pytest.raises(checks.CheckError):
        checks.check_omt(s[-1], U[:, 0], T)


@pytest.mark.parametrize("c", [1.0, 0.5, -0.1])
def test_radius_references_on_the_diagonal_family(c):
    # the unit orbit ball is the box [-1, 1] x [-|c|, |c|]: inner radius |c|
    basis, x = diag_family(c)
    lo, hi = checks.inner_radius_bracket(basis, x)
    assert lo <= abs(c) <= hi
    assert hi - lo <= 1e-6 * abs(c)
    assert checks.inner_radius_floor(basis, x) <= abs(c) * (1 + 1e-12)
    checks.check_radius_bracket(abs(c), (lo, hi), TOL)
    with pytest.raises(checks.CheckError):
        checks.check_radius_bracket(abs(c) * (1 + 1e-4), (lo, hi), TOL)
    with pytest.raises(checks.CheckError):
        checks.check_radius_bracket(abs(c) * (1 - 1e-4), (lo, hi), TOL)


def test_rank3_scan_brackets_a_random_radius():
    rng = np.random.default_rng(11)
    basis = [rng.normal(size=(3, 3)) for _ in range(3)]
    x = rng.normal(size=3)
    lo, hi = checks.inner_radius_bracket(basis, x)
    assert 0 < lo <= hi and (hi - lo) / hi < 1e-4
    floor = checks.inner_radius_floor(basis, x)
    assert floor <= hi * (1 + 1e-12)
    with pytest.raises(checks.CheckError):
        checks.check_radius_floor(0.999 * floor, floor)


def test_radius_below_the_preimage_bound_is_rejected():
    basis, x = diag_family(0.5)
    w = np.array([0.0, 1.0])
    # gauge of (0, 1) is 1/|c| = 2, so the radius along it is at most 0.5
    assert math.isclose(checks.preimage_sigma(basis, x, w), 2.0)
    checks.check_radius_direction(0.5, w, basis, x)
    with pytest.raises(checks.CheckError):
        checks.check_radius_direction(0.4, w, basis, x)
