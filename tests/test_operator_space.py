import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbit_locator import (DependentBasisError, DimensionError,
                           NetTooLargeError, coefficient_box,
                           covering_gap, epsilon_net, make_subspace, op_norm,
                           orbit)
from conftest import svd_sigma


def test_make_subspace_shapes():
    sub = make_subspace([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]])
    assert sub.dim == 2 and sub.k == 2
    with pytest.raises(DimensionError):
        make_subspace([np.eye(2), np.eye(3)])
    with pytest.raises(DimensionError):
        make_subspace([])


def test_make_subspace_rejects_dependence():
    basis = [np.eye(2), np.diag([1.0, -1.0]), np.diag([3.0, 1.0])]
    with pytest.raises(DependentBasisError) as exc:
        make_subspace(basis)
    assert exc.value.index == 2
    # more matrices than the dimension of the matrix space
    with pytest.raises(DependentBasisError) as exc:
        make_subspace([np.eye(1), 2.0 * np.eye(1)])
    assert exc.value.index == 1


def test_make_subspace_rejects_overflowing_basis():
    # entries of 1e200 are finite, but their Frobenius norm is not
    with pytest.raises(DimensionError) as exc:
        make_subspace([np.eye(2), np.full((2, 2), 1e200)])
    assert "basis[1]" in str(exc.value)


def test_ortho_recombination_consistent(rng):
    basis = [rng.normal(size=(3, 3)) for _ in range(4)]
    sub = make_subspace(basis)
    G = np.array([[np.sum(A * B) for B in sub.ortho] for A in sub.ortho])
    assert np.allclose(G, np.eye(4), atol=1e-10)
    c = rng.normal(size=4)
    M1 = sub.matrix(c)
    M2 = sub.ortho_matrix(sub.to_ortho_coeffs(c))
    assert np.allclose(M1, M2, atol=1e-10)
    back = sub.from_ortho_coeffs(sub.to_ortho_coeffs(c))
    assert np.allclose(back, c, atol=1e-10)


def test_orbit_rank_one_on_axis(diag_sub):
    geo = orbit(diag_sub, [1.0, 0.0])
    assert geo.rank == 1
    assert np.allclose(geo.P, np.diag([1.0, 0.0]), atol=1e-12)


def test_orbit_block_projector(ptp):
    sub, x, P_expected = ptp
    geo = orbit(sub, x)
    assert geo.rank == 2
    assert np.allclose(geo.P, P_expected, atol=1e-10)
    for B in sub.basis:
        bx = B @ x
        assert np.linalg.norm(geo.P @ bx - bx) <= 1e-10


def test_op_norm_diag_formula(diag_sub):
    assert abs(op_norm(diag_sub, [0.5, -0.7]) - 0.7) <= 1e-12


def test_op_norm_matches_svd(rng):
    basis = [rng.normal(size=(3, 3)) for _ in range(3)]
    sub = make_subspace(basis)
    for _ in range(20):
        c = rng.normal(size=3)
        assert abs(op_norm(sub, c) - svd_sigma(sub.matrix(c))) <= 1e-9


def test_coefficient_box_bounds(diag_sub, rng):
    box = coefficient_box(diag_sub, 2.0)
    assert np.allclose(box, [2.0, 2.0], atol=1e-12)
    # every coefficient vector of a norm-n operator sits inside the box
    basis = [rng.normal(size=(2, 2)) for _ in range(3)]
    sub = make_subspace(basis)
    box = coefficient_box(sub, 1.5)
    for _ in range(50):
        c = rng.normal(size=3)
        sigma = svd_sigma(sub.matrix(c))
        c_scaled = c * (1.5 / sigma)
        assert np.all(np.abs(c_scaled) <= box * (1.0 + 1e-9))


def test_epsilon_net_covers(diag_sub):
    x = np.array([1.0, 0.1])
    net = epsilon_net(diag_sub, x, 1.0, eps=0.1)
    arr = np.asarray(net)
    # members of the level-1 ball image: the box [-1,1] x [-0.1,0.1]
    assert np.all(np.abs(arr[:, 0]) <= 1.0 + 1e-9)
    assert np.all(np.abs(arr[:, 1]) <= 0.1 + 1e-9)
    assert covering_gap(diag_sub, x, 1.0, net) <= 0.1


def test_covering_gap_memory_is_bounded(diag_sub):
    # 2048 samples against a 20449-point net: comparing them all at once
    # takes about 1 GB, the tiled comparison a few MB
    x = np.array([1.0, 0.5])
    net = epsilon_net(diag_sub, x, 1.0, eps=0.02)
    assert len(net) > 20_000
    tracemalloc.start()
    try:
        gap = covering_gap(diag_sub, x, 1.0, net, samples=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak
    assert 0.0 < gap <= 0.02


def test_epsilon_net_cap():
    sub = make_subspace([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    with pytest.raises(NetTooLargeError) as exc:
        epsilon_net(sub, [1.0, 1.0], 1.0, eps=1e-5, cap=10_000)
    assert exc.value.required_size > 10_000


def test_epsilon_net_zero_image():
    sub = make_subspace([np.array([[0.0, 1.0], [0.0, 0.0]])])
    net = epsilon_net(sub, [1.0, 0.0], 1.0, eps=0.1)
    assert len(net) == 1 and np.allclose(net[0], 0.0)


def test_epsilon_net_tiny_ball(diag_sub):
    # n * ||x|| below eps: the singleton {0} is already a cover
    net = epsilon_net(diag_sub, [0.01, 0.0], 1.0, eps=0.5)
    assert len(net) == 1 and np.allclose(net[0], 0.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_diag_norm_law_property(a, b):
    sub = make_subspace([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert abs(op_norm(sub, [a, b]) - max(abs(a), abs(b))) <= 1e-9
