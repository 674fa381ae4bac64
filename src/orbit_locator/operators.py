"""Finite-dimensional operator subspaces, their orbits through a point, and
finite nets of the images of scaled operator-norm balls.

A subspace is spanned by k linearly independent matrices B_1..B_k. The orbit
of x is {M x : M in the span}; the scaled ball at level n keeps only
operators with spectral norm at most n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .defaults import NET_CAP, RANK_TOL
from .errors import DependentBasisError, DimensionError, NetTooLargeError


@dataclass(frozen=True, eq=False)  # cached_property needs an instance __dict__
class OperatorSubspace:
    """Span of k independent operators on R^dim.

    ortho is a Frobenius-orthonormal re-combination of the basis and
    upper_tri the change of basis: basis coefficients c relate to ortho
    coefficients via c_ortho = upper_tri @ c.
    """

    basis: tuple[np.ndarray, ...]
    dim: int
    k: int
    ortho: tuple[np.ndarray, ...]
    upper_tri: np.ndarray

    def matrix(self, coeffs) -> np.ndarray:
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.k,):
            raise DimensionError(f"expected {self.k} coefficients, got shape {c.shape}")
        return np.einsum("k,kij->ij", c, np.stack(self.basis))

    def ortho_matrix(self, coeffs) -> np.ndarray:
        c = np.asarray(coeffs, dtype=float)
        return np.einsum("k,kij->ij", c, self.ortho_stack)

    @functools.cached_property
    def ortho_stack(self) -> np.ndarray:
        """The Frobenius-orthonormal basis as one read-only (k, dim, dim)
        array, stacked once per subspace."""
        stack = np.stack(self.ortho)
        stack.flags.writeable = False
        return stack

    @functools.cached_property
    def frame_error(self) -> float:
        """A first-order bound e_Q on the distance of the computed ortho
        frame from a frame of the exact span of the basis: some matrices
        Q''_l of the span have sum_l ||ortho_l - Q''_l||_F^2 <= e_Q^2.
        make_subspace takes the frame from the Householder QR of the
        flattened basis B (d^2 x k), which is backward stable column by
        column (Higham, Accuracy and Stability of Numerical Algorithms,
        2nd ed., Thm 19.4 and (19.13)): with gamma = d^2 k eps, B + dB = Q'R
        for a Q' with orthonormal columns within sqrt(k) gamma of the
        computed frame in Frobenius norm, and |dB_j| <= gamma |B_j|. So
        Q'' = B R^-1, which lies in the span, is within
        ||dB D^-1||_F ||D R^-1|| <= sqrt(k) gamma / s_min(R D^-1) of Q',
        with D the column norms of B (those of R), and
        e_Q = sqrt(k) gamma (1 + 1 / s_min(R D^-1)). It grows with the
        condition of the column-scaled basis."""
        R = self.upper_tri
        gamma = self.dim ** 2 * self.k * np.finfo(float).eps
        s_min = np.linalg.svd(R / np.linalg.norm(R, axis=0), compute_uv=False)[-1]
        return float(np.sqrt(self.k) * gamma * (1.0 + 1.0 / s_min))

    def to_ortho_coeffs(self, coeffs) -> np.ndarray:
        return self.upper_tri @ np.asarray(coeffs, dtype=float)

    def from_ortho_coeffs(self, coeffs) -> np.ndarray:
        return np.linalg.solve(self.upper_tri, np.asarray(coeffs, dtype=float))


class OrbitGeometry(NamedTuple):
    """Orbit data of a subspace through x: the orthogonal projector P onto
    the span W of the basis images and the rank, all from the full SVD
    U diag(sv) Vt of Phi = [Q_k x], the images of the Frobenius-orthonormal
    basis, which is kept; U[:, :rank] is an orthonormal basis of W."""

    x: np.ndarray
    P: np.ndarray
    rank: int
    Phi: np.ndarray
    U: np.ndarray
    sv: np.ndarray
    Vt: np.ndarray


def make_subspace(basis) -> OperatorSubspace:
    """Validate a matrix basis and build an OperatorSubspace.

    Rejects dimension mismatches and linearly dependent bases (a QR
    residual at most RANK_TOL times the largest Frobenius norm); the error
    names the first offending basis index.
    """
    mats = [linalg.as_matrix(B, square=True) for B in basis]
    if not mats:
        raise DimensionError("basis must contain at least one matrix")
    dim = mats[0].shape[0]
    for i, B in enumerate(mats):
        if B.shape != (dim, dim):
            raise DimensionError(f"basis[{i}] has shape {B.shape}, expected {(dim, dim)}")
    with np.errstate(over="ignore"):
        norms = [float(np.linalg.norm(B)) for B in mats]
    for i, nb in enumerate(norms):
        if not np.isfinite(nb):
            raise DimensionError(
                f"basis[{i}] has a Frobenius norm that overflows to {nb}")
    # unpivoted QR of the flattened basis: R_ii is the residual of
    # basis[i] against basis[0..i-1], so the first small one names the
    # first dependent matrix; B_j = sum_i R[i, j] * ortho_i
    Q, R = np.linalg.qr(np.stack([B.ravel() for B in mats], axis=1))
    signs = np.where(np.diag(R) < 0.0, -1.0, 1.0)
    Q = Q * signs
    R = R * signs[:, None]
    threshold = RANK_TOL * max(norms)
    k = len(mats)
    for i in range(min(k, dim * dim)):
        if R[i, i] <= threshold:
            where = f"lies in the span of basis[0..{i - 1}]" if i else "is zero"
            raise DependentBasisError(
                f"basis[{i}] {where} (residual {R[i, i]:.3e} <= {threshold:.3e})",
                index=i)
    if k > dim * dim:
        raise DependentBasisError(
            f"basis[{dim * dim}] lies in the span of basis[0..{dim * dim - 1}] "
            f"({k} matrices in a space of dimension {dim * dim})", index=dim * dim)
    return OperatorSubspace(
        basis=tuple(B.copy() for B in mats), dim=dim, k=k,
        ortho=tuple(Q[:, i].reshape(dim, dim) for i in range(k)), upper_tri=R)


def orbit(subspace: OperatorSubspace, x) -> OrbitGeometry:
    """Orbit geometry of the subspace through x from one checked SVD
    U diag(sv) Vt of Phi = [Q_k x]. The Q_k recombine the basis
    invertibly, so Phi spans the basis images B_i x. The rank is
    r = #{sv_i > RANK_TOL sv_1}, the orbit span's orthonormal basis is U_r
    (the first r columns of U) and its projector P = U_r U_r'."""
    xv = linalg.as_vector(x)
    if xv.shape != (subspace.dim,):
        raise DimensionError(f"x has shape {xv.shape}, expected ({subspace.dim},)")
    Phi = (subspace.ortho_stack @ xv).T
    U, sv, Vt = linalg.checked_svd(Phi)
    rank = int(np.count_nonzero(sv > RANK_TOL * sv[0]))
    Ur = U[:, :rank]
    return OrbitGeometry(x=xv.copy(), P=Ur @ Ur.T, rank=rank, Phi=Phi, U=U,
                         sv=sv, Vt=Vt)


def op_norm(subspace: OperatorSubspace, coeffs) -> float:
    """Spectral norm of sum_i coeffs_i B_i."""
    return linalg.spectral_norm(subspace.matrix(coeffs))


def _dual_basis(subspace: OperatorSubspace) -> list[np.ndarray]:
    """Dual basis in the span: <D_i, B_j>_F = delta_ij."""
    stack = np.stack(subspace.basis)
    G = np.einsum("aij,bij->ab", stack, stack)
    Ginv = np.linalg.solve(G, np.eye(subspace.k))
    return [np.einsum("j,jab->ab", Ginv[i], stack) for i in range(subspace.k)]


def coefficient_box(subspace: OperatorSubspace, n: float) -> np.ndarray:
    """Per-axis bounds R_i with |c_i| <= R_i for every coefficient vector of
    an operator with spectral norm <= n.

    Uses the trace-duality bound |c_i| = |<M, D_i>_F| <= sigma1(M) * ||D_i||_nuclear
    with D_i the dual basis, which is tight for orthonormal bases.
    """
    n = linalg.as_level(n)
    duals = _dual_basis(subspace)
    return np.array([n * linalg.nuclear_norm(D) for D in duals])


def _axis_grid(bound: float, step: float) -> np.ndarray:
    intervals = max(1, int(np.ceil(2.0 * bound / step)))
    return np.linspace(-bound, bound, intervals + 1)


GRID_CHUNK = 16_384  # grid points enumerated at a time


def grid_orbit_points(subspace: OperatorSubspace, x, n: float, step: float,
                      band: float):
    """Enumerate the coefficient box of the level-n ball on a grid with
    spacing at most step.

    Returns (size, chunks): the number of grid points, and an iterator
    that walks the grid GRID_CHUNK points at a time and yields, per chunk,
    the orbit points M x of the grid operators with sigma1(M) <= band,
    each pulled back into the ball by the factor min(1, n / sigma1(M)).
    The grid point nearest 0 has |c| <= step sqrt(k) / 2, so sigma1 <=
    sqrt(sum_i sigma1(B_i)^2) step sqrt(k) / 2, and a band at least that
    keeps it: the grid then yields a point. Nothing is enumerated before
    chunks is iterated, so a caller can refuse on size first; memory
    stays bounded by the chunk.
    """
    xv = linalg.as_vector(x)
    axes = [_axis_grid(b, step) for b in coefficient_box(subspace, n)]
    shape = tuple(len(a) for a in axes)
    size = math.prod(shape)
    stack = np.stack(subspace.basis)

    def chunks():
        for start in range(0, size, GRID_CHUNK):
            idx = np.unravel_index(
                np.arange(start, min(start + GRID_CHUNK, size)), shape)
            coeffs = np.stack([a[i] for a, i in zip(axes, idx)], axis=1)
            mats = np.einsum("pk,kij->pij", coeffs, stack)
            sigmas = linalg.batch_spectral_norms(mats)
            near = sigmas <= band
            scale = np.minimum(1.0, n / np.maximum(sigmas[near], 1e-300))
            yield (mats[near] * scale[:, None, None]) @ xv

    return size, chunks()


def epsilon_net(subspace: OperatorSubspace, x, n: float, eps: float,
                cap: int = NET_CAP) -> list[np.ndarray]:
    """Finite eps-cover of the level-n orbit ball {M x : sigma1(M) <= n}.

    Grids the coefficient box, keeps grid points inside the ball and pulls
    slightly-outside ones back to the boundary by scaling, so every returned
    point is a member. Raises NetTooLargeError with a size estimate when the
    grid would exceed the cap.
    """
    xv = linalg.as_vector(x)
    n = linalg.as_level(n)
    if not eps > 0.0:
        raise DimensionError("eps must be positive")
    image_norms = np.array([float(np.linalg.norm(B @ xv)) for B in subspace.basis])
    lmax = float(image_norms.max())
    if lmax == 0.0 or n * float(np.linalg.norm(xv)) <= eps:
        # the whole ball maps within eps of the origin
        return [np.zeros(subspace.dim)]
    k = subspace.k
    l2 = float(np.sqrt(np.sum(image_norms ** 2)))
    step = min(eps / (np.sqrt(k) * lmax), 2.0 * 0.95 * eps / (l2 * np.sqrt(k)))
    # operator-norm growth per unit coefficient step, for the boundary band
    op_lip = float(np.sqrt(sum(linalg.spectral_norm(B) ** 2 for B in subspace.basis)))
    size, chunks = grid_orbit_points(subspace, xv, n, step,
                                     n + op_lip * step * np.sqrt(k))
    if size > cap:
        raise NetTooLargeError(
            f"epsilon net needs about {size} grid points (cap {cap}); "
            f"coarsen eps or lower n", required_size=size)
    return list(np.concatenate(list(chunks), axis=0))


def covering_gap(subspace: OperatorSubspace, x, n: float, net,
                 samples: int = 10_000, seed: int = 0) -> float:
    """Largest distance from a sampled orbit-ball member to the net
    (the verification half of the epsilon_net contract), over at least
    one sample."""
    samples = linalg.as_budget(samples, "samples")
    xv = linalg.as_vector(x)
    rng = np.random.default_rng(seed)
    bounds = coefficient_box(subspace, n)
    coeffs = rng.uniform(-1.0, 1.0, size=(samples, subspace.k)) * bounds[None, :]
    stack = np.stack(subspace.basis)
    mats = np.einsum("pk,kij->pij", coeffs, stack)
    sigmas = linalg.batch_spectral_norms(mats)
    scale = np.minimum(1.0, n / np.maximum(sigmas, 1e-300))
    members = (mats * scale[:, None, None]) @ xv
    net_arr = np.asarray(net, dtype=float)
    # difference tiles of rows x cols points, with a running minimum per
    # member, so memory does not grow with the net
    rows, cols = 256, 1024
    worst = 0.0
    for start in range(0, members.shape[0], rows):
        block = members[start:start + rows]
        best = np.full(len(block), np.inf)
        for lo in range(0, len(net_arr), cols):
            diff = block[:, None, :] - net_arr[None, lo:lo + cols, :]
            np.minimum(best, np.einsum("pqd,pqd->pq", diff, diff).min(axis=1),
                       out=best)
        worst = max(worst, float(np.sqrt(best.max())))
    return worst
