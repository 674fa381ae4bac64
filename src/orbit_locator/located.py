"""Located sets: sets carrying a distance oracle that returns a certified
nearest point for every query.

The main instance is the image of a scaled operator-norm ball through a
fixed vector, {M x : M in span(B_1..B_k), sigma1(M) <= n}. Its solver has
three routes: an exact shortcut when the orthogonal projection Py of the
query onto the orbit span already lies in the set, a boundary SQP
candidate, and ADMM as the one fallback. Each SQP row carries one
symmetric r x r KKT multiplier M on the cluster of its top r singular
pairs, W = U_r M V_r', which serves the step, the Lagrangian Hessian and
the certificate, all read off one contraction U'Q_k V of the basis per
SVD of mat(t) by the sigma1 module. Every boundary answer is
certified by a duality gap, the closed-form Lagrangian dual at a d x d
multiplier: the SQP candidate's at its W, which is also the SQP's stop
rule, and ADMM's, which starts from W = 0, balances its penalty against
its residuals and stops once the best of its iterates scaled onto the
ball meets the best dual bound of its multipliers. Both run
row-wise over levels. distances is the one door for a query: it checks y,
the levels and the tolerances once and builds the query's record (_query),
which every solver step below it takes in place of y; _solve_levels finds
and checks the boundary candidates of all the levels in one lockstep
search, each started from the spectral clip of the interior
representative, and distances reads the levels in order, running ADMM
only for a level still open when the caller reaches it; distance is the
one-level case. The context holds only the geometry: no record outlives
its call, so a repeated query is solved again.

The shortcut is decided lazily. sigma1 of the least-norm preimage of Py
bounds gauge(Py) from above (it is the gauge when no span operator kills
x), so when that bound already clears n the answer is Py, witnessed by
the least-norm preimage; only otherwise does the gauge's search over the
null directions run. Gauges are evaluated row-wise on stacks of vectors
by one kernel, whose every returned value is sigma1 of a preimage taken
as the root of the top eigenvalue of its Gram, from one stacked eigvalsh.
With A the matrix of a row's least-norm preimage, that value at A is the
whole kernel without a null space. With one, the kernel minimises
sigma1(A + sum_l z_l mat(N_l)) over the null coordinates z by the
searches of the sigma1 module: pair_line_min and sigma1_newton at one
null coordinate, compass_min on the Gram values at two or more. On a fixed
subspace W the kernel is compiled once (gauge_on): A is the combination
of the matrices of W's basis vectors, so a round of the inner-radius
search builds no preimage and makes no per-row span test. The same
generators, built once, also give the gauge ceiling on W that gauge_on
returns with the compiled gauge: one top eigenvalue of their Gram, which
lets that search stop, and the slack by which the rounding of the
generators can leave a value below the exact gauge.

Euclidean balls and linear images of balls (ellipsoids) are provided as
exactly-locatable companions, and a pure enumeration oracle gives two-sided
distance brackets for small coefficient counts.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import linalg, operators, sigma1
from .defaults import (GAUGE_TOL, GRID_CAP, MAX_SOLVER_ITERS, RANK_MARGIN,
                       RANK_TOL, TOL)
from .errors import (DimensionError, GridOracleRefusal, OrbitLocatorError,
                     SolverFailure)
from .sigma1 import compass_min, line_derivs, pair_line_min, sigma1_newton


class DistanceResult(NamedTuple):
    """Distance value with the witness point that achieves it.

    coeffs gives the witness as coefficients in the original operator basis
    when the set is an orbit ball (None otherwise); method records which
    solver route produced the answer.
    """

    value: float
    point: np.ndarray
    coeffs: Optional[np.ndarray]
    tol: float
    iterations: int
    method: str


class LocatedSet:
    """A set with a certified distance oracle.

    locate(y, tol) returns a DistanceResult whose value is within tol of the
    true distance. gauges(V), when the set supports it, applies the
    Minkowski functional to each row of V: the least s >= 0 with v in
    s-times-the-set (inf when no scaling reaches v), one value per row;
    gauge(v) is the one-row case. gauge_on(B) is the one question the
    inner radius asks: the triple (U -> gauges(U @ B.T), ceiling, slack),
    the gauge on the span of B's columns as a function of coordinates, an
    upper bound on it over unit u (the unit sphere of span(B) when B's
    columns are orthonormal), and how far below the exact gauge a value of
    the function at a unit u can fall through rounding. The ceiling bounds
    both the exact gauge and every value of the function. A set may
    supply the factory gauge_on(B) -> (function of U, ceiling, slack),
    compiled once for B; without one the function is gauges on U @ B.T,
    the ceiling inf and the slack 0.
    """

    def __init__(self, ambient_dim: int, locate: Callable, gauge=None,
                 description: str = "", gauge_on=None):
        self.ambient_dim = int(ambient_dim)
        self._locate = locate
        self._gauge = gauge
        self._gauge_on = gauge_on
        self.description = description

    def locate(self, y, tol: float = TOL) -> DistanceResult:
        return self._locate(linalg.as_vector(y), float(tol))

    def gauges(self, V) -> np.ndarray:
        if self._gauge is None:
            raise OrbitLocatorError(
                f"{self.description or 'this set'} has no gauge oracle")
        V = linalg.as_rows(V, self.ambient_dim)
        return np.asarray(self._gauge(V), dtype=float)

    def gauge(self, v) -> float:
        return float(self.gauges(linalg.as_vector(v)[None, :])[0])

    def gauge_on(self, B) -> tuple:
        """(U -> gauges(U @ B.T), an upper bound on it over unit u, the
        rounding slack of its values), in the set's compiled form when it
        has one; the bound is inf and the slack 0 when the set supplies
        none."""
        B = linalg.as_matrix(B)
        if B.shape[0] != self.ambient_dim:
            raise DimensionError(
                f"expected columns of length {self.ambient_dim}, got shape {B.shape}")
        if self._gauge_on is None:
            return (lambda U: self.gauges(U @ B.T)), np.inf, 0.0
        gauge, ceiling, slack = self._gauge_on(B)
        return gauge, float(ceiling), float(slack)


_MAX_OUTER = 80        # _sqp's iteration cap
_HALVES = 0.5 ** np.arange(1, 12)   # _sqp's backtracking steps
_BALANCE_EVERY = 10    # ADMM iterations between residual-balancing checks
_BALANCE_RATIO = 10.0  # residual ratio that doubles or halves ADMM's rho
_EPS = float(np.finfo(float).eps)   # machine epsilon


class OrbitBallContext:
    """Shared geometry for distance queries against the scaled orbit balls
    of one subspace through one vector, for varying scale n.

    Internally works in coefficients of the Frobenius-orthonormal basis, so
    coefficient Euclidean distance equals matrix Frobenius distance and the
    spectral-ball projection is metrically faithful.

    The geometry is factored once, by the one checked SVD
    Phi = U diag(sv) V' that operators.orbit makes (rank
    r = #{sv_i > RANK_TOL sv_1}), and everything else comes from that
    factor: P = U_r U_r'; range_vecs V_r with range_lams sv_r^2, the
    eigenpairs of Phi'Phi on its range; null_vecs the other columns of V;
    rank_margin, marginal and rounding_floor from sv; and the least-norm
    preimage V_r (U_r'v / sv_r), the one pseudo-inverse of Phi.
    """

    def __init__(self, subspace: operators.OperatorSubspace, x):
        self.subspace = subspace
        self.geo = geo = operators.orbit(subspace, x)
        self.x = geo.x
        self.k = k = subspace.k
        self.dim = subspace.dim
        self.stack = subspace.ortho_stack
        self.Phi = geo.Phi
        self.rank = r = geo.rank
        V = geo.Vt.T
        self.range_U = geo.U[:, :r]
        self.range_sv = sv = geo.sv[:r]
        self.range_vecs = V[:, :r]
        self.range_lams = np.maximum(sv * sv, 1e-300)
        self.null_vecs = V[:, r:]
        self._flat = self.stack.reshape(k, -1)
        self._floor_step = 4.0 * float(np.sqrt(self.dim) * geo.sv[0])   # rounding_floor

    # the Hessian 2 Phi'Phi of f; the null stack mat(N_l), flattened: the
    # gauge kernel's directions; the one rank rule (lower_bound, pipeline)
    H = cached_property(lambda self: 2.0 * (self.Phi.T @ self.Phi))
    null_mats = cached_property(lambda self: self.null_vecs.T @ self._flat)
    marginal = cached_property(lambda self: self.rank_margin() <= RANK_MARGIN)

    # ---- coefficient/matrix bridges -------------------------------------

    # mat, tcoords, point, feasify, _f and _grad are row-wise on stacks

    def mat(self, t) -> np.ndarray:
        t = np.asarray(t)
        return (t @ self._flat).reshape(t.shape[:-1] + (self.dim, self.dim))

    def tcoords(self, M) -> np.ndarray:
        M = np.asarray(M)
        return M.reshape(M.shape[:-2] + (-1,)) @ self._flat.T

    def point(self, t) -> np.ndarray:
        return t @ self.Phi.T

    def min_norm_preimage(self, v) -> np.ndarray:
        """Least-norm t with Phi t = projection of v onto the orbit span,
        V_r (U_r'v / sv_r) from the SVD of Phi, with no normal equations
        (their error grows with kappa(Phi)^2); row-wise for a stack of
        vectors."""
        return ((v @ self.range_U) / self.range_sv) @ self.range_vecs.T

    def rank_margin(self) -> float:
        """The factor by which the singular values of Phi clear the rank
        cut RANK_TOL * sigma_max(Phi), on whichever side they fall (inf
        when Phi is zero), from the stored SVD. A small factor means the
        rank decision, and with it P, is marginal."""
        sv = self.geo.sv
        cut = RANK_TOL * sv[0]
        if cut == 0.0:
            return np.inf
        return min(max(s / cut, cut / s) if s else np.inf for s in sv.tolist())

    def span_distance(self, y) -> float:
        """||y - Py||, the distance to the orbit span: an exact lower bound
        on the distance to every orbit ball."""
        y = self._as_query(y)
        return float(np.linalg.norm(y - self.geo.P @ y))

    def lower_bound(self, y) -> float:
        """The sweep's lower bound on every level distance of the query y,
        which is checked in every case: span_distance(y), or 0 at full rank,
        where ||y - Py|| is rounding residue above the true 0, and at a
        marginal rank (the context's marginal), as a singular value of Phi
        within RANK_MARGIN of the rank cut, on either side, leaves the
        rank decision behind P open."""
        lb = self.span_distance(y)
        return 0.0 if self.rank == self.dim or self.marginal else lb

    # ---- gauge ------------------------------------------------------------

    def gauge(self, v):
        """Least sigma1 over operators in the span sending x to v, with the
        coefficients of one such operator; (inf, None) when v is outside
        the orbit span."""
        vals, ts = self.gauges(linalg.as_vector(v)[None, :])
        if not np.isfinite(vals[0]):
            return np.inf, None
        return float(vals[0]), ts[0]

    def _on_span(self, V, nv) -> np.ndarray:
        """Whether each row of V, of norm nv, lies on the orbit span (the
        zero vector only, at rank 0), up to 1e-9 max(1, |v|)."""
        if self.rank == 0:
            return nv == 0.0
        R = V - V @ self.geo.P.T
        return np.sqrt((R * R).sum(axis=1)) <= 1e-9 * np.maximum(nv, 1.0)

    def _gauge_kernel(self, A, t_hat):
        """The gauge at rows whose least-norm preimages are t_hat, with
        A = mat(t_hat) flattened (one row each): min over z of
        sigma1(A + sum_l z_l mat(N_l)), every value sigma1.values of a
        preimage. Without a null space that is one sigma1.values call on A.
        Every route takes the tolerance GAUGE_TOL max(1, |t_hat|) / 4.
        With one null coordinate pair_line_min puts z within it of the
        line's minimum in closed form at d = 2, except on rows where the
        rank cut leaves its error bound above it; those rows and every row
        at d >= 3 go to one sigma1_newton search on the derivatives of
        line_derivs (one stacked SVD), which stops once its dual gap is
        within it. Either end is re-anchored on sigma1.values, and a row
        whose end that puts above its value at z = 0 keeps z = 0. With two
        or more a lockstep pattern search on sigma1.values runs from z = 0
        down to that step, each round one sweep spanning four step sizes,
        and moves only to lower values. So no value exceeds the one at
        z = 0. Returns (values, coefficient rows)."""
        d = self.dim
        NM = self.null_mats
        if not NM.shape[0]:
            return sigma1.values(A.reshape(-1, d, d)), t_hat
        scale = np.maximum(1.0, np.linalg.norm(t_hat, axis=1))
        tol = GAUGE_TOL * scale / 4.0
        if NM.shape[0] > 1:
            z, g, _ = compass_min(
                lambda rows, P: sigma1.values(
                    (A[rows, None] + P @ NM).reshape(*P.shape[:2], d, d)),
                np.zeros((len(A), NM.shape[0])), init_step=scale, step_tol=tol)
            return g, t_hat + z @ self.null_vecs.T
        N = NM[0]
        z, rows = pair_line_min(A, N, tol) if d == 2 else (np.zeros(len(A)), np.arange(len(A)))
        if rows.size:
            z[rows] = sigma1_newton(line_derivs(A[rows], N, d), A[rows] @ N, tol[rows],
                                    np.sqrt(d))[0]
        g = sigma1.values(np.stack([A, A + z[:, None] * N]).reshape(2, -1, d, d))
        back = g[1] > g[0]
        z[back] = 0.0
        return np.where(back, g[0], g[1]), t_hat + z[:, None] * self.null_vecs[:, 0]

    def gauges(self, V):
        """Row-wise gauge of a stack of vectors: (values, coefficient rows),
        with value inf and a row of NaN for vectors outside the orbit span.
        Rows on the span run _gauge_kernel from their least-norm
        preimages."""
        V = linalg.as_rows(V, self.dim)
        nv = np.linalg.norm(V, axis=1)
        on = self._on_span(V, nv)
        vals = np.where(on, 0.0, np.inf)
        ts = np.zeros((V.shape[0], self.k))
        ts[~on] = np.nan
        live = np.flatnonzero(on & (nv > 0.0))
        if live.size:
            t_hat = self.min_norm_preimage(V[live])
            vals[live], ts[live] = self._gauge_kernel(
                self.mat(t_hat).reshape(live.size, -1), t_hat)
        return vals, ts

    def gauge_on(self, B):
        """(gauges(U @ B.T) as a function of U, an upper bound on it over
        unit u, the rounding slack of its values) for the columns b_j of
        B, with the generators T_j = t_hat(b_j) and G_j = mat(T_j) built
        once. A row u has the least-norm preimage u T and its matrix u G by
        linearity, so the function runs _gauge_kernel with no preimage or
        mat of its own. The span test is made once, on the columns, and
        covers every row by linearity; when a column is off the orbit span,
        the function is gauges on U @ B.T with its per-row test, the bound
        inf and the slack 0.

        The bound is L = sqrt(min(lmax sum_j G_j G_j', lmax sum_j G_j' G_j)).
        sum_j u_j G_j sends x to B u, so g(B u) <= sigma1(sum_j u_j G_j),
        also with a null space, as the gauge is the least sigma1 over all
        preimages. For unit a, b and u, sum_j u_j a'G_j b is at most
        (sum_j (a'G_j b)^2)^(1/2) <= (a' sum_j G_j G_j' a)^(1/2), and the
        same holds on the b side, so sigma1(sum_j u_j G_j) <= L.

        Rounding, to first order, with eps the machine epsilon, d the
        dimension, m the number of columns and t = sum_j ||G_j||_F^2, the
        trace of both Grams, which bounds their norms. A Gram sums m d
        products per entry, so it is off by at most m d eps t in norm (the
        entrywise bound gamma_md sum_j |G_j||G_j|', whose norm is at most
        its trace t), and eigvalsh is backward stable, off by at most
        d eps t more; 2 d eps t covers t's own rounding. So L is at most
        L' = sqrt(lam + (m + 2) d eps t), with lam the smaller computed top
        eigenvalue. The kernel's value at a unit u, which its search only
        lowers from z = 0, is sigma1.values of the rounded u G, within
        m eps sqrt(t) of u G in Frobenius norm, so it is at most
        (L' + m eps sqrt(t)) (1 + d (d + 1) eps).

        The generators carry the rounding of the preimage and of the frame.
        The computed frame Q_l is within e_Q = subspace.frame_error of
        matrices Q''_l of the exact span (in the Frobenius norm of the
        whole stack). t_hat comes from the SVD of the computed Phi, which
        is off from Phi'' = [Q''_l x] by at most (d + k) eps s_1 (the SVD's
        backward error) plus (d sqrt(k) eps + e_Q) |x| (forming
        Phi = [Q_l x], and the frame), with s_1 >= ... >= s_r the kept
        singular values. That moves a least-norm preimage by at most
        2 ||Phi^+|| times that error, relative, and the products of t_hat's
        formula add (d + k)(1 + 2 sqrt(r)) eps kappa, kappa = s_1 / s_r;
        taking mat over Q''_l instead of Q_l moves G_j by e_Q |T_j| more.
        So each G_j is within delta ||G_j||_F of an exact preimage in the
        span, with delta = (d + k)(3 + 2 sqrt(r)) eps kappa
        + 2 (d sqrt(k) eps + e_Q) |x| / s_r + e_Q. So the exact L is at most
        L' + delta sqrt(t), and the ceiling, which bounds both it and every
        value, is (L' + m eps sqrt(t)) (1 + d (d + 1) eps) + delta sqrt(t).
        On the other side, u G is within delta sqrt(t) of an exact preimage
        of B u, and a search point u G + mat(N z), with |z| at most its
        Frobenius norm sqrt(d) sqrt(t), within (1 + sqrt(d)) delta sqrt(t),
        the computed null directions being off by delta as well; with the
        kernel's own rounding the exact gauge exceeds a value by at most
        the slack ((1 + sqrt(d)) delta + (m + d (d + 1)) eps) sqrt(t)."""
        B = linalg.as_matrix(B)
        d = self.dim
        if B.shape[0] != d:
            raise DimensionError(
                f"expected columns of length {d}, got shape {B.shape}")
        Bt = B.T
        if not self._on_span(Bt, np.sqrt((B * B).sum(axis=0))).all():
            return (lambda U: self.gauges(U @ Bt)), np.inf, 0.0
        T = self.min_norm_preimage(Bt)
        m = len(T)
        G = self.mat(T)
        rows = G.transpose(1, 0, 2).reshape(d, m * d)   # [G_1 ... G_m]
        cols = G.transpose(2, 0, 1).reshape(d, m * d)   # [G_1' ... G_m']
        lam = float(np.linalg.eigvalsh(np.stack([rows @ rows.T, cols @ cols.T]))[:, -1].min())
        G = G.reshape(m, -1)
        root = math.sqrt((G * G).sum())
        eps = _EPS
        k, r, sv = self.k, self.rank, self.range_sv
        delta = 0.0   # at rank 0 only zero columns pass the span test: G = 0
        if r:
            e_Q = self.subspace.frame_error
            delta = float((d + k) * (3.0 + 2.0 * math.sqrt(r)) * eps * sv[0] / sv[-1]
                          + 2.0 * (d * math.sqrt(k) * eps + e_Q) * np.linalg.norm(self.x) / sv[-1]
                          + e_Q)
        ceiling = ((math.sqrt(max(lam, 0.0) + (m + 2) * d * eps * root * root)
                    + m * eps * root) * (1.0 + d * (d + 1) * eps) + delta * root)
        slack = ((1.0 + math.sqrt(d)) * delta + (m + d * (d + 1)) * eps) * root
        return (lambda U: self._gauge_kernel(U @ G, U @ T)), ceiling, slack

    # ---- feasible-region projection (span <-> spectral ball) -------------

    def feasify(self, t, n) -> np.ndarray:
        """t scaled down by n / sigma1(mat(t)) (sigma1.values) when that is
        below 1; n > 0 is a scalar or broadcasts against a stack's rows."""
        t = np.asarray(t, dtype=float)
        return t * (n / np.maximum(sigma1.values(self.mat(t)), n))[..., None]

    project = linalg.retired

    # ---- certified optimality test -----------------------------------------

    def _f(self, t, y):
        r = self.point(t) - y
        return np.einsum("...i,...i->...", r, r)

    def _grad(self, t, y):
        return 2.0 * ((self.point(t) - y) @ self.Phi)

    def _turn(self, t, y, usv=None):
        """The factors one SQP turn needs at each row t of a stack, from the
        stacked SVD usv of mat(t) (made when not given): (U, sig, Vt, grad,
        T, M, r), with grad the gradient of f, T[i, k] = U'Q_k V and
        sigma1.multiplier's (M, r) of the row: M padded to the call's
        largest cluster, r the size of the row's constraint."""
        U, sig, Vt = np.linalg.svd(self.mat(t)) if usv is None else usv
        grad = self._grad(t, y)
        T = np.swapaxes(U, 1, 2)[:, None] @ self.stack @ np.swapaxes(Vt, 1, 2)[:, None]
        return (U, sig, Vt, grad, T) + sigma1.multiplier(T, sig, grad)

    def _cut(self, W, c=None):
        """(c', ||W'||_*) for a stack of formed multipliers W with
        coordinates c = tcoords(W) (computed when not given): the null part
        cut off, c' = c - N N'c and W' = W - mat(N N'c), and the nuclear
        norm of W' by one stacked SVD. These are what _dual takes."""
        N = self.null_vecs
        if c is None:
            c = self.tcoords(W)
        cn = (c @ N) @ N.T
        return c - cn, np.linalg.svd(W - self.mat(cn), compute_uv=False).sum(axis=-1)

    def _dual(self, c, nuc, q, n) -> np.ndarray:
        """Lower bound on min f over the level-n feasible region for the
        query record q from a d x d multiplier W, given by its coordinates
        c = tcoords(W') and nuc = ||W'||_* with W' the null-cut multiplier
        of _cut; row-wise for stacks (n a scalar or one level per row). The
        one bound formula: ADMM feeds it from a formed W through _cut, and
        _cert_gap from the multiplier M on the cluster of top pairs.

        With N'c = 0, every feasible t has
        <W', mat(t)> = c't <= ||W'||_* sigma1 <= n ||W'||_*, so
        f(t) >= f(t) + c't - n ||W'||_*. On the range of Phi the right
        side is least at t* = R (R'(2 Phi'y - c) / 2 Lambda). Along the
        null directions Phi R is orthogonal to Phi N, and f can fall below
        its range part only through -2 <N'Phi'y, N't>, with ||N't|| <=
        ||t|| <= n sqrt(d): the term leak = 2 sqrt(d) ||N'Phi'y|| (_query)
        keeps the bound valid when the rank cut drops a nonzero singular
        value of Phi."""
        R = self.range_vecs
        t = (((q["two_Phi_y"] - c) @ R) / (2.0 * self.range_lams)) @ R.T
        return (self._f(t, q["y"]) + np.einsum("...k,...k->...", c, t)
                - n * (nuc + q["leak"]))

    def rounding_floor(self, norm_y: float, n: float) -> float:
        """The least tolerance a level-n certificate resolves for a query
        of norm norm_y: eps (||y|| + 4 sqrt(dim) n sigma1(Phi)), eps the
        machine epsilon, in plain float arithmetic. distances refuses a
        tolerance below it, and the sweep stops before such a level.

        _certified tests gap <= tol d, the gap being f = d^2 less the _dual
        bound f(t*) + c't* - n ||W'||_*, in which c't* is about n ||W'||_*:
        so the gap carries a rounding of order eps (f + 2 n ||W'||_*). As W
        fits the gradient 2 Phi'(Phi t - y), ||W'||_* <= sqrt(dim) ||c|| <=
        2 sqrt(dim) sigma1(Phi) d, and as the origin lies in every ball,
        d <= ||y||: the test resolves tol only at or above the floor. Below
        it a certificate passes or fails on rounding, and ADMM runs out of
        iterations."""
        return _EPS * (norm_y + n * self._floor_step)

    def _cert_gap(self, t, q, n, f=None, turn=None) -> np.ndarray:
        """Upper bound f(t) - _dual(W) on f(t) - min f over the level-n
        feasible region for each feasible row t of a stack (n a scalar or
        one level per row) and the query record q, at the multiplier
        W = U_p M V_p' of the row's _turn, with M padded to p pairs; f = f(t)
        and turn = _turn(t, y) are computed when the caller does not have
        them. sigma1.contract gives tcoords(W) and ||W||_* = tr M with no W
        formed, W' = W without a null space; only with one is W formed and
        W' = W - mat(N N'c) factored (_cut). Any W gives a valid bound, so W
        only affects tightness: at an optimum whose top singular value is
        simple, or whose r <= 4 tied values admit a multiplier M >= 0, the
        gap is 0 up to rounding."""
        t = np.asarray(t, dtype=float)
        if f is None:
            f = self._f(t, q["y"])
        if turn is None:
            turn = self._turn(t, q["y"])
        U, _, Vt, _, T, M, _ = turn
        c, nuc = sigma1.contract(T, M)
        if self.null_vecs.shape[1]:
            p = M.shape[-1]
            c, nuc = self._cut(U[:, :, :p] @ M @ Vt[:, :p], c)
        return f - self._dual(c, nuc, q, n)

    # ---- boundary Newton/KKT candidate ------------------------------------

    def _sqp(self, q, n, t0, tol):
        """Candidates on the active boundary sigma1(mat(t)) = n for the query
        record q, one search per row of t0 (n and tol: scalars or one value per
        row) in lockstep; t0 is first scaled onto the ball by the one SVD that
        also gives the first _turn its factors. Each iteration makes one _turn
        (one stacked SVD, one gradient, one T = U'Q_k V and the multipliers
        M), shared by the certificate and the Newton step. First every row's
        duality gap (_cert_gap) is taken from it, with f from the line
        search: a row stops once _certified at its tol. The others share one
        batched Newton step, sigma1.step on the KKT system of their
        constraint (the turn's r pairs at the level, the top pair's
        sigma1 = n at r = 1) with the Lagrangian's Hessian H + <M, A''>.
        Each row moves by the first alpha in 1, 1/2, ..., 2^-11 with
        f < f_prev - 1e-18 (full steps as one stacked trial, the halvings
        of rejected rows as one more) and otherwise stops on a step below
        1e-13 max(1, ||t||), on |f| < 1e-30, on a stall or after _MAX_OUTER
        iterations, taking its gap at its final point. Returns (t, steps
        taken, f, gap), one per row."""
        y = q["y"]
        t = np.array(t0, dtype=float)
        n, tol = np.full(len(t), n, dtype=float), np.full(len(t), tol, dtype=float)
        U, sig, Vt = np.linalg.svd(self.mat(t))
        scale = n[:, None] / np.maximum(sig[:, :1], n[:, None])
        t, usv = t * scale, (U, sig * scale, Vt)
        f = self._f(t, y)
        gap = np.zeros(len(t))
        done = np.zeros(len(t), dtype=bool)
        iters = np.zeros(len(t), dtype=int)
        act = np.arange(len(t))
        for _ in range(_MAX_OUTER):
            if not act.size:
                break
            ta, na, fa = t[act], n[act], f[act]
            turn, usv = self._turn(ta, y, usv), None
            gap[act] = self._cert_gap(ta, q, na, fa, turn)
            shut = _certified(fa, gap[act], tol[act])
            done[act] = shut
            if shut.all():
                break
            _, sig, _, grad, T, M, r = turn
            # every row takes the step's stacked algebra; the certified
            # ones neither move nor stay
            iters[act[~shut]] += 1
            delta = sigma1.step(self.H, T, sig, grad, M, r, na)
            moving = ~shut & (np.einsum("rk,rk->r", delta, delta)
                              > 1e-26 * np.maximum(1.0, np.einsum("rk,rk->r", ta, ta)))
            live = np.flatnonzero(moving)
            tc = self.feasify(ta[live] + delta[live], na[live])
            fc = self._f(tc, y)
            won = fc < fa[live] - 1e-18
            ta[live[won]], fa[live[won]] = tc[won], fc[won]
            lost = live[~won]
            ended = ~moving
            if lost.size:
                tc = self.feasify(ta[lost, None] + _HALVES[:, None] * delta[lost, None],
                                  na[lost, None])
                fc = self._f(tc, y)
                ok = fc < fa[lost, None] - 1e-18
                j, won = ok.argmax(axis=1), ok.any(axis=1)
                w = np.flatnonzero(won)
                ta[lost[w]], fa[lost[w]] = tc[w, j[w]], fc[w, j[w]]
                ended[lost[~won]] = True
            t[act], f[act] = ta, fa
            act = act[~(ended | (np.abs(fa) < 1e-30))]
        rest = np.flatnonzero(~done)
        if rest.size:
            gap[rest] = self._cert_gap(t[rest], q, n[rest], f[rest])
        return t, iters, f, gap

    # ---- public distance query --------------------------------------------

    def _as_query(self, y) -> np.ndarray:
        y = linalg.as_vector(y)
        if y.shape != (self.dim,):
            raise DimensionError(f"query has shape {y.shape}, expected ({self.dim},)")
        return y

    def _query(self, y) -> dict:
        """The record of the checked query y that one distances call builds
        and passes down: y, Py, ||y - Py||, the least-norm preimage t_hat
        of Py, the SVD of mat(t_hat) with ub = sigma1 >= gauge(Py), 2 Phi'y
        and the leak term 2 sqrt(d) ||N'Phi'y|| (_dual). "gauge", the gauge
        of Py with its coefficients, is (ub, t_hat) without a null space and
        is otherwise filled in on first need (_query_gauge)."""
        Py = self.geo.P @ y
        t_hat = self.min_norm_preimage(Py)
        svd = np.linalg.svd(self.mat(t_hat))
        two_Phi_y = 2.0 * (y @ self.Phi)
        leak = (np.sqrt(self.dim) * np.linalg.norm(two_Phi_y @ self.null_vecs)
                if self.k > self.rank else 0.0)
        q = {"y": y, "Py": Py, "base": float(np.linalg.norm(y - Py)), "t_hat": t_hat,
             "svd": svd, "ub": float(svd[1][0]), "two_Phi_y": two_Phi_y, "leak": leak}
        if not self.null_vecs.shape[1]:
            q["gauge"] = (q["ub"], t_hat)
        return q

    def _query_gauge(self, q: dict):
        """(gauge(Py), its coefficients) for the query record q: the gauge
        kernel run from q's t_hat on first need, and kept in q."""
        if "gauge" not in q:
            t_hat = q["t_hat"][None]
            g, t = self._gauge_kernel(self.mat(t_hat).reshape(1, -1), t_hat)
            q["gauge"] = float(g[0]), t[0]
        return q["gauge"]

    def interior_rows(self, Y, ns) -> np.ndarray:
        """For a stack of queries Y at levels ns (one per row), whether
        sigma1 of the least-norm preimage of Py already clears the level:
        those rows take the interior route, and distance returns ||y - Py||
        for them. A row outside may still be interior by the gauge's
        search, which only distance runs."""
        Py = Y @ self.geo.P.T
        return _clears(sigma1.values(self.mat(self.min_norm_preimage(Py))), ns)

    def _solve_levels(self, q: dict, ns, tols) -> dict:
        """The boundary candidates of the query record q, {n: (t,
        iterations, f, gap)} over the levels n > 0 of ns that neither ub nor
        the gauge of Py clears, from one lockstep _sqp whose rows stop once
        their duality gap meets the level's tolerance (tols: one per level;
        the first one for a level given twice). Each starts from the
        spectral clip U min(Sigma, n) V' of the interior representative
        (from _query's SVD when that is t_hat); no SolverFailure is raised
        here."""
        todo = {}
        for n, tol in zip(ns, tols):
            if n > 0.0:
                todo.setdefault(n, tol)
        n, tol = np.array(list(todo)), np.array(list(todo.values()))
        out = ~_clears(q["ub"], n)
        if not out.any():
            return {}
        # a level the bound does not clear is interior or not by the gauge,
        # and every boundary level starts from the gauge's representative
        g, t_rep = self._query_gauge(q)
        if self.null_vecs.shape[1]:   # without one the gauge is ub, tested above
            out &= ~_clears(g, n)
            if not out.any():
                return {}
        n, tol = n[out], tol[out]
        U, sig, Vt = q["svd"] if t_rep is q["t_hat"] else np.linalg.svd(self.mat(t_rep))
        t0 = self.tcoords((U * np.minimum(sig, n[:, None])[:, None]) @ Vt)
        t, iters, f, gap = self._sqp(q, n, t0, tol)
        return dict(zip(n.tolist(), zip(t, iters.tolist(), f.tolist(), gap.tolist())))

    def _admm(self, q, n, tol, t, f, iters):
        """ADMM on min f(s) + [sigma1(X) <= n] subject to mat(s) = X (Boyd
        et al., Distributed Optimization and Statistical Learning via the
        Alternating Direction Method of Multipliers, FnT ML 2011) for the
        query record q from the candidate t with f = f(t), iters iterations
        already spent, and W = 0. rho starts at
        2 sqrt(lam_max lam_min) of Phi'Phi and is balanced every
        _BALANCE_EVERY iterations (ibid. 3.4.1): doubled when the primal
        residual ||S - X|| exceeds _BALANCE_RATIO times the dual one
        rho ||X - X_prev||, halved in the opposite case. W is unscaled, so
        it needs no rescale. The best f(feasify(s)) is the upper bound and
        the largest _dual(W) the lower one. Returns (t, iterations, f, gap)
        once _certified at tol. There is no stall exit: after
        MAX_SOLVER_ITERS iterations in all it raises SolverFailure."""
        rho = 2.0 * np.sqrt(self.range_lams[0] * self.range_lams[-1])
        inv = np.linalg.inv(self.H + rho * np.eye(self.k))
        y, b = q["y"], q["two_Phi_y"]
        X = self.mat(t)
        W = np.zeros_like(X)
        lower = -np.inf
        start = iters
        while iters < MAX_SOLVER_ITERS:
            iters += 1
            s = inv @ (b - self.tcoords(W) + rho * self.tcoords(X))
            S = self.mat(s)
            U, sig, Vt = np.linalg.svd(S + W / rho)
            X_prev, X = X, (U * np.minimum(sig, n)) @ Vt
            W = W + rho * (S - X)
            ts = self.feasify(s, n)
            fs = float(self._f(ts, y))
            if fs < f:
                t, f = ts, fs
            lower = max(lower, float(self._dual(*self._cut(W), q, n)))
            if _certified(f, f - lower, tol):
                return t, iters, f, f - lower
            if (iters - start) % _BALANCE_EVERY == 0:
                primal = np.linalg.norm(S - X)
                dual = rho * np.linalg.norm(X - X_prev)
                scale = (2.0 if primal > _BALANCE_RATIO * dual
                         else 0.5 if dual > _BALANCE_RATIO * primal else 1.0)
                if scale != 1.0:
                    rho *= scale
                    inv = np.linalg.inv(self.H + rho * np.eye(self.k))
        raise SolverFailure(
            "distance certificate not reached within iteration budget",
            lower=float(np.sqrt(max(lower, 0.0))), upper=float(np.sqrt(f)),
            iterations=iters, partial=self.point(t))

    def distances(self, y, ns, tols):
        """Yields (distance, point, t, tol, iterations, method) for each
        level of ns in order (tols: one, or one per level; t in orthonormal
        coefficients). y, the levels and the tolerances are checked here
        once, before any solve: a level n > 0 whose tolerance is below its
        rounding_floor raises DimensionError. The query's record (_query)
        is built once and passed down, and _solve_levels finds every
        boundary candidate. A level yields the origin at n = 0 or rank 0
        (tol 0), Py when interior, and otherwise its candidate once
        _certified, ADMM closing its gap first when the caller reaches the
        level. Raises SolverFailure, with honest bounds, at the first level
        it fails."""
        y = self._as_query(y)
        ns = [linalg.as_level(n) for n in ns]
        tols = np.asarray(tols, dtype=float)
        if tols.ndim and tols.shape != (len(ns),):
            raise DimensionError(f"expected one tolerance or {len(ns)}, got shape {tols.shape}")
        tols = [linalg.as_tol(tol) for tol in (tols.tolist() if tols.ndim else [tols] * len(ns))]
        norm_y = float(np.linalg.norm(y))
        for n, tol in zip(ns, tols):
            if n > 0.0 and tol < (floor := self.rounding_floor(norm_y, n)):
                raise DimensionError(f"tolerance {tol:.3g} at level {n:g} is below the "
                                     f"rounding floor {floor:.3g} of its certificate")
        q = self._query(y)
        table = self._solve_levels(q, ns, tols) if self.rank else {}
        for n, tol in zip(ns, tols):
            if n == 0.0 or self.rank == 0:
                yield norm_y, np.zeros(self.dim), np.zeros(self.k), 0.0, 0, "degenerate"
            elif n not in table:
                t = q["t_hat"] if _clears(q["ub"], n) else self._query_gauge(q)[1]
                yield q["base"], q["Py"].copy(), t, tol, 0, "interior"
            else:
                t, iters, f, gap = table[n]
                if not _certified(f, gap, tol):
                    t, iters, f, gap = self._admm(q, n, tol, t, f, iters)
                r = y - (point := self.point(t))
                yield float(np.sqrt(r @ r)), point, t, tol, iters, "certified"

    def distance(self, y, n: float, tol: float = TOL) -> DistanceResult:
        """Distance from y to {M x : M in the span, sigma1(M) <= n} within
        tol, with witness point and coefficients: distances at one level."""
        d, point, t, tol, iters, how = next(self.distances(y, [n], tol))
        return DistanceResult(d, point, self.subspace.from_ortho_coeffs(t), tol, iters, how)


def _clears(g, n):
    """The interior route's test, elementwise: the gauge bound g clears
    the level n by the margin 5e-10 max(1, g)."""
    return g <= n - 5e-10 * np.maximum(1.0, g)


def _certified(f, gap, tol):
    """The stop rule of every boundary solve, elementwise: the duality gap
    is at most tol times the distance sqrt(f), or the distance is at most
    tol."""
    root = np.sqrt(f)
    return (gap <= tol * root) | (root <= tol)


def ball_distance(subspace, x, n: float, y, tol: float = TOL,
                  ctx: Optional[OrbitBallContext] = None) -> DistanceResult:
    """Distance from y to the level-n orbit ball of the subspace through x."""
    if ctx is None:
        ctx = OrbitBallContext(subspace, x)
    return ctx.distance(y, n, tol)


def gauge_of_orbit_ball(subspace, x, v) -> float:
    """Least sigma1 over span operators sending x to v (inf outside the span)."""
    val, _ = OrbitBallContext(subspace, x).gauge(v)
    return val


def _view_level(n) -> float:
    """The level of a LocatedSet view, which divides its gauges by it: as
    as_level checks it, and refused at 0, where the ball is {0}."""
    n = linalg.as_level(n)
    if n == 0.0:
        raise DimensionError("the level-0 ball is {0}: it has no gauge, so "
                             "a view needs a level n > 0")
    return n


def orbit_ball(subspace, x, n: float,
               ctx: Optional[OrbitBallContext] = None) -> LocatedSet:
    """LocatedSet view of the level-n orbit ball through x, n > 0: the
    context's distance, gauges and gauge_on (the compiled gauge with its
    one-eigenvalue ceiling and its slack), gauges, ceiling and slack
    divided by n. Level 0 is ball_distance's, through the context."""
    n = _view_level(n)
    if ctx is None:
        ctx = OrbitBallContext(subspace, x)

    def loc(y, tol):
        return ctx.distance(y, n, tol)

    def gg(V):
        return ctx.gauges(V)[0] / n

    def gg_on(B):
        gauge, ceiling, slack = ctx.gauge_on(B)
        return (lambda U: gauge(U)[0] / n), ceiling / n, slack / n

    return LocatedSet(subspace.dim, loc, gg,
                      description=f"orbit ball at level {n:g}", gauge_on=gg_on)


def euclidean_ball(center, radius: float) -> LocatedSet:
    """Closed Euclidean ball as an exactly locatable set."""
    c = linalg.as_vector(center)
    r = float(radius)
    if not r >= 0:
        raise DimensionError("radius must be nonnegative")

    def loc(y, tol):
        delta = y - c
        nd = float(np.linalg.norm(delta))
        if nd <= r:
            return DistanceResult(0.0, y.copy(), None, 0.0, 0, "ball-interior")
        point = c + (r / nd) * delta
        return DistanceResult(nd - r, point, None, 0.0, 0, "ball-surface")

    gauge = None
    if float(np.linalg.norm(c)) == 0.0 and r > 0:
        def gauge(V):
            return np.linalg.norm(V, axis=1) / r

    return LocatedSet(c.size, loc, gauge, description=f"ball radius {r:g}")


def linear_image_ball(T, n: float = 1.0) -> LocatedSet:
    """The ellipsoid {T u : ||u|| <= n}, n > 0, as an exactly locatable set.

    Everything comes from one checked SVD T = U diag(s) V', keeping the r
    singular values above 1e-13 s_1. The least-norm preimage of y is
    V_r (U_r'y / s_r), with no normal equations (whose error grows with
    kappa^2, so that at kappa = 1e4 a vector on the range already failed
    its own range test). Nearest points come from the least-squares
    solution when it is feasible and otherwise from the boundary
    multiplier equation in the eigenvalues s_r^2 of T'T, solved by
    bisection; the gauge is the norm of the least-norm preimage over n.

    gauge_on(B) returns that gauge on U @ B.T with the ceiling
    sigma1(T^+ B) / n and a slack, both widened by the rounding of the
    preimages (inf and 0 when a column of B is off the range of T).
    Rounding, to first order, with eps the machine epsilon, kappa =
    s_1 / s_r and k the number of columns of B: the SVD is exact for a
    T + E with ||E|| <= (d + m) eps s_1, which moves T^+ v by at most
    2 ||T^+|| ||E|| |T^+ v| for v on the range, and the three products of
    the preimage add (d + m)(1 + 2 sqrt(r)) eps kappa more, so a computed
    gauge is within a relative delta = (d + m)(3 + 2 sqrt(r)) eps kappa
    of the exact one. Rounding B u moves it by at most
    e_B = k eps ||B||_F / (s_r n). The computed sigma1(T^+ B) is then
    within (1 + sqrt(k)) delta of the exact one, relative (the columns of
    T^+ B are each within delta), so the ceiling
    (sigma1 (1 + (1 + sqrt(k)) delta) / n + e_B)(1 + delta) bounds both
    the exact gauge and every computed value on the unit sphere, and the
    exact gauge exceeds a computed value by at most the slack
    2 delta ceiling + e_B.
    """
    T = linalg.as_matrix(T)
    d, m = T.shape
    n = _view_level(n)
    U, s, Vt = linalg.checked_svd(T)
    top = float(s[0])
    r = int(np.count_nonzero(s > max(top * 1e-13, 1e-150)))
    Ur, sr, Vr = U[:, :r], s[:r], Vt[:r].T
    lr = sr * sr

    def min_norm_preimage(y):
        # row-wise for a stack; with r = 0 the products are all zeros
        return ((y @ Ur) / sr) @ Vr.T

    def loc(y, tol):
        u = min_norm_preimage(y)
        nu = float(np.linalg.norm(u))
        if nu <= n:
            point = T @ u
            return DistanceResult(float(np.linalg.norm(y - point)), point,
                                  None, 0.0, 0, "ellipsoid-ls")
        b = sr * (Ur.T @ y)   # V_r'T'y
        lo, hi = 0.0, float(np.linalg.norm(b)) / n
        its = 0
        for _ in range(200):
            its += 1
            mu = 0.5 * (lo + hi)
            val = float(np.sum((b / (lr + mu)) ** 2))
            if val > n * n:
                lo = mu
            else:
                hi = mu
            if hi - lo <= 1e-16 * max(1.0, hi):
                break
        mu = 0.5 * (lo + hi)
        u = Vr @ (b / (lr + mu))
        nu = float(np.linalg.norm(u))
        if nu > 0:
            u *= n / nu
        point = T @ u
        return DistanceResult(float(np.linalg.norm(y - point)), point,
                              None, 0.0, its, "ellipsoid-kkt")

    def preimages(V):
        # the least-norm preimage of each row, and whether it is off range
        U = min_norm_preimage(V)
        resid = np.linalg.norm(V - U @ T.T, axis=1)
        return U, resid > 1e-9 * np.maximum(np.linalg.norm(V, axis=1), 1.0)

    def gauge(V):
        U, off = preimages(V)
        return np.where(off, np.inf, np.linalg.norm(U, axis=1) / n)

    def gauge_on(B):
        U, off = preimages(B.T)
        if off.any() or not r:
            return (lambda C: gauge(C @ B.T)), np.inf, 0.0
        eps = _EPS
        k = B.shape[1]
        delta = (d + m) * (3.0 + 2.0 * np.sqrt(r)) * eps * top / float(sr[-1])
        e_B = k * eps * float(np.linalg.norm(B)) / (float(sr[-1]) * n)
        sigma = float(np.linalg.svd(U, compute_uv=False)[0])
        ceiling = (sigma * (1.0 + (1.0 + np.sqrt(k)) * delta) / n + e_B) * (1.0 + delta)
        return (lambda C: gauge(C @ B.T)), ceiling, 2.0 * delta * ceiling + e_B

    return LocatedSet(d, loc, gauge, description="linear image of a ball",
                      gauge_on=gauge_on)


def grid_oracle_distance(subspace, x, n: float, y, eps: float,
                         cap: int = GRID_CAP):
    """Two-sided bracket (lower, upper) of the orbit-ball distance by pure
    enumeration: grid the coefficient box, keep members, rescale the
    boundary band, and subtract the rigorous covering radius.

    Deliberately avoids the projected solver; spectral norms on the grid
    use an independent closed-form route for small matrices. Refuses more
    than 4 coefficients or grids beyond cap.
    """
    xv = linalg.as_vector(x)
    y = linalg.as_vector(y)
    n = linalg.as_level(n)
    eps = float(eps)
    if not eps > 0:
        raise DimensionError("eps must be positive")
    k = subspace.k
    if k > 4:
        raise GridOracleRefusal(f"grid oracle handles at most 4 coefficients (got {k})")
    image_norms = np.array([float(np.linalg.norm(B @ xv)) for B in subspace.basis])
    if float(image_norms.max()) == 0.0:
        d0 = float(np.linalg.norm(y))
        return d0, d0
    L2 = float(np.sqrt(np.sum(image_norms ** 2)))
    sig_lip = float(np.sqrt(sum(linalg.spectral_norm(B) ** 2 for B in subspace.basis)))
    nx = float(np.linalg.norm(xv))
    h = 2.0 * eps / (np.sqrt(k) * (L2 + sig_lip * nx))
    size, chunks = operators.grid_orbit_points(
        subspace, xv, n, h, n + sig_lip * h * np.sqrt(k) / 2.0)
    if size > cap:
        raise GridOracleRefusal(
            f"grid oracle needs about {size} points (cap {cap})")
    best = np.inf
    for pts in chunks:
        if len(pts):
            best = min(best, float(np.linalg.norm(pts - y, axis=1).min()))
    cover = h * np.sqrt(k) / 2.0 * (L2 + sig_lip * nx)
    return max(0.0, best - cover), best
