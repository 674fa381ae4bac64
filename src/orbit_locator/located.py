"""Located sets: sets carrying a distance oracle that returns a certified
nearest point for every query.

The main instance is the image of a scaled operator-norm ball through a
fixed vector, {M x : M in span(B_1..B_k), sigma1(M) <= n}. Its solver has
three routes: an exact shortcut when the orthogonal projection Py of the
query onto the orbit span already lies in the set, a boundary SQP
candidate, and a projected-gradient fallback; every boundary answer is
checked by a computable optimality certificate. The SQP step is Newton on
the KKT system, with the curvature of sigma1 in the Lagrangian Hessian,
when the top singular value is simple, and a first-order linearization of
each cluster member when it is not.
Projection onto the feasible region alternates between the span and the
spectral-norm ball (Dykstra); its residual is folded into the certificate.

The shortcut is decided lazily. sigma1 of the least-norm preimage of Py
bounds gauge(Py) from above (it is the gauge when no span operator kills
x), so when that bound already clears n the answer is Py, witnessed by
the least-norm preimage; only otherwise does the gauge's pattern search
over the null directions run. Gauges are evaluated row-wise on stacks of
vectors, so a scan over many directions costs one stacked SVD, or one
spectral-norm sweep per pattern round.

Euclidean balls and linear images of balls (ellipsoids) are provided as
exactly-locatable companions, and a pure enumeration oracle gives two-sided
distance brackets for small coefficient counts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg, operators
from .defaults import GAUGE_TOL, GRID_CAP, MAX_SOLVER_ITERS, RANK_TOL, TOL
from .errors import (DimensionError, GridOracleRefusal, OrbitLocatorError,
                     SolverFailure)


@dataclass(frozen=True, eq=False)
class DistanceResult:
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
    true distance; dist and nearest are shorthands. gauges(V, tol), when the
    set supports it, applies the Minkowski functional to each row of V: the
    least s >= 0 with v in s-times-the-set (inf when no scaling reaches v).
    The gauge oracle takes (V, tol) and returns one value per row; exact
    oracles ignore tol. gauge(v) is the one-row case.
    """

    def __init__(self, ambient_dim: int, locate: Callable, gauge=None,
                 description: str = ""):
        self.ambient_dim = int(ambient_dim)
        self._locate = locate
        self._gauge = gauge
        self.description = description

    def locate(self, y, tol: float = TOL) -> DistanceResult:
        return self._locate(linalg.as_vector(y), float(tol))

    def dist(self, y, tol: float = TOL) -> float:
        return self.locate(y, tol).value

    def nearest(self, y, tol: float = TOL) -> np.ndarray:
        return self.locate(y, tol).point

    def gauges(self, V, tol: float = GAUGE_TOL) -> np.ndarray:
        if self._gauge is None:
            raise OrbitLocatorError(
                f"{self.description or 'this set'} has no gauge oracle")
        V = linalg.as_rows(V, self.ambient_dim)
        return np.asarray(self._gauge(V, float(tol)), dtype=float)

    def gauge(self, v, tol: float = GAUGE_TOL) -> float:
        return float(self.gauges(linalg.as_vector(v)[None, :], tol)[0])


_LEVELS = 4   # step sizes probed per compass_min round: s, s/2, ..., s/8


@functools.lru_cache(maxsize=16)
def _pattern(m: int) -> np.ndarray:
    """The probes of one compass_min round in R^m for a unit step, in probe
    order: +-e_i, then (+-e_i +- e_j) / sqrt(2) for i < j, at each of the
    _LEVELS step scales 1, 1/2, ..., largest first. Shared, so read-only."""
    dirs = []
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        dirs.append(e)
        dirs.append(-e)
    for i in range(m):
        for j in range(i + 1, m):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    e = np.zeros(m)
                    e[i] = si
                    e[j] = sj
                    dirs.append(e / np.sqrt(2.0))
    D = np.stack(dirs) if dirs else np.zeros((0, m))
    D = np.concatenate([D * 0.5 ** i for i in range(_LEVELS)])
    D.flags.writeable = False
    return D


def compass_min(fn, z0, *, init_step, step_tol, max_evals: int = 50_000,
                batch_fn=None):
    """Derivative-free coordinate/diagonal pattern descent, one search per
    row of z0, all run in lockstep.

    Search i minimizes its own objective over R^m from z0[i] (init_step
    and step_tol are scalars or one value per search). Each round probes
    every pattern direction at the four step sizes s, s/2, s/4 and s/8 at
    once and moves to the best improving probe, keeping s; when no probe
    improves, s shrinks by 16, and the search stops once s is at most
    step_tol. On convex objectives the final value is within O(step) of
    the minimum. fn(rows, P) evaluates the objectives of the searches
    rows[j] at the points P[j], shape (len(rows), p, m), and returns shape
    (len(rows), p); each round makes one call covering every search still
    active. batch_fn, when given, has the same form and approximates fn
    more cheaply; it only steers the searches, and the returned values are
    re-anchored on fn. Returns (z, fn(z), evaluations) with z of the shape
    of z0, one value per search and the total number of evaluations;
    evaluations and max_evals (a per-search cap) count probes.
    """
    z = np.array(z0, dtype=float)
    S, m = z.shape
    D = _pattern(m)
    every = np.arange(S)
    f = np.asarray(fn(every, z[:, None, :]), dtype=float)[:, 0]
    evals = S
    if m:
        steer = fn if batch_fn is None else batch_fn
        step = np.full(S, init_step, dtype=float)
        floor = np.full(S, step_tol, dtype=float)
        # the active searches are kept compacted and written back only when
        # one stops; all of them have made the same number of evaluations
        act = every[step > floor]
        za, fa, sa, la = z[act], f[act], step[act], floor[act]
        rows = np.arange(act.size)
        per_search = 1
        while act.size and per_search < max_evals:
            cand = za[:, None, :] + sa[:, None, None] * D
            vals = np.asarray(steer(act, cand), dtype=float)
            evals += vals.size
            per_search += D.shape[0]
            j = vals.argmin(axis=1)
            low = vals[rows, j]
            better = low < fa - 1e-18
            moved = np.count_nonzero(better)
            if moved:
                np.copyto(za, cand[rows, j], where=better[:, None])
                np.copyto(fa, low, where=better)
            if moved == act.size:
                continue
            np.multiply(sa, 0.5 ** _LEVELS, out=sa, where=~better)
            keep = sa > la
            if np.count_nonzero(keep) < act.size:
                z[act], f[act] = za, fa
                act, za, fa, sa, la = (act[keep], za[keep], fa[keep],
                                       sa[keep], la[keep])
                rows = rows[:act.size]
        z[act], f[act] = za, fa
        if batch_fn is not None:
            f = np.asarray(fn(every, z[:, None, :]), dtype=float)[:, 0]
            evals += S
    return z, f, evals


class OrbitBallContext:
    """Shared geometry for distance queries against the scaled orbit balls
    of one subspace through one vector, for varying scale n.

    Internally works in coefficients of the Frobenius-orthonormal basis, so
    coefficient Euclidean distance equals matrix Frobenius distance and the
    spectral-ball projection is metrically faithful.
    """

    def __init__(self, subspace: operators.OperatorSubspace, x,
                 rank_tol: float = RANK_TOL):
        self.subspace = subspace
        self.rank_tol = float(rank_tol)
        self.geo = operators.orbit(subspace, x, rank_tol)
        self.x = self.geo.x
        self.k = subspace.k
        self.dim = subspace.dim
        self.stack = np.stack(subspace.ortho)
        self.Phi = np.stack([Q @ self.x for Q in subspace.ortho], axis=1)
        self.rank = self.geo.rank
        self.H = 2.0 * (self.Phi.T @ self.Phi)
        if self.rank > 0:
            lams, V = linalg.sym_eigh_desc(0.5 * self.H, 1e-14)
            self.range_vecs = V[:, :self.rank]
            self.range_lams = np.clip(lams[:self.rank], 1e-300, None)
            self.null_vecs = V[:, self.rank:]
            self.L = 2.0 * float(lams[0])
        else:
            self.range_vecs = np.zeros((self.k, 0))
            self.range_lams = np.zeros(0)
            self.null_vecs = np.eye(self.k)
            self.L = 0.0
        self.eta = 1.0 / self.L if self.L > 0 else 0.0
        self._query_cache: dict[bytes, dict] = {}

    # ---- coefficient/matrix bridges -------------------------------------

    def mat(self, t) -> np.ndarray:
        return np.einsum("k,kij->ij", t, self.stack)

    def tcoords(self, M) -> np.ndarray:
        return np.einsum("ij,kij->k", M, self.stack)

    def point(self, t) -> np.ndarray:
        return self.Phi @ t

    def orig_coeffs(self, t) -> np.ndarray:
        return np.linalg.solve(self.subspace.upper_tri, t)

    def min_norm_preimage(self, v) -> np.ndarray:
        """Least-norm t with Phi t = projection of v onto the orbit span;
        row-wise for a stack of vectors."""
        b = (v @ self.Phi) @ self.range_vecs
        return (b / self.range_lams) @ self.range_vecs.T

    def rank_margin(self) -> float:
        """The factor by which the singular values of Phi clear the rank
        cut rank_tol * sigma_max(Phi), on whichever side they fall (inf
        when Phi is zero). A small factor means the rank decision, and with
        it P, is marginal."""
        sv = np.linalg.svd(self.Phi, compute_uv=False)
        cut = self.rank_tol * sv[0]
        if cut == 0.0:
            return np.inf
        with np.errstate(divide="ignore"):
            return float(np.min(np.maximum(sv / cut, cut / sv)))

    def span_distance(self, y) -> float:
        """||y - Py||, the distance to the orbit span: an exact lower bound
        on the distance to every orbit ball."""
        return self._query(linalg.as_vector(y))["base"]

    # ---- gauge ------------------------------------------------------------

    def gauge(self, v, tol: float = GAUGE_TOL):
        """Least sigma1 over operators in the span sending x to v, with the
        coefficients of one such operator; (inf, None) when v is outside
        the orbit span."""
        vals, ts = self.gauges(linalg.as_vector(v)[None, :], tol)
        if not np.isfinite(vals[0]):
            return np.inf, None
        return float(vals[0]), ts[0]

    def gauges(self, V, tol: float = GAUGE_TOL):
        """Row-wise gauge of a stack of vectors: (values, coefficient rows),
        with value inf and a row of NaN for vectors outside the orbit span.

        Without a null space the least-norm preimage is the only preimage
        and the values come from one stacked SVD. Otherwise one lockstep
        pattern search over the null directions runs for all rows, steered
        by closed-form spectral norms and re-anchored on LAPACK's; each of
        its rounds is one spectral-norm sweep spanning four step sizes."""
        V = linalg.as_rows(V, self.dim)
        d = self.dim
        nv = np.linalg.norm(V, axis=1)
        if self.rank == 0:
            on = nv == 0.0
        else:
            resid = np.linalg.norm(V - V @ self.geo.P.T, axis=1)
            on = resid <= 1e-9 * np.maximum(nv, 1.0)
        vals = np.where(on, 0.0, np.inf)
        ts = np.zeros((V.shape[0], self.k))
        ts[~on] = np.nan
        live = np.flatnonzero(on & (nv > 0.0))
        if live.size == 0:
            return vals, ts
        t_hat = self.min_norm_preimage(V[live])
        N = self.null_vecs
        if N.shape[1] == 0:
            ts[live] = t_hat
            vals[live] = _sigma1(np.einsum("qk,kij->qij", t_hat, self.stack))
            return vals, ts

        def mats(rows, P):
            return np.einsum("rpk,kij->rpij", P @ N.T + t_hat[rows, None, :],
                             self.stack)

        def steer(rows, P):
            Ms = mats(rows, P)
            return linalg.batch_spectral_norms(
                Ms.reshape(-1, d, d)).reshape(Ms.shape[:2])

        scale = np.maximum(1.0, np.linalg.norm(t_hat, axis=1))
        z, g, _ = compass_min(lambda rows, P: _sigma1(mats(rows, P)),
                              np.zeros((live.size, N.shape[1])),
                              init_step=scale, step_tol=tol * scale / 4.0,
                              batch_fn=steer)
        vals[live] = g
        ts[live] = t_hat + z @ N.T
        return vals, ts

    # ---- feasible-region projection (span <-> spectral ball) -------------

    def feasify(self, t, n: float) -> np.ndarray:
        sig = linalg.spectral_norm(self.mat(t))
        if sig > n and sig > 0.0:
            return t * (n / sig)
        return t

    def project(self, w, n: float, dyk_tol: float, max_sweeps: int = 400):
        """Euclidean projection of coefficient vector w onto
        {t : sigma1(mat(t)) <= n}, via alternating corrections between the
        span and the spectral ball. Returns (t, shift) with t feasible and
        shift an estimate of the distance to the exact projection."""
        M0 = self.mat(w)
        sig = linalg.spectral_norm(M0)
        if sig <= n * (1.0 + 1e-15):
            return np.asarray(w, dtype=float).copy(), 0.0
        X = M0
        p = np.zeros_like(M0)
        q = np.zeros_like(M0)
        resid = np.inf
        t = np.asarray(w, dtype=float)
        for _ in range(max_sweeps):
            Y = linalg.clip_spectral(X + p, n)
            p = X + p - Y
            t = self.tcoords(Y + q)
            Z = self.mat(t)
            q = Y + q - Z
            X = Z
            resid = float(np.linalg.norm(Y - Z))
            if resid <= dyk_tol:
                break
        sig = linalg.spectral_norm(self.mat(t))
        shift = 0.0
        if sig > n and sig > 0.0:
            t2 = t * (n / sig)
            shift = float(np.linalg.norm(t - t2))
            t = t2
        return t, resid + shift

    # ---- certified optimality test -----------------------------------------

    def _f(self, t, y):
        r = self.point(t) - y
        return float(r @ r)

    def _grad(self, t, y):
        return 2.0 * (self.Phi.T @ (self.point(t) - y))

    def _cert_gap(self, t, y, n: float) -> float:
        """Upper bound on f(t) - min f over the feasible region, valid for
        any feasible t.

        For orthonormal frames Up, Vp of the top singular cluster at t and
        any positive semidefinite Z, convexity of the objective and of the
        top singular value gives
        f* >= f(t) - ||grad + <Z, C_.>|| * D - (n tr Z - <Up Z Vp', M>)
        with C_k = Up' Q_k Vp. Every PSD Z keeps the bound valid, so solve
        quality only affects tightness, never correctness. The frames must
        be matched (Up spans M Vp), otherwise no PSD Z can reproduce the
        subgradient at a corner where several singular values tie."""
        grad = self._grad(t, y)
        D = n * np.sqrt(self.dim) + float(np.linalg.norm(t))
        # the objective is exactly quadratic, so on the range of Phi the
        # residual converts at rate 1/(4 lam_min); only the component along
        # the null directions pays the worst-case linear rate
        lam_r = 0.0
        if self.rank > 0:
            lam_r = float(self.range_lams[self.rank - 1]
                          - 1e-12 * self.range_lams[0])
        R = self.range_vecs

        def bound(r, pen):
            rho = float(np.linalg.norm(r))
            lin = rho * D + pen
            if lam_r <= 0.0:
                return lin
            rr = R.T @ r
            rn = r - R @ rr
            quad = (float(rr @ rr) / (4.0 * lam_r)
                    + float(np.linalg.norm(rn)) * D + pen)
            return min(lin, quad)

        best = bound(grad, 0.0)
        M = self.mat(t)
        pairs = linalg.top_singular_pairs(M, rel_gap=1e-2, max_pairs=4)
        if not pairs:
            return best
        vs, _ = linalg.orthonormalize([v for (_, _, v) in pairs], 1e-8)
        if not vs:
            return best
        cols = [M @ v for v in vs]
        if min(float(np.linalg.norm(c)) for c in cols) <= 1e-14:
            return best
        us, _ = linalg.orthonormalize(cols, 1e-8)
        p = min(len(us), len(vs))
        if p == 0:
            return best
        Up = np.stack(us[:p], axis=1)
        Vp = np.stack(vs[:p], axis=1)
        C = np.einsum("ia,kij,jb->kab", Up, self.stack, Vp)
        Cm = Up.T @ M @ Vp

        def score(Z):
            r = grad + np.einsum("ab,kab->k", Z, C)
            pen = max(n * float(np.trace(Z)) - float(np.sum(Z * Cm)), 0.0)
            return bound(r, pen)

        # single-pair closed form: exact when the top singular value is simple
        c0 = C[:, 0, 0]
        mu = max(0.0, -float(grad @ c0) / max(float(c0 @ c0), 1e-300))
        Z = np.zeros((p, p))
        Z[0, 0] = mu
        out = min(best, score(Z))
        if p == 1:
            return out
        # orthonormal basis of symmetric p x p matrices; coefficient 2-norm
        # equals the Frobenius norm, so cone projection commutes with it
        sym = []
        for a in range(p):
            for b in range(a, p):
                B = np.zeros((p, p))
                if a == b:
                    B[a, a] = 1.0
                else:
                    B[a, b] = B[b, a] = np.sqrt(0.5)
                sym.append(B)
        A = np.stack([np.einsum("kab,ab->k", C, B) for B in sym], axis=1)
        Apinv = np.linalg.pinv(A, rcond=1e-13)

        def psd_clip(Zm):
            lams, V = linalg.sym_eigh_desc(0.5 * (Zm + Zm.T), 1e-12)
            return (V * np.clip(lams, 0.0, None)) @ V.T

        def to_mat(z):
            return sum(zi * B for zi, B in zip(z, sym))

        def to_vec(Zm):
            return np.array([float(np.sum(Zm * B)) for B in sym])

        # alternate between the affine set {A z = -grad} and the PSD cone;
        # each cone-side iterate is a valid certificate, keep the best
        z = Apinv @ (-grad)
        Z = psd_clip(to_mat(z))
        out = min(out, score(Z))
        for _ in range(60):
            z = to_vec(Z)
            z = z - Apinv @ (A @ z + grad)
            Z = psd_clip(to_mat(z))
            out = min(out, score(Z))
        return out

    # ---- boundary Newton/KKT candidate ------------------------------------

    def _kkt_step(self, W, grad, G, slacks):
        """Equality-constrained quadratic step on the model Hessian W with
        active-set multiplier pruning: drops constraints whose multipliers
        come out negative. With every constraint dropped the step is the
        unconstrained one on the objective Hessian H."""
        idx = list(range(G.shape[1]))
        while idx:
            p = len(idx)
            K = np.zeros((self.k + p, self.k + p))
            K[:self.k, :self.k] = W
            K[:self.k, self.k:] = G[:, idx]
            K[self.k:, :self.k] = G[:, idx].T
            rhs = np.concatenate([-grad, slacks[idx]])
            sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
            mu = sol[self.k:]
            if np.all(mu >= -1e-12):
                return sol[:self.k]
            idx.pop(int(np.argmin(mu)))
        return np.linalg.lstsq(self.H, -grad, rcond=None)[0]

    def _sigma1_hessian(self, U, sig, Vt):
        """Hessian of t -> sigma1(mat(t)) at a matrix with SVD (U, sig, Vt)
        whose top singular value is simple:
        sum over j >= 2 of [s1 (a_j a_j' + b_j b_j') + s_j (a_j b_j' + b_j a_j')]
        / (s1^2 - s_j^2), with a_jk = u_j' Q_k v1 and b_jk = u1' Q_k v_j."""
        a = np.einsum("kij,j->ki", self.stack, Vt[0]) @ U[:, 1:]
        b = np.einsum("i,kij->kj", U[:, 0], self.stack) @ Vt[1:].T
        s1, rest = sig[0], sig[1:]
        den = s1 * s1 - rest * rest
        cross = (a * (rest / den)) @ b.T
        return s1 * ((a / den) @ a.T + (b / den) @ b.T) + cross + cross.T

    def _sqp(self, y, n: float, t0, max_outer: int = 80):
        """Fast candidate on the active boundary sigma1(mat(t)) = n. When
        the top singular value is simple (no other within 5%) each step is
        Newton on the KKT system: the model Hessian is the Lagrangian's,
        H + mu sigma1'', with mu the least-squares multiplier of the current
        gradient. When it is clustered, each cluster member at n gets its
        own linearized constraint on the objective Hessian alone, a
        first-order step. Returns (t, iterations, reason); the caller
        always re-verifies with the optimality certificate."""
        t = self.feasify(np.asarray(t0, dtype=float).copy(), n)
        f = self._f(t, y)
        iters = 0
        for _ in range(max_outer):
            iters += 1
            M = self.mat(t)
            grad = self._grad(t, y)
            U, sig, Vt = np.linalg.svd(M)
            pairs = linalg.top_singular_pairs(M, rel_gap=0.05, max_pairs=3,
                                              factors=(U, sig, Vt))
            # the optimum sits on the boundary (the caller ruled out the
            # interior), so the top pair is always treated as active; ties
            # within a generous band join it and multiplier pruning evicts
            # wrongly included ones
            active = [pq for i, pq in enumerate(pairs)
                      if i == 0 or pq[0] >= n * (1.0 - 1e-3)]
            if active:
                G = np.stack([np.einsum("i,kij,j->k", u, self.stack, v)
                              for (_, u, v) in active], axis=1)
                slacks = np.array([n - s for (s, _, _) in active])
                W = self.H
                if len(pairs) == 1:
                    g = G[:, 0]
                    mu = max(0.0, -float(grad @ g) / max(float(g @ g), 1e-300))
                    if mu > 0.0:
                        W = self.H + mu * self._sigma1_hessian(U, sig, Vt)
                delta = self._kkt_step(W, grad, G, slacks)
            else:
                delta = np.linalg.lstsq(self.H, -grad, rcond=None)[0]
            nd = float(np.linalg.norm(delta))
            if nd <= 1e-13 * max(1.0, float(np.linalg.norm(t))):
                return t, iters, "converged"
            alpha = 1.0
            accepted = False
            for _ in range(12):
                tc = self.feasify(t + alpha * delta, n)
                fc = self._f(tc, y)
                if fc < f - 1e-18:
                    t, f = tc, fc
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                return t, iters, "stall"
            if abs(f) < 1e-30:
                return t, iters, "converged"
        return t, iters, "budget"

    # ---- public distance query --------------------------------------------

    def distance(self, y, n: float, tol: float = TOL, warm=None) -> DistanceResult:
        """Distance from y to {M x : M in the span, sigma1(M) <= n}, within
        tol, with a witness point. Raises SolverFailure with honest bounds
        when the certificate cannot be met within the iteration budget."""
        y = linalg.as_vector(y)
        if y.shape != (self.dim,):
            raise DimensionError(f"query has shape {y.shape}, expected ({self.dim},)")
        n = float(n)
        tol = float(tol)
        if n < 0.0:
            raise DimensionError("scale n must be nonnegative")
        if n == 0.0 or self.rank == 0:
            return DistanceResult(
                value=float(np.linalg.norm(y)), point=np.zeros(self.dim),
                coeffs=np.zeros(self.k), tol=0.0, iterations=0,
                method="degenerate")
        q = self._query(y)
        base, Py = q["base"], q["Py"]
        # gauge(Py) <= ub, so a bound that clears n decides the interior
        # route exactly as the gauge would; otherwise search for the gauge
        gPy, t_rep = q["ub"], q["t_hat"]
        if not gPy <= n - 5e-10 * max(1.0, gPy):
            if "gauge" not in q:
                q["gauge"] = self.gauge(Py)
            gPy, t_rep = q["gauge"]
        if gPy <= n - 5e-10 * max(1.0, gPy):
            return DistanceResult(
                value=base, point=Py.copy(),
                coeffs=self.orig_coeffs(t_rep), tol=tol, iterations=0,
                method="interior")
        # boundary-active solve over orthonormal coefficients
        if warm is not None:
            t0 = self.feasify(np.asarray(warm, dtype=float).copy(), n)
        elif t_rep is not None and gPy > 0:
            t0 = t_rep * min(1.0, n * (1.0 - 1e-12) / gPy)
        else:
            t0 = np.zeros(self.k)
        t, iters, _ = self._sqp(y, n, t0)
        t = self.feasify(t, n)
        best_t = t.copy()
        best_f = self._f(t, y)
        best_lower = base
        dyk_tol = max(1e-12, 1e-3 * tol) * max(n, 1.0)
        it_total = iters
        z = best_t.copy()
        tprev = best_t.copy()
        theta = 1.0
        burst = 40
        stagnant = 0
        prev_mark = (np.inf, np.inf)
        while True:
            gap = self._cert_gap(best_t, y, n)
            dhat = float(np.sqrt(best_f))
            best_lower = max(best_lower, float(np.sqrt(max(best_f - gap, 0.0))))
            if dhat <= tol or gap <= tol * dhat:
                return DistanceResult(
                    value=dhat, point=self.point(best_t),
                    coeffs=self.orig_coeffs(best_t), tol=tol,
                    iterations=it_total, method="certified")
            mark = (best_f, gap)
            if (abs(mark[0] - prev_mark[0]) <= 1e-15 * max(1.0, best_f)
                    and abs(mark[1] - prev_mark[1]) <= 1e-12 * max(1.0, gap)):
                stagnant += 1
            else:
                stagnant = 0
            prev_mark = mark
            if stagnant >= 8 or it_total >= MAX_SOLVER_ITERS:
                break
            # burst of accelerated projected-gradient iterations
            for _ in range(burst):
                it_total += 1
                w = z - self.eta * self._grad(z, y)
                tn, _ = self.project(w, n, dyk_tol, max_sweeps=30)
                fn_ = self._f(tn, y)
                fprev = self._f(tprev, y)
                if fn_ > fprev:
                    z = tprev.copy()
                    theta = 1.0
                    tn = tprev
                    fn_ = fprev
                else:
                    th1 = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
                    z = tn + ((theta - 1.0) / th1) * (tn - tprev)
                    theta = th1
                if fn_ < best_f:
                    best_t, best_f = tn.copy(), fn_
                tprev = tn
            # SQP polish from the incumbent
            t2, its2, _ = self._sqp(y, n, best_t, max_outer=25)
            it_total += its2
            t2 = self.feasify(t2, n)
            f2 = self._f(t2, y)
            if f2 < best_f:
                best_t, best_f = t2.copy(), f2
                z = t2.copy()
                tprev = t2.copy()
                theta = 1.0
        raise SolverFailure(
            "distance certificate not reached within iteration budget",
            lower=best_lower, upper=float(np.sqrt(best_f)),
            iterations=it_total, partial=self.point(best_t))

    def _query(self, y) -> dict:
        """Per-query data kept across levels: Py, ||y - Py||, the least-norm
        preimage t_hat of Py and ub = sigma1(mat(t_hat)) >= gauge(Py). The
        gauge with its coefficients, under "gauge", is ub and t_hat when
        there is no null space and is otherwise filled in on first need."""
        key = y.tobytes()
        hit = self._query_cache.get(key)
        if hit is not None:
            return hit
        Py = self.geo.P @ y
        base = float(np.linalg.norm(y - Py))
        t_hat = self.min_norm_preimage(Py)
        ub = linalg.spectral_norm(self.mat(t_hat))
        out = {"Py": Py, "base": base, "t_hat": t_hat, "ub": ub}
        if self.null_vecs.shape[1] == 0:
            out["gauge"] = (ub, t_hat)
        if len(self._query_cache) > 128:
            self._query_cache.clear()
        self._query_cache[key] = out
        return out


def _sigma1(Ms) -> np.ndarray:
    """Largest singular value of each matrix in a stack, by LAPACK."""
    return np.linalg.svd(Ms, compute_uv=False)[..., 0]


def ball_distance(subspace, x, n: float, y, tol: float = TOL, warm=None,
                  ctx: Optional[OrbitBallContext] = None) -> DistanceResult:
    """Distance from y to the level-n orbit ball of the subspace through x."""
    if ctx is None:
        ctx = OrbitBallContext(subspace, x)
    return ctx.distance(y, n, tol, warm)


def gauge_of_orbit_ball(subspace, x, v, tol: float = GAUGE_TOL) -> float:
    """Least sigma1 over span operators sending x to v (inf outside the span)."""
    val, _ = OrbitBallContext(subspace, x).gauge(v, tol)
    return val


def orbit_ball(subspace, x, n: float,
               ctx: Optional[OrbitBallContext] = None) -> LocatedSet:
    """LocatedSet view of the level-n orbit ball through x."""
    if ctx is None:
        ctx = OrbitBallContext(subspace, x)
    n = float(n)

    def loc(y, tol):
        return ctx.distance(y, n, tol)

    def gg(V, tol):
        return ctx.gauges(V, tol)[0] / n

    return LocatedSet(subspace.dim, loc, gg,
                      description=f"orbit ball at level {n:g}")


def euclidean_ball(center, radius: float) -> LocatedSet:
    """Closed Euclidean ball as an exactly locatable set."""
    c = linalg.as_vector(center)
    r = float(radius)
    if r < 0:
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
        def gauge(V, tol):
            return np.linalg.norm(V, axis=1) / r

    return LocatedSet(c.size, loc, gauge, description=f"ball radius {r:g}")


def linear_image_ball(T, n: float = 1.0) -> LocatedSet:
    """The ellipsoid {T u : ||u|| <= n} as an exactly locatable set.

    Nearest points come from the least-squares solution when it is feasible
    and otherwise from the boundary multiplier equation, solved by
    bisection; the gauge is the norm of the least-norm preimage over n.
    """
    T = linalg.as_matrix(T)
    d, m = T.shape
    n = float(n)
    G = T.T @ T
    lams, V = linalg.sym_eigh_desc(G, 1e-14)
    top = float(lams[0]) if m else 0.0
    cut = max(top * 1e-26, 1e-300)
    r = int(np.sum(lams > cut))
    Vr = V[:, :r]
    lr = lams[:r]

    def min_norm_preimage(y):
        # row-wise for a stack; with r = 0 the products are all zeros
        return (((y @ T) @ Vr) / lr) @ Vr.T

    def loc(y, tol):
        u = min_norm_preimage(y)
        nu = float(np.linalg.norm(u))
        if nu <= n:
            point = T @ u
            return DistanceResult(float(np.linalg.norm(y - point)), point,
                                  None, 0.0, 0, "ellipsoid-ls")
        b = Vr.T @ (T.T @ y)
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

    def gauge(V, tol):
        U = min_norm_preimage(V)
        resid = np.linalg.norm(V - U @ T.T, axis=1)
        off = resid > 1e-9 * np.maximum(np.linalg.norm(V, axis=1), 1.0)
        return np.where(off, np.inf, np.linalg.norm(U, axis=1) / n)

    return LocatedSet(d, loc, gauge, description="linear image of a ball")


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
    n = float(n)
    eps = float(eps)
    if eps <= 0:
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
    if not np.isfinite(best):
        best = float(np.linalg.norm(y))
    cover = h * np.sqrt(k) / 2.0 * (L2 + sig_lip * nx)
    return max(0.0, best - cover), best
