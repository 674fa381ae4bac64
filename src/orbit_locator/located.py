"""Located sets: sets carrying a distance oracle that returns a certified
nearest point for every query.

The main instance is the image of a scaled operator-norm ball through a
fixed vector, {M x : M in span(B_1..B_k), sigma1(M) <= n}. Its solver has
three routes: an exact shortcut when the orthogonal projection Py of the
query onto the orbit span already lies in the set, a boundary SQP
candidate, and ADMM as the one fallback. The SQP step is Newton on the KKT
system of the top singular pair, with the curvature of sigma1 in the
Lagrangian Hessian wherever the top singular value is simple, however close
the second; only an exact tie drops it. Every boundary answer is certified
by a duality gap: the Lagrangian dual has a closed form at any d x d
multiplier W, so the SQP candidate is checked at two KKT multipliers, the
single top pair's and a nonnegative fit over the pairs within 5% of the
top, which covers the exact ties,
and ADMM, balancing its penalty against its residuals, stops once the best
of its iterates scaled onto the ball meets the best dual bound of its
multipliers. The gap is also the SQP's stop rule: every iteration takes it
from the SVD it already makes, and a level leaves the search on the
iteration it is certified at its tolerance. No alternating projection
(Dykstra) runs. The SQP and the certificate run row-wise over levels:
solve_levels finds and checks the boundary candidates of one query at many
levels in one lockstep search, each started from the spectral clip of the
interior representative, and distance picks its level's candidate up from
the query cache; a single level is the one-row case.

The shortcut is decided lazily. sigma1 of the least-norm preimage of Py
bounds gauge(Py) from above (it is the gauge when no span operator kills
x), so when that bound already clears n the answer is Py, witnessed by
the least-norm preimage; only otherwise does the gauge's pattern search
over the null directions run. Gauges are evaluated row-wise on stacks of
vectors, so a round of the inner-radius search over many directions
costs one stacked SVD, or one spectral-norm sweep per pattern round.

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
_BALANCE_EVERY = 10    # ADMM iterations between residual-balancing checks
_BALANCE_RATIO = 10.0  # residual ratio that doubles or halves ADMM's rho


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
        # H_inv is pinv(H) with pinv's own cut: drop 2 lam <= eps k 2 lam_max
        self.H_inv = np.zeros((self.k, self.k))
        if self.rank > 0:
            lams, V = linalg.sym_eigh_desc(0.5 * self.H, 1e-14)
            self.range_vecs = V[:, :self.rank]
            self.range_lams = np.clip(lams[:self.rank], 1e-300, None)
            self.null_vecs = V[:, self.rank:]
            kept = V[:, lams > np.finfo(float).eps * self.k * lams[0]]
            self.H_inv = (kept / (2.0 * lams[:kept.shape[1]])) @ kept.T
        else:
            self.range_vecs = np.zeros((self.k, 0))
            self.range_lams = np.zeros(0)
            self.null_vecs = np.eye(self.k)
        self._query_cache: dict[bytes, dict] = {}

    # ---- coefficient/matrix bridges -------------------------------------

    # mat, tcoords, point, feasify, _f and _grad are row-wise on stacks

    def mat(self, t) -> np.ndarray:
        return np.einsum("...k,kij->...ij", t, self.stack)

    def tcoords(self, M) -> np.ndarray:
        return np.einsum("...ij,kij->...k", M, self.stack)

    def point(self, t) -> np.ndarray:
        return t @ self.Phi.T

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

        One lockstep pattern search over the null directions runs for all
        rows from their least-norm preimages, steered by closed-form
        spectral norms and re-anchored on LAPACK's; each of its rounds is
        one spectral-norm sweep spanning four step sizes. Without a null
        space the least-norm preimage is the only preimage, and the search
        is one stacked SVD."""
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

    def feasify(self, t, n) -> np.ndarray:
        """t scaled down by n / sigma1(mat(t)) when that is below 1; n is a
        scalar or broadcasts against the rows of a stack."""
        t = np.asarray(t, dtype=float)
        sig = _sigma1(self.mat(t))
        over = (sig > n) & (sig > 0.0)
        return t * np.where(over, n / np.where(over, sig, 1.0), 1.0)[..., None]

    def project(self, w, n: float, dyk_tol: float, max_sweeps: int = 400):
        """Euclidean projection of coefficient vector w onto
        {t : sigma1(mat(t)) <= n}, via alternating corrections between the
        span and the spectral ball (Dykstra). Returns (t, shift) with t
        feasible and shift an estimate of the distance to the exact
        projection.

        No solver route calls it; the fallback is ADMM. It stays defined
        because perfbench/layertrace.py wraps it by looking it up with
        owner.__dict__[attr]: removing it breaks the benchmark's --trace 1
        run until that wrapper table drops it."""
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
        return np.einsum("...i,...i->...", r, r)

    def _grad(self, t, y):
        return 2.0 * ((self.point(t) - y) @ self.Phi)

    def _top_pairs(self, U, Vt):
        """For stacked SVD factors of mat(t), with p = min(d, 3): the top p
        pairs' outer products u_i v_i', shape (rows, p, d, d), and G[r, k,
        i] = u_i' Q_k v_i, the gradients of their singular values."""
        p = min(self.dim, 3)
        outer = np.swapaxes(U[:, :, :p], 1, 2)[..., None] * Vt[:, :p, None, :]
        return outer, np.swapaxes(self.tcoords(outer), 1, 2)

    def _multiplier(self, t, y, svd=None) -> np.ndarray:
        """Two KKT multipliers for each row t of a stack, shape (rows, 2, d,
        d), from the SVD of mat(t) (svd, when the caller has it). The first
        is the single pair W1 = mu u1 v1', mu = max(0, -<grad, g> /
        ||g||^2) with g the gradient of the top singular value. The second
        is the band W = sum mu_i u_i v_i' over the leading pairs within 5% of
        the top, mu >= 0 the nonnegative least-squares fit of -grad by their
        gradients, found by trying every support; it is W1 when the band is
        one pair. Where the top value ties, the subgradient spreads over the
        cluster (Overton, SIAM J. Matrix Anal. Appl. 1988) and only the band
        W can match it. Both are 0 where sigma1 <= 1e-14."""
        grad = self._grad(t, y)
        U, sig, Vt = np.linalg.svd(self.mat(t)) if svd is None else svd
        outer, G = self._top_pairs(U, Vt)
        p = G.shape[2]
        band = np.cumprod((sig[:, :p] >= 0.95 * sig[:, :1])
                          & (sig[:, :p] > 1e-300), axis=1).astype(bool)
        mu = np.zeros((len(G), 2, p))
        mu[:, :, 0] = _top_multiplier(grad, G[:, :, 0])[:, None]
        multi = np.flatnonzero(band.sum(axis=1) > 1)
        if multi.size:
            # least squares on each support S (a row of bits) by the masked
            # normal equations; the fit is the nonnegative one, inside the
            # band, of least residual
            G, grad = G[multi], grad[multi]
            S =((np.arange(2 ** p)[:, None] >> np.arange(p)) & 1).astype(bool)
            A = np.swapaxes(G, 1, 2) @ G
            b = -np.einsum("rkp,rk->rp", G, grad)
            fit = (np.linalg.pinv(A[:, None] * (S[:, :, None] & S[:, None, :]))
                   @ (b[:, None] * S)[..., None])[..., 0]
            ok = ~(S & ~band[multi, None]).any(axis=2) & (fit >= 0.0).all(axis=2)
            res = np.linalg.norm(grad[:, None] + fit @ np.swapaxes(G, 1, 2), axis=2)
            mu[multi, 1] = fit[np.arange(multi.size),
                               np.where(ok, res, np.inf).argmin(axis=1)]
        mu *= (sig[:, :1] > 1e-14)[:, :, None]
        return np.einsum("rwp,rpij->rwij", mu, outer)

    def _dual(self, W, y, n) -> np.ndarray:
        """Lower bound on min f over the level-n feasible region from any
        d x d multiplier W; row-wise for a stack of W (n a scalar or one
        level per row).

        With c = tcoords(W), its null part cut off (c' = c - N N'c,
        W' = W - mat(N N'c)), every feasible t has
        <W', mat(t)> = c't <= ||W'||_* sigma1 <= n ||W'||_*, so
        f(t) >= f(t) + c't - n ||W'||_*. On the range of Phi the right
        side is least at t* = R (R'(2 Phi'y - c') / 2 Lambda). Along the
        null directions Phi R is orthogonal to Phi N, and f can fall below
        its range part only through -2 <N'Phi'y, N't>, with ||N't|| <=
        ||t|| <= n sqrt(d): that term keeps the bound valid when the rank
        cut drops a nonzero eigenvalue of Phi'Phi."""
        N, R = self.null_vecs, self.range_vecs
        b = y @ self.Phi
        c = self.tcoords(W)
        cn = (c @ N) @ N.T
        c = c - cn
        t = (((2.0 * b - c) @ R) / (2.0 * self.range_lams)) @ R.T
        nuc = np.linalg.svd(W - self.mat(cn), compute_uv=False).sum(axis=-1)
        leak = 2.0 * np.sqrt(self.dim) * np.linalg.norm(b @ N)
        return (self._f(t, y) + np.einsum("...k,...k->...", c, t)
                - n * (nuc + leak))

    def _cert_gap(self, t, y, n, svd=None) -> np.ndarray:
        """Upper bound f(t) - max _dual(W) on f(t) - min f over the level-n
        feasible region for each feasible row t of a stack (n a scalar or
        one level per row), over the row's two _multiplier W (svd, when
        given, is the SVD of mat(t)). Any W gives a valid bound, so W only
        affects tightness: at an optimum whose top singular value is simple,
        or whose tied top values admit a nonnegative multiplier fit, the
        gap is 0 up to rounding."""
        t = np.asarray(t, dtype=float)
        n = np.asarray(n, dtype=float)[..., None]
        return self._f(t, y) - self._dual(self._multiplier(t, y, svd), y, n).max(axis=-1)

    # ---- boundary Newton/KKT candidate ------------------------------------

    def _sigma1_hessian(self, U, sig, Vt):
        """Hessian of t -> sigma1(mat(t)) at a matrix with SVD (U, sig, Vt)
        whose top singular value is simple:
        sum over j >= 2 of [s1 (a_j a_j' + b_j b_j') + s_j (a_j b_j' + b_j a_j')]
        / (s1^2 - s_j^2), with a_jk = u_j' Q_k v1 and b_jk = u1' Q_k v_j;
        one Hessian per matrix for stacked factors."""
        a = np.einsum("kij,...j->...ki", self.stack, Vt[..., 0, :]) @ U[..., 1:]
        b = (np.einsum("...i,kij->...kj", U[..., 0], self.stack)
             @ np.swapaxes(Vt[..., 1:, :], -1, -2))
        s1, rest = sig[..., :1, None], sig[..., None, 1:]
        den = s1 * s1 - rest * rest

        def outer(p, q):
            return p @ np.swapaxes(q, -1, -2)

        cross = outer(a * (rest / den), b)
        return (s1 * (outer(a / den, a) + outer(b / den, b))
                + cross + np.swapaxes(cross, -1, -2))

    def _sqp(self, y, n, t0, tol, max_outer: int = 80):
        """Candidates on the active boundary sigma1(mat(t)) = n, one search
        per row of t0 (n and tol: scalars or one value per row) in
        lockstep; a row leaves when its search ends. Each iteration makes
        one stacked mat and one stacked SVD, and first takes every row's
        duality gap (_cert_gap) from that SVD: a row stops once _certified
        at its tol. The others share one batched Newton step on the KKT
        system whose one constraint is the top pair's, sigma1 = n, with the
        Lagrangian's Hessian H + mu sigma1'' and mu the least-squares
        multiplier of the gradient; where mu is 0 or the top value ties
        exactly (sigma2 >= sigma1 (1 - 1e-12), so sigma1'' is undefined)
        the Hessian is H. A row whose KKT multiplier comes out below -1e-12
        takes the unconstrained step -H+ grad. Each row moves by the first
        alpha in 1, 1/2, ..., 2^-11 with f < f_prev - 1e-18 (full steps as
        one stacked trial, the halvings of rejected rows as one more) and
        otherwise stops on a step below 1e-13 max(1, ||t||), on |f| <
        1e-30, on a stall or after max_outer iterations; such a row takes
        its gap at its final point. t0 is scaled onto the ball first.
        Returns (t, steps taken, f, gap), one per row."""
        t = np.array(t0, dtype=float)
        n = np.broadcast_to(np.asarray(n, dtype=float), t.shape[:1])
        tol = np.broadcast_to(np.asarray(tol, dtype=float), t.shape[:1])
        t = self.feasify(t, n)
        f = self._f(t, y)
        gap = np.zeros(len(t))
        done = np.zeros(len(t), dtype=bool)
        iters = np.zeros(len(t), dtype=int)
        k = self.k
        eps = np.finfo(float).eps
        halves = 0.5 ** np.arange(1, 12)
        act = np.arange(len(t))
        for _ in range(max_outer):
            if not act.size:
                break
            ta, na, fa = t[act], n[act], f[act]
            U, sig, Vt = svd = np.linalg.svd(self.mat(ta))
            gap[act] = self._cert_gap(ta, y, na, svd)
            shut = _certified(fa, gap[act], tol[act])
            done[act] = shut
            if shut.any():
                act, ta, na, fa, U, sig, Vt = (
                    a[~shut] for a in (act, ta, na, fa, U, sig, Vt))
                if not act.size:
                    break
            iters[act] += 1
            grad = self._grad(ta, y)
            # the optimum sits on the boundary (the caller ruled out the
            # interior), so the top pair is the one constraint
            g = self._top_pairs(U, Vt)[1][:, :, 0]
            mu = _top_multiplier(grad, g)
            K = np.zeros((act.size, k + 1, k + 1))
            K[:, :k, :k] = self.H
            # sigma1 is smooth wherever its value is simple, however close
            # the second; at an exact tie sigma1'' is undefined
            bent = np.flatnonzero((mu > 0.0) & np.all(
                sig[:, 1:2] < (1.0 - 1e-12) * sig[:, :1], axis=1))
            if bent.size:
                K[bent, :k, :k] += (mu[bent, None, None]
                                    * self._sigma1_hessian(U[bent], sig[bent], Vt[bent]))
            K[:, :k, k] = K[:, k, :k] = g
            rhs = np.concatenate([-grad, (na - sig[:, 0])[:, None]], axis=1)
            sol = (np.linalg.pinv(K, rcond=eps * (k + 1)) @ rhs[..., None])[..., 0]
            # a pruned multiplier leaves the unconstrained step
            delta = np.where((sol[:, k] >= -1e-12)[:, None], sol[:, :k],
                             -grad @ self.H_inv.T)
            moving = (np.linalg.norm(delta, axis=1)
                      > 1e-13 * np.maximum(1.0, np.linalg.norm(ta, axis=1)))
            live = np.flatnonzero(moving)
            tc = self.feasify(ta[live] + delta[live], na[live])
            fc = self._f(tc, y)
            won = fc < fa[live] - 1e-18
            ta[live[won]], fa[live[won]] = tc[won], fc[won]
            lost = live[~won]
            ended = ~moving
            if lost.size:
                tc = self.feasify(ta[lost, None] + halves[:, None] * delta[lost, None],
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
            gap[rest] = self._cert_gap(t[rest], y, n[rest])
        return t, iters, f, gap

    # ---- public distance query --------------------------------------------

    def _as_query(self, y) -> np.ndarray:
        y = linalg.as_vector(y)
        if y.shape != (self.dim,):
            raise DimensionError(f"query has shape {y.shape}, expected ({self.dim},)")
        return y

    def _interior(self, q: dict, n: float):
        """(inside, g, t_rep) for the query data q at level n: whether Py
        lies in the level-n ball, with g >= gauge(Py) and coefficients t_rep
        of an operator of sigma1 g sending x to Py. gauge(Py) <= ub, so a
        bound that clears n decides it exactly as the gauge would;
        otherwise the gauge's search runs, once per query."""
        g, t_rep = q["ub"], q["t_hat"]
        if not g <= n - 5e-10 * max(1.0, g):
            if "gauge" not in q:
                q["gauge"] = self.gauge(q["Py"])
            g, t_rep = q["gauge"]
        return g <= n - 5e-10 * max(1.0, g), g, t_rep

    def solve_levels(self, y, ns, tols) -> None:
        """Boundary candidates for the query y at every level in ns, from
        one lockstep _sqp; tols is a scalar or one tolerance per level, and
        each row of the search stops once its duality gap meets its level's
        tolerance. Levels whose route is interior or degenerate, and levels
        already solved for this query, are skipped. Each level starts from
        the spectral clip U min(Sigma, n) V' of the interior route's
        representative, taken back to coefficients. The (t, iterations, f,
        gap) of each level goes to the query cache, where distance takes it
        up; no SolverFailure is raised here."""
        y = self._as_query(y)
        if self.rank == 0:
            return
        q = self._query(y)
        ns = [float(n) for n in ns]
        todo = {}
        for n, tol in zip(ns, np.broadcast_to(np.asarray(tols, dtype=float), len(ns))):
            if n <= 0.0 or n in q["levels"] or n in todo:
                continue
            inside, _, t_rep = self._interior(q, n)
            if not inside:
                todo[n] = (t_rep, tol)
        if not todo:
            return
        n = np.array(list(todo))
        t_rep, tol = (np.array(v) for v in zip(*todo.values()))
        U, sig, Vt = np.linalg.svd(self.mat(t_rep))
        t0 = self.tcoords((U * np.minimum(sig, n[:, None])[:, None]) @ Vt)
        t, iters, f, gap = self._sqp(y, n, t0, tol)
        for i, level in enumerate(todo):
            q["levels"][level] = (t[i], int(iters[i]), float(f[i]),
                                  float(gap[i]))

    def _admm(self, y, n, tol, t, f, iters):
        """ADMM on min f(s) + [sigma1(X) <= n] subject to mat(s) = X (Boyd
        et al., Distributed Optimization and Statistical Learning via the
        Alternating Direction Method of Multipliers, FnT ML 2011) from the
        candidate t with f = f(t), iters iterations already spent, and W
        from the band multiplier of t. rho starts at 2 sqrt(lam_max
        lam_min) of Phi'Phi and is balanced every _BALANCE_EVERY iterations
        (ibid. 3.4.1): doubled when the primal residual ||S - X|| exceeds
        _BALANCE_RATIO times the dual one rho ||X - X_prev||, halved in
        the opposite case. W is unscaled, so it needs no rescale. The best
        f(feasify(s)) is the upper bound and the largest _dual(W) the lower
        one. Returns (t, iterations, f, gap) once _certified at tol. There
        is no stall exit: after MAX_SOLVER_ITERS iterations in all it
        raises SolverFailure."""
        rho = 2.0 * np.sqrt(self.range_lams[0] * self.range_lams[-1])
        inv = np.linalg.inv(self.H + rho * np.eye(self.k))
        b = 2.0 * (y @ self.Phi)
        X = self.mat(t)
        W = self._multiplier(t[None], y)[0, 1]
        lower = -np.inf
        start = iters
        while iters < MAX_SOLVER_ITERS:
            iters += 1
            s = inv @ (b - self.tcoords(W) + rho * self.tcoords(X))
            S = self.mat(s)
            X_prev, X = X, linalg.clip_spectral(S + W / rho, n)
            W = W + rho * (S - X)
            ts = self.feasify(s, n)
            fs = float(self._f(ts, y))
            if fs < f:
                t, f = ts, fs
            lower = max(lower, float(self._dual(W, y, n)))
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

    def distance(self, y, n: float, tol: float = TOL) -> DistanceResult:
        """Distance from y to {M x : M in the span, sigma1(M) <= n}, within
        tol, with a witness point. A boundary level takes its solve_levels
        candidate (the cached one when an earlier call solved this level
        for y) and returns it when _certified at tol; otherwise ADMM runs
        from it, and the certified answer replaces the cached candidate.
        Raises SolverFailure with honest bounds when ADMM cannot close the
        gap within the iteration budget."""
        y = self._as_query(y)
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
        inside, _, t_rep = self._interior(q, n)
        if inside:
            return DistanceResult(
                value=q["base"], point=q["Py"].copy(),
                coeffs=self.orig_coeffs(t_rep), tol=tol, iterations=0,
                method="interior")
        if n not in q["levels"]:
            self.solve_levels(y, [n], tol)
        t, iters, f, gap = q["levels"][n]
        if not _certified(f, gap, tol):
            t, iters, f, gap = self._admm(y, n, tol, t, f, iters)
            q["levels"][n] = (t, iters, f, gap)
        return DistanceResult(
            value=float(np.sqrt(self._f(t, y))), point=self.point(t),
            coeffs=self.orig_coeffs(t), tol=tol, iterations=int(iters),
            method="certified")

    def _query(self, y) -> dict:
        """Per-query data kept across levels: Py, ||y - Py||, the least-norm
        preimage t_hat of Py and ub = sigma1(mat(t_hat)) >= gauge(Py). The
        gauge with its coefficients, under "gauge", is ub and t_hat when
        there is no null space and is otherwise filled in on first need.
        "levels" maps a boundary level to its solve_levels candidate."""
        key = y.tobytes()
        hit = self._query_cache.get(key)
        if hit is not None:
            return hit
        Py = self.geo.P @ y
        base = float(np.linalg.norm(y - Py))
        t_hat = self.min_norm_preimage(Py)
        ub = linalg.spectral_norm(self.mat(t_hat))
        out = {"Py": Py, "base": base, "t_hat": t_hat, "ub": ub, "levels": {}}
        if self.null_vecs.shape[1] == 0:
            out["gauge"] = (ub, t_hat)
        if len(self._query_cache) > 128:
            self._query_cache.clear()
        self._query_cache[key] = out
        return out


def _sigma1(Ms) -> np.ndarray:
    """Largest singular value of each matrix in a stack, by LAPACK."""
    return np.linalg.svd(Ms, compute_uv=False)[..., 0]


def _top_multiplier(grad, g):
    """The least-squares KKT multiplier of the top singular pair, row-wise:
    max(0, -<grad, g> / ||g||^2) with g the gradient of sigma1."""
    return np.maximum(0.0, -np.einsum("rk,rk->r", grad, g)
                      / np.maximum(np.einsum("rk,rk->r", g, g), 1e-300))


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
