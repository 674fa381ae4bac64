"""Problem corpora of the three workloads.

Each corpus has a fixed geometry, drawn once from a generator seed that is
written here. The run's ``--seed`` draws an exact change of basis: every
basis matrix is multiplied by a power of two. That leaves the operator
space, the orbit and every distance unchanged, and the program's
Frobenius-orthonormal frame comes out bit for bit the same, so the program
does the same arithmetic on every seed while receiving different inputs.
Fresh random draws are not used because their cost ranges from 1 ms to
78 s a problem and some of them fail on some seeds (see the README).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

import checks

FAMILY50_SEED = 424242   # the acceptance suite's family50 draw
SPAN_SEED = 1729
SCALE_EXPONENTS = (-3, 3)

DIAG_CS = (0.0, 1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 0.1, -0.1, 0.75,
           0.33, -0.33, 0.6, -0.6, 0.9, -0.9, 0.45, -0.45, 0.05, -0.05)

# (dim, k, orbit rank); rank < k gives the orbit-ball gauge a null space
SPAN_SHAPES = ((2, 1, 1), (3, 1, 1), (4, 1, 1), (3, 2, 1),
               (2, 2, 2), (3, 2, 2), (4, 2, 2), (2, 3, 2),
               (3, 3, 3), (4, 3, 3), (3, 3, 3))


@dataclass(frozen=True, eq=False)
class Problem:
    name: str
    basis: tuple
    x: np.ndarray
    y: Optional[np.ndarray] = None
    n: Optional[float] = None        # ball level, for balldist
    r: Optional[float] = None        # claimed inner radius, for decompose
    rescale: bool = True             # False: same inputs on every seed

    @property
    def dim(self) -> int:
        return self.x.size

    @property
    def k(self) -> int:
        return len(self.basis)


def family50() -> list:
    """The 50 instances of the acceptance family50 fixture, in its order:
    20 members of the diagonal family, then 30 random subspaces with
    dim 2..4 and k 1..3."""
    rng = np.random.default_rng(FAMILY50_SEED)
    out = []
    for i, c in enumerate(DIAG_CS):
        y = rng.normal(size=2) * 1.2
        out.append(Problem(f"diag{i:02d}", (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                           np.array([1.0, c]), y))
    while len(out) < 50:
        dim = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        basis = tuple(rng.normal(size=(dim, dim)) for _ in range(k))
        x = rng.normal(size=dim)
        y = rng.normal(size=dim) * 1.5
        out.append(Problem(f"rand{len(out):02d}", basis, x, y))
    return out


def with_decompose_target(p: Problem) -> Problem:
    """Claim r = the rigorous inner-radius floor of the unit orbit ball and
    target y = 0.9 r along the first orbit image. Computed before any
    rescaling, so the target is the same on every seed."""
    r = checks.inner_radius_floor(p.basis, p.x)
    w = p.basis[0] @ p.x
    return replace(p, y=0.9 * r * w / float(np.linalg.norm(w)), r=r)


def span_problems() -> list:
    """Random subspaces covering orbit ranks 1, 2 and 3, with and without
    a null space (k larger than the orbit rank). Problems with a null space
    carry a decomposition target."""
    rng = np.random.default_rng(SPAN_SEED)
    out = []
    for i, (dim, k, rank) in enumerate(SPAN_SHAPES):
        x = rng.normal(size=dim)
        basis = [rng.normal(size=(dim, dim)) for _ in range(k)]
        # later matrices send x into the span of the first `rank` images
        kill_x = np.eye(dim) - np.outer(x, x) / float(x @ x)
        for j in range(rank, k):
            mix = rng.normal(size=rank)
            basis[j] = (sum(m * basis[a] for a, m in enumerate(mix))
                        + rng.normal(size=(dim, dim)) @ kill_x)
        p = Problem(f"span{i:02d}_d{dim}k{k}r{rank}", tuple(basis), x)
        out.append(with_decompose_target(p) if rank < k else p)
    return out


def cli_problems() -> dict:
    """One problem per subcommand that reads a file, keyed by subcommand."""
    f50 = family50()
    span = span_problems()
    rng = np.random.default_rng(SPAN_SEED + 1)
    T = rng.normal(size=(3, 3))
    return {
        "distance": f50[25],
        "balldist": replace(f50[43], n=2.0),
        "project": span[3],
        "radius": span[4],
        "decompose": with_decompose_target(span[6]),
        # open_map_radius works on the map's own entries, so rescaling it
        # would not keep the arithmetic the same: the map stays fixed
        "omt": Problem("omt3", (T,), np.ones(3), rescale=False),
    }


def rescaled(problems, rng: np.random.Generator) -> list:
    """Multiply every basis matrix by 2**e, e drawn uniformly from
    SCALE_EXPONENTS, except in problems marked rescale=False."""
    lo, hi = SCALE_EXPONENTS
    out = []
    for p in problems:
        e = rng.integers(lo, hi + 1, size=p.k)
        if not p.rescale:
            out.append(p)
            continue
        basis = tuple(np.ldexp(B, int(ei)) for B, ei in zip(p.basis, e))
        out.append(replace(p, basis=basis))
    return out
