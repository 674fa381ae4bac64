"""Central table of numeric defaults.

TOL and BUDGET are defaults that can be overridden per call (keyword
argument) or per run (CLI flag / problem-file field), and NET_CAP and
GRID_CAP per call. The others are fixed: RANK_TOL, GAUGE_TOL, PROBE_SEED,
MAX_SOLVER_ITERS and RANK_MARGIN are taken as an argument by nothing.
Keeping them in one place keeps the library, the CLI and the test suite
in agreement.
"""

TOL = 1e-6        # distance tolerance
GAUGE_TOL = 1e-10  # orbit-ball gauge stop: dual gap at one null coordinate, step floor at more
BUDGET = 30       # nested-limit level budget
RANK_TOL = 1e-9   # rank cuts: SVD of Phi (orbit rank), Gram-Schmidt, basis validation
RANK_MARGIN = 100.0  # a singular value this close (as a factor) to the rank cut makes the rank marginal

NET_CAP = 200_000       # epsilon-net size cap before refusing
GRID_CAP = 40_000_000   # grid-oracle enumeration cap
PROBE_SEED = 1729       # seed for the random probes of build_projection

# ADMM iteration budget (SQP iterations count against it): 12.6 times the
# 1583 the hardest level of the test corpora needs (see README)
MAX_SOLVER_ITERS = 20_000
