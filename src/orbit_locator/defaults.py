"""Central table of numeric defaults.

Most entries are defaults that can be overridden per call (keyword
argument) or per run (CLI flag / problem-file field). PROBE_SEED,
MAX_SOLVER_ITERS and RANK_MARGIN are fixed: nothing takes them as an
argument. Keeping them in one place keeps the library, the CLI and the test
suite in agreement.
"""

TOL = 1e-6        # distance / gauge tolerance
GAUGE_TOL = 1e-10  # step floor of the orbit-ball gauge pattern search
STAB_TOL = 1e-7   # plateau test for the nested-limit stabilisation shortcut
BUDGET = 30       # nested-limit level budget
RANK_TOL = 1e-9   # rank decisions in Gram-Schmidt and basis validation
MEM_TOL = 1e-9    # relative spectral-norm membership band: sigma1 <= n*(1+MEM_TOL)
RANK_MARGIN = 100.0  # a singular value this close (as a factor) to the rank cut makes the rank marginal

NET_CAP = 200_000       # epsilon-net size cap before refusing
GRID_CAP = 40_000_000   # grid-oracle enumeration cap
PROBE_SEED = 1729       # seed for sphere-scan and projection-certificate probes

MAX_SOLVER_ITERS = 200_000  # ADMM iteration budget (SQP iterations count against it)

