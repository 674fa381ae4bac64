"""Constructive location of operator-orbit sets in finite dimensions.

Core objects: operator subspaces and their orbits, located sets with
distance and gauge oracles, the nested-limit level sweep, greedy
decomposition and inner radii of balanced convex bodies, and the
projection pipeline tying them together.
"""

from .defaults import (BUDGET, GRID_CAP, MAX_SOLVER_ITERS, NET_CAP,
                       PROBE_SEED, RANK_TOL, TOL)
from .errors import (ConvergenceFailure, DependentBasisError, DimensionError,
                     GridOracleRefusal, NetTooLargeError, OrbitLocatorError,
                     PipelineRefusal, SolverFailure)
from .operators import (OperatorSubspace, OrbitGeometry, coefficient_box,
                        covering_gap, epsilon_net, make_subspace, op_norm,
                        orbit)
from .located import (DistanceResult, LocatedSet, OrbitBallContext,
                      ball_distance, euclidean_ball, gauge_of_orbit_ball,
                      grid_oracle_distance, linear_image_ball, orbit_ball)
from .nested import (DistanceReport, Level, Located, Stabilized, Undecided,
                     cauchy_bound, locate_distance, strict_excess, tail_bound)
from .open_mapping import (Decomposition, DecompositionStep, Member,
                           RadiusResult, Witness, greedy_decompose,
                           inner_radius, open_map_radius)
from .pipeline import (ProbeRow, ProjectionCertificate, build_projection,
                       metric_complement_distance, pipeline_distance,
                       span_inner_radius, truncation_index)
from .demo import (DEFAULT_C_VALUES, DemoRow, demo_table, diag_subspace,
                   format_table, rows_to_csv)

__version__ = "0.1.0"

__all__ = [
    "BUDGET", "GRID_CAP", "MAX_SOLVER_ITERS", "NET_CAP",
    "PROBE_SEED", "RANK_TOL", "TOL",
    "ConvergenceFailure", "DependentBasisError", "DimensionError",
    "GridOracleRefusal", "NetTooLargeError", "OrbitLocatorError",
    "PipelineRefusal", "SolverFailure",
    "OperatorSubspace", "OrbitGeometry", "coefficient_box",
    "covering_gap", "epsilon_net", "make_subspace", "op_norm", "orbit",
    "DistanceResult", "LocatedSet", "OrbitBallContext", "ball_distance",
    "euclidean_ball", "gauge_of_orbit_ball", "grid_oracle_distance",
    "linear_image_ball", "orbit_ball",
    "DistanceReport", "Level", "Located", "Stabilized", "Undecided",
    "cauchy_bound", "locate_distance", "strict_excess", "tail_bound",
    "Decomposition", "DecompositionStep", "Member", "RadiusResult",
    "Witness", "greedy_decompose", "inner_radius", "open_map_radius",
    "ProbeRow", "ProjectionCertificate", "build_projection",
    "metric_complement_distance", "pipeline_distance", "span_inner_radius",
    "truncation_index",
    "DEFAULT_C_VALUES", "DemoRow", "demo_table", "diag_subspace",
    "format_table", "rows_to_csv",
]
