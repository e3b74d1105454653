"""Heuristics and bounds for general nonconvex quadratically constrained
quadratic programs, built around a Suggest-and-Improve loop."""

from .core import (
    Assessment,
    Constraint,
    QcqpProblem,
    QuadraticForm,
    Sense,
    assess,
    dehomogenize,
    evaluate,
    to_epigraph,
    to_homogeneous,
)
from .errors import (
    DegenerateHomogeneousError,
    DimensionMismatchError,
    InfeasibleConstraintError,
    NotConvexError,
    NotScalableError,
    NotSPDError,
    NumericalFailureError,
    ParseError,
    QcqpError,
    TooLargeError,
)
from .generators import (
    brute_force,
    gen_beamforming,
    gen_boolean_ls,
    gen_maxbisection,
    gen_maxclique,
    gen_maxcut,
    gen_partitioning,
    gen_3sat,
)
from .improve import (
    ImproveReport,
    greedy_clique,
    improve_admm,
    improve_ccp,
    improve_coordinate_descent,
    improve_sequence,
    round_balanced_sign,
    round_sign,
    scale_to_cover,
    solve_convex,
)
from .oneconstraint import (
    ConstraintProjector,
    project_eq,
    project_ineq,
    solve_interval,
    solve_one_constraint,
)
from .onevar import solve_onevar
from .relax import (
    CutPlaneOptions,
    RelaxationResult,
    axis_pair_cuts,
    sample_from_lifted,
    sdr_bound,
    sdr_bound_cutting_plane,
    spectral_bound,
    tighten,
)
from .split import split_cholesky_diff, split_eigen, split_shift
from .suggest import SuggestOutcome, suggest_random, suggest_sdr, suggest_spectral
from .cli import PipelineConfig, load_problem, run_pipeline, save_problem

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
