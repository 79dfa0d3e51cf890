"""Rotor walks on finite sink-truncated graphs.

Build a graph with an origin and absorbing sinks, solve the voltage form of
its Green function, derive edge weights whose per-vertex minimizers give the
escape-rate-maximizing rotor configuration, and run the deterministic
n-particle escape experiment with its conserved quantity checked throughout.
"""
import os

if "OPENBLAS_NUM_THREADS" not in os.environ:  # no call here threads BLAS: see README, Install
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # noqa: F401
    del os.environ["OPENBLAS_NUM_THREADS"]

from .errors import (
    AbortedMaxSteps,
    DimensionMismatch,
    GraphInvalid,
    InvalidParameter,
    NonConvergence,
    RotorWalkError,
)
from .graphs import (
    Graph,
    RotorMechanism,
    build_bary_tree,
    build_lattice_ball,
    build_path,
    check_graph,
    check_mechanism,
    default_mechanism,
    load_edge_list,
    save_edge_list,
    shuffled_mechanism,
)
from .harmonic import (
    HarmonicProfile,
    VisitEstimates,
    mc_green,
    residual,
    solve_harmonic,
    srw_escape_mc,
)
from .weights import (
    RotorConfig,
    WeightTable,
    check_config,
    count_min_weight_ties,
    min_weight_config,
    random_config,
    weight_table,
)
from .experiment import (
    ExperimentState,
    InvariantTracker,
    ParticleStatus,
    compute_invariant,
    init_experiment,
    run_until_settled,
    step,
)
from .analysis import (
    EnsembleSummary,
    EscapeReport,
    TheoremCheckResult,
    escape_sweep,
    random_ensemble,
    theorem_check,
)
from .rng import philox_generator
from .verify import CheckRecord, run_verification

__version__ = "0.1.0"

__all__ = [
    "AbortedMaxSteps",
    "CheckRecord",
    "DimensionMismatch",
    "EnsembleSummary",
    "EscapeReport",
    "ExperimentState",
    "Graph",
    "GraphInvalid",
    "HarmonicProfile",
    "InvalidParameter",
    "InvariantTracker",
    "NonConvergence",
    "ParticleStatus",
    "RotorConfig",
    "RotorMechanism",
    "RotorWalkError",
    "TheoremCheckResult",
    "VisitEstimates",
    "WeightTable",
    "build_bary_tree",
    "build_lattice_ball",
    "build_path",
    "check_config",
    "check_graph",
    "check_mechanism",
    "compute_invariant",
    "count_min_weight_ties",
    "default_mechanism",
    "escape_sweep",
    "init_experiment",
    "load_edge_list",
    "mc_green",
    "min_weight_config",
    "philox_generator",
    "random_config",
    "random_ensemble",
    "residual",
    "run_until_settled",
    "run_verification",
    "save_edge_list",
    "shuffled_mechanism",
    "solve_harmonic",
    "srw_escape_mc",
    "step",
    "theorem_check",
    "weight_table",
    "__version__",
]
