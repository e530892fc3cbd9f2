"""Exact K-medoids clustering via a fused combination generator.

The solver in `ekm` finds the provably optimal medoid set by folding
evaluation and selection into the recursive combination generator, so
every size-K configuration is scored but never stored.  `oracle` holds
an independent brute-force check, `baselines` the classic approximate
algorithms, and `bench` the scaling/comparison harness and the one
name-to-solver dispatch.  `problem` holds what every solver shares: the
instance check, `SolverParams` and `Solution`.  The package holds only
what a solve uses: the unfused, list-based generator that the solver
fuses is the test suite's reference (`tests/generator_reference.py`).
"""

from .baselines import BaselineParams, clarans, fasterpam, pam
from .bench import (
    CompareRow,
    ScalingRecord,
    compare,
    fit_slope,
    run_scaling,
    scaling_csv_text,
    scaling_summary,
    write_scaling_csv,
)
from .dataset import Dataset, load_csv, save_csv, standardize, synthetic
from .ekm import solve_ekm
from .errors import (
    DistanceOverflow,
    EmptyDataset,
    ExactKMedoidsError,
    InstanceTooLarge,
    InsufficientData,
    InvalidArguments,
    ParseError,
    RankOverflow,
    ShapeError,
    UnknownMetric,
)
from .metrics import (
    DistanceCache,
    Metric,
    assign,
    distance_cache,
    evaluate_batch,
    evaluate_objective,
    get_metric,
    list_metrics,
    register_metric,
)
from .oracle import solve_exhaustive
from .problem import Solution, SolverParams

__version__ = "0.1.0"

__all__ = [
    "BaselineParams",
    "CompareRow",
    "Dataset",
    "DistanceOverflow",
    "DistanceCache",
    "EmptyDataset",
    "ExactKMedoidsError",
    "InstanceTooLarge",
    "InsufficientData",
    "InvalidArguments",
    "Metric",
    "ParseError",
    "RankOverflow",
    "ScalingRecord",
    "ShapeError",
    "Solution",
    "SolverParams",
    "UnknownMetric",
    "assign",
    "clarans",
    "compare",
    "distance_cache",
    "evaluate_batch",
    "evaluate_objective",
    "fasterpam",
    "fit_slope",
    "get_metric",
    "list_metrics",
    "load_csv",
    "pam",
    "register_metric",
    "run_scaling",
    "save_csv",
    "scaling_csv_text",
    "scaling_summary",
    "solve_ekm",
    "solve_exhaustive",
    "standardize",
    "synthetic",
    "write_scaling_csv",
]
