"""Recovery of missing sensor readings via time-varying graph signal
reconstruction with a Sobolev smoothness penalty."""

import os

# One BLAS thread unless the user chose a count. The solves are small (50 x 50
# blocks), and the harness already runs one worker process per CPU, each of
# which would otherwise start a BLAS thread per CPU. It takes effect only if
# numpy is not yet loaded, so it must come before every submodule import.
if not any(os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .graph import (
    NodePositions,
    SensorGraph,
    build_knn_graph,
    sobolev_operator,
)
from .harness import (
    ExperimentResult,
    GridSearchResult,
    grid_search,
    knn_baseline_impute,
)
from .ingest import Dataset, filter_consistent_nodes, load_dataset, load_positions
from .metrics import MetricReport, error_report
from .sampling import random_mask
from .solver import (
    ReconstructionResult,
    SobolevConfig,
    dense_oracle_solve,
    objective_gradient,
    reconstruct_sobolev,
)
from .synthetic import synthetic_dataset
from .temporal import TimeVaryingSignal, sobolev_objective, temporal_difference_operator

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ExperimentResult",
    "GridSearchResult",
    "MetricReport",
    "NodePositions",
    "ReconstructionResult",
    "SensorGraph",
    "SobolevConfig",
    "TimeVaryingSignal",
    "build_knn_graph",
    "dense_oracle_solve",
    "error_report",
    "filter_consistent_nodes",
    "grid_search",
    "knn_baseline_impute",
    "load_dataset",
    "load_positions",
    "objective_gradient",
    "random_mask",
    "reconstruct_sobolev",
    "sobolev_objective",
    "sobolev_operator",
    "synthetic_dataset",
    "temporal_difference_operator",
]
