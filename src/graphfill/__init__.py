"""Recovery of missing sensor readings via time-varying graph signal
reconstruction with a Sobolev smoothness penalty."""

from .graph import (
    NodePositions,
    SensorGraph,
    build_knn_graph,
    sobolev_operator,
    write_edge_list,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    GridSearchResult,
    grid_search,
    knn_baseline_impute,
    run_experiment,
)
from .ingest import Dataset, filter_consistent_nodes, load_dataset, load_positions
from .metrics import MetricReport, ScaleParams, error_report, inverse_scale
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
    "ExperimentConfig",
    "ExperimentResult",
    "GridSearchResult",
    "MetricReport",
    "NodePositions",
    "ReconstructionResult",
    "ScaleParams",
    "SensorGraph",
    "SobolevConfig",
    "TimeVaryingSignal",
    "build_knn_graph",
    "dense_oracle_solve",
    "error_report",
    "filter_consistent_nodes",
    "grid_search",
    "inverse_scale",
    "knn_baseline_impute",
    "load_dataset",
    "load_positions",
    "objective_gradient",
    "random_mask",
    "reconstruct_sobolev",
    "run_experiment",
    "sobolev_objective",
    "sobolev_operator",
    "synthetic_dataset",
    "temporal_difference_operator",
    "write_edge_list",
]
