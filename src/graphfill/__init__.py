"""Recovery of missing sensor readings via time-varying graph signal
reconstruction with a Sobolev smoothness penalty."""

from .graph import (
    NodePositions,
    SensorGraph,
    SobolevOperator,
    SpectralDecomposition,
    build_knn_graph,
    sobolev_operator,
    spectral_decomposition,
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
from .ingest import Dataset, filter_consistent_nodes, load_dataset, load_positions, write_results
from .metrics import MetricReport, ScaleParams, error_report, inverse_scale
from .sampling import apply_mask, random_mask
from .solver import (
    ReconstructionResult,
    SobolevConfig,
    dense_oracle_solve,
    objective_gradient,
    reconstruct_sobolev,
    reconstruct_tikhonov,
)
from .synthetic import synthetic_dataset
from .temporal import (
    TimeVaryingSignal,
    smoothness,
    sobolev_norm_tv,
    sobolev_objective,
    temporal_difference,
    temporal_difference_operator,
)

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
    "SobolevOperator",
    "SpectralDecomposition",
    "TimeVaryingSignal",
    "apply_mask",
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
    "reconstruct_tikhonov",
    "run_experiment",
    "smoothness",
    "sobolev_norm_tv",
    "sobolev_objective",
    "sobolev_operator",
    "spectral_decomposition",
    "synthetic_dataset",
    "temporal_difference",
    "temporal_difference_operator",
    "write_edge_list",
    "write_results",
]
