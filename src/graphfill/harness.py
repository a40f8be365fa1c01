"""Monte-Carlo experiments, hyperparameter grid search and the kNN baseline.

The protocol: for each sampling density and each seed master_seed +
repetition, masked_problem (i) draws a random mask and (ii) min-max scales
the data using the observed entries only. Then, for every method and
configuration being compared, (iii) reconstruct the hidden entries, (iv)
undo the scaling and (v) score RMSE/MAE against the ground truth over the
hidden entries. Each seed's mask is posed once and shared by every
configuration of a grid search. Aggregates are the mean and population
standard deviation over repetitions.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyColumn, EmptyEvaluationSet, GraphfillError
from .graph import SensorGraph, _frozen, build_knn_graph
from .ingest import Dataset
from .metrics import ScaleParams, error_report, inverse_scale
from .sampling import random_mask, samples_per_column
from .solver import SobolevConfig, _check_number, reconstruct_sobolev
from .temporal import TimeVaryingSignal, check_mask

METHODS = ("sobolev", "tikhonov", "knn_baseline")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: densities x repetitions for a single method."""

    densities: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7)
    repetitions: int = 20
    master_seed: int = 0
    method: str = "sobolev"
    sobolev: SobolevConfig = field(default_factory=SobolevConfig)
    k_graph: int = 5

    def __post_init__(self):
        dens = tuple(float(_check_number("density", d)) for d in self.densities)
        if not dens:
            raise ValueError("densities must be nonempty")
        if any(not 0 < d <= 1 for d in dens):
            raise ValueError(f"densities must lie in (0, 1], got {dens}")
        if any(b <= a for a, b in zip(dens, dens[1:])):
            raise ValueError(f"densities must be strictly increasing, got {dens}")
        for name in ("repetitions", "master_seed", "k_graph"):
            _check_number(name, getattr(self, name), numbers.Integral)
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.k_graph < 1:
            raise ValueError("k_graph must be positive")
        object.__setattr__(self, "densities", dens)


@dataclass(frozen=True)
class ExperimentResult:
    """Per-(method, density) metric aggregates over Monte-Carlo repetitions.

    per_rep holds (seed, rmse, mae) for each successful repetition; failed
    holds (seed, error message) for repetitions that raised. Aggregates are
    over successes only, so a result with failures is flagged rather than
    silently averaged down.
    """

    dataset_name: str
    method: str
    density: float
    rmse_mean: float
    rmse_std: float
    mae_mean: float
    mae_std: float
    per_rep: tuple[tuple[int, float, float], ...]
    failed: tuple[tuple[int, str], ...] = ()
    repetitions: int = 0

    @property
    def complete(self) -> bool:
        return not self.failed and len(self.per_rep) == self.repetitions


@dataclass(frozen=True)
class GridSearchResult:
    """Winning configuration plus the full per-config report."""

    best_config: SobolevConfig
    best_result: ExperimentResult
    entries: tuple[tuple[SobolevConfig, ExperimentResult], ...]


def knn_baseline_impute(
    y: TimeVaryingSignal, mask: np.ndarray, graph: SensorGraph
) -> TimeVaryingSignal:
    """Fill hidden entries with the weighted mean of observed graph neighbours.

    For hidden entry (i, t) the estimate is the W(i, .)-weighted average of
    the nodes adjacent to i that are observed at time t; when no neighbour
    is observed the column mean of the observed entries stands in. Observed
    entries pass through unchanged.
    """
    j = check_mask(mask, y.values.shape)
    if y.n_nodes != graph.n_nodes:
        raise GraphfillError("signal and graph dimensions must agree")
    col_counts = j.sum(axis=0)
    if np.any(col_counts == 0):
        t = int(np.nonzero(col_counts == 0)[0][0])
        raise EmptyColumn(f"time step {t} has no observed nodes")
    w = graph.weights
    neighbour_sum = w @ (y.values * j)
    neighbour_weight = w @ j
    column_mean = (y.values * j).sum(axis=0) / col_counts
    fallback = np.broadcast_to(column_mean, y.values.shape)
    safe_weight = np.where(neighbour_weight > 0, neighbour_weight, 1.0)
    averaged = np.where(neighbour_weight > 0, neighbour_sum / safe_weight, fallback)
    return TimeVaryingSignal(values=np.where(j, y.values, averaged))


def fit_observed_scale(truth_values: np.ndarray, mask: np.ndarray):
    """Min-max parameters from observed entries only, plus the scaled Y.

    Hidden entries of truth_values are never read: the returned matrix is
    exactly zero there regardless of their content, which keeps ground truth
    out of the reconstruction inputs. metrics.inverse_scale undoes the map.
    """
    check_mask(mask, truth_values.shape)
    observed = truth_values[mask]
    params = ScaleParams(min_value=float(observed.min()), max_value=float(observed.max()))
    with np.errstate(invalid="ignore"):
        scaled = (truth_values - params.min_value) / params.span
    y_values = np.where(mask, scaled, 0.0)
    return params, y_values


def _solve(method, y, mask, graph, sobolev_cfg):
    if method == "knn_baseline":
        return knn_baseline_impute(y, mask, graph)
    if method == "tikhonov":
        # plain-Laplacian regularization: the Sobolev problem at eps = 0, beta = 1
        sobolev_cfg = SobolevConfig(0.0, 1.0, sobolev_cfg.gamma)
    result = reconstruct_sobolev(y, mask, graph, sobolev_cfg)
    if not result.converged:
        raise GraphfillError(
            f"solver did not converge within {result.iterations} iterations "
            f"(relative residual {result.final_relative_residual:.3e})"
        )
    return result.xbar


def masked_problem(dataset: Dataset, density: float, seed: int):
    """Pose one repetition: (observed, hidden, scale, y) for the seed's mask.

    observed is the random_mask draw ANDed with the dataset's native mask;
    hidden holds the natively present entries the draw hides, the only ones
    with ground truth to score. scale and y come from fit_observed_scale on
    the observed entries alone.
    """
    n, m = dataset.signal.values.shape
    drawn = random_mask(n, m, density, seed)
    observed = _frozen(drawn & dataset.native_mask, bool)
    hidden = _frozen(~drawn & dataset.native_mask, bool)
    scale, y_values = fit_observed_scale(dataset.signal.values, observed)
    return observed, hidden, scale, TimeVaryingSignal(values=y_values)


def _aggregate(dataset_name, method, density, per_rep, failed, repetitions):
    if per_rep:
        rmses = np.array([r for _, r, _ in per_rep])
        maes = np.array([m for _, _, m in per_rep])
        stats = (
            float(rmses.mean()),
            float(rmses.std()),
            float(maes.mean()),
            float(maes.std()),
        )
    else:
        stats = (float("nan"),) * 4
    return ExperimentResult(
        dataset_name=dataset_name,
        method=method,
        density=density,
        rmse_mean=stats[0],
        rmse_std=stats[1],
        mae_mean=stats[2],
        mae_std=stats[3],
        per_rep=tuple(per_rep),
        failed=tuple(failed),
        repetitions=repetitions,
    )


def _require_full_coverage(dataset: Dataset) -> None:
    if not dataset.fully_covered:
        raise GraphfillError(
            "experiment needs a fully covered dataset; apply "
            "filter_consistent_nodes(min_coverage=1.0) first"
        )


def _run_cells(dataset: Dataset, graph, density, seeds, cells) -> list[ExperimentResult]:
    """Score every (method, SobolevConfig) cell on each seed's mask, posed once.

    A seed whose mask cannot be posed is a failed repetition of every cell.
    """
    n = dataset.n_nodes
    if samples_per_column(n, density) >= n:
        raise EmptyEvaluationSet(
            f"density {density} samples all {n} nodes per snapshot; "
            "nothing is hidden, so there is nothing to evaluate"
        )
    per_rep = [[] for _ in cells]
    failed = [[] for _ in cells]
    for seed in seeds:
        try:
            observed, hidden, scale, y = masked_problem(dataset, density, seed)
        except GraphfillError as exc:
            for cell_failed in failed:
                cell_failed.append((seed, f"{type(exc).__name__}: {exc}"))
            continue
        for (method, sobolev_cfg), cell_reps, cell_failed in zip(cells, per_rep, failed):
            try:
                estimate = _solve(method, y, observed, graph, sobolev_cfg)
                report = error_report(dataset.signal, inverse_scale(estimate, scale), hidden)
                cell_reps.append((seed, report.rmse, report.mae))
            except GraphfillError as exc:
                cell_failed.append((seed, f"{type(exc).__name__}: {exc}"))
    return [
        _aggregate(dataset.name, method, density, reps, fails, len(seeds))
        for (method, _), reps, fails in zip(cells, per_rep, failed)
    ]


def run_experiment(dataset: Dataset, cfg: ExperimentConfig) -> list[ExperimentResult]:
    """Monte-Carlo cross-validation over all configured densities.

    Deterministic given the config: repetition r draws its mask with seed
    master_seed + r, so distinct methods or hyperparameters evaluated with
    the same master_seed see identical masks (paired comparisons).
    """
    _require_full_coverage(dataset)
    graph = build_knn_graph(dataset.positions, cfg.k_graph)
    seeds = range(cfg.master_seed, cfg.master_seed + cfg.repetitions)
    return [
        _run_cells(dataset, graph, density, seeds, [(cfg.method, cfg.sobolev)])[0]
        for density in cfg.densities
    ]


def grid_search(
    dataset: Dataset,
    density: float,
    eps_grid,
    beta_grid,
    gamma_grid,
    repetitions: int = 20,
    master_seed: int = 0,
    k_graph: int = 5,
) -> GridSearchResult:
    """Exhaustive (epsilon, beta, gamma) search at one sampling density.

    Every configuration is scored on the identical mask sequence (seeds
    master_seed .. master_seed + repetitions - 1). The winner minimizes
    rmse_mean; ties break toward smaller (gamma, epsilon, beta). A
    configuration with any failed repetition stays in the report but is
    excluded from the argmin.
    """
    # every configuration is validated before the first cell runs
    ExperimentConfig(
        densities=(density,),
        repetitions=repetitions,
        master_seed=master_seed,
        method="sobolev",
        k_graph=k_graph,
    )
    configs = [
        SobolevConfig(epsilon=eps, beta=beta, gamma=gamma)
        for eps, beta, gamma in itertools.product(eps_grid, beta_grid, gamma_grid)
    ]
    if not configs:
        raise ValueError("all three grids must be nonempty")
    _require_full_coverage(dataset)
    graph = build_knn_graph(dataset.positions, k_graph)

    seeds = range(master_seed, master_seed + repetitions)
    results = _run_cells(dataset, graph, density, seeds, [("sobolev", c) for c in configs])
    entries = list(zip(configs, results))

    eligible = [(c, r) for c, r in entries if r.complete]
    if not eligible:
        raise GraphfillError("every grid configuration had failed repetitions")
    best_config, best_result = min(
        eligible, key=lambda cr: (cr[1].rmse_mean, cr[0].gamma, cr[0].epsilon, cr[0].beta)
    )
    return GridSearchResult(
        best_config=best_config, best_result=best_result, entries=tuple(entries)
    )
