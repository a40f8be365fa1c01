"""The evaluation protocol: a grid search over methods and hyperparameters,
and the kNN baseline.

grid_search runs the paper's comparison at one sampling density. For each
seed master_seed + repetition, masked_problem (i) draws a random mask and
(ii) min-max scales the data using the observed entries only. Then, for
every cell of every named method, (iii) reconstruct the hidden entries,
(iv) undo the scaling and (v) score RMSE/MAE against the ground truth over
the hidden entries. A dataset may miss readings natively, at any node: the
draw is ANDed with its native mask and must still observe every node, and
only the natively present entries it hides are scored. That is the one
coverage rule; no node needs a complete series. Each seed's mask is posed
once and shared by every cell, so all methods are compared on identical
masks. An input fault, such as a seed whose problem cannot be posed,
raises InvalidInput and ends the call; a repetition fails only when its
solve fails (SingularSystem or ConvergenceFailure). A result keeps only its
repetitions; its statistics, the mean and population standard deviation,
are derived from them.

_run_cells splits the seeds into contiguous runs, one per usable CPU, and
_score_seeds scores a run. Several runs go to a pool of worker processes
that are forked at the first such call and live until the interpreter
exits; each keeps the module state of that moment. The outcomes are put
back in seed order, so results are identical to scoring in one process.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, InvalidInput, SingularSystem
from .graph import SensorGraph, _frozen, build_knn_graph
from .ingest import Dataset
from .metrics import _stat_without_overflow, error_report
from .sampling import random_mask, samples_per_column
from .solver import SobolevConfig, _check_number, _check_snapshots, reconstruct_sobolev
from .temporal import check_mask, check_signal

# the grids that each method searches: tikhonov is the Sobolev problem at
# epsilon = 0, beta = 1, and the kNN baseline has no hyperparameter
SEARCHES = {"sobolev": ("eps_grid", "beta_grid", "gamma_grid"), "tikhonov": ("gamma_grid",),
            "knn_baseline": ()}
METHODS = tuple(SEARCHES)

# one worker per usable CPU, forked at the first call with two or more seed runs
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_pool = None  # (pid of the process that started it, its ProcessPoolExecutor)


@dataclass(frozen=True)
class ExperimentResult:
    """One cell's Monte-Carlo repetitions: each seed gives one outcome.

    per_rep holds (seed, rmse, mae) for each successful repetition; failed
    holds (seed, error message) for each one whose solve failed. The
    statistics are over successes only, and NaN without one, so a result
    with failures is flagged rather than silently averaged down.
    """

    method: str
    per_rep: tuple[tuple[int, float, float], ...]
    failed: tuple[tuple[int, str], ...] = ()

    def _stat(self, column, stat) -> float:
        if not self.per_rep:
            return math.nan
        return _stat_without_overflow(stat, np.array([rep[column] for rep in self.per_rep]))

    rmse_mean = property(lambda self: self._stat(1, np.mean))
    rmse_std = property(lambda self: self._stat(1, np.std))
    mae_mean = property(lambda self: self._stat(2, np.mean))
    mae_std = property(lambda self: self._stat(2, np.std))


@dataclass(frozen=True)
class GridSearchResult:
    """Each named method's winning (config, result), and every cell's.

    A cell's config is its SobolevConfig, or None for the kNN baseline. best
    maps a method whose every configuration has a failed repetition to None.
    """

    best: dict[str, tuple[SobolevConfig | None, ExperimentResult] | None]
    entries: tuple[tuple[SobolevConfig | None, ExperimentResult], ...]


def knn_baseline_impute(y: np.ndarray, mask: np.ndarray, graph: SensorGraph) -> np.ndarray:
    """Fill hidden entries with the weighted mean of observed graph neighbours.

    For hidden entry (i, t) the estimate is the W(i, .)-weighted average of
    the nodes adjacent to i that are observed at time t. Without such a
    neighbour, the mean of the entries observed at t stands in, or, if t
    observes no node, node i's mean over its observed entries; a node never
    observed meeting such a step raises InvalidInput. Observed entries pass
    through unchanged.
    """
    y = check_signal(y)
    j = check_mask(mask, y.shape)
    if y.shape[0] != graph.n_nodes:
        raise InvalidInput(f"signal has {y.shape[0]} nodes, graph has {graph.n_nodes}")
    col_counts, row_counts = j.sum(axis=0), j.sum(axis=1)
    if not (col_counts.all() or row_counts.all()):
        node, t = int(np.argmin(row_counts)), int(np.argmin(col_counts))
        raise InvalidInput(f"node {node} is never observed and time step {t} observes "
                           "no node, so the kNN baseline has no estimate for it")
    neighbour_sum = graph.weights @ (y * j)
    neighbour_weight = graph.weights @ j
    column_mean = (y * j).sum(axis=0) / np.maximum(col_counts, 1)
    node_mean = (y * j).sum(axis=1) / np.maximum(row_counts, 1)
    fallback = np.where(col_counts > 0, column_mean, node_mean[:, None])
    safe_weight = np.where(neighbour_weight > 0, neighbour_weight, 1.0)
    averaged = np.where(neighbour_weight > 0, neighbour_sum / safe_weight, fallback)
    return check_signal(np.where(j, y, averaged))


def _solve(y, mask, graph, config):
    if config is None:
        return knn_baseline_impute(y, mask, graph)
    return reconstruct_sobolev(y, mask, graph, config).xbar


def masked_problem(dataset: Dataset, density: float, seed: int):
    """Pose one repetition: (observed, hidden, y, unscale) for the seed's mask.

    observed is the random_mask draw ANDed with the dataset's native mask,
    redrawn until it observes every node; hidden holds the natively present
    entries the draw hides, the only ones with ground truth to score. y is
    the signal min-max scaled by the observed entries alone,
    (value - low) / (high - low) there and 0 elsewhere; no other entry of
    the dataset is read. unscale(x) maps a reconstruction of y back to data
    units, x * (high - low) + low.

    Raises InvalidInput when the mask cannot be drawn or observes readings
    that are all equal or too wide to scale.
    """
    n, m = dataset.n_nodes, dataset.n_steps
    _check_snapshots(m)  # before the draw, so that no density turns it into a coverage fault
    drawn = random_mask(n, m, density, seed, dataset.native_mask)
    observed = _frozen(drawn & dataset.native_mask, bool)
    hidden = _frozen(~drawn & dataset.native_mask, bool)
    readings = dataset.signal.values[observed]
    low, high = float(readings.min()), float(readings.max())
    if not high > low:
        raise InvalidInput(f"max_value {high} must exceed min_value {low}")
    span = high - low
    if not np.isfinite(span):
        raise InvalidInput(f"the observed readings range from {low} to {high}, wider than "
                           "floating point can hold; scale the readings down")
    y = np.zeros((n, m))
    y[observed] = (readings - low) / span
    y.setflags(write=False)
    return observed, hidden, y, lambda x: check_signal(x * span + low)


def _score_seeds(dataset: Dataset, graph, density, seeds, cells) -> list[list[tuple]]:
    """For each seed, every cell's (seed, rmse, mae), or (seed, failure message)
    where its solve raised SingularSystem or ConvergenceFailure."""
    rows = []
    for seed in seeds:
        observed, hidden, y, unscale = masked_problem(dataset, density, seed)
        row = []
        for _, config in cells:
            try:
                recon = unscale(_solve(y, observed, graph, config))
                report = error_report(dataset.signal.values, recon, hidden)
                row.append((seed, report.rmse, report.mae))
            except (SingularSystem, ConvergenceFailure) as exc:
                row.append((seed, f"{type(exc).__name__}: {exc}"))
        rows.append(row)
    return rows


def _worker_pool():
    """This process's worker pool, started on first use; None in a process that
    multiprocessing started, whose exit would wait on workers of its own."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():  # a forked child owns no pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if multiprocessing.parent_process() is not None:
            return None
        # fork: the workers start before the executor's manager thread, and
        # they exit with the interpreter, leaving no server process behind
        pool = ProcessPoolExecutor(_WORKERS, mp_context=multiprocessing.get_context("fork"))
        atexit.register(pool.shutdown)  # at module teardown, collecting it fails
        _pool = (os.getpid(), pool)
    return _pool[1]


def _run_cells(dataset: Dataset, graph, density, seeds, cells) -> list[ExperimentResult]:
    """Score every (method, config) cell on each seed's mask, posed once."""
    n = dataset.n_nodes
    if samples_per_column(n, density) >= n:
        raise InvalidInput(
            f"density {density} samples all {n} nodes per snapshot; "
            "nothing is hidden, so there is nothing to evaluate"
        )
    runs = min(_WORKERS, len(seeds))
    pool = _worker_pool() if runs > 1 else None
    if pool is None:
        rows = _score_seeds(dataset, graph, density, seeds, cells)
    else:
        cuts = [len(seeds) * i // runs for i in range(runs + 1)]
        chunks = [seeds[a:b] for a, b in zip(cuts, cuts[1:])]
        scored = pool.map(functools.partial(_score_seeds, dataset, graph, density, cells=cells),
                          chunks)
        rows = [row for chunk in scored for row in chunk]
    return [ExperimentResult(method, tuple(o for o in column if len(o) == 3),
                             tuple(o for o in column if len(o) == 2))
            for (method, _), column in zip(cells, zip(*rows))]


def _rank(entry):
    """The argmin key of an entry: rmse_mean, then smaller (gamma, epsilon, beta)."""
    config, result = entry
    ties = () if config is None else (config.gamma, config.epsilon, config.beta)
    return (result.rmse_mean, *ties)


def grid_search(
    dataset: Dataset,
    density: float,
    eps_grid,
    beta_grid,
    gamma_grid,
    repetitions: int = 20,
    master_seed: int = 0,
    k_graph: int = 5,
    methods=("sobolev",),
) -> GridSearchResult:
    """The named methods' grid searches at one sampling density, on one set of masks.

    sobolev searches eps_grid x beta_grid x gamma_grid, tikhonov searches
    gamma_grid at epsilon = 0, beta = 1, and knn_baseline is one cell with
    config None (see SEARCHES). A grid must be nonempty exactly when a named
    method searches it. Every cell is scored on the same masks (seeds
    master_seed .. master_seed + repetitions - 1), and entries list the
    cells in METHODS order. Each method's winner minimizes rmse_mean; ties
    break toward smaller (gamma, epsilon, beta). A configuration with any
    failed repetition stays in entries but cannot win, and a method without
    a complete configuration maps to None in best.
    """
    # every argument is validated before the first cell runs
    density = float(_check_number("density", density))
    if not 0 < density <= 1:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    for name, value in (("repetitions", repetitions), ("master_seed", master_seed),
                        ("k_graph", k_graph)):
        _check_number(name, value, numbers.Integral)
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    if k_graph < 1:
        raise ValueError("k_graph must be positive")
    if isinstance(methods, str):
        raise ValueError(f"methods takes a list of method names, got {methods!r}")
    methods = list(methods)
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if not methods or len(set(methods)) < len(methods):
        raise ValueError(f"methods must be distinct and nonempty, got {methods}")
    methods = [method for method in METHODS if method in methods]
    grids = {"eps_grid": tuple(eps_grid), "beta_grid": tuple(beta_grid),
             "gamma_grid": tuple(gamma_grid)}
    searched = {name for method in methods for name in SEARCHES[method]}
    named = ", ".join(methods)
    for name, grid in grids.items():
        if not grid and name in searched:
            raise ValueError(f"{name} must be nonempty: one of the methods {named} searches it")
        if grid and name not in searched:
            raise ValueError(f"{name} must be empty: none of the methods {named} searches it")
    cells = []
    if "sobolev" in methods:
        cells += [("sobolev", SobolevConfig(*cell)) for cell in itertools.product(*grids.values())]
    if "tikhonov" in methods:
        # plain-Laplacian regularization: the Sobolev problem at eps = 0, beta = 1
        cells += [("tikhonov", SobolevConfig(0.0, 1.0, gamma)) for gamma in grids["gamma_grid"]]
    if "knn_baseline" in methods:
        cells.append(("knn_baseline", None))
    graph = build_knn_graph(dataset.positions, k_graph)

    seeds = range(master_seed, master_seed + repetitions)
    results = _run_cells(dataset, graph, density, seeds, cells)
    entries = [(config, result) for (_, config), result in zip(cells, results)]

    best = {method: min(((c, r) for c, r in entries if r.method == method and not r.failed),
                        key=_rank, default=None)
            for method in methods}
    return GridSearchResult(best=best, entries=tuple(entries))
