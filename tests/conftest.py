"""Shared test helpers: tiny hand-built graphs and random instances."""

# graphfill first: it sets the one-thread BLAS default, which only takes
# effect if numpy is not yet loaded, so the suite runs as the CLI does
import graphfill as gf
from graphfill.temporal import check_mask

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def unit_path_graph(n: int) -> gf.SensorGraph:
    """Path graph with unit edge weights, built from W (no kNN step)."""
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return gf.SensorGraph(w, sigma=1.0)


def random_positions(n: int, seed: int) -> gf.NodePositions:
    coords = np.random.default_rng(seed).uniform(0.0, 10.0, size=(n, 2))
    return gf.NodePositions(coords=coords, node_ids=tuple(f"n{i}" for i in range(n)))


def dataset_of(values, native_mask=None) -> gf.Dataset:
    """A Dataset of the given N x M readings at random positions, all present
    unless native_mask says otherwise."""
    n, m = np.shape(values)
    native = np.ones((n, m), dtype=bool) if native_mask is None else native_mask
    return gf.Dataset(positions=random_positions(n, 0),
                      signal=gf.TimeVaryingSignal(values=values), native_mask=native,
                      name="readings", time_indices=tuple(range(m)))


def outlier_positions() -> gf.NodePositions:
    """60 uniform nodes in the unit square, the last moved to (1000, 1000).

    With k = 5 the outlier's kNN weights exp(-d**2 / sigma**2) underflow to 0.
    """
    coords = np.random.default_rng(0).uniform(0.0, 1.0, size=(60, 2))
    coords[-1] = (1000.0, 1000.0)
    return gf.NodePositions(coords=coords, node_ids=tuple(f"n{i}" for i in range(60)))


def bfs_reachable(adjacency) -> np.ndarray:
    """Reachability over a bool adjacency, by a breadth-first search from each
    node: the oracle for graph._reachable."""
    n = len(adjacency)
    reach = np.eye(n, dtype=bool)
    for start in range(n):
        queue = [start]
        for node in queue:  # the list grows as the search reaches new nodes
            for neighbour in np.flatnonzero(adjacency[node]).tolist():
                if not reach[start, neighbour]:
                    reach[start, neighbour] = True
                    queue.append(neighbour)
    return reach


def bfs_components(weights) -> int:
    """The number of connected components over the support of W, by BFS."""
    return len({tuple(row) for row in bfs_reachable(np.asarray(weights) > 0).tolist()})


def random_geometric_graph(n: int, k: int, seed: int) -> gf.SensorGraph:
    return gf.build_knn_graph(random_positions(n, seed), k)


def masked(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Y = J o X: observed entries kept, the rest zeroed."""
    return x * check_mask(mask, x.shape)


def random_instance(seed: int, n: int = 5, m: int = 4, density: float = 0.5, k: int = 2):
    """A (graph, truth, mask, y) quadruple for solver tests."""
    graph = random_geometric_graph(n, k, seed)
    truth = np.random.default_rng(seed + 1).normal(0.0, 1.0, size=(n, m))
    mask = gf.random_mask(n, m, density, seed=seed + 2)
    y = masked(truth, mask)
    return graph, truth, mask, y
