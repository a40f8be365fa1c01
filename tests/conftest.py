"""Shared test helpers: tiny hand-built graphs and random instances."""

import numpy as np
import pytest

import graphfill as gf


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def unit_path_graph(n: int) -> gf.SensorGraph:
    """Path graph with unit edge weights, built directly (no kNN step)."""
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    lap = np.diag(w.sum(axis=1)) - w
    edges = tuple((i, i + 1) for i in range(n - 1))
    return gf.SensorGraph(n_nodes=n, edges=edges, weights=w, laplacian=lap, sigma=1.0)


def random_positions(n: int, seed: int) -> gf.NodePositions:
    coords = np.random.default_rng(seed).uniform(0.0, 10.0, size=(n, 2))
    return gf.NodePositions(coords=coords, node_ids=tuple(f"n{i}" for i in range(n)))


def outlier_positions() -> gf.NodePositions:
    """60 uniform nodes in the unit square, the last moved to (1000, 1000).

    With k = 5 the outlier's kNN weights exp(-d**2 / sigma**2) underflow to 0.
    """
    coords = np.random.default_rng(0).uniform(0.0, 1.0, size=(60, 2))
    coords[-1] = (1000.0, 1000.0)
    return gf.NodePositions(coords=coords, node_ids=tuple(f"n{i}" for i in range(60)))


def random_geometric_graph(n: int, k: int, seed: int) -> gf.SensorGraph:
    return gf.build_knn_graph(random_positions(n, seed), k)


def random_instance(seed: int, n: int = 5, m: int = 4, density: float = 0.5, k: int = 2):
    """A (graph, truth, mask, y) quadruple for solver tests."""
    graph = random_geometric_graph(n, k, seed)
    truth = gf.TimeVaryingSignal(
        values=np.random.default_rng(seed + 1).normal(0.0, 1.0, size=(n, m))
    )
    mask = gf.random_mask(n, m, density, seed=seed + 2)
    y = gf.apply_mask(truth, mask)
    return graph, truth, mask, y
