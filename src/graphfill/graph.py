"""Sensor graph construction and spectral machinery.

Connects sensor nodes with a k-nearest-neighbour rule over Euclidean
distance and weights each edge with a Gaussian kernel whose scale is the mean
edge length. A graph is its weight matrix W; the combinatorial Laplacian
L = D - W and its eigendecomposition are computed from it when the graph is
built, and the shifted powers (L + eps*I)**beta that act as the smoothness
operator for reconstruction are computed from those on each call.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConvergenceFailure, DuplicateCoordinates, KTooLarge


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class NodePositions:
    """Planar coordinates of the sensor nodes, index-aligned with their ids.

    Coordinates are used as-is (lat/lon pairs or meters); distances are plain
    Euclidean in whatever units the source dataset provides.
    """

    coords: np.ndarray
    node_ids: tuple[str, ...]

    def __post_init__(self):
        coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"coords must be (N, 2), got {coords.shape}")
        ids = tuple(str(i) for i in self.node_ids)
        if len(ids) != coords.shape[0]:
            raise ValueError("node_ids and coords lengths differ")
        if coords.shape[0] < 2:
            raise ValueError("need at least 2 nodes")
        if len(set(ids)) != len(ids):
            raise ValueError("node_ids must be unique")
        if not np.isfinite(coords).all():
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "coords", _frozen(coords))
        object.__setattr__(self, "node_ids", ids)

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True, eq=False)
class SensorGraph:
    """Undirected weighted sensor graph, given by its weight matrix W.

    W must be square, finite, symmetric (to 1e-10 of its largest entry),
    zero on the diagonal and nonnegative, with node degrees small enough
    that L's spectrum is finite, and sigma (the Gaussian kernel scale)
    positive when W has an edge. The edge list (the support of W, i < j, in
    row-major order), the Laplacian L = D - W and L's eigendecomposition are
    derived from W when the graph is built; every array is read-only.
    eigenvalues are ascending and eigenvectors are columns, each with its
    first nonzero entry made positive, so equal W give bit-identical pairs.

    Raises:
        ValueError: W or sigma breaks a rule above.
        ConvergenceFailure: the eigendecomposition does not converge.
    """

    weights: np.ndarray
    sigma: float
    n_nodes: int = field(init=False)
    edges: tuple[tuple[int, int], ...] = field(init=False)
    laplacian: np.ndarray = field(init=False, repr=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be N x N, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        # nonnegative first: then w - w.T cannot overflow
        if w.min() < 0:
            raise ValueError("weights must be nonnegative")
        if np.abs(w - w.T).max() > 1e-10 * w.max():
            raise ValueError("weight matrix is not symmetric")
        if np.diag(w).max() > 0:
            raise ValueError("weight matrix has nonzero diagonal")
        rows, cols = np.nonzero(np.triu(w, 1))
        if not self.sigma > 0 and rows.size:
            raise ValueError("sigma must be positive for a graph with edges")
        # L's eigenvalues lie in [0, 2 * largest degree]
        with np.errstate(over="ignore"):
            degree = w.sum(axis=1)
            if not np.isfinite(2.0 * degree).all():
                raise ValueError("node degrees of W overflow; scale the weights down")
        laplacian = np.diag(degree) - w
        try:
            lam, vecs = np.linalg.eigh(laplacian)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
        first = np.argmax(np.abs(vecs) > 1e-12, axis=0)
        vecs = vecs * np.where(vecs[first, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)
        object.__setattr__(self, "weights", _frozen(w))
        object.__setattr__(self, "n_nodes", w.shape[0])
        object.__setattr__(self, "edges", tuple(zip(rows.tolist(), cols.tolist())))
        object.__setattr__(self, "laplacian", _frozen(laplacian))
        object.__setattr__(self, "eigenvalues", _frozen(lam))
        object.__setattr__(self, "eigenvectors", _frozen(vecs))

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def _reachable(adjacency: np.ndarray) -> np.ndarray:
    """Reachability over a symmetric bool adjacency, by repeated squaring.

    Entry (a, b) is True iff a path of adjacent pairs links a to b; the
    diagonal is True.
    """
    n = adjacency.shape[0]
    reach = adjacency | np.eye(n, dtype=bool)
    for _ in range(math.ceil(math.log2(n))):
        reach = reach @ reach.astype(float) > 0
    return reach


def build_knn_graph(positions: NodePositions, k: int) -> SensorGraph:
    """Build the symmetrized k-nearest-neighbour graph over sensor positions.

    Each node selects its k nearest peers by Euclidean distance (ties broken
    by ascending node index) and an undirected edge is kept if either
    endpoint selected the other. Edge (i, j) gets weight
    exp(-d(i,j)**2 / sigma**2) with sigma the mean length over the final
    undirected edge set. An edge whose weight underflows to 0 is not in W, so
    a node far from all others is left isolated.

    Args:
        positions: node coordinates; no two nodes may coincide.
        k: neighbours per node, 1 <= k <= N-1.

    Returns:
        The SensorGraph of the weight matrix W.

    Raises:
        KTooLarge: k >= N.
        DuplicateCoordinates: two nodes at distance zero.
        ValueError: the distance between two neighbours overflows.
    """
    n = positions.n_nodes
    if k >= n:
        raise KTooLarge(f"k={k} but the graph has only {n} nodes")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    # A far pair's distance may overflow to inf; that only matters on an edge.
    with np.errstate(over="ignore"):
        delta = positions.coords[:, None, :] - positions.coords[None, :, :]
        dist = np.sqrt((delta * delta).sum(axis=-1))
    duplicates = np.argwhere(np.triu(dist == 0.0, 1))
    if duplicates.size:
        i, j = duplicates[0]
        raise DuplicateCoordinates(
            f"nodes {positions.node_ids[i]!r} and {positions.node_ids[j]!r} coincide"
        )

    # lexsort: primary key distance (never to itself), secondary key index
    index = np.broadcast_to(np.arange(n), (n, n))
    nearest = np.lexsort((index, dist + np.diag(np.full(n, np.inf))), axis=-1)[:, :k]
    selected = np.zeros((n, n), dtype=bool)
    selected[np.arange(n)[:, None], nearest] = True
    rows, cols = np.nonzero(np.triu(selected | selected.T, 1))
    overflowed = np.flatnonzero(~np.isfinite(dist[rows, cols]))
    if overflowed.size:
        i, j = rows[overflowed[0]], cols[overflowed[0]]
        raise ValueError(
            f"the distance between nodes {positions.node_ids[i]!r} and "
            f"{positions.node_ids[j]!r} overflows; scale the coordinates down"
        )
    sigma = float(np.mean(dist[rows, cols]))

    weights = np.zeros((n, n))
    for i, j in zip(rows.tolist(), cols.tolist()):
        weights[i, j] = weights[j, i] = np.exp(-dist[i, j] ** 2 / sigma**2)
    return SensorGraph(weights, sigma)


def sobolev_operator(graph: SensorGraph, epsilon: float, beta: float) -> np.ndarray:
    """Compute B = (L + epsilon*I)**beta as a read-only symmetric matrix.

    Integer beta is evaluated by repeated symmetric multiplication; any other
    beta raises the graph's shifted eigenvalues to the given power. L = D - W
    is PSD because SensorGraph holds W symmetric and nonnegative, so a
    negative shifted eigenvalue is rounding and is clipped to 0. The product
    is symmetrized as (B + B^T) / 2.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if float(beta).is_integer():
        shifted = graph.laplacian + epsilon * np.eye(graph.n_nodes)
        matrix = np.linalg.matrix_power(shifted, int(beta))
    else:
        u = graph.eigenvectors
        matrix = (u * np.clip(graph.eigenvalues + epsilon, 0.0, None) ** beta) @ u.T
    return _frozen((matrix + matrix.T) / 2.0)


def write_edge_list(graph: SensorGraph, node_ids: tuple[str, ...], path) -> None:
    """Export the undirected edge list as `src_id,dst_id,weight` CSV.

    Debug format: one row per undirected edge in (i, j) index order, weights
    with 12 significant digits. A missing parent directory is created.
    """
    if len(node_ids) != graph.n_nodes:
        raise ValueError("node_ids length does not match the graph")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["src_id", "dst_id", "weight"])
        for i, j in graph.edges:
            writer.writerow([node_ids[i], node_ids[j], format(graph.weights[i, j], ".12g")])
