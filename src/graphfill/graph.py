"""Sensor graph construction and spectral machinery.

Connects sensor nodes with a k-nearest-neighbour rule over Euclidean
distance, weights each edge with a Gaussian kernel whose scale is the mean
edge length, and exposes the combinatorial Laplacian L = D - W together with
its eigendecomposition and the shifted powers (L + eps*I)**beta that act as
the smoothness operator for reconstruction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConvergenceFailure,
    DuplicateCoordinates,
    KTooLarge,
    NegativeBase,
)

# How far below zero a Laplacian eigenvalue may dip before the matrix is
# treated as numerically broken rather than merely noisy.
PSD_TOLERANCE = 1e-8


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
    """Undirected weighted sensor graph with its Laplacian.

    Invariants enforced at construction: W is symmetric with zero diagonal
    and nonnegative entries, the edge set matches the support of W, and
    L = D - W (so every row of L sums to zero and L is positive
    semidefinite). Instances are immutable; spectral data and smoothness
    operators are cached internally on first use.
    """

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    weights: np.ndarray
    laplacian: np.ndarray
    sigma: float
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        lap = np.asarray(self.laplacian, dtype=float)
        n = self.n_nodes
        if w.shape != (n, n) or lap.shape != (n, n):
            raise ValueError("weights and laplacian must be N x N")
        if np.abs(w - w.T).max() > 1e-10:
            raise ValueError("weight matrix is not symmetric")
        if np.abs(np.diag(w)).max() > 0:
            raise ValueError("weight matrix has nonzero diagonal")
        if w.min() < 0:
            raise ValueError("weights must be nonnegative")
        edge_set = {(min(i, j), max(i, j)) for i, j in self.edges}
        support = {(i, j) for i, j in zip(*np.nonzero(np.triu(w, 1)))}
        support = {(int(i), int(j)) for i, j in support}
        if edge_set != support:
            raise ValueError("edge set does not match the support of W")
        expected = np.diag(w.sum(axis=1)) - w
        if np.abs(lap - expected).max() > 1e-10:
            raise ValueError("laplacian is not D - W")
        if self.sigma <= 0 and edge_set:
            raise ValueError("sigma must be positive for a graph with edges")
        object.__setattr__(self, "edges", tuple(sorted(edge_set)))
        object.__setattr__(self, "weights", _frozen(w))
        object.__setattr__(self, "laplacian", _frozen(lap))

    @property
    def n_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Laplacian."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=float)
        n = lam.shape[0]
        if vecs.shape != (n, n):
            raise ValueError("eigenvectors must be N x N")
        if np.any(np.diff(lam) < -1e-12):
            raise ValueError("eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", _frozen(lam))
        object.__setattr__(self, "eigenvectors", _frozen(vecs))


def build_knn_graph(positions: NodePositions, k: int) -> SensorGraph:
    """Build the symmetrized k-nearest-neighbour graph over sensor positions.

    Each node selects its k nearest peers by Euclidean distance (ties broken
    by ascending node index) and an undirected edge is kept if either
    endpoint selected the other. Edge (i, j) gets weight
    exp(-d(i,j)**2 / sigma**2) with sigma the mean length over the final
    undirected edge set. An edge whose weight underflows to 0 is dropped, so
    a node far from all others is left isolated.

    Args:
        positions: node coordinates; no two nodes may coincide.
        k: neighbours per node, 1 <= k <= N-1.

    Returns:
        A SensorGraph satisfying all Laplacian invariants.

    Raises:
        KTooLarge: k >= N.
        DuplicateCoordinates: two nodes at distance zero.
    """
    n = positions.n_nodes
    if k >= n:
        raise KTooLarge(f"k={k} but the graph has only {n} nodes")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    delta = positions.coords[:, None, :] - positions.coords[None, :, :]
    dist = np.sqrt((delta * delta).sum(axis=-1))
    rows, cols = np.triu_indices(n, 1)
    duplicates = np.nonzero(dist[rows, cols] == 0.0)[0]
    if duplicates.size:
        i, j = int(rows[duplicates[0]]), int(cols[duplicates[0]])
        raise DuplicateCoordinates(
            f"nodes {positions.node_ids[i]!r} and {positions.node_ids[j]!r} coincide"
        )

    edge_set: set[tuple[int, int]] = set()
    indices = np.arange(n)
    for i in range(n):
        row = dist[i].copy()
        row[i] = np.inf
        # lexsort: primary key distance, secondary key node index
        order = np.lexsort((indices, row))
        for j in order[:k]:
            edge_set.add((min(i, int(j)), max(i, int(j))))

    edges = tuple(sorted(edge_set))
    sigma = float(np.mean([dist[i, j] for i, j in edges]))

    weights = np.zeros((n, n))
    for i, j in edges:
        w = np.exp(-dist[i, j] ** 2 / sigma**2)
        weights[i, j] = w
        weights[j, i] = w
    laplacian = np.diag(weights.sum(axis=1)) - weights
    edges = tuple((i, j) for i, j in edges if weights[i, j] > 0)
    return SensorGraph(
        n_nodes=n, edges=edges, weights=weights, laplacian=laplacian, sigma=sigma
    )


def spectral_decomposition(graph: SensorGraph) -> SpectralDecomposition:
    """Full symmetric eigendecomposition of the graph Laplacian.

    Deterministic for a fixed graph: eigenvalues ascending, and each
    eigenvector's first nonzero entry is made positive. The result is cached
    on the graph.
    """
    cached = graph._cache.get("spectral")
    if cached is not None:
        return cached
    try:
        lam, vecs = np.linalg.eigh(graph.laplacian)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    vecs = vecs.copy()
    for col in range(vecs.shape[1]):
        v = vecs[:, col]
        nonzero = np.nonzero(np.abs(v) > 1e-12)[0]
        if nonzero.size and v[nonzero[0]] < 0:
            vecs[:, col] = -v
    decomp = SpectralDecomposition(eigenvalues=lam, eigenvectors=vecs)
    graph._cache["spectral"] = decomp
    return decomp


def sobolev_operator(graph: SensorGraph, epsilon: float, beta: float) -> np.ndarray:
    """Compute B = (L + epsilon*I)**beta as a read-only symmetric matrix.

    Integer beta is evaluated by repeated symmetric multiplication; any other
    beta goes through the eigendecomposition, raising the shifted eigenvalues
    to the given power. The product is symmetrized as (B + B^T) / 2. Results
    are cached per (epsilon, beta) on the graph so repeated solves share the
    matrix.

    Raises:
        NegativeBase: a shifted eigenvalue is below -1e-8 and beta is
            fractional, so the real power does not exist. Shifted eigenvalues
            in [-1e-8, 0) are treated as floating-point noise and clamped.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    key = ("sobolev", float(epsilon), float(beta))
    cached = graph._cache.get(key)
    if cached is not None:
        return cached

    shifted = graph.laplacian + epsilon * np.eye(graph.n_nodes)
    if float(beta).is_integer():
        matrix = np.linalg.matrix_power(shifted, int(beta))
    else:
        decomp = spectral_decomposition(graph)
        lam = decomp.eigenvalues + epsilon
        if lam.min() < -PSD_TOLERANCE:
            raise NegativeBase(
                f"cannot raise eigenvalue {lam.min():.3e} to fractional power {beta}"
            )
        lam = np.clip(lam, 0.0, None) ** beta
        u = decomp.eigenvectors
        matrix = (u * lam) @ u.T
    matrix = _frozen((matrix + matrix.T) / 2.0)
    graph._cache[key] = matrix
    return matrix


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
