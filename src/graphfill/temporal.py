"""Temporal differences and smoothness functionals for time-varying signals.

A time-varying graph signal is an N x M matrix: row i is node i's time
series, column t is the graph signal at snapshot t. The first-difference
operator D maps it to the N x (M-1) matrix of consecutive column
differences; the reconstruction objective penalizes the Sobolev quadratic
form of that difference signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, HorizonTooShort
from .graph import SensorGraph, SobolevOperator, _frozen


@dataclass(frozen=True, eq=False)
class TimeVaryingSignal:
    """N x M matrix of sensor readings (rows = nodes, columns = snapshots)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"signal must be a 2-D matrix, got shape {v.shape}")
        if v.shape[0] < 2 or v.shape[1] < 1:
            raise ValueError(f"signal needs >= 2 nodes and >= 1 snapshot, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("signal entries must be finite")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]


def check_mask(mask, shape: tuple[int, int]) -> np.ndarray:
    """Return mask after checking it is a boolean ndarray of the given shape.

    Every mask in the package is an N x M bool array: True marks an observed
    entry in a sampling mask and a scored entry in a hidden (evaluation) set.
    """
    if not isinstance(mask, np.ndarray) or mask.dtype != bool:
        kind = getattr(mask, "dtype", type(mask).__name__)
        raise TypeError(f"mask must be a boolean ndarray, got {kind}")
    if mask.shape != shape:
        raise DimensionMismatch(f"mask {mask.shape} vs signal {shape}")
    return mask


def temporal_difference_operator(m: int) -> np.ndarray:
    """The m x (m-1) first-difference matrix: column t is e_{t+1} - e_t."""
    if m < 2:
        raise HorizonTooShort(f"need at least 2 snapshots, got {m}")
    d = np.zeros((m, m - 1))
    idx = np.arange(m - 1)
    d[idx, idx] = -1.0
    d[idx + 1, idx] = 1.0
    return _frozen(d)


def temporal_difference(x: TimeVaryingSignal) -> np.ndarray:
    """Consecutive column differences [x_2 - x_1, ..., x_M - x_{M-1}]."""
    if x.n_steps < 2:
        raise HorizonTooShort(f"need at least 2 snapshots, got {x.n_steps}")
    return np.diff(x.values, axis=1)


def smoothness(x: TimeVaryingSignal, graph: SensorGraph) -> float:
    """Laplacian quadratic form tr(X^T L X), summed over snapshots.

    Zero exactly when every snapshot is constant across nodes (per graph
    component); small values mean neighbouring nodes hold similar readings.
    """
    if x.n_nodes != graph.n_nodes:
        raise DimensionMismatch(
            f"signal has {x.n_nodes} nodes, graph has {graph.n_nodes}"
        )
    return float(np.sum(x.values * (graph.laplacian @ x.values)))


def sobolev_norm_tv(x: TimeVaryingSignal, op: SobolevOperator) -> float:
    """Quadratic form tr(X^T (L + eps*I)**beta X) of a time-varying signal."""
    if x.n_nodes != op.n_nodes:
        raise DimensionMismatch(
            f"signal has {x.n_nodes} nodes, operator has {op.n_nodes}"
        )
    return float(np.sum(x.values * (op.matrix @ x.values)))


def sobolev_objective(
    xbar: TimeVaryingSignal,
    y: TimeVaryingSignal,
    mask: np.ndarray,
    op: SobolevOperator,
    gamma: float,
) -> float:
    """Reconstruction objective: data misfit plus temporal Sobolev penalty.

    Evaluates 0.5 * ||J o Xbar - Y||_F^2
            + (gamma / 2) * tr((Xbar D)^T (L + eps*I)**beta (Xbar D)).

    Y must be zero wherever J is zero (as produced by apply_mask).
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if xbar.values.shape != y.values.shape:
        raise DimensionMismatch(f"shapes differ: xbar {xbar.values.shape}, y {y.values.shape}")
    j = check_mask(mask, y.values.shape)
    if xbar.n_nodes != op.n_nodes:
        raise DimensionMismatch(
            f"signal has {xbar.n_nodes} nodes, operator has {op.n_nodes}"
        )
    data = 0.5 * float(np.sum((j * xbar.values - y.values) ** 2))
    z = np.diff(xbar.values, axis=1)
    reg = 0.5 * gamma * float(np.sum(z * (op.matrix @ z)))
    return data + reg
