"""Time-varying signals, masks, the temporal difference and the objective.

A time-varying graph signal is a read-only float N x M ndarray: row i is
node i's time series, column t is the graph signal at snapshot t. The
first-difference operator D maps it to the N x (M-1) matrix of consecutive
column differences; the reconstruction objective penalizes the Sobolev
quadratic form of that difference signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .graph import _frozen


def check_signal(values) -> np.ndarray:
    """Return values as a signal: a finite, read-only float N x M ndarray, N >= 2, M >= 1.

    A writeable array is copied before it is frozen; a read-only one passes through.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"signal must be a 2-D matrix, got shape {v.shape}")
    if v.shape[0] < 2 or v.shape[1] < 1:
        raise ValueError(f"signal needs >= 2 nodes and >= 1 snapshot, got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("signal entries must be finite")
    return _frozen(v) if v.flags.writeable else v


@dataclass(frozen=True, eq=False)
class TimeVaryingSignal:
    """A Dataset's readings as values, a signal checked by check_signal.

    Functions take and return plain signal arrays. This wrapper stays only as
    the type of Dataset.signal, because the benchmark reads ds.signal.values,
    and goes once the benchmark reads the array itself.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", check_signal(self.values))


def check_mask(mask, shape: tuple[int, int]) -> np.ndarray:
    """Return mask after checking it is a boolean ndarray of the given shape.

    Every mask in the package is an N x M bool array: True marks an observed
    entry in a sampling mask and a scored entry in a hidden (evaluation) set.
    """
    if not isinstance(mask, np.ndarray) or mask.dtype != bool:
        kind = getattr(mask, "dtype", type(mask).__name__)
        raise TypeError(f"mask must be a boolean ndarray, got {kind}")
    if mask.shape != shape:
        raise InvalidInput(f"mask {mask.shape} vs signal {shape}")
    return mask


def temporal_difference_operator(m: int) -> np.ndarray:
    """The m x (m-1) first-difference matrix: column t is e_{t+1} - e_t."""
    if m < 2:
        raise InvalidInput(f"need at least 2 snapshots, got {m}")
    d = np.zeros((m, m - 1))
    idx = np.arange(m - 1)
    d[idx, idx] = -1.0
    d[idx + 1, idx] = 1.0
    return _frozen(d)


def sobolev_objective(
    xbar: np.ndarray, y: np.ndarray, mask: np.ndarray, b: np.ndarray, gamma: float
) -> float:
    """Reconstruction objective: data misfit plus temporal Sobolev penalty.

    Evaluates 0.5 * ||J o Xbar - Y||_F^2
            + (gamma / 2) * tr((Xbar D)^T B (Xbar D)),

    with B = (L + eps*I)**beta as returned by graph.sobolev_operator.
    Y must be zero wherever J is zero (as harness.masked_problem makes it).
    """
    xbar, y = check_signal(xbar), check_signal(y)
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if xbar.shape != y.shape:
        raise InvalidInput(f"shapes differ: xbar {xbar.shape}, y {y.shape}")
    j = check_mask(mask, y.shape)
    if xbar.shape[0] != b.shape[0]:
        raise InvalidInput(
            f"signal has {xbar.shape[0]} nodes, operator has {b.shape[0]}"
        )
    data = 0.5 * float(np.sum((j * xbar - y) ** 2))
    z = np.diff(xbar, axis=1)
    reg = 0.5 * gamma * float(np.sum(z * (b @ z)))
    return data + reg
