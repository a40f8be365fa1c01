"""Error metrics over hidden entries."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .temporal import check_mask, check_signal


@dataclass(frozen=True)
class MetricReport:
    """RMSE and MAE over one evaluation set."""

    rmse: float
    mae: float
    n_evaluated: int

    def __post_init__(self):
        if self.n_evaluated < 1:
            raise ValueError("n_evaluated must be positive")
        if self.mae > self.rmse * (1 + 1e-9) + 1e-15:
            raise ValueError(f"mae {self.mae} exceeds rmse {self.rmse}")


def _stat_without_overflow(stat, values: np.ndarray) -> float:
    """stat(values) as a float, for a stat of degree 1 (mean, std, RMS): where
    a sum overflows, it is redone on values / max|values| and scaled back."""
    with np.errstate(over="ignore"):
        result = float(stat(values))
    if not math.isfinite(result):
        top = float(np.abs(values).max())
        result = top * float(stat(values / top))
    return result


def error_report(truth: np.ndarray, recon: np.ndarray, hidden: np.ndarray) -> MetricReport:
    """RMSE and MAE of recon against truth over the True entries of hidden.

    A deviation too large for floating point is measured on the halved
    values, and the metrics doubled back; a metric beyond the float range
    reads inf.
    """
    truth, recon = check_signal(truth), check_signal(recon)
    if truth.shape != recon.shape:
        raise InvalidInput(f"truth {truth.shape} vs recon {recon.shape}")
    check_mask(hidden, truth.shape)
    with np.errstate(over="ignore"):
        dev = truth[hidden] - recon[hidden]
    if dev.size == 0:
        raise InvalidInput("no entries to evaluate")
    scale = 1.0
    if not np.isfinite(dev).all():  # a deviation beyond the float range: halve both first
        dev, scale = truth[hidden] / 2 - recon[hidden] / 2, 2.0
    rmse = scale * _stat_without_overflow(lambda d: np.sqrt(np.mean(d**2)), dev)
    mae = scale * _stat_without_overflow(lambda d: np.mean(np.abs(d)), dev)
    return MetricReport(rmse=rmse, mae=mae, n_evaluated=dev.size)
