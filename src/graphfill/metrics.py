"""Error metrics over hidden entries and the inverse of min-max scaling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .temporal import check_mask, check_signal


@dataclass(frozen=True)
class ScaleParams:
    """Affine map parameters for scaling a signal to [0, 1] and back."""

    min_value: float
    max_value: float

    def __post_init__(self):
        if not self.max_value > self.min_value:
            raise InvalidInput(
                f"max_value {self.max_value} must exceed min_value {self.min_value}"
            )

    @property
    def span(self) -> float:
        return self.max_value - self.min_value


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


def error_report(truth: np.ndarray, recon: np.ndarray, hidden: np.ndarray) -> MetricReport:
    """RMSE and MAE of recon against truth over the True entries of hidden."""
    truth, recon = check_signal(truth), check_signal(recon)
    if truth.shape != recon.shape:
        raise InvalidInput(f"truth {truth.shape} vs recon {recon.shape}")
    check_mask(hidden, truth.shape)
    dev = truth[hidden] - recon[hidden]
    if dev.size == 0:
        raise InvalidInput("no entries to evaluate")
    with np.errstate(over="ignore"):
        rmse, mae = float(np.sqrt(np.mean(dev**2))), float(np.mean(np.abs(dev)))
    if not math.isfinite(rmse):  # a sum overflowed: redo it on dev / max|dev|
        top = float(np.abs(dev).max())
        rmse = top * float(np.sqrt(np.mean((dev / top) ** 2)))
        if not math.isfinite(mae):  # needs |dev| near 1e308 / n, so dev**2 overflowed too
            mae = top * float(np.mean(np.abs(dev / top)))
    return MetricReport(rmse=rmse, mae=mae, n_evaluated=dev.size)


def inverse_scale(x: np.ndarray, params: ScaleParams) -> np.ndarray:
    """Map [0, 1]-scaled values back to data units: x * span + min."""
    return check_signal(check_signal(x) * params.span + params.min_value)
