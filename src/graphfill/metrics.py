"""Error metrics over hidden entries and the inverse of min-max scaling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRange, DimensionMismatch, EmptyEvaluationSet
from .temporal import TimeVaryingSignal, check_mask


@dataclass(frozen=True)
class ScaleParams:
    """Affine map parameters for scaling a signal to [0, 1] and back."""

    min_value: float
    max_value: float

    def __post_init__(self):
        if not self.max_value > self.min_value:
            raise DegenerateRange(
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


def error_report(
    truth: TimeVaryingSignal, recon: TimeVaryingSignal, hidden: np.ndarray
) -> MetricReport:
    """RMSE and MAE of recon against truth over the True entries of hidden."""
    if truth.values.shape != recon.values.shape:
        raise DimensionMismatch(
            f"truth {truth.values.shape} vs recon {recon.values.shape}"
        )
    check_mask(hidden, truth.values.shape)
    dev = truth.values[hidden] - recon.values[hidden]
    if dev.size == 0:
        raise EmptyEvaluationSet("no entries to evaluate")
    return MetricReport(
        rmse=float(np.sqrt(np.mean(dev**2))),
        mae=float(np.mean(np.abs(dev))),
        n_evaluated=dev.size,
    )


def inverse_scale(x: TimeVaryingSignal, params: ScaleParams) -> TimeVaryingSignal:
    """Map [0, 1]-scaled values back to data units: x * span + min."""
    return TimeVaryingSignal(values=x.values * params.span + params.min_value)
