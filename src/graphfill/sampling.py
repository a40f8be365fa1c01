"""Random sampling masks over (node, time) entries.

A mask is a read-only N x M bool array, True where an entry is observed.
Masks follow the equal-per-snapshot protocol: every time column observes the
same number of nodes, drawn uniformly at random. A whole mask is redrawn if
any node ends up never observed, because the reconstruction system is
singular in that case.
"""

from __future__ import annotations

import numpy as np

from .errors import DensityTooLow, UnsatisfiableCoverage
from .temporal import TimeVaryingSignal, check_mask

_MAX_REDRAWS = 1000


def samples_per_column(n: int, density: float) -> int:
    """Observed nodes per snapshot: density * n rounded half-up."""
    return int(np.floor(density * n + 0.5))


def random_mask(n: int, m: int, density: float, seed: int) -> np.ndarray:
    """Draw a deterministic random N x M bool mask with equal samples per snapshot.

    Each column independently picks round(density * n) distinct node
    indices. If some node row comes out all-False the whole mask is redrawn
    (same generator stream), up to 1000 attempts.

    Raises:
        DensityTooLow: the per-column count rounds to zero.
        UnsatisfiableCoverage: count * m < n makes covering every row
            impossible, or 1000 redraws never covered every row.
    """
    if n < 2 or m < 1:
        raise ValueError(f"mask needs n >= 2 and m >= 1, got ({n}, {m})")
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    count = samples_per_column(n, density)
    if count < 1:
        raise DensityTooLow(f"density {density} rounds to 0 of {n} nodes per snapshot")
    if count * m < n:
        raise UnsatisfiableCoverage(
            f"{count} samples x {m} snapshots = {count * m} observations "
            f"cannot cover {n} nodes"
        )

    rng = np.random.default_rng(seed)
    for _ in range(_MAX_REDRAWS):
        mask = np.zeros((n, m), dtype=bool)
        for t in range(m):
            mask[rng.choice(n, size=count, replace=False), t] = True
        if mask.any(axis=1).all():
            mask.setflags(write=False)
            return mask
    raise UnsatisfiableCoverage(
        f"{_MAX_REDRAWS} draws never observed every one of {n} nodes "
        f"({count} samples x {m} snapshots)"
    )


def apply_mask(x: TimeVaryingSignal, mask: np.ndarray) -> TimeVaryingSignal:
    """Entrywise product Y = J o X: observed entries kept, the rest zeroed."""
    return TimeVaryingSignal(values=x.values * check_mask(mask, x.values.shape))
