"""Random sampling masks over (node, time) entries.

A mask is a read-only N x M bool array, True where an entry is observed.
Masks follow the equal-per-snapshot protocol: every time column observes the
same number of nodes, drawn uniformly at random. A whole mask is redrawn if
any node ends up never observed, among the entries that exist when a native
mask is given, because the reconstruction system is singular in that case.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .temporal import check_mask

_MAX_REDRAWS = 1000


def samples_per_column(n: int, density: float) -> int:
    """Observed nodes per snapshot: density * n rounded half-up."""
    return int(np.floor(density * n + 0.5))


def random_mask(n: int, m: int, density: float, seed: int, native=None) -> np.ndarray:
    """Draw a deterministic random N x M bool mask with equal samples per snapshot.

    Each column independently picks round(density * n) distinct node
    indices. If some node row comes out all-False the whole mask is redrawn
    (same generator stream), up to 1000 attempts. native, an N x M bool mask
    of the entries that exist, makes the test apply to the draw ANDed with
    it; a complete native mask leaves the draws as they are without it.

    Raises:
        InvalidInput: the per-column count rounds to zero, count * m < n
            makes covering every row impossible, or 1000 redraws never
            covered every row (within native).
    """
    if n < 2 or m < 1:
        raise ValueError(f"mask needs n >= 2 and m >= 1, got ({n}, {m})")
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    count = samples_per_column(n, density)
    if count < 1:
        raise InvalidInput(f"density {density} rounds to 0 of {n} nodes per snapshot")
    if count * m < n:
        raise InvalidInput(
            f"{count} samples x {m} snapshots = {count * m} observations "
            f"cannot cover {n} nodes"
        )

    if native is not None:
        native = check_mask(native, (n, m))
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_REDRAWS):
        mask = np.zeros((n, m), dtype=bool)
        for t in range(m):
            mask[rng.choice(n, size=count, replace=False), t] = True
        if (mask if native is None else mask & native).any(axis=1).all():
            mask.setflags(write=False)
            return mask
    raise InvalidInput(
        f"{_MAX_REDRAWS} draws never observed every one of {n} nodes "
        f"({count} samples x {m} snapshots)"
    )
