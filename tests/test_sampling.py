import numpy as np
import pytest

import graphfill as gf
from graphfill.errors import DensityTooLow, DimensionMismatch, UnsatisfiableCoverage
from graphfill.sampling import samples_per_column
from graphfill.temporal import check_mask


def test_samples_per_column_rounding():
    assert samples_per_column(4, 0.5) == 2
    assert samples_per_column(10, 0.1) == 1
    assert samples_per_column(37, 0.1) == 4  # 3.7 rounds up
    assert samples_per_column(5, 0.1) == 1  # 0.5 rounds half-up, not to even
    assert samples_per_column(10, 0.01) == 0


def test_column_counts_exact():
    mask = gf.random_mask(4, 10, 0.5, seed=0)
    assert np.array_equal(mask.sum(axis=0), np.full(10, 2))


def test_ten_percent_density_single_sample_per_column():
    mask = gf.random_mask(10, 25, 0.1, seed=1)
    assert np.array_equal(mask.sum(axis=0), np.ones(25))


def test_every_row_covered():
    for seed in range(10):
        mask = gf.random_mask(8, 12, 0.25, seed=seed)
        assert mask.sum(axis=1).min() >= 1


def test_determinism_and_seed_sensitivity():
    a = gf.random_mask(20, 50, 0.3, seed=7)
    b = gf.random_mask(20, 50, 0.3, seed=7)
    assert np.array_equal(a, b)
    masks = [gf.random_mask(20, 50, 0.3, seed=s) for s in range(20)]
    for i in range(20):
        for j in range(i + 1, 20):
            assert not np.array_equal(masks[i], masks[j])


def test_density_too_low():
    with pytest.raises(DensityTooLow):
        gf.random_mask(10, 5, 0.01, seed=0)


def test_unsatisfiable_coverage():
    # one sample per column, two columns, five rows: coverage is impossible,
    # and the arithmetic says so without a single draw
    message = r"1 samples x 2 snapshots = 2 observations cannot cover 5 nodes"
    with pytest.raises(UnsatisfiableCoverage, match=message):
        gf.random_mask(5, 2, 0.2, seed=0)


def test_density_bounds():
    with pytest.raises(ValueError):
        gf.random_mask(5, 5, 0.0, seed=0)
    with pytest.raises(ValueError):
        gf.random_mask(5, 5, 1.2, seed=0)


def test_apply_mask_full_is_identity(rng):
    x = gf.TimeVaryingSignal(values=rng.normal(size=(4, 6)))
    full = np.ones((4, 6), dtype=bool)
    assert np.array_equal(gf.apply_mask(x, full).values, x.values)


def test_apply_mask_by_hand():
    x = gf.TimeVaryingSignal(values=np.array([[1.0, 2.0], [3.0, 4.0]]))
    mask = np.array([[True, False], [False, True]])
    assert np.array_equal(gf.apply_mask(x, mask).values, np.array([[1.0, 0.0], [0.0, 4.0]]))


def test_apply_mask_idempotent(rng):
    x = gf.TimeVaryingSignal(values=rng.normal(size=(6, 7)))
    mask = gf.random_mask(6, 7, 0.5, seed=2)
    once = gf.apply_mask(x, mask)
    twice = gf.apply_mask(once, mask)
    assert np.array_equal(once.values, twice.values)


def test_apply_mask_dimension_mismatch(rng):
    x = gf.TimeVaryingSignal(values=rng.normal(size=(4, 5)))
    mask = gf.random_mask(4, 6, 0.5, seed=0)
    with pytest.raises(DimensionMismatch):
        gf.apply_mask(x, mask)


def test_complement_partitions_entries():
    for seed in range(5):
        mask = gf.random_mask(7, 9, 0.4, seed=seed)
        hidden = ~mask
        assert int(hidden.sum()) + int(mask.sum()) == 7 * 9
        assert not (hidden & mask).any()


def test_mask_invariant_validation():
    mask = gf.random_mask(4, 6, 0.5, seed=0)
    assert mask.dtype == bool and mask.shape == (4, 6)
    assert not mask.flags.writeable
    x = gf.TimeVaryingSignal(values=np.ones((4, 6)))
    with pytest.raises(TypeError):
        gf.apply_mask(x, mask.astype(int))  # 0/1 integers are not a mask
    with pytest.raises(TypeError):
        gf.apply_mask(x, mask.tolist())
    with pytest.raises(DimensionMismatch):
        check_mask(mask, (6, 4))
