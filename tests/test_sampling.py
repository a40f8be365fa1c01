import numpy as np
import pytest

import graphfill as gf
from graphfill.errors import InvalidInput
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
    with pytest.raises(InvalidInput, match="^density 0.01 rounds to 0 of 10 nodes per snapshot$"):
        gf.random_mask(10, 5, 0.01, seed=0)


def test_unsatisfiable_coverage():
    # one sample per column, two columns, five rows: coverage is impossible,
    # and the arithmetic says so without a single draw
    message = r"1 samples x 2 snapshots = 2 observations cannot cover 5 nodes"
    with pytest.raises(InvalidInput, match=message):
        gf.random_mask(5, 2, 0.2, seed=0)


def test_density_bounds():
    with pytest.raises(ValueError):
        gf.random_mask(5, 5, 0.0, seed=0)
    with pytest.raises(ValueError):
        gf.random_mask(5, 5, 1.2, seed=0)


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
    with pytest.raises(TypeError):
        check_mask(mask.astype(int), (4, 6))  # 0/1 integers are not a mask
    with pytest.raises(TypeError):
        check_mask(mask.tolist(), (4, 6))
    with pytest.raises(InvalidInput, match=r"^mask \(4, 6\) vs signal \(6, 4\)$"):
        check_mask(mask, (6, 4))


def test_complete_native_mask_leaves_the_stream_unchanged():
    # the four-argument call is the one the benchmark rebuilds masks with
    for n, m, density in ((8, 12, 0.25), (50, 100, 0.1), (20, 50, 0.3)):
        native = np.ones((n, m), dtype=bool)
        for seed in range(8):
            assert np.array_equal(gf.random_mask(n, m, density, seed, native),
                                  gf.random_mask(n, m, density, seed))


def test_native_mask_redraws_until_every_node_is_observed():
    # node 0 exists at three snapshots only, so a draw that misses it there
    # covers every node but observes no reading of node 0
    native = np.ones((8, 12), dtype=bool)
    native[0, 3:] = False
    redrawn = 0
    for seed in range(10):
        mask = gf.random_mask(8, 12, 0.25, seed, native)
        assert (mask & native).any(axis=1).all()
        redrawn += not np.array_equal(mask, gf.random_mask(8, 12, 0.25, seed))
    assert redrawn


def test_hopeless_native_mask_runs_out_of_redraws():
    # nodes 0 and 1 exist only at snapshot 0, which observes one node per draw
    native = np.ones((5, 10), dtype=bool)
    native[:2, 1:] = False
    with pytest.raises(InvalidInput, match="^1000 draws never observed every one of 5 nodes"):
        gf.random_mask(5, 10, 0.2, seed=0, native=native)
