import numpy as np
import pytest

import graphfill as gf
from graphfill.errors import DimensionMismatch, HorizonTooShort

from conftest import random_geometric_graph, unit_path_graph


def objective_by_hand(xbar, y, j, b, gamma):
    """Entrywise re-evaluation of the reconstruction objective."""
    n, m = xbar.shape
    data = 0.0
    for i in range(n):
        for t in range(m):
            data += (j[i, t] * xbar[i, t] - y[i, t]) ** 2
    z = np.zeros((n, m - 1))
    for i in range(n):
        for t in range(m - 1):
            z[i, t] = xbar[i, t + 1] - xbar[i, t]
    reg = 0.0
    for t in range(m - 1):
        reg += z[:, t] @ b @ z[:, t]
    return 0.5 * data + 0.5 * gamma * reg


def test_difference_operator_m2():
    d = gf.temporal_difference_operator(2)
    assert d.shape == (2, 1)
    assert np.array_equal(d, np.array([[-1.0], [1.0]]))


def test_difference_operator_m3():
    d = gf.temporal_difference_operator(3)
    assert np.array_equal(d, np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("m", [2, 3, 7, 20])
def test_difference_operator_column_structure(m):
    d = gf.temporal_difference_operator(m)
    assert d.shape == (m, m - 1)
    assert np.abs(d.sum(axis=0)).max() == 0.0
    for col in range(m - 1):
        values = d[:, col]
        assert np.count_nonzero(values) == 2
        assert values[col] == -1.0 and values[col + 1] == 1.0


def test_difference_operator_too_short():
    with pytest.raises(HorizonTooShort):
        gf.temporal_difference_operator(1)


def test_temporal_difference_constant_signal():
    x = gf.TimeVaryingSignal(values=np.tile([[2.0], [5.0]], (1, 6)))
    assert np.abs(gf.temporal_difference(x)).max() == 0.0


def test_temporal_difference_by_hand():
    x = gf.TimeVaryingSignal(values=np.array([[1.0, 3.0, 4.0], [1.0, 2.0, 0.0]]))
    expected = np.array([[2.0, 1.0], [1.0, -2.0]])
    assert np.array_equal(gf.temporal_difference(x), expected)


def test_temporal_difference_matches_matrix_product(rng):
    x = gf.TimeVaryingSignal(values=rng.normal(size=(4, 6)))
    d = gf.temporal_difference_operator(6)
    assert np.abs(gf.temporal_difference(x) - x.values @ d).max() <= 1e-12


def test_signal_validation():
    with pytest.raises(ValueError):
        gf.TimeVaryingSignal(values=np.array([[np.nan, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        gf.TimeVaryingSignal(values=np.ones((1, 5)))


def test_smoothness_constant_columns_is_zero(rng):
    g = random_geometric_graph(5, 2, seed=0)
    column_levels = rng.normal(size=(1, 4))
    x = gf.TimeVaryingSignal(values=np.ones((5, 1)) @ column_levels)
    assert abs(gf.smoothness(x, g)) <= 1e-12


def test_smoothness_p2_single_column():
    # x^T L x for L = [[1,-1],[-1,1]], x = (1, 0): the single unit-weight
    # edge contributes (1-0)^2 once
    g = unit_path_graph(2)
    x = gf.TimeVaryingSignal(values=np.array([[1.0], [0.0]]))
    value = gf.smoothness(x, g)
    pairwise = sum(
        g.weights[i, j] * (x.values[i, 0] - x.values[j, 0]) ** 2 for i, j in g.edges
    )
    assert value == pytest.approx(pairwise, abs=1e-12)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_smoothness_additive_over_columns(rng):
    g = random_geometric_graph(6, 2, seed=1)
    x1 = rng.normal(size=(6, 3))
    x2 = rng.normal(size=(6, 2))
    total = gf.smoothness(gf.TimeVaryingSignal(values=np.hstack([x1, x2])), g)
    parts = gf.smoothness(gf.TimeVaryingSignal(values=x1), g) + gf.smoothness(
        gf.TimeVaryingSignal(values=x2), g
    )
    assert total == pytest.approx(parts, rel=1e-12)


def test_smoothness_dimension_mismatch(rng):
    g = random_geometric_graph(5, 2, seed=2)
    with pytest.raises(DimensionMismatch):
        gf.smoothness(gf.TimeVaryingSignal(values=rng.normal(size=(4, 3))), g)


def test_sobolev_norm_reduces_to_smoothness(rng):
    g = random_geometric_graph(6, 2, seed=3)
    op = gf.sobolev_operator(g, 0.0, 1.0)
    x = gf.TimeVaryingSignal(values=rng.normal(size=(6, 5)))
    assert gf.sobolev_norm_tv(x, op) == pytest.approx(gf.smoothness(x, g), abs=1e-9)


def test_sobolev_norm_p2_ones():
    g = unit_path_graph(2)
    op = gf.sobolev_operator(g, 1.0, 1.0)
    x = gf.TimeVaryingSignal(values=np.ones((2, 1)))
    assert gf.sobolev_norm_tv(x, op) == pytest.approx(2.0, abs=1e-12)


def test_sobolev_norm_zero_signal():
    g = unit_path_graph(3)
    op = gf.sobolev_operator(g, 0.5, 2.0)
    assert gf.sobolev_norm_tv(gf.TimeVaryingSignal(values=np.zeros((3, 4))), op) == 0.0


def test_sobolev_norm_degree_two_homogeneity(rng):
    g = random_geometric_graph(5, 2, seed=4)
    op = gf.sobolev_operator(g, 0.4, 1.5)
    x = gf.TimeVaryingSignal(values=rng.normal(size=(5, 4)))
    base = gf.sobolev_norm_tv(x, op)
    for c in (2.0, -3.5, 0.25):
        scaled = gf.sobolev_norm_tv(gf.TimeVaryingSignal(values=c * x.values), op)
        assert scaled == pytest.approx(c**2 * base, rel=1e-9)


def test_objective_zero_at_constant_fit():
    g = unit_path_graph(3)
    op = gf.sobolev_operator(g, 0.3, 1.0)
    y = gf.TimeVaryingSignal(values=np.tile([[1.0], [2.0], [0.5]], (1, 4)))
    full = np.ones((3, 4), dtype=bool)
    assert gf.sobolev_objective(y, y, full, op, 1.7) == pytest.approx(0.0, abs=1e-12)


def test_objective_matches_entrywise_oracle(rng):
    g = random_geometric_graph(3, 1, seed=5)
    op = gf.sobolev_operator(g, 0.2, 1.5)
    mask = gf.random_mask(3, 4, 0.5, seed=9)
    truth = gf.TimeVaryingSignal(values=rng.normal(size=(3, 4)))
    y = gf.apply_mask(truth, mask)
    xbar = gf.TimeVaryingSignal(values=rng.normal(size=(3, 4)))
    expected = objective_by_hand(
        xbar.values, y.values, mask.astype(float), op.matrix, 0.8
    )
    assert gf.sobolev_objective(xbar, y, mask, op, 0.8) == pytest.approx(expected, rel=1e-12)


def test_objective_reduces_to_plain_laplacian_form(rng):
    # with eps = 0, beta = 1 the penalty operator is L itself
    for trial in range(5):
        g = random_geometric_graph(4, 2, seed=20 + trial)
        op = gf.sobolev_operator(g, 0.0, 1.0)
        mask = gf.random_mask(4, 5, 0.5, seed=trial)
        truth = gf.TimeVaryingSignal(values=rng.normal(size=(4, 5)))
        y = gf.apply_mask(truth, mask)
        xbar = gf.TimeVaryingSignal(values=rng.normal(size=(4, 5)))
        expected = objective_by_hand(
            xbar.values, y.values, mask.astype(float), g.laplacian, 1.3
        )
        value = gf.sobolev_objective(xbar, y, mask, op, 1.3)
        assert value == pytest.approx(expected, rel=1e-10)


def test_objective_convex_in_xbar(rng):
    g = random_geometric_graph(4, 2, seed=6)
    op = gf.sobolev_operator(g, 0.5, 1.0)
    mask = gf.random_mask(4, 4, 0.5, seed=3)
    y = gf.apply_mask(gf.TimeVaryingSignal(values=rng.normal(size=(4, 4))), mask)
    for _ in range(10):
        x1 = rng.normal(size=(4, 4))
        x2 = rng.normal(size=(4, 4))
        alpha = rng.uniform(0.05, 0.95)
        blend = gf.TimeVaryingSignal(values=alpha * x1 + (1 - alpha) * x2)
        f_blend = gf.sobolev_objective(blend, y, mask, op, 0.9)
        f1 = gf.sobolev_objective(gf.TimeVaryingSignal(values=x1), y, mask, op, 0.9)
        f2 = gf.sobolev_objective(gf.TimeVaryingSignal(values=x2), y, mask, op, 0.9)
        assert f_blend <= alpha * f1 + (1 - alpha) * f2 + 1e-9


def test_duplicated_final_column_preserves_regularizer(rng):
    g = random_geometric_graph(5, 2, seed=7)
    op = gf.sobolev_operator(g, 0.2, 1.0)
    x = rng.normal(size=(5, 6))
    extended = np.hstack([x, x[:, -1:]])
    diff = gf.temporal_difference(gf.TimeVaryingSignal(values=extended))
    assert np.abs(diff[:, -1]).max() == 0.0
    y = gf.TimeVaryingSignal(values=np.zeros_like(x))
    y_ext = gf.TimeVaryingSignal(values=np.zeros_like(extended))
    unobserved = np.zeros(x.shape, dtype=bool)
    unobserved_ext = np.zeros(extended.shape, dtype=bool)
    reg = gf.sobolev_objective(gf.TimeVaryingSignal(values=x), y, unobserved, op, 2.0)
    reg_ext = gf.sobolev_objective(
        gf.TimeVaryingSignal(values=extended), y_ext, unobserved_ext, op, 2.0
    )
    assert reg_ext == pytest.approx(reg, rel=1e-9, abs=1e-12)
