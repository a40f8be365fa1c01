import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfill as gf
from graphfill.errors import DegenerateRange, DimensionMismatch, EmptyEvaluationSet
from graphfill.harness import fit_observed_scale


def _signal(values):
    return gf.TimeVaryingSignal(values=np.asarray(values, dtype=float))


def _hidden(shape, cells):
    hidden = np.zeros(shape, dtype=bool)
    for i, t in cells:
        hidden[i, t] = True
    return hidden


def test_rmse_zero_when_equal(rng):
    x = _signal(rng.normal(size=(3, 4)))
    report = gf.error_report(x, x, _hidden((3, 4), [(0, 0), (2, 3), (1, 1)]))
    assert report.rmse == 0.0
    assert report.mae == 0.0


def test_rmse_and_mae_by_hand():
    truth = _signal([[1.0], [3.0]])
    recon = _signal([[2.0], [5.0]])
    report = gf.error_report(truth, recon, np.ones((2, 1), dtype=bool))
    assert report.rmse == pytest.approx(np.sqrt(2.5))
    assert report.mae == pytest.approx(1.5)


def test_rmse_scales_homogeneously(rng):
    truth = _signal(rng.normal(size=(4, 5)))
    recon = _signal(rng.normal(size=(4, 5)))
    hidden = np.ones((4, 5), dtype=bool)
    base = gf.error_report(truth, recon, hidden).rmse
    for c in (3.0, -2.0):
        scaled = gf.error_report(
            _signal(c * truth.values), _signal(c * recon.values), hidden
        ).rmse
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12)


def test_rmse_invariant_under_common_shift(rng):
    truth = _signal(rng.normal(size=(3, 3)))
    recon = _signal(rng.normal(size=(3, 3)))
    hidden = _hidden((3, 3), [(0, 1), (2, 2), (1, 0)])
    base = gf.error_report(truth, recon, hidden).rmse
    shifted = gf.error_report(
        _signal(truth.values + 7.5), _signal(recon.values + 7.5), hidden
    ).rmse
    assert shifted == pytest.approx(base, rel=1e-12)


def test_metrics_invariant_under_eval_order(rng):
    # a hidden mask has no order; building it from a shuffled cell list
    # must not change either metric
    truth = _signal(rng.normal(size=(4, 4)))
    recon = _signal(rng.normal(size=(4, 4)))
    cells = [(0, 0), (1, 2), (3, 3), (2, 1)]
    shuffled = [cells[2], cells[0], cells[3], cells[1]]
    a = gf.error_report(truth, recon, _hidden((4, 4), cells))
    b = gf.error_report(truth, recon, _hidden((4, 4), shuffled))
    assert (a.rmse, a.mae) == (b.rmse, b.mae)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=6),
    m=st.integers(min_value=1, max_value=6),
)
def test_rmse_dominates_mae(seed, n, m):
    rng = np.random.default_rng(seed)
    truth = _signal(rng.normal(size=(n, m)))
    recon = _signal(rng.normal(size=(n, m)))
    count = int(rng.integers(1, n * m + 1))
    hidden = np.zeros(n * m, dtype=bool)
    hidden[rng.choice(n * m, size=count, replace=False)] = True
    report = gf.error_report(truth, recon, hidden.reshape(n, m))
    assert report.rmse >= report.mae - 1e-15


def test_empty_eval_set_rejected(rng):
    x = _signal(rng.normal(size=(2, 2)))
    with pytest.raises(EmptyEvaluationSet):
        gf.error_report(x, x, np.zeros((2, 2), dtype=bool))


def test_out_of_range_indices_rejected(rng):
    # a hidden mask that reaches past the matrix (extra row or column) is
    # the mask form of an out-of-range index
    x = _signal(rng.normal(size=(2, 2)))
    with pytest.raises(DimensionMismatch):
        gf.error_report(x, x, _hidden((3, 2), [(2, 0)]))
    with pytest.raises(DimensionMismatch):
        gf.error_report(x, x, _hidden((2, 3), [(0, 2)]))
    with pytest.raises(DimensionMismatch):
        gf.error_report(x, _signal(rng.normal(size=(2, 3))), _hidden((2, 2), [(0, 0)]))


def test_error_report_fields(rng):
    truth = _signal(rng.normal(size=(3, 3)))
    recon = _signal(rng.normal(size=(3, 3)))
    report = gf.error_report(truth, recon, _hidden((3, 3), [(0, 0), (1, 1)]))
    assert report.n_evaluated == 2
    assert report.rmse >= report.mae


def test_minmax_scale_binary_values():
    params, scaled = fit_observed_scale(
        np.array([[0.0, 10.0], [10.0, 0.0]]), np.ones((2, 2), dtype=bool)
    )
    assert set(np.unique(scaled)) == {0.0, 1.0}
    assert (params.min_value, params.max_value) == (0.0, 10.0)


def test_minmax_scale_three_levels():
    _, scaled = fit_observed_scale(
        np.array([[-5.0, 0.0], [5.0, -5.0]]), np.ones((2, 2), dtype=bool)
    )
    assert sorted(np.unique(scaled)) == [0.0, 0.5, 1.0]


def test_scale_round_trip(rng):
    x = _signal(rng.normal(size=(5, 7)) * 40.0 - 3.0)
    params, scaled = fit_observed_scale(x.values, np.ones((5, 7), dtype=bool))
    assert scaled.min() == 0.0 and scaled.max() == 1.0
    back = gf.inverse_scale(_signal(scaled), params)
    assert np.abs(back.values - x.values).max() <= 1e-12


def test_inverse_scale_examples():
    params = gf.ScaleParams(min_value=0.0, max_value=10.0)
    assert gf.inverse_scale(_signal([[0.5, 0.5], [0.5, 0.5]]), params).values[0, 0] == 5.0
    identity = gf.ScaleParams(min_value=0.0, max_value=1.0)
    x = _signal([[0.25, 0.75], [0.1, 0.9]])
    assert np.array_equal(gf.inverse_scale(x, identity).values, x.values)
    wide = gf.ScaleParams(min_value=-5.0, max_value=5.0)
    assert gf.inverse_scale(_signal([[1.0, 1.0], [1.0, 1.0]]), wide).values[0, 0] == 5.0


def test_degenerate_range_rejected():
    with pytest.raises(DegenerateRange):
        fit_observed_scale(np.full((3, 3), 2.5), np.ones((3, 3), dtype=bool))
    with pytest.raises(DegenerateRange):
        gf.ScaleParams(min_value=1.0, max_value=1.0)


def test_metric_report_orders_rmse_mae():
    with pytest.raises(ValueError):
        gf.MetricReport(rmse=1.0, mae=2.0, n_evaluated=3)
