import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfill as gf
from graphfill.errors import InvalidInput
from graphfill.harness import masked_problem

from conftest import dataset_of


def _hidden(shape, cells):
    hidden = np.zeros(shape, dtype=bool)
    for i, t in cells:
        hidden[i, t] = True
    return hidden


def test_rmse_zero_when_equal(rng):
    x = rng.normal(size=(3, 4))
    report = gf.error_report(x, x, _hidden((3, 4), [(0, 0), (2, 3), (1, 1)]))
    assert report.rmse == 0.0
    assert report.mae == 0.0


def test_rmse_and_mae_by_hand():
    truth = np.array([[1.0], [3.0]])
    recon = np.array([[2.0], [5.0]])
    report = gf.error_report(truth, recon, np.ones((2, 1), dtype=bool))
    assert report.rmse == pytest.approx(np.sqrt(2.5))
    assert report.mae == pytest.approx(1.5)


def test_rmse_scales_homogeneously(rng):
    truth = rng.normal(size=(4, 5))
    recon = rng.normal(size=(4, 5))
    hidden = np.ones((4, 5), dtype=bool)
    base = gf.error_report(truth, recon, hidden).rmse
    for c in (3.0, -2.0):
        scaled = gf.error_report(c * truth, c * recon, hidden).rmse
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12)


def test_rmse_invariant_under_common_shift(rng):
    truth = rng.normal(size=(3, 3))
    recon = rng.normal(size=(3, 3))
    hidden = _hidden((3, 3), [(0, 1), (2, 2), (1, 0)])
    base = gf.error_report(truth, recon, hidden).rmse
    shifted = gf.error_report(truth + 7.5, recon + 7.5, hidden).rmse
    assert shifted == pytest.approx(base, rel=1e-12)


def test_metrics_invariant_under_eval_order(rng):
    # a hidden mask has no order; building it from a shuffled cell list
    # must not change either metric
    truth = rng.normal(size=(4, 4))
    recon = rng.normal(size=(4, 4))
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
    truth = rng.normal(size=(n, m))
    recon = rng.normal(size=(n, m))
    count = int(rng.integers(1, n * m + 1))
    hidden = np.zeros(n * m, dtype=bool)
    hidden[rng.choice(n * m, size=count, replace=False)] = True
    report = gf.error_report(truth, recon, hidden.reshape(n, m))
    assert report.rmse >= report.mae - 1e-15


def test_empty_eval_set_rejected(rng):
    x = rng.normal(size=(2, 2))
    with pytest.raises(InvalidInput, match="^no entries to evaluate$"):
        gf.error_report(x, x, np.zeros((2, 2), dtype=bool))


def test_out_of_range_indices_rejected(rng):
    # a hidden mask that reaches past the matrix (extra row or column) is
    # the mask form of an out-of-range index
    x = rng.normal(size=(2, 2))
    with pytest.raises(InvalidInput, match=r"^mask \(3, 2\) vs signal \(2, 2\)$"):
        gf.error_report(x, x, _hidden((3, 2), [(2, 0)]))
    with pytest.raises(InvalidInput, match=r"^mask \(2, 3\) vs signal \(2, 2\)$"):
        gf.error_report(x, x, _hidden((2, 3), [(0, 2)]))
    with pytest.raises(InvalidInput, match=r"^truth \(2, 2\) vs recon \(2, 3\)$"):
        gf.error_report(x, rng.normal(size=(2, 3)), _hidden((2, 2), [(0, 0)]))


def test_error_report_fields(rng):
    truth = rng.normal(size=(3, 3))
    recon = rng.normal(size=(3, 3))
    report = gf.error_report(truth, recon, _hidden((3, 3), [(0, 0), (1, 1)]))
    assert report.n_evaluated == 2
    assert report.rmse >= report.mae


def _scaled(values):
    """masked_problem's (y, unscale) with every reading observed."""
    observed, hidden, y, unscale = masked_problem(dataset_of(values), 1.0, 0)
    assert observed.all() and not hidden.any()
    return y, unscale


def test_minmax_scale_binary_values():
    y, unscale = _scaled(np.array([[0.0, 10.0], [10.0, 0.0]]))
    assert set(np.unique(y)) == {0.0, 1.0}
    assert (unscale(np.zeros((2, 2)))[0, 0], unscale(np.ones((2, 2)))[0, 0]) == (0.0, 10.0)


def test_minmax_scale_three_levels():
    y, _ = _scaled(np.array([[-5.0, 0.0], [5.0, -5.0]]))
    assert sorted(np.unique(y)) == [0.0, 0.5, 1.0]


def test_scale_round_trip(rng):
    x = rng.normal(size=(5, 7)) * 40.0 - 3.0
    y, unscale = _scaled(x)
    assert y.min() == 0.0 and y.max() == 1.0
    assert np.abs(unscale(y) - x).max() <= 1e-12


def test_inverse_scale_examples():
    # masked_problem's unscale on three worked examples
    _, unscale = _scaled(np.array([[0.0, 10.0], [10.0, 0.0]]))
    assert np.array_equal(unscale(np.full((2, 2), 0.5)), np.full((2, 2), 5.0))
    _, identity = _scaled(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = np.array([[0.25, 0.75], [0.1, 0.9]])
    assert np.array_equal(identity(x), x)
    _, wide = _scaled(np.array([[-5.0, 0.0], [5.0, -5.0]]))
    assert np.array_equal(wide(np.ones((2, 2))), np.full((2, 2), 5.0))


def test_degenerate_range_rejected():
    with pytest.raises(InvalidInput, match="^max_value 2.5 must exceed min_value 2.5$"):
        _scaled(np.full((3, 3), 2.5))
    with pytest.raises(InvalidInput, match="^max_value 1.0 must exceed min_value 1.0$"):
        _scaled(np.ones((3, 3)))


def test_metric_report_orders_rmse_mae():
    with pytest.raises(ValueError):
        gf.MetricReport(rmse=1.0, mae=2.0, n_evaluated=3)


def test_rmse_of_huge_deviations_is_finite():
    # squaring deviations of 1e200 overflows; the RMSE itself is a double
    signs = np.random.default_rng(0).choice([-1.0, 1.0], size=(4, 6))
    truth, recon = 1e200 * signs, np.zeros((4, 6))
    report = gf.error_report(truth, recon, np.ones((4, 6), dtype=bool))
    assert report.rmse == pytest.approx(1e200, rel=1e-12)
    assert report.mae == pytest.approx(1e200, rel=1e-12)
    # MAE's sum overflows too once |deviation| nears 1e308 / n
    report = gf.error_report(5e307 * signs, recon, np.ones((4, 6), dtype=bool))
    assert (report.rmse, report.mae) == (pytest.approx(5e307), pytest.approx(5e307))


def test_deviation_beyond_the_float_range_is_measured():
    # -9e307 against 9e307 lies 1.8e308 apart, beyond the float range, while
    # the RMSE and MAE over four entries are doubles
    truth, recon = np.zeros((2, 2)), np.zeros((2, 2))
    truth[0, 0], recon[0, 0] = -9e307, 9e307
    report = gf.error_report(truth, recon, np.ones((2, 2), dtype=bool))
    assert report.rmse == pytest.approx(9e307, rel=1e-15)
    assert report.mae == pytest.approx(4.5e307, rel=1e-15)
    # a metric that is itself beyond the float range reads inf
    truth[:], recon[:] = -9e307, 9e307
    assert gf.error_report(truth, recon, np.ones((2, 2), dtype=bool)).rmse == np.inf


def test_unscale_maps_back_values_whose_product_overflows():
    # x * span overflows for 1.2 * 1.6e308, but x * span + low = 1.12e308
    # fits; entries whose plain form is finite keep its bytes
    _, unscale = _scaled(np.array([[-8e307, 8e307], [8e307, -8e307]]))
    x = np.array([[1.2, 0.3], [0.999, 1e-17]])
    got = unscale(x)
    assert got[0, 0] == pytest.approx(1.12e308, rel=1e-15)
    assert np.array_equal(got.flat[1:], (x.flat[1:] * 1.6e308 - 8e307))
    with pytest.raises(InvalidInput, match="mapping the reconstruction back"):
        unscale(np.full((2, 2), 1.7))  # 1.7 * 1.6e308 - 8e307 = 1.92e308


def test_finite_metrics_keep_their_bits(rng):
    truth, recon = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
    hidden = rng.random((5, 6)) < 0.5
    dev = truth[hidden] - recon[hidden]
    report = gf.error_report(truth, recon, hidden)
    assert report.rmse == float(np.sqrt(np.mean(dev**2)))
    assert report.mae == float(np.mean(np.abs(dev)))
