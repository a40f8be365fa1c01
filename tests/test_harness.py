import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfill as gf
from graphfill import harness, solver
from graphfill.errors import (
    DimensionMismatch,
    EmptyColumn,
    EmptyEvaluationSet,
    GraphfillError,
)
from graphfill.harness import fit_observed_scale, masked_problem

from conftest import masked, outlier_positions, unit_path_graph


def small_dataset(seed=0, n=20, m=40):
    return gf.synthetic_dataset(n_nodes=n, k=3, n_steps=m, noise_sigma=0.05, seed=seed)


def quick_config(**overrides):
    defaults = dict(
        densities=(0.3, 0.7),
        repetitions=3,
        master_seed=0,
        method="sobolev",
        sobolev=gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=0.5),
        k_graph=3,
    )
    defaults.update(overrides)
    return gf.ExperimentConfig(**defaults)


def test_knn_impute_constant_neighbours():
    graph = unit_path_graph(3)
    # node 1 hidden at t=0; both neighbours observed at 5
    mask = np.array([[1, 0], [0, 1], [1, 1]], dtype=bool)
    y = np.array([[5.0, 0.0], [0.0, 1.0], [5.0, 2.0]])
    filled = gf.knn_baseline_impute(y, mask, graph)
    assert filled[1, 0] == pytest.approx(5.0)


def test_knn_impute_weighted_mean():
    pos = gf.NodePositions(
        coords=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), node_ids=("a", "b", "c")
    )
    graph = gf.build_knn_graph(pos, 1)  # equal weights on (a,b) and (b,c)
    mask = np.array([[1, 0], [0, 1], [1, 1]], dtype=bool)
    y = np.array([[2.0, 0.0], [0.0, 1.0], [4.0, 2.0]])
    filled = gf.knn_baseline_impute(y, mask, graph)
    assert filled[1, 0] == pytest.approx(3.0)


def test_knn_impute_passes_observed_through(rng):
    graph = unit_path_graph(4)
    mask = gf.random_mask(4, 5, 0.5, seed=3)
    y = masked(rng.normal(size=(4, 5)), mask)
    filled = gf.knn_baseline_impute(y, mask, graph)
    assert np.array_equal(filled[mask], y[mask])


def test_knn_impute_column_mean_fallback():
    # node 0's only neighbour (node 1) is hidden at t=0: fall back to the
    # mean of the observed entries in that column (column counts may differ)
    graph = unit_path_graph(3)
    bare = np.array([[0, 1], [0, 1], [1, 0]], dtype=bool)
    y = np.array([[0.0, 1.0], [0.0, 2.0], [7.0, 0.0]])
    filled = gf.knn_baseline_impute(y, bare, graph)
    assert filled[0, 0] == pytest.approx(7.0)


def test_knn_impute_empty_column_raises():
    graph = unit_path_graph(3)
    bare = np.array([[1, 0], [1, 0], [1, 0]], dtype=bool)
    y = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(EmptyColumn):
        gf.knn_baseline_impute(y, bare, graph)


def test_knn_impute_node_count_mismatch_raises():
    y = np.ones((3, 2))
    mask = np.ones((3, 2), dtype=bool)
    with pytest.raises(DimensionMismatch, match="signal has 3 nodes, graph has 4"):
        gf.knn_baseline_impute(y, mask, unit_path_graph(4))


def test_fit_observed_scale_ignores_hidden_entries():
    truth = np.array([[1.0, 50.0], [3.0, 2.0]])
    mask = np.array([[1, 0], [1, 1]], dtype=bool)
    params, y = fit_observed_scale(truth, mask)
    assert (params.min_value, params.max_value) == (1.0, 3.0)
    assert y[0, 1] == 0.0


def test_no_ground_truth_leakage():
    # hidden entries poisoned with NaN must not reach the solver inputs
    ds = small_dataset(seed=1, n=12, m=15)
    mask = gf.random_mask(12, 15, 0.5, seed=0)
    poisoned = np.where(mask, ds.signal.values, np.nan)
    params, y_values = fit_observed_scale(poisoned, mask)
    assert np.isfinite(y_values).all()
    clean_params, clean_y = fit_observed_scale(ds.signal.values, mask)
    assert params == clean_params
    assert np.array_equal(y_values, clean_y)
    graph = gf.build_knn_graph(ds.positions, 3)
    result = gf.reconstruct_sobolev(
        y_values, mask, graph, gf.SobolevConfig()
    )
    assert np.isfinite(result.xbar).all()


def test_run_experiment_deterministic():
    ds = small_dataset()
    cfg = quick_config()
    first = gf.run_experiment(ds, cfg)
    second = gf.run_experiment(ds, cfg)
    assert first == second
    assert all(r.complete for r in first)
    assert all(len(r.per_rep) == cfg.repetitions for r in first)


def test_run_experiment_methods_labelled():
    ds = small_dataset()
    for method in ("sobolev", "tikhonov", "knn_baseline"):
        results = gf.run_experiment(ds, quick_config(method=method, densities=(0.5,)))
        assert [r.method for r in results] == [method]


def test_error_declines_with_density():
    ds = small_dataset()
    results = gf.run_experiment(ds, quick_config(densities=(0.1, 0.7), repetitions=5))
    assert results[0].rmse_mean >= results[1].rmse_mean
    assert results[0].mae_mean >= results[1].mae_mean
    for r in results:
        assert r.rmse_mean >= r.mae_mean


def test_full_density_rejected():
    ds = small_dataset()
    with pytest.raises(EmptyEvaluationSet):
        gf.run_experiment(ds, quick_config(densities=(1.0,)))


def test_partial_native_coverage_rejected():
    ds = small_dataset(n=10, m=10)
    native = ds.native_mask.copy()
    native[0, 0] = False
    values = ds.signal.values.copy()
    values[0, 0] = 0.0
    partial = gf.Dataset(
        positions=ds.positions,
        signal=gf.TimeVaryingSignal(values=values),
        native_mask=native,
        name="partial",
        time_indices=ds.time_indices,
    )
    with pytest.raises(GraphfillError):
        gf.run_experiment(partial, quick_config())


def test_failed_repetitions_recorded_not_averaged():
    ds = small_dataset()
    # gamma = 0 with an incomplete mask is singular in every repetition
    sobolev = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=0.0)
    cfg = quick_config(densities=(0.3,), sobolev=sobolev)
    (result,) = gf.run_experiment(ds, cfg)
    assert len(result.failed) == cfg.repetitions
    assert all("gamma = 0 with an incomplete mask" in message for _, message in result.failed)
    assert result.per_rep == ()
    assert not result.complete
    assert np.isnan(result.rmse_mean)


def test_non_convergence_is_a_failed_repetition(monkeypatch):
    monkeypatch.setattr(solver, "_takes_direct_path", lambda *args: False)
    monkeypatch.setattr(solver, "_CG_MAX_ITERATIONS", 1)
    cfg = quick_config(densities=(0.3,), repetitions=2)
    (result,) = gf.run_experiment(small_dataset(), cfg)
    assert [seed for seed, _ in result.failed] == [0, 1]
    prefix = "ConvergenceFailure: solver did not converge within 1 iterations (relative residual "
    assert all(message.startswith(prefix) for _, message in result.failed)
    assert result.per_rep == ()


def test_large_gamma_direct_solves_are_not_failures():
    # the exact solve's residual, about 3e-10 relative at gamma = 1e7, is
    # above CG's tolerance but is no convergence failure
    cfg = quick_config(densities=(0.3,), repetitions=2,
                       sobolev=gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=1e7))
    (result,) = gf.run_experiment(small_dataset(), cfg)
    assert result.failed == () and len(result.per_rep) == 2


# Methods whose every repetition on affine_dataset() takes the exact solve
# (or none): CG's own error, up to about 1e-6, would swamp the property.
AFFINE_CELLS = {
    "sobolev": gf.SobolevConfig(epsilon=0.5, beta=1.5, gamma=0.5),
    "tikhonov": gf.SobolevConfig(gamma=1.0),
    "knn_baseline": gf.SobolevConfig(),
}
AFFINE_DENSITIES = (0.1, 0.3, 0.7)


@functools.cache
def affine_dataset():
    return small_dataset(n=20, m=30)


@functools.cache
def affine_base_errors(method):
    cfg = quick_config(densities=AFFINE_DENSITIES, method=method,
                       sobolev=AFFINE_CELLS[method], k_graph=5)
    takes_direct_path = solver._takes_direct_path
    direct = []

    def spy(*args):
        direct.append(takes_direct_path(*args))
        return direct[-1]

    with mock.patch.object(solver, "_takes_direct_path", spy):
        results = gf.run_experiment(affine_dataset(), cfg)
    assert all(direct) and all(r.complete for r in results)
    return cfg, np.array([r.per_rep for r in results])


@settings(max_examples=30, deadline=None)
@given(
    method=st.sampled_from(sorted(AFFINE_CELLS)),
    magnitude=st.floats(1e-2, 1e2),
    sign=st.sampled_from([-1.0, 1.0]),
    offset=st.floats(-100.0, 100.0),
)
def test_errors_scale_with_affine_maps_of_the_readings(method, magnitude, sign, offset):
    # min-max scaling maps a * truth + c onto the scaled truth (or one minus
    # it, for a < 0), and each method commutes with that map, so the
    # per-repetition RMSE and MAE are |a| times those on the truth
    cfg, base = affine_base_errors(method)
    ds = affine_dataset()
    mapped = dataclasses.replace(
        ds, signal=gf.TimeVaryingSignal(values=sign * magnitude * ds.signal.values + offset)
    )
    got = np.array([r.per_rep for r in gf.run_experiment(mapped, cfg)])
    assert np.array_equal(got[..., 0], base[..., 0])  # seeds
    assert np.allclose(got[..., 1:], magnitude * base[..., 1:], rtol=1e-10, atol=0.0)


def test_masked_problem_seed_controls_mask():
    ds = small_dataset(n=10, m=12)
    native = ds.native_mask.copy()
    native[0, :6] = False
    partial = gf.Dataset(
        positions=ds.positions,
        signal=gf.TimeVaryingSignal(values=np.where(native, ds.signal.values, 0.0)),
        native_mask=native,
        name="partial",
        time_indices=ds.time_indices,
    )
    observed, hidden, scale, y = masked_problem(partial, 0.5, 3)
    drawn = gf.random_mask(10, 12, 0.5, seed=3)
    assert np.array_equal(observed, drawn & native)
    assert np.array_equal(hidden, ~drawn & native)  # only entries with ground truth
    params, y_values = fit_observed_scale(partial.signal.values, observed)
    assert scale == params and np.array_equal(y, y_values)
    assert y.dtype == float and not y.flags.writeable  # a signal, as check_signal returns
    assert not np.array_equal(observed, masked_problem(partial, 0.5, 4)[0])


def test_grid_search_draws_each_mask_once(monkeypatch):
    calls = []
    draw = harness.random_mask

    def counting(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(harness, "random_mask", counting)
    search = gf.grid_search(
        small_dataset(), 0.5, [0.1, 1.0], [1.0, 2.0], [0.1, 1.0], repetitions=3, k_graph=3
    )
    assert len(search.entries) == 8
    assert [seed for *_, seed in calls] == [0, 1, 2]


def test_grid_search_entries_match_run_experiment():
    ds = small_dataset()
    search = gf.grid_search(
        ds, 0.3, [0.0, 0.5], [1.0, 2.0], [0.1, 1.0], repetitions=3, master_seed=5, k_graph=3
    )
    for config, result in search.entries:
        cfg = quick_config(densities=(0.3,), master_seed=5, sobolev=config)
        (alone,) = gf.run_experiment(ds, cfg)
        assert result.per_rep == alone.per_rep and result.failed == alone.failed


def test_unposable_mask_fails_every_cell():
    ds = small_dataset(n=10, m=12)
    flat = gf.Dataset(
        positions=ds.positions,
        signal=gf.TimeVaryingSignal(values=np.ones((10, 12))),
        native_mask=ds.native_mask,
        name="flat",
        time_indices=ds.time_indices,
    )
    graph = gf.build_knn_graph(ds.positions, 3)
    cells = [("sobolev", gf.SobolevConfig()), ("knn_baseline", gf.SobolevConfig())]
    results = harness._run_cells(flat, graph, 0.5, range(2), cells)
    message = "DegenerateRange: max_value 1.0 must exceed min_value 1.0"
    assert [r.failed for r in results] == [((0, message), (1, message))] * 2
    assert all(r.per_rep == () and r.repetitions == 2 for r in results)


def test_far_outlier_experiment():
    # the outlier is isolated in L: eps > 0 keeps the system definite, eps = 0 does not
    pos = outlier_positions()
    m = 12
    ds = gf.Dataset(
        positions=pos,
        signal=gf.TimeVaryingSignal(values=np.random.default_rng(1).normal(size=(60, m))),
        native_mask=np.ones((60, m), dtype=bool),
        name="outlier",
        time_indices=tuple(range(m)),
    )
    sobolev = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=1.0)
    (result,) = gf.run_experiment(ds, quick_config(densities=(0.5,), sobolev=sobolev, k_graph=5))
    assert result.complete
    cfg = quick_config(densities=(0.5,), method="tikhonov", sobolev=sobolev, k_graph=5)
    (result,) = gf.run_experiment(ds, cfg)
    assert result.per_rep == () and len(result.failed) == cfg.repetitions
    assert all(message.startswith("SingularSystem: ") for _, message in result.failed)


def test_grid_search_single_point():
    ds = small_dataset()
    search = gf.grid_search(ds, 0.5, [0.5], [1.0], [0.3], repetitions=3, k_graph=3)
    assert len(search.entries) == 1
    assert search.best_config == gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=0.3)


def test_grid_search_cardinality_and_argmin():
    ds = small_dataset()
    search = gf.grid_search(
        ds, 0.5, [0.1, 1.0], [1.0, 2.0], [0.1, 1.0], repetitions=3, k_graph=3
    )
    assert len(search.entries) == 8
    best = search.best_result.rmse_mean
    assert all(best <= r.rmse_mean for _, r in search.entries)


def test_grid_search_includes_zero_epsilon():
    ds = small_dataset()
    search = gf.grid_search(ds, 0.5, [0.0, 0.5], [1.0], [0.5], repetitions=3, k_graph=3)
    evaluated = {(c.epsilon, c.beta, c.gamma) for c, _ in search.entries}
    assert evaluated == {(0.0, 1.0, 0.5), (0.5, 1.0, 0.5)}
    assert search.best_result.rmse_mean <= max(r.rmse_mean for _, r in search.entries)


def test_grid_search_paired_masks():
    # identical (density, master_seed) must give every config the same masks;
    # with a single-point grid the winning scores must be reproducible
    ds = small_dataset()
    s1 = gf.grid_search(ds, 0.5, [0.3], [1.0], [0.2], repetitions=3, k_graph=3)
    s2 = gf.grid_search(ds, 0.5, [0.3], [1.0], [0.2], repetitions=3, k_graph=3)
    assert s1.best_result.per_rep == s2.best_result.per_rep


def test_grid_search_empty_grid_rejected():
    ds = small_dataset()
    with pytest.raises(ValueError):
        gf.grid_search(ds, 0.5, [], [1.0], [0.5])


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        gf.ExperimentConfig(densities=(0.5, 0.3))
    with pytest.raises(ValueError):
        gf.ExperimentConfig(densities=(0.0, 0.5))
    with pytest.raises(ValueError):
        gf.ExperimentConfig(method="magic")
    with pytest.raises(ValueError):
        gf.ExperimentConfig(repetitions=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"densities": ("0.5",)}, "density must be a real number"),
        ({"densities": (True,)}, "density must be a real number"),
        ({"repetitions": 2.0}, "repetitions must be an integer"),
        ({"master_seed": "0"}, "master_seed must be an integer"),
        ({"k_graph": True}, "k_graph must be an integer"),
    ],
)
def test_experiment_config_rejects_non_numbers(kwargs, message):
    with pytest.raises(ValueError, match=message):
        gf.ExperimentConfig(**kwargs)


def test_experiment_config_accepts_numpy_numbers():
    cfg = gf.ExperimentConfig(densities=(np.float64(0.5),), repetitions=np.int64(2))
    assert cfg.densities == (0.5,) and cfg.repetitions == 2
