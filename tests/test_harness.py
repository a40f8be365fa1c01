import dataclasses
import functools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfill as gf
from graphfill import harness, solver
from graphfill.errors import InvalidInput
from graphfill.harness import masked_problem

from conftest import dataset_of, masked, outlier_positions, unit_path_graph


def small_dataset(seed=0, n=20, m=40):
    return gf.synthetic_dataset(n_nodes=n, k=3, n_steps=m, seed=seed)


CELL = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=0.5)


def point_grids(methods, config=CELL):
    """The one-point grids at config that the named methods search; the rest are empty."""
    searched = {name for method in methods for name in harness.SEARCHES[method]}
    point = {"eps_grid": [config.epsilon], "beta_grid": [config.beta], "gamma_grid": [config.gamma]}
    return [grid if name in searched else [] for name, grid in point.items()]


def search(ds, density, methods=("sobolev",), config=CELL, repetitions=3, master_seed=0,
           k_graph=3):
    """grid_search of the named methods on the one-point grids at config."""
    return gf.grid_search(ds, density, *point_grids(methods, config), repetitions=repetitions,
                          master_seed=master_seed, k_graph=k_graph, methods=methods)


def score(ds, density, methods=("sobolev",), config=CELL, repetitions=3, master_seed=0,
          k_graph=3):
    """Each named method's result at config, scored on the masks that grid_search
    poses."""
    cell = {"sobolev": config, "tikhonov": gf.SobolevConfig(0.0, 1.0, config.gamma),
            "knn_baseline": None}
    graph = gf.build_knn_graph(ds.positions, k_graph)
    seeds = range(master_seed, master_seed + repetitions)
    results = harness._run_cells(ds, graph, density, seeds, [(m, cell[m]) for m in methods])
    return dict(zip(methods, results))


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


def test_knn_impute_empty_step_falls_back_to_node_mean():
    # step 1 observes no node, so each node takes its mean over its observed entries
    graph = unit_path_graph(3)
    bare = np.array([[1, 0], [1, 0], [1, 0]], dtype=bool)
    y = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    filled = gf.knn_baseline_impute(y, bare, graph)
    assert filled[:, 1].tolist() == [1.0, 2.0, 3.0]


def test_knn_impute_entry_without_any_estimate_raises():
    # node 2 is never observed and step 1 observes no node: (2, 1) has no estimate
    graph = unit_path_graph(3)
    bare = np.array([[1, 0], [1, 0], [0, 0]], dtype=bool)
    y = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
    message = ("^node 2 is never observed and time step 1 observes no node, "
               "so the kNN baseline has no estimate for it$")
    with pytest.raises(InvalidInput, match=message):
        gf.knn_baseline_impute(y, bare, graph)


def test_knn_impute_node_count_mismatch_raises():
    y = np.ones((3, 2))
    mask = np.ones((3, 2), dtype=bool)
    with pytest.raises(InvalidInput, match="signal has 3 nodes, graph has 4"):
        gf.knn_baseline_impute(y, mask, unit_path_graph(4))


def test_fit_observed_scale_ignores_hidden_entries():
    # masked_problem fits the min-max scale on the observed entries alone:
    # the 50 at a natively missing entry sets neither bound, and y is 0 there
    native = np.array([[1, 0], [1, 1]], dtype=bool)
    ds = dataset_of(np.where(native, [[1.0, 50.0], [3.0, 2.0]], 0.0), native)
    object.__setattr__(ds, "signal", gf.TimeVaryingSignal(
        values=np.array([[1.0, 50.0], [3.0, 2.0]])))
    observed, _, y, unscale = masked_problem(ds, 1.0, 0)
    assert np.array_equal(observed, native)
    assert (unscale(np.zeros((2, 2)))[0, 0], unscale(np.ones((2, 2)))[0, 0]) == (1.0, 3.0)
    assert y[0, 1] == 0.0


def test_no_ground_truth_leakage():
    # every entry that is not observed (hidden or natively missing) is
    # poisoned with huge readings: neither y nor the reconstruction in data
    # units may change by a bit
    ds = small_dataset(seed=1, n=12, m=15)
    native = ds.native_mask.copy()
    native[2, 3:9] = False
    clean = dataset_of(np.where(native, ds.signal.values, 0.0), native)
    observed, hidden, y, unscale = masked_problem(clean, 0.5, 0)
    poison = np.random.default_rng(2).choice([-1.7e308, 1.7e308], size=native.shape)
    poisoned = dataset_of(clean.signal.values, native)
    # a Dataset is zero where a reading is missing; the poison goes there too
    object.__setattr__(poisoned, "signal", gf.TimeVaryingSignal(
        values=np.where(observed, clean.signal.values, poison)))
    assert (poisoned.signal.values[~observed] != 0).all()
    p_observed, p_hidden, p_y, p_unscale = masked_problem(poisoned, 0.5, 0)
    assert np.array_equal(p_observed, observed) and np.array_equal(p_hidden, hidden)
    assert p_y.tobytes() == y.tobytes()
    graph = gf.build_knn_graph(ds.positions, 3)
    for config in (gf.SobolevConfig(), None):  # sobolev, and the kNN baseline
        recon = unscale(harness._solve(y, observed, graph, config))
        p_recon = p_unscale(harness._solve(p_y, p_observed, graph, config))
        assert np.isfinite(recon).all() and p_recon.tobytes() == recon.tobytes()


def test_run_experiment_deterministic():
    # the paper's comparison at one density, run twice
    ds = small_dataset()
    first = search(ds, 0.3, harness.METHODS)
    assert first == search(ds, 0.3, harness.METHODS)
    assert all(not r.failed and len(r.per_rep) == 3 for _, r in first.entries)


def test_run_experiment_methods_labelled():
    # cells come in METHODS order, whatever the order of the names
    found = gf.grid_search(small_dataset(), 0.5, [0.5], [1.0], [0.5, 1.0], repetitions=3,
                           k_graph=3, methods=["knn_baseline", "tikhonov", "sobolev"])
    assert [r.method for _, r in found.entries] == [
        "sobolev", "sobolev", "tikhonov", "tikhonov", "knn_baseline"]
    assert [config for config, _ in found.entries][2:] == [
        gf.SobolevConfig(0.0, 1.0, 0.5), gf.SobolevConfig(0.0, 1.0, 1.0), None]
    assert list(found.best) == list(harness.METHODS)
    assert all(found.best[r.method][1].rmse_mean <= r.rmse_mean for _, r in found.entries)


def test_error_declines_with_density():
    ds = small_dataset()
    sparse, dense = (search(ds, density, repetitions=5).best["sobolev"][1]
                     for density in (0.1, 0.7))
    assert sparse.rmse_mean >= dense.rmse_mean
    assert sparse.mae_mean >= dense.mae_mean
    for r in (sparse, dense):
        assert r.rmse_mean >= r.mae_mean


def test_full_density_rejected():
    ds = small_dataset()
    message = (
        "^density 1.0 samples all 20 nodes per snapshot; "
        "nothing is hidden, so there is nothing to evaluate$"
    )
    with pytest.raises(InvalidInput, match=message):
        search(ds, 1.0)


def with_native(ds, native):
    """ds with the readings outside native removed."""
    return dataset_of(np.where(native, ds.signal.values, 0.0), native)


def test_partial_native_coverage_runs():
    ds = small_dataset(n=10, m=10)
    native = ds.native_mask.copy()
    native[0, 0] = False
    results = [r for density in (0.3, 0.7)
               for _, r in search(with_native(ds, native), density).entries]
    assert all(not r.failed for r in results)
    assert all(np.isfinite(r.rmse_mean) for r in results)


def test_gappy_dataset_runs_pooled_as_in_process(monkeypatch):
    # each reading is natively missing with probability 0.3
    ds = with_native(small_dataset(), np.random.default_rng(1).random((20, 40)) >= 0.3)
    assert not ds.native_mask.all(axis=1).any()  # no node has a complete series

    def run():
        by_density = [score(ds, density, harness.METHODS, repetitions=6)
                      for density in (0.1, 0.3, 0.7)]
        return {method: [results[method] for results in by_density]
                for method in harness.METHODS}

    monkeypatch.setattr(harness, "_WORKERS", 2)
    pooled = run()
    posed = []
    pose = harness.masked_problem
    monkeypatch.setattr(harness, "_WORKERS", 1)  # the spy reaches this process only
    monkeypatch.setattr(harness, "masked_problem", lambda *args: posed.append(pose(*args))
                        or posed[-1])
    assert run() == pooled
    # sobolev and the kNN baseline fill every repetition; tikhonov (epsilon = 0)
    # may find a sparse draw singular, and nothing else
    assert all(not r.failed for method in ("sobolev", "knn_baseline") for r in pooled[method])
    assert all(message.startswith("SingularSystem: ")
               for r in pooled["tikhonov"] for _, message in r.failed)
    assert len(posed) == 3 * 6  # one mask per density and seed, shared by the methods
    for observed, hidden, _, _ in posed:
        assert not (hidden & ~ds.native_mask).any()
        assert np.array_equal(observed | hidden, ds.native_mask)
        assert observed.any(axis=1).all()


def test_step_without_native_readings():
    # step 4 holds no reading at all: sobolev and the kNN baseline still fill
    # every entry, and tikhonov (epsilon = 0) cannot link that step to any node
    ds = small_dataset()
    native = ds.native_mask.copy()
    native[:, 4] = False
    gappy = with_native(ds, native)
    by_method = score(gappy, 0.3, harness.METHODS)
    assert not by_method["sobolev"].failed and not by_method["knn_baseline"].failed
    tikhonov = by_method["tikhonov"]
    assert len(tikhonov.failed) == 3 and tikhonov.per_rep == ()
    assert all(message.startswith("SingularSystem: ") and "time step 4" in message
               for _, message in tikhonov.failed)
    observed, _, y, _ = masked_problem(gappy, 0.3, 0)
    graph = gf.build_knn_graph(gappy.positions, 3)
    filled = gf.knn_baseline_impute(y, observed, graph)
    node_means = (y * observed).sum(axis=1) / observed.sum(axis=1)
    assert np.array_equal(filled[:, 4], node_means)


def test_failed_repetitions_recorded_not_averaged():
    ds = small_dataset()
    # gamma = 0 with an incomplete mask is singular in every repetition
    found = gf.grid_search(ds, 0.3, [0.5], [1.0], [0.0, 0.5], repetitions=3, k_graph=3)
    (_, result), (config, other) = found.entries
    assert len(result.failed) == 3
    assert all("gamma = 0 with an incomplete mask" in message for _, message in result.failed)
    assert result.per_rep == ()
    assert np.isnan(result.rmse_mean)
    # it cannot win, whatever its NaN compares to
    assert found.best == {"sobolev": (config, other)} and config.gamma == 0.5


def test_results_with_nan_aggregates_compare_equal():
    # gamma = 0 fails every repetition, so that entry's aggregates are NaN,
    # and NaN != NaN: equal results must still compare equal
    ds = gf.synthetic_dataset(n_nodes=15, k=3, n_steps=20, seed=5)
    first, second = (gf.grid_search(ds, 0.5, [0.5], [1.0], [0.0, 0.5], repetitions=3, k_graph=3)
                     for _ in range(2))
    assert math.isnan(first.entries[0][1].rmse_mean)
    assert first == second


def test_non_convergence_is_a_failed_repetition(monkeypatch):
    monkeypatch.setattr(harness, "_WORKERS", 1)  # the patches reach this process only
    monkeypatch.setattr(solver, "_takes_direct_path", lambda *args: False)
    monkeypatch.setattr(solver, "_CG_MAX_ITERATIONS", 1)
    result = score(small_dataset(), 0.3, repetitions=2)["sobolev"]
    assert [seed for seed, _ in result.failed] == [0, 1]
    prefix = "ConvergenceFailure: solver did not converge within 1 iterations (relative residual "
    assert all(message.startswith(prefix) for _, message in result.failed)
    assert result.per_rep == ()


def test_large_gamma_direct_solves_are_not_failures():
    # the exact solve's residual, about 3e-10 relative at gamma = 1e7, is
    # above CG's tolerance but is no convergence failure
    config = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=1e7)
    ((_, result),) = search(small_dataset(), 0.3, config=config, repetitions=2).entries
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


def affine_errors(ds, method):
    """Each density's per-repetition (seed, rmse, mae) of the method's cell."""
    return np.array([search(ds, density, [method], AFFINE_CELLS[method], k_graph=5).entries[0][1]
                     .per_rep for density in AFFINE_DENSITIES])


@functools.cache
def affine_base_errors(method):
    takes_direct_path = solver._takes_direct_path
    direct = []

    def spy(*args):
        direct.append(takes_direct_path(*args))
        return direct[-1]

    # the spy sees only solves made in this process
    with mock.patch.object(harness, "_WORKERS", 1), \
            mock.patch.object(solver, "_takes_direct_path", spy):
        errors = affine_errors(affine_dataset(), method)
    # every solve was direct, and only the kNN baseline makes none; a failed
    # repetition would drop its row from per_rep, which the seed check catches
    assert all(direct) and bool(direct) == (method != "knn_baseline")
    return errors


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
    base = affine_base_errors(method)
    ds = affine_dataset()
    mapped = dataclasses.replace(
        ds, signal=gf.TimeVaryingSignal(values=sign * magnitude * ds.signal.values + offset)
    )
    got = affine_errors(mapped, method)
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
    observed, hidden, y, unscale = masked_problem(partial, 0.5, 3)
    drawn = gf.random_mask(10, 12, 0.5, seed=3)
    assert np.array_equal(observed, drawn & native)
    assert np.array_equal(hidden, ~drawn & native)  # only entries with ground truth
    # the observed-only min-max scaling, bit for bit, and its inverse
    seen = partial.signal.values[observed]
    low, span = seen.min(), seen.max() - seen.min()
    assert np.array_equal(y, np.where(observed, (partial.signal.values - low) / span, 0.0))
    x = np.random.default_rng(0).normal(size=(10, 12))
    assert np.array_equal(unscale(x), x * span + low)
    assert y.dtype == float and not y.flags.writeable  # a signal, as check_signal returns
    assert not np.array_equal(observed, masked_problem(partial, 0.5, 4)[0])


def test_grid_search_draws_each_mask_once(monkeypatch):
    calls = []
    draw = harness.random_mask

    def counting(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(harness, "_WORKERS", 1)  # the counter sees this process only
    monkeypatch.setattr(harness, "random_mask", counting)
    grids = ([0.1, 1.0], [1.0, 2.0], [0.1, 1.0])
    for methods, cells in [(("sobolev",), 8), (harness.METHODS, 8 + 2 + 1)]:
        calls.clear()
        found = gf.grid_search(small_dataset(), 0.5, *grids, repetitions=3, k_graph=3,
                               methods=methods)
        assert len(found.entries) == cells
        assert [seed for _, _, _, seed, _ in calls] == [0, 1, 2]


def test_grid_search_entries_match_single_method_grids():
    ds = small_dataset()
    grids = dict(eps_grid=[0.0, 0.5], beta_grid=[1.0, 2.0], gamma_grid=[0.1, 1.0])
    together = gf.grid_search(ds, 0.3, **grids, repetitions=3, master_seed=5, k_graph=3,
                              methods=harness.METHODS)
    alone = [gf.grid_search(ds, 0.3, **{name: grid if name in searched else []
                                        for name, grid in grids.items()},
                            repetitions=3, master_seed=5, k_graph=3, methods=[method])
             for method, searched in harness.SEARCHES.items()]
    assert together.entries == tuple(entry for found in alone for entry in found.entries)
    assert together.best == {method: found.best[method]
                             for method, found in zip(harness.METHODS, alone)}


def test_method_without_a_winner_keeps_the_other_methods():
    # half the readings are natively missing: at density 0.1, tikhonov
    # (epsilon = 0) finds every draw singular; it has no winner, and sobolev
    # and the kNN baseline come out as they do without it
    ds = gf.synthetic_dataset(seed=0)
    native = np.random.default_rng(1).random(ds.signal.values.shape) >= 0.5
    signal = gf.TimeVaryingSignal(values=np.where(native, ds.signal.values, 0.0))
    ds = dataclasses.replace(ds, signal=signal, native_mask=native)
    grids = dict(eps_grid=[0.5], beta_grid=[1.0], gamma_grid=[0.1, 1.0], repetitions=4)
    found = gf.grid_search(ds, 0.1, **grids, methods=harness.METHODS)
    alone = gf.grid_search(ds, 0.1, **grids, methods=["sobolev", "knn_baseline"])
    tikhonov = [r for _, r in found.entries if r.method == "tikhonov"]
    assert len(tikhonov) == 2 and all(r.per_rep == () and len(r.failed) == 4 for r in tikhonov)
    assert found.best == {**alone.best, "tikhonov": None}
    assert tuple(e for e in found.entries if e[1].method != "tikhonov") == alone.entries


def test_worker_pool_matches_in_process_scoring(monkeypatch):
    if harness._WORKERS < 2:
        pytest.skip("one usable CPU: every call is scored in process")
    reps = 2 * harness._WORKERS + 1  # runs of uneven length
    ds = small_dataset()

    def run():
        found = gf.grid_search(ds, 0.3, [0.5], [1.0], [50.0, 1e-3, 0.0],
                               repetitions=reps, master_seed=2, k_graph=3)
        outcomes = [r for _, r in found.entries]
        for density in (0.1, 0.5):
            outcomes += score(ds, density, ("tikhonov", "knn_baseline"), repetitions=reps,
                              config=gf.SobolevConfig(gamma=0.1)).values()
        return outcomes

    pool_calls = []
    worker_pool = harness._worker_pool
    monkeypatch.setattr(harness, "_worker_pool", lambda: pool_calls.append(1) or worker_pool())
    pooled = run()
    assert len(pool_calls) == 3  # one grid search, then two methods at two densities

    paths = []
    takes_direct_path = solver._takes_direct_path

    def spy(*args):
        paths.append(takes_direct_path(*args))
        return paths[-1]

    monkeypatch.setattr(harness, "_WORKERS", 1)
    monkeypatch.setattr(solver, "_takes_direct_path", spy)
    assert run() == pooled
    assert set(paths) == {True, False}  # both solver paths were scored
    direct, cg, zero_gamma = pooled[:3]
    assert [seed for seed, *_ in direct.per_rep] == list(range(2, 2 + reps))
    assert len(cg.per_rep) == reps
    assert zero_gamma.per_rep == ()
    assert [seed for seed, _ in zero_gamma.failed] == list(range(2, 2 + reps))


def test_worker_error_is_raised_with_its_type_and_message(monkeypatch):
    # a negative seed is no GraphfillError: numpy's generator raises ValueError
    ds = small_dataset()
    graph = gf.build_knn_graph(ds.positions, 3)
    cells = [("sobolev", gf.SobolevConfig())]
    with pytest.raises(ValueError) as pooled:
        harness._run_cells(ds, graph, 0.3, range(-2, 1), cells)
    monkeypatch.setattr(harness, "_WORKERS", 1)
    with pytest.raises(ValueError) as in_process:
        harness._run_cells(ds, graph, 0.3, range(-2, 1), cells)
    assert str(pooled.value) == str(in_process.value)


def _experiment_errors():
    return [search(small_dataset(), density).entries for density in (0.3, 0.7)]


def _experiment_errors_in_child():
    """The errors, and whether this child started a pool of its own; one it
    started is shut down, or the child's exit would wait on its workers."""
    errors = _experiment_errors()
    started = harness._pool is not None and harness._pool[0] == os.getpid()
    if started:
        harness._pool[1].shutdown()
    return errors, started


# Python 3.12 and later warn when a process with threads, here the pool's
# manager thread, forks
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
@pytest.mark.parametrize("daemonic", [True, False], ids=["pool-worker", "executor-worker"])
def test_forked_child_scores_without_its_parents_pool(daemonic):
    # a child forked from a process whose pool has started must not use that
    # pool, and a process started by multiprocessing scores in process: a
    # daemonic one may not start workers, and the exit of any other would
    # wait on workers of its own
    want = _experiment_errors()  # starts this process's pool where there are 2+ CPUs
    context = multiprocessing.get_context("fork")
    if daemonic:
        with context.Pool(1) as children:
            got = children.apply_async(_experiment_errors_in_child).get(timeout=120)
    else:
        with ProcessPoolExecutor(1, mp_context=context) as children:
            got = children.submit(_experiment_errors_in_child).result(timeout=120)
    assert got == (want, False)


def test_unposable_mask_raises_in_pool_and_in_process(monkeypatch):
    # a seed whose problem cannot be posed ends the call, as it ends reconstruct
    ds = small_dataset(n=10, m=12)
    flat = gf.Dataset(
        positions=ds.positions,
        signal=gf.TimeVaryingSignal(values=np.ones((10, 12))),
        native_mask=ds.native_mask,
        name="flat",
        time_indices=ds.time_indices,
    )
    graph = gf.build_knn_graph(ds.positions, 3)
    cells = [("sobolev", gf.SobolevConfig()), ("knn_baseline", None)]
    with pytest.raises(InvalidInput) as pooled:
        harness._run_cells(flat, graph, 0.5, range(2), cells)
    monkeypatch.setattr(harness, "_WORKERS", 1)
    with pytest.raises(InvalidInput) as in_process:
        harness._run_cells(flat, graph, 0.5, range(2), cells)
    assert type(pooled.value) is type(in_process.value) is InvalidInput
    assert str(pooled.value) == str(in_process.value) == "max_value 1.0 must exceed min_value 1.0"


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
    config = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=1.0)
    by_method = score(ds, 0.5, ("sobolev", "tikhonov"), config, k_graph=5)
    assert not by_method["sobolev"].failed
    result = by_method["tikhonov"]
    assert result.per_rep == () and len(result.failed) == 3
    assert all(message.startswith("SingularSystem: ") for _, message in result.failed)
    # a method that fails every repetition has no winner, and the others keep theirs
    found = search(ds, 0.5, ("sobolev", "tikhonov"), config, k_graph=5)
    assert found.best == {"sobolev": (config, by_method["sobolev"]), "tikhonov": None}


def test_grid_search_single_point():
    ds = small_dataset()
    found = gf.grid_search(ds, 0.5, [0.5], [1.0], [0.3], repetitions=3, k_graph=3)
    assert len(found.entries) == 1
    assert found.best["sobolev"] == found.entries[0]
    assert found.entries[0][0] == gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=0.3)


def test_grid_search_cardinality_and_argmin():
    ds = small_dataset()
    found = gf.grid_search(
        ds, 0.5, [0.1, 1.0], [1.0, 2.0], [0.1, 1.0], repetitions=3, k_graph=3
    )
    assert len(found.entries) == 8
    best = found.best["sobolev"][1].rmse_mean
    assert all(best <= r.rmse_mean for _, r in found.entries)


def test_grid_search_includes_zero_epsilon():
    ds = small_dataset()
    found = gf.grid_search(ds, 0.5, [0.0, 0.5], [1.0], [0.5], repetitions=3, k_graph=3)
    evaluated = {(c.epsilon, c.beta, c.gamma) for c, _ in found.entries}
    assert evaluated == {(0.0, 1.0, 0.5), (0.5, 1.0, 0.5)}
    assert found.best["sobolev"][1].rmse_mean <= max(r.rmse_mean for _, r in found.entries)


def test_grid_search_paired_masks():
    # identical (density, master_seed) must give every config the same masks;
    # with a single-point grid the winning scores must be reproducible
    ds = small_dataset()
    s1 = gf.grid_search(ds, 0.5, [0.3], [1.0], [0.2], repetitions=3, k_graph=3)
    s2 = gf.grid_search(ds, 0.5, [0.3], [1.0], [0.2], repetitions=3, k_graph=3)
    assert s1 == s2


def test_grid_search_empty_grid_rejected():
    # a grid must be nonempty exactly when a named method searches it
    ds = small_dataset()
    with pytest.raises(ValueError, match="^eps_grid must be nonempty: one of the methods "
                                         "sobolev, knn_baseline searches it$"):
        gf.grid_search(ds, 0.5, [], [1.0], [0.5], methods=["knn_baseline", "sobolev"])
    with pytest.raises(ValueError, match="^beta_grid must be empty: none of the methods "
                                         "tikhonov searches it$"):
        gf.grid_search(ds, 0.5, [], [1.0], [0.5], methods=["tikhonov"])


def no_cell(*args):
    raise AssertionError("a cell ran")


def test_experiment_config_validation(monkeypatch):
    # grid_search checks every setting of the protocol before it runs a cell
    monkeypatch.setattr(harness, "_run_cells", no_cell)
    for kwargs, message in [
        ({"density": 0.0}, r"^density must lie in \(0, 1\], got 0.0$"),
        ({"density": 1.5}, r"^density must lie in \(0, 1\], got 1.5$"),
        ({"methods": ["magic"]}, "^method must be one of "
                                 r"\('sobolev', 'tikhonov', 'knn_baseline'\), got 'magic'$"),
        ({"methods": ["sobolev", "sobolev"]}, "^methods must be distinct and nonempty"),
        ({"methods": []}, r"^methods must be distinct and nonempty, got \[\]$"),
        ({"methods": "knn_baseline"}, "^methods takes a list of method names, "
                                      "got 'knn_baseline'$"),
        ({"repetitions": 0}, "^repetitions must be positive$"),
        ({"k_graph": 0}, "^k_graph must be positive$"),
    ]:
        args = {"density": 0.5, **kwargs}
        with pytest.raises(ValueError, match=message):
            gf.grid_search(small_dataset(), eps_grid=[0.5], beta_grid=[1.0], gamma_grid=[0.5],
                           **args)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"density": "0.5"}, "density must be a real number"),
        ({"density": True}, "density must be a real number"),
        ({"repetitions": 2.0}, "repetitions must be an integer"),
        ({"master_seed": "0"}, "master_seed must be an integer"),
        ({"k_graph": True}, "k_graph must be an integer"),
    ],
)
def test_experiment_config_rejects_non_numbers(monkeypatch, kwargs, message):
    monkeypatch.setattr(harness, "_run_cells", no_cell)
    args = {"density": 0.5, **kwargs}
    with pytest.raises(ValueError, match=message):
        gf.grid_search(small_dataset(), eps_grid=[0.5], beta_grid=[1.0], gamma_grid=[0.5], **args)


def test_experiment_config_accepts_numpy_numbers():
    found = gf.grid_search(small_dataset(), np.float64(0.5), [0.5], [1.0], [0.5],
                           repetitions=np.int64(2), k_graph=np.int64(3))
    ((_, result),) = found.entries
    assert found == gf.grid_search(small_dataset(), 0.5, [0.5], [1.0], [0.5], repetitions=2,
                                   k_graph=3)
    assert len(result.per_rep) == 2


def test_synthetic_dataset_needs_more_nodes_than_modes():
    # the signal mixes the first three nonconstant eigenvectors
    with pytest.raises(ValueError, match="^n_nodes must exceed 3, got 3$"):
        gf.synthetic_dataset(n_nodes=3, k=2)
