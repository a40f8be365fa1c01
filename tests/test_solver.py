import numpy as np
import pytest

import graphfill as gf
from graphfill.errors import HorizonTooShort, ProblemTooLarge, SingularSystem

from conftest import random_geometric_graph, random_instance, unit_path_graph


def test_full_mask_tiny_gamma_returns_data(rng):
    graph = random_geometric_graph(5, 2, seed=0)
    y = gf.TimeVaryingSignal(values=rng.normal(size=(5, 6)))
    full = np.ones((5, 6), dtype=bool)
    cfg = gf.SobolevConfig(epsilon=0.3, beta=1.5, gamma=1e-12)
    result = gf.reconstruct_sobolev(y, full, graph, cfg)
    assert result.converged
    assert np.abs(result.xbar.values - y.values).max() <= 1e-6


def test_constant_signal_reproduced_exactly(rng):
    graph = random_geometric_graph(6, 2, seed=1)
    constant = 3.25
    truth = gf.TimeVaryingSignal(values=np.full((6, 5), constant))
    mask = gf.random_mask(6, 5, 0.5, seed=4)
    y = gf.apply_mask(truth, mask)
    cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=1.0)
    result = gf.reconstruct_sobolev(y, mask, graph, cfg)
    assert np.abs(result.xbar.values - constant).max() <= 1e-6


def test_matches_dense_oracle_single_instance():
    graph, _, mask, y = random_instance(seed=10, n=5, m=4, density=0.5)
    cfg = gf.SobolevConfig(epsilon=0.1, beta=1.5, gamma=0.8)
    cg = gf.reconstruct_sobolev(y, mask, graph, cfg)
    oracle = gf.dense_oracle_solve(y, mask, graph, cfg)
    rel = np.linalg.norm(cg.xbar.values - oracle.xbar.values) / np.linalg.norm(
        oracle.xbar.values
    )
    assert rel <= 1e-6
    assert cg.converged and cg.final_relative_residual <= cfg.cg_tolerance


@pytest.mark.parametrize("seed", range(10))
def test_matches_dense_oracle_randomized(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    m = int(rng.integers(3, 6))
    graph, _, mask, y = random_instance(
        seed=seed + 100, n=n, m=m, density=0.6, k=min(2, n - 1)
    )
    cfg = gf.SobolevConfig(
        epsilon=float(rng.choice([0.1, 0.5, 1.0])),
        beta=float(rng.choice([1.0, 1.5, 2.0])),
        gamma=float(rng.choice([0.1, 1.0])),
    )
    cg = gf.reconstruct_sobolev(y, mask, graph, cfg)
    oracle = gf.dense_oracle_solve(y, mask, graph, cfg)
    rel = np.linalg.norm(cg.xbar.values - oracle.xbar.values) / np.linalg.norm(
        oracle.xbar.values
    )
    assert rel <= 1e-6


def test_gradient_optimality(rng):
    for seed in range(5):
        graph, _, mask, y = random_instance(seed=seed, n=6, m=5, density=0.5)
        cfg = gf.SobolevConfig(epsilon=0.2, beta=1.0, gamma=0.7)
        result = gf.reconstruct_sobolev(y, mask, graph, cfg)
        op = gf.sobolev_operator(graph, cfg.epsilon, cfg.beta)
        grad = gf.objective_gradient(result.xbar, y, mask, op, cfg.gamma)
        bound = 10 * cfg.cg_tolerance * np.linalg.norm(y.values)
        assert np.linalg.norm(grad) <= bound


def test_tikhonov_is_sobolev_special_case():
    graph, _, mask, y = random_instance(seed=30, n=5, m=4, density=0.5)
    tik = gf.reconstruct_tikhonov(y, mask, graph, gamma=0.6)
    sob = gf.reconstruct_sobolev(
        y, mask, graph, gf.SobolevConfig(epsilon=0.0, beta=1.0, gamma=0.6)
    )
    assert np.array_equal(tik.xbar.values, sob.xbar.values)
    assert tik.iterations == sob.iterations


def test_tikhonov_matches_oracle_with_plain_laplacian():
    graph, _, mask, y = random_instance(seed=31, n=5, m=4, density=0.6)
    tik = gf.reconstruct_tikhonov(y, mask, graph, gamma=0.4)
    oracle = gf.dense_oracle_solve(
        y, mask, graph, gf.SobolevConfig(epsilon=0.0, beta=1.0, gamma=0.4)
    )
    rel = np.linalg.norm(tik.xbar.values - oracle.xbar.values) / np.linalg.norm(
        oracle.xbar.values
    )
    assert rel <= 1e-6


def test_tikhonov_full_mask_small_gamma(rng):
    graph = random_geometric_graph(4, 2, seed=5)
    y = gf.TimeVaryingSignal(values=rng.normal(size=(4, 5)))
    full = np.ones((4, 5), dtype=bool)
    result = gf.reconstruct_tikhonov(y, full, graph, gamma=1e-12)
    assert np.abs(result.xbar.values - y.values).max() <= 1e-6


def test_operator_symmetry_and_positivity(rng):
    graph, _, mask, _ = random_instance(seed=40, n=5, m=4, density=0.6)
    op = gf.sobolev_operator(graph, 0.4, 1.5)
    zero = gf.TimeVaryingSignal(values=np.zeros((5, 4)))

    def apply_a(values):
        return gf.objective_gradient(
            gf.TimeVaryingSignal(values=values), zero, mask, op, 0.9
        )

    for _ in range(10):
        x1 = rng.normal(size=(5, 4))
        x2 = rng.normal(size=(5, 4))
        assert float(np.vdot(apply_a(x1), x2)) == pytest.approx(
            float(np.vdot(x1, apply_a(x2))), abs=1e-9, rel=1e-9
        )
        assert float(np.vdot(apply_a(x1), x1)) > 0.0


def test_monotone_data_fit_in_gamma(rng):
    graph = random_geometric_graph(6, 2, seed=6)
    y = gf.TimeVaryingSignal(values=rng.normal(size=(6, 8)))
    full = np.ones((6, 8), dtype=bool)
    fits = []
    for gamma in (1.0, 1e-2, 1e-4):
        result = gf.reconstruct_sobolev(
            y, full, graph, gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=gamma)
        )
        fits.append(float(np.sqrt(np.mean((result.xbar.values - y.values) ** 2))))
    assert fits[0] >= fits[1] >= fits[2]


def test_solver_permutation_equivariance(rng):
    pos_coords = np.random.default_rng(77).uniform(0, 10, size=(6, 2))
    ids = tuple(f"n{i}" for i in range(6))
    pos = gf.NodePositions(coords=pos_coords, node_ids=ids)
    graph = gf.build_knn_graph(pos, 2)
    truth = gf.TimeVaryingSignal(values=rng.normal(size=(6, 5)))
    mask = gf.random_mask(6, 5, 0.6, seed=8)
    y = gf.apply_mask(truth, mask)
    cfg = gf.SobolevConfig(epsilon=0.3, beta=2.0, gamma=0.5)
    base = gf.reconstruct_sobolev(y, mask, graph, cfg)

    perm = np.random.default_rng(5).permutation(6)
    p = np.eye(6)[perm]
    pos_perm = gf.NodePositions(coords=pos_coords[perm], node_ids=tuple(ids[i] for i in perm))
    graph_perm = gf.build_knn_graph(pos_perm, 2)
    y_perm = gf.TimeVaryingSignal(values=p @ y.values)
    mask_perm = mask[perm]
    permuted = gf.reconstruct_sobolev(y_perm, mask_perm, graph_perm, cfg)
    assert np.abs(permuted.xbar.values - p @ base.xbar.values).max() <= 1e-8


def test_uncovered_node_raises_singular():
    graph = unit_path_graph(3)
    mask = np.array([[1, 1], [1, 1], [0, 0]], dtype=bool)
    y = gf.TimeVaryingSignal(values=np.array([[1.0, 2.0], [0.5, 0.3], [0.0, 0.0]]))
    cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=1.0)
    with pytest.raises(SingularSystem):
        gf.reconstruct_sobolev(y, mask, graph, cfg)


def test_gamma_zero_full_mask_identity(rng):
    graph = unit_path_graph(3)
    y = gf.TimeVaryingSignal(values=rng.normal(size=(3, 3)))
    full = np.ones((3, 3), dtype=bool)
    cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=0.0)
    for solve in (gf.reconstruct_sobolev, gf.dense_oracle_solve):
        result = solve(y, full, graph, cfg)
        assert np.abs(result.xbar.values - y.values).max() <= 1e-12


def test_gamma_zero_incomplete_mask_singular(rng):
    graph = unit_path_graph(4)
    mask = gf.random_mask(4, 4, 0.5, seed=0)
    y = gf.apply_mask(gf.TimeVaryingSignal(values=rng.normal(size=(4, 4))), mask)
    cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=0.0)
    with pytest.raises(SingularSystem):
        gf.reconstruct_sobolev(y, mask, graph, cfg)
    with pytest.raises(SingularSystem):
        gf.dense_oracle_solve(y, mask, graph, cfg)


def test_oracle_solution_beats_trivial_candidates():
    pos = gf.NodePositions(
        coords=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), node_ids=("a", "b", "c")
    )
    graph = gf.build_knn_graph(pos, 1)
    rng = np.random.default_rng(3)
    truth = gf.TimeVaryingSignal(values=rng.normal(size=(3, 3)))
    mask = gf.random_mask(3, 3, 2 / 3, seed=2)
    y = gf.apply_mask(truth, mask)
    cfg = gf.SobolevConfig(epsilon=0.2, beta=2.0, gamma=0.5)
    oracle = gf.dense_oracle_solve(y, mask, graph, cfg)
    op = gf.sobolev_operator(graph, cfg.epsilon, cfg.beta)
    at_solution = gf.sobolev_objective(oracle.xbar, y, mask, op, cfg.gamma)
    at_y = gf.sobolev_objective(y, y, mask, op, cfg.gamma)
    at_zero = gf.sobolev_objective(
        gf.TimeVaryingSignal(values=np.zeros((3, 3))), y, mask, op, cfg.gamma
    )
    assert at_solution <= at_y
    assert at_solution <= at_zero
    assert at_solution == pytest.approx(oracle.objective_value)


def test_oracle_size_guard():
    graph = random_geometric_graph(50, 3, seed=9)
    y = gf.TimeVaryingSignal(values=np.zeros((50, 50)))
    full = np.ones((50, 50), dtype=bool)
    with pytest.raises(ProblemTooLarge):
        gf.dense_oracle_solve(y, full, graph, gf.SobolevConfig())


def test_max_iterations_flagged_not_raised():
    graph, _, mask, y = random_instance(seed=50, n=6, m=5, density=0.5)
    cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=1.0, max_iterations=2)
    result = gf.reconstruct_sobolev(y, mask, graph, cfg)
    assert not result.converged
    assert result.final_relative_residual > cfg.cg_tolerance
    assert np.isfinite(result.xbar.values).all()


def test_zero_rhs_short_circuits():
    graph = unit_path_graph(3)
    mask = gf.random_mask(3, 4, 2 / 3, seed=1)
    y = gf.TimeVaryingSignal(values=np.zeros((3, 4)))
    result = gf.reconstruct_sobolev(y, mask, graph, gf.SobolevConfig())
    assert result.converged and result.iterations == 0
    assert np.abs(result.xbar.values).max() == 0.0


def test_single_snapshot_rejected():
    graph = unit_path_graph(3)
    y = gf.TimeVaryingSignal(values=np.ones((3, 1)))
    mask = np.ones((3, 1), dtype=bool)
    with pytest.raises(HorizonTooShort):
        gf.reconstruct_sobolev(y, mask, graph, gf.SobolevConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        gf.SobolevConfig(cg_tolerance=0.5)
    with pytest.raises(ValueError):
        gf.SobolevConfig(beta=0.0)
    with pytest.raises(ValueError):
        gf.SobolevConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        gf.SobolevConfig(gamma=-0.5)
    with pytest.raises(ValueError):
        gf.SobolevConfig(max_iterations=0)


def test_objective_value_reported(rng):
    graph, _, mask, y = random_instance(seed=60, n=5, m=4, density=0.5)
    cfg = gf.SobolevConfig(epsilon=0.4, beta=1.0, gamma=0.3)
    result = gf.reconstruct_sobolev(y, mask, graph, cfg)
    op = gf.sobolev_operator(graph, cfg.epsilon, cfg.beta)
    assert result.objective_value == pytest.approx(
        gf.sobolev_objective(result.xbar, y, mask, op, cfg.gamma)
    )
