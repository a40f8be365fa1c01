import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfill as gf
from graphfill import harness, solver
from graphfill.errors import HorizonTooShort, ProblemTooLarge, SingularSystem
from graphfill.harness import fit_observed_scale

from conftest import random_geometric_graph, random_instance, random_positions, unit_path_graph

GAMMA_GRID = (1e-3, 1e-2, 1e-1, 1.0)
CRITERION_4_CELLS = (
    *itertools.product((0.1, 0.5, 1.0, 2.0), (1.0, 1.5, 2.0), GAMMA_GRID),
    *((0.0, 1.0, gamma) for gamma in GAMMA_GRID),
)
# The (epsilon, beta, gamma) cells of the criterion-4 grid that take the
# direct block solve at density 0.1; the other 29 run CG.
DIRECT_CELLS = {
    *((eps, beta, 1.0) for eps in (0.1, 0.5, 1.0, 2.0) for beta in (1.0, 1.5, 2.0)),
    (0.0, 1.0, 1.0),
    *((eps, beta, 0.1) for eps in (0.1, 0.5, 1.0, 2.0) for beta in (1.5, 2.0)),
    (1.0, 1.0, 0.1),
    (2.0, 1.0, 0.1),
}


@pytest.fixture(scope="module")
def sparse_synthetic():
    """Graph, mask and scaled Y of the criterion-4 grid at density 0.1, seed 0."""
    dataset = gf.synthetic_dataset(seed=0)
    graph = gf.build_knn_graph(dataset.positions, 5)
    mask = gf.random_mask(*dataset.signal.values.shape, 0.1, 0)
    _, y_values = fit_observed_scale(dataset.signal.values, mask)
    return graph, mask, gf.TimeVaryingSignal(values=y_values)


def _reference_cg(y, mask, graph, config):
    """Unpreconditioned CG as written before its work arrays were reused.

    Every product allocates a fresh array. reconstruct_sobolev must match it
    bit for bit, iteration count included, wherever its preconditioner is off.
    """
    j = mask.astype(float)
    b_matrix = gf.sobolev_operator(graph, config.epsilon, config.beta)

    def apply_a(x):
        z = np.diff(x, axis=1)
        xt = np.zeros_like(x)
        xt[:, :-1] -= z
        xt[:, 1:] += z
        return j * x + config.gamma * (b_matrix @ xt)

    rhs = y.values
    threshold = solver._CG_TOLERANCE * float(np.linalg.norm(rhs))
    x = rhs.copy()
    r = rhs - apply_a(x)
    p = r.copy()
    rz = float(np.vdot(r, r))
    iterations = 0
    while iterations < solver._CG_MAX_ITERATIONS:
        if np.linalg.norm(r) <= threshold:
            r = rhs - apply_a(x)
            if np.linalg.norm(r) <= threshold:
                break
            p = r.copy()
            rz = float(np.vdot(r, r))
        ap = apply_a(p)
        alpha = rz / float(np.vdot(p, ap))
        x = x + alpha * p
        r = r - alpha * ap
        rz_next = float(np.vdot(r, r))
        p = r + (rz_next / rz) * p
        rz = rz_next
        iterations += 1
    return x, iterations


@pytest.mark.parametrize("epsilon", [0.0, 0.1])
@pytest.mark.parametrize("gamma", [1e-3, 1e-2])
def test_plain_cg_matches_reference_loop_bit_for_bit(sparse_synthetic, epsilon, gamma):
    graph, mask, y = sparse_synthetic
    cfg = gf.SobolevConfig(epsilon=epsilon, beta=1.0, gamma=gamma)
    assert not solver._takes_direct_path(graph, cfg, mask.astype(float))
    result = gf.reconstruct_sobolev(y, mask, graph, cfg)
    x, iterations = _reference_cg(y, mask, graph, cfg)
    assert result.converged
    assert result.iterations == iterations
    assert result.xbar.values.tobytes() == x.tobytes()


def test_preconditioner_decision_on_criterion_4_grid(sparse_synthetic):
    # The rule that switched CG's preconditioner on now picks the direct path.
    graph, mask, _ = sparse_synthetic
    j = mask.astype(float)
    on = {
        cell for cell in CRITERION_4_CELLS
        if solver._takes_direct_path(graph, gf.SobolevConfig(*cell), j)
    }
    assert len(CRITERION_4_CELLS) == 52
    assert on == DIRECT_CELLS


@pytest.mark.parametrize("m", [2, 3, 7])
@pytest.mark.parametrize("beta", [1.0, 1.5])
@pytest.mark.parametrize("epsilon", [0.0, 0.3])
def test_direct_path_matches_dense_oracle(m, beta, epsilon):
    # density 0.6 makes every pair of snapshots share an observed node, so
    # the system stays nonsingular at epsilon = 0
    graph, _, mask, y = random_instance(seed=80 + m, n=6, m=m, density=0.6)
    cfg = gf.SobolevConfig(epsilon=epsilon, beta=beta, gamma=50.0)
    assert solver._takes_direct_path(graph, cfg, mask.astype(float))
    direct = gf.reconstruct_sobolev(y, mask, graph, cfg)
    oracle = gf.dense_oracle_solve(y, mask, graph, cfg)
    assert direct.iterations == 0 and direct.converged
    rel = np.linalg.norm(direct.xbar.values - oracle.xbar.values) / np.linalg.norm(
        oracle.xbar.values
    )
    assert rel <= 1e-12


def test_direct_path_gradient_vanishes(sparse_synthetic):
    graph, mask, y = sparse_synthetic
    cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=1.0)
    assert solver._takes_direct_path(graph, cfg, mask.astype(float))
    result = gf.reconstruct_sobolev(y, mask, graph, cfg)
    b = gf.sobolev_operator(graph, cfg.epsilon, cfg.beta)
    grad = gf.objective_gradient(result.xbar, y, mask, b, cfg.gamma)
    assert result.iterations == 0 and result.converged
    assert np.linalg.norm(grad) <= 1e-12 * np.linalg.norm(y.values)
    assert result.final_relative_residual == pytest.approx(
        np.linalg.norm(grad) / np.linalg.norm(y.values), rel=1e-6
    )


def _direct_instance(seed, n, m, epsilon, beta):
    """A random instance with gamma large enough for the direct path."""
    graph, _, mask, y = random_instance(seed=seed, n=n, m=m, density=0.5)
    cfg = gf.SobolevConfig(epsilon=epsilon, beta=beta, gamma=50.0)
    assert solver._takes_direct_path(graph, cfg, mask.astype(float))
    return graph, mask, y, cfg


direct_instances = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=4, max_value=8),
    m=st.integers(min_value=2, max_value=8),
    epsilon=st.sampled_from([0.1, 0.5, 1.0]),
    beta=st.sampled_from([1.0, 1.5, 2.0]),
)


@settings(max_examples=50, deadline=None)
@given(**direct_instances)
def test_direct_path_time_reversal(seed, n, m, epsilon, beta):
    graph, mask, y, cfg = _direct_instance(seed, n, m, epsilon, beta)
    x = gf.reconstruct_sobolev(y, mask, graph, cfg).xbar.values
    reversed_y = gf.TimeVaryingSignal(values=y.values[:, ::-1])
    x_reversed = gf.reconstruct_sobolev(reversed_y, mask[:, ::-1], graph, cfg).xbar.values
    assert np.linalg.norm(x_reversed[:, ::-1] - x) <= 1e-12 * np.linalg.norm(x)


@settings(max_examples=50, deadline=None)
@given(**direct_instances, shift=st.floats(min_value=-10.0, max_value=10.0))
def test_direct_path_observed_shift(seed, n, m, epsilon, beta, shift):
    # B X T is unchanged by a constant, since T annihilates constants
    graph, mask, y, cfg = _direct_instance(seed, n, m, epsilon, beta)
    x = gf.reconstruct_sobolev(y, mask, graph, cfg).xbar.values
    shifted_y = gf.TimeVaryingSignal(values=y.values + shift * mask)
    x_shifted = gf.reconstruct_sobolev(shifted_y, mask, graph, cfg).xbar.values
    assert np.linalg.norm(x_shifted - (x + shift)) <= 1e-12 * np.linalg.norm(x + shift)


@settings(max_examples=50, deadline=None)
@given(**direct_instances, scale=st.floats(min_value=1e-3, max_value=1e3))
def test_direct_path_scaling_of_y(seed, n, m, epsilon, beta, scale):
    # the minimizer is linear in Y
    graph, mask, y, cfg = _direct_instance(seed, n, m, epsilon, beta)
    x = gf.reconstruct_sobolev(y, mask, graph, cfg).xbar.values
    scaled_y = gf.TimeVaryingSignal(values=scale * y.values)
    x_scaled = gf.reconstruct_sobolev(scaled_y, mask, graph, cfg).xbar.values
    assert np.linalg.norm(x_scaled - scale * x) <= 1e-12 * np.linalg.norm(scale * x)


@settings(max_examples=50, deadline=None)
@given(**direct_instances, s=st.floats(min_value=0.1, max_value=10.0))
def test_direct_path_depends_on_gamma_times_b(seed, n, m, epsilon, beta, s):
    # scaling W and eps by s scales B = (L + eps*I)**beta by s**beta, so
    # gamma / s**beta leaves gamma * B, and with it X, unchanged
    graph, mask, y, cfg = _direct_instance(seed, n, m, epsilon, beta)
    scaled_graph = gf.SensorGraph(
        n_nodes=graph.n_nodes, edges=graph.edges, weights=s * graph.weights,
        laplacian=s * graph.laplacian, sigma=graph.sigma,
    )
    scaled_cfg = gf.SobolevConfig(s * epsilon, beta, cfg.gamma / s**beta)
    assert solver._takes_direct_path(scaled_graph, scaled_cfg, mask.astype(float))
    x = gf.reconstruct_sobolev(y, mask, graph, cfg).xbar.values
    x_scaled = gf.reconstruct_sobolev(y, mask, scaled_graph, scaled_cfg).xbar.values
    assert np.linalg.norm(x_scaled - x) <= 1e-12 * np.linalg.norm(x)


@settings(max_examples=50, deadline=None)
@given(**direct_instances)
def test_direct_path_permutation_equivariance(seed, n, m, epsilon, beta):
    # relabelling the nodes (positions, mask and Y) permutes X; random_instance
    # builds its graph from random_positions(n, seed) with k = 2
    graph, mask, y, cfg = _direct_instance(seed, n, m, epsilon, beta)
    perm = np.random.default_rng(seed).permutation(n)
    positions = random_positions(n, seed)
    permuted_graph = gf.build_knn_graph(
        gf.NodePositions(
            coords=positions.coords[perm], node_ids=tuple(positions.node_ids[i] for i in perm)
        ),
        2,
    )
    assert solver._takes_direct_path(permuted_graph, cfg, mask[perm].astype(float))
    x = gf.reconstruct_sobolev(y, mask, graph, cfg).xbar.values
    permuted_y = gf.TimeVaryingSignal(values=y.values[perm])
    x_permuted = gf.reconstruct_sobolev(permuted_y, mask[perm], permuted_graph, cfg).xbar.values
    assert np.linalg.norm(x_permuted - x[perm]) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("seed", range(5))
def test_large_gamma_tends_to_observed_node_means(seed):
    # as gamma grows, X D -> 0 (B is positive definite for eps > 0), so each
    # node's row tends to the mean of its observed values, and the relative
    # deviation from that limit falls tenfold per decade of gamma
    graph, _, mask, y = random_instance(seed=seed, n=6, m=8, density=0.5)
    means = (y.values * mask).sum(axis=1) / mask.sum(axis=1)
    limit = np.repeat(means[:, None], 8, axis=1)
    deviations = []
    for gamma in (1e4, 1e5, 1e6, 1e7):
        cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=gamma)
        assert solver._takes_direct_path(graph, cfg, mask.astype(float))
        x = gf.reconstruct_sobolev(y, mask, graph, cfg).xbar.values
        deviations.append(np.linalg.norm(x - limit) / np.linalg.norm(limit))
    ratios = np.array(deviations[:-1]) / np.array(deviations[1:])
    assert np.all((9.5 <= ratios) & (ratios <= 10.5)), ratios
    assert deviations[-1] <= 1e-6


@pytest.mark.parametrize("graph_kind", ["path", "knn"])
@pytest.mark.parametrize("gamma", [10.0, 100.0])
def test_direct_path_singular_system_raises_deterministically(graph_kind, gamma):
    # Observations in two disconnected node x time blocks: with epsilon = 0,
    # X = 1 at nodes 0-1 and times 2-3, -1 at nodes 2-3 and times 0-1 and 0
    # elsewhere is in the null space. On each graph one gamma ends in a
    # failed Cholesky pivot and the other in a tiny positive one, which
    # only the relative pivot test catches.
    graph = unit_path_graph(4) if graph_kind == "path" else random_geometric_graph(4, 2, seed=3)
    mask = np.zeros((4, 4), dtype=bool)
    mask[:2, :2] = mask[2:, 2:] = True
    y = gf.TimeVaryingSignal(values=np.where(mask, np.arange(16.0).reshape(4, 4), 0.0))
    cfg = gf.SobolevConfig(epsilon=0.0, beta=1.0, gamma=gamma)
    assert solver._takes_direct_path(graph, cfg, mask.astype(float))
    messages = []
    for _ in range(2):
        with pytest.raises(SingularSystem) as caught:
            gf.reconstruct_sobolev(y, mask, graph, cfg)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "time block" in messages[0]


def test_block_solve_raises_where_cholesky_stops():
    # An indefinite first block: dpotrf stops at a pivot of -0.5, far from
    # negligible once squared, and that alone must raise.
    with pytest.raises(SingularSystem, match="time block 0 has .* pivot at node 0"):
        solver._block_solve(-np.eye(3), 1.0, np.full((3, 4), 0.5), np.ones((3, 4)))


def test_dense_oracle_rejects_exactly_singular_system():
    # the two snapshots observe disjoint node sets, so with epsilon = 0 the
    # Kronecker matrix has a null space; its smallest eigenvalue rounds to
    # about -7e-15, and Cholesky alone lets it through
    graph, _, mask, y = random_instance(seed=1, n=6, m=2, density=0.5)
    assert not (mask[:, 0] & mask[:, 1]).any()
    cfg = gf.SobolevConfig(epsilon=0.0, beta=1.0, gamma=50.0)
    with pytest.raises(SingularSystem, match="dense system is singular"):
        gf.dense_oracle_solve(y, mask, graph, cfg)
    with pytest.raises(SingularSystem):
        gf.reconstruct_sobolev(y, mask, graph, cfg)


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
    assert cg.converged and cg.final_relative_residual <= solver._CG_TOLERANCE


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
        b = gf.sobolev_operator(graph, cfg.epsilon, cfg.beta)
        grad = gf.objective_gradient(result.xbar, y, mask, b, cfg.gamma)
        bound = 10 * solver._CG_TOLERANCE * np.linalg.norm(y.values)
        assert np.linalg.norm(grad) <= bound


def test_tikhonov_is_sobolev_special_case():
    # the harness's tikhonov method solves at eps = 0, beta = 1 whatever the
    # eps and beta it is given
    graph, _, mask, y = random_instance(seed=30, n=5, m=4, density=0.5)
    tik = harness._solve("tikhonov", y, mask, graph, gf.SobolevConfig(0.7, 2.0, 0.6))
    sob = gf.reconstruct_sobolev(
        y, mask, graph, gf.SobolevConfig(epsilon=0.0, beta=1.0, gamma=0.6)
    )
    assert np.array_equal(tik.values, sob.xbar.values)


def test_tikhonov_matches_oracle_with_plain_laplacian():
    graph, _, mask, y = random_instance(seed=31, n=5, m=4, density=0.6)
    tikhonov = gf.SobolevConfig(epsilon=0.0, beta=1.0, gamma=0.4)
    tik = gf.reconstruct_sobolev(y, mask, graph, tikhonov)
    oracle = gf.dense_oracle_solve(y, mask, graph, tikhonov)
    rel = np.linalg.norm(tik.xbar.values - oracle.xbar.values) / np.linalg.norm(
        oracle.xbar.values
    )
    assert rel <= 1e-6


def test_tikhonov_full_mask_small_gamma(rng):
    graph = random_geometric_graph(4, 2, seed=5)
    y = gf.TimeVaryingSignal(values=rng.normal(size=(4, 5)))
    full = np.ones((4, 5), dtype=bool)
    result = gf.reconstruct_sobolev(y, full, graph, gf.SobolevConfig(0.0, 1.0, 1e-12))
    assert np.abs(result.xbar.values - y.values).max() <= 1e-6


def test_operator_symmetry_and_positivity(rng):
    graph, _, mask, _ = random_instance(seed=40, n=5, m=4, density=0.6)
    b = gf.sobolev_operator(graph, 0.4, 1.5)
    zero = gf.TimeVaryingSignal(values=np.zeros((5, 4)))

    def apply_a(values):
        return gf.objective_gradient(
            gf.TimeVaryingSignal(values=values), zero, mask, b, 0.9
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
    b = gf.sobolev_operator(graph, cfg.epsilon, cfg.beta)
    at_solution = gf.sobolev_objective(oracle.xbar, y, mask, b, cfg.gamma)
    at_y = gf.sobolev_objective(y, y, mask, b, cfg.gamma)
    at_zero = gf.sobolev_objective(
        gf.TimeVaryingSignal(values=np.zeros((3, 3))), y, mask, b, cfg.gamma
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


def test_max_iterations_flagged_not_raised(monkeypatch):
    graph, _, mask, y = random_instance(seed=50, n=6, m=5, density=0.5)
    cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=1.0)
    assert not solver._takes_direct_path(graph, cfg, mask.astype(float))
    monkeypatch.setattr(solver, "_CG_MAX_ITERATIONS", 2)
    result = gf.reconstruct_sobolev(y, mask, graph, cfg)
    assert not result.converged and result.iterations == 2
    assert result.final_relative_residual > solver._CG_TOLERANCE
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
        gf.SobolevConfig(beta=0.0)
    with pytest.raises(ValueError):
        gf.SobolevConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        gf.SobolevConfig(gamma=-0.5)
    assert [f.name for f in dataclasses.fields(gf.SobolevConfig)] == ["epsilon", "beta", "gamma"]


@pytest.mark.parametrize("field", ["epsilon", "beta", "gamma"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        gf.SobolevConfig(**{field: value})


@pytest.mark.parametrize("field", ["epsilon", "beta", "gamma"])
@pytest.mark.parametrize("value", ["0.5", None, True, 1 + 0j])
def test_config_rejects_non_real(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a real number"):
        gf.SobolevConfig(**{field: value})


def test_objective_value_reported(rng):
    graph, _, mask, y = random_instance(seed=60, n=5, m=4, density=0.5)
    cfg = gf.SobolevConfig(epsilon=0.4, beta=1.0, gamma=0.3)
    result = gf.reconstruct_sobolev(y, mask, graph, cfg)
    b = gf.sobolev_operator(graph, cfg.epsilon, cfg.beta)
    assert result.objective_value == pytest.approx(
        gf.sobolev_objective(result.xbar, y, mask, b, cfg.gamma)
    )
