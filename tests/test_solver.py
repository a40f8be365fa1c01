import dataclasses
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import graphfill as gf
from graphfill import harness, solver
from graphfill.errors import (
    ConvergenceFailure,
    InvalidInput,
    SingularSystem,
)
from graphfill.harness import masked_problem
from graphfill.temporal import check_signal

from conftest import (
    masked,
    outlier_positions,
    random_geometric_graph,
    random_instance,
    random_positions,
    unit_path_graph,
)

GAMMA_GRID = (1e-3, 1e-2, 1e-1, 1.0)
CRITERION_4_CELLS = (
    *itertools.product((0.1, 0.5, 1.0, 2.0), (1.0, 1.5, 2.0), GAMMA_GRID),
    *((0.0, 1.0, gamma) for gamma in GAMMA_GRID),
)
# The (epsilon, beta, gamma) cells of the criterion-4 grid that take the
# direct block solve at density 0.1: every gamma >= 1e-2 cell and (2, 2, 1e-3).
# The other 12 run CG.
DIRECT_CELLS = {
    *(cell for cell in CRITERION_4_CELLS if cell[2] >= 1e-2),
    (2.0, 2.0, 1e-3),
}

GRID_SPARSE_REFERENCE = (
    Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "grid-sparse.json"
)


@pytest.fixture(scope="module")
def sparse_synthetic():
    """Graph, mask and scaled Y of the criterion-4 grid at density 0.1, seed 0."""
    dataset = gf.synthetic_dataset(seed=0)
    graph = gf.build_knn_graph(dataset.positions, 5)
    mask, _, y_values, _ = masked_problem(dataset, 0.1, 0)
    return graph, mask, y_values


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

    rhs = y
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
@pytest.mark.parametrize("gamma", [1e-4, 1e-3])
def test_plain_cg_matches_reference_loop_bit_for_bit(sparse_synthetic, epsilon, gamma):
    graph, mask, y = sparse_synthetic
    cfg = gf.SobolevConfig(epsilon=epsilon, beta=1.0, gamma=gamma)
    assert not solver._takes_direct_path(graph, cfg, mask.astype(float))
    result = gf.reconstruct_sobolev(y, mask, graph, cfg)
    x, iterations = _reference_cg(y, mask, graph, cfg)
    assert result.iterations == iterations
    assert result.xbar.tobytes() == x.tobytes()


def test_direct_path_decision_on_criterion_4_grid(sparse_synthetic):
    # Only the weakly regularized cells stay on CG, whose own error is in the
    # benchmark reference; see solver._DIRECT_RATIO.
    graph, mask, _ = sparse_synthetic
    j = mask.astype(float)
    on = {
        cell for cell in CRITERION_4_CELLS
        if solver._takes_direct_path(graph, gf.SobolevConfig(*cell), j)
    }
    assert len(CRITERION_4_CELLS) == 52
    assert len(DIRECT_CELLS) == 40
    assert on == DIRECT_CELLS


def test_direct_cells_match_the_benchmark_reference(sparse_synthetic):
    # The benchmark reference was recorded from CG, whose own error is in it
    # on weakly regularized cells. Every cell the split sends to the exact
    # solve must still meet the benchmark's 1e-6 relative gate, rep by rep.
    graph, mask, _ = sparse_synthetic
    j = mask.astype(float)
    cells = [cell for cell in CRITERION_4_CELLS
             if solver._takes_direct_path(graph, gf.SobolevConfig(*cell), j)]
    results = harness._run_cells(gf.synthetic_dataset(seed=0), graph, 0.1, range(20),
                                 [("sobolev", gf.SobolevConfig(*cell)) for cell in cells])
    reference = json.loads(GRID_SPARSE_REFERENCE.read_text())["reps"]
    for cell, result in zip(cells, results):
        assert not result.failed
        for seed, *errors in result.per_rep:
            key = "eps={:g},beta={:g},gamma={:g},seed={}".format(*cell, seed)
            for got, want in zip(errors, reference[key]):
                assert abs(got - want) <= 1e-6 * abs(want), (key, got, want)


def test_reference_tool_reads_the_result_api(tmp_path, monkeypatch):
    # perfbench/make_reference.py records the benchmark reference through
    # GridSparse.record, which reads grid_search's entries, per_rep and failed
    path = GRID_SPARSE_REFERENCE.parent.parent / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look the module up
    spec.loader.exec_module(workloads)
    seen, problems = workloads.GridSparse(tmp_path).record(workloads.GridOp((1.0, 1.0, 0.1), 0, 2))
    assert problems == [] and seen.failed_reps == 0
    reference = json.loads(GRID_SPARSE_REFERENCE.read_text())["reps"]
    assert sorted(seen.reps) == ["eps=1,beta=1,gamma=0.1,seed=0", "eps=1,beta=1,gamma=0.1,seed=1"]
    for key, errors in seen.reps.items():
        for got, want in zip(errors, reference[key], strict=True):
            assert abs(got - want) <= 1e-6 * abs(want), (key, got, want)


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
    assert direct.iterations == 0
    rel = np.linalg.norm(direct.xbar - oracle.xbar) / np.linalg.norm(oracle.xbar)
    assert rel <= 1e-12


@pytest.mark.parametrize("gamma", [1e-2, 50.0])
def test_fortran_order_signal_solves_like_c_order(gamma):
    # check_signal passes a read-only array through as it is, Fortran order included
    graph, _, mask, y = random_instance(seed=81, n=6, m=3, density=0.6)
    cfg = gf.SobolevConfig(epsilon=0.3, beta=1.0, gamma=gamma)
    fortran = np.asfortranarray(y)
    fortran.setflags(write=False)
    assert check_signal(fortran) is fortran
    expected = gf.reconstruct_sobolev(y, mask, graph, cfg).xbar
    assert np.array_equal(gf.reconstruct_sobolev(fortran, mask, graph, cfg).xbar, expected)


def test_direct_path_gradient_vanishes(sparse_synthetic):
    graph, mask, y = sparse_synthetic
    cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=1.0)
    assert solver._takes_direct_path(graph, cfg, mask.astype(float))
    result = gf.reconstruct_sobolev(y, mask, graph, cfg)
    b = gf.sobolev_operator(graph, cfg.epsilon, cfg.beta)
    grad = gf.objective_gradient(result.xbar, y, mask, b, cfg.gamma)
    assert result.iterations == 0
    assert np.linalg.norm(grad) <= 1e-12 * np.linalg.norm(y)
    assert result.final_relative_residual == pytest.approx(
        np.linalg.norm(grad) / np.linalg.norm(y), rel=1e-6
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
    x = gf.reconstruct_sobolev(y, mask, graph, cfg).xbar
    reversed_y = y[:, ::-1]
    x_reversed = gf.reconstruct_sobolev(reversed_y, mask[:, ::-1], graph, cfg).xbar
    assert np.linalg.norm(x_reversed[:, ::-1] - x) <= 1e-12 * np.linalg.norm(x)


@settings(max_examples=50, deadline=None)
@given(**direct_instances, shift=st.floats(min_value=-10.0, max_value=10.0))
def test_direct_path_observed_shift(seed, n, m, epsilon, beta, shift):
    # B X T is unchanged by a constant, since T annihilates constants
    graph, mask, y, cfg = _direct_instance(seed, n, m, epsilon, beta)
    x = gf.reconstruct_sobolev(y, mask, graph, cfg).xbar
    shifted_y = y + shift * mask
    x_shifted = gf.reconstruct_sobolev(shifted_y, mask, graph, cfg).xbar
    assert np.linalg.norm(x_shifted - (x + shift)) <= 1e-12 * np.linalg.norm(x + shift)


@settings(max_examples=50, deadline=None)
@given(**direct_instances, scale=st.floats(min_value=1e-3, max_value=1e3))
def test_direct_path_scaling_of_y(seed, n, m, epsilon, beta, scale):
    # the minimizer is linear in Y
    graph, mask, y, cfg = _direct_instance(seed, n, m, epsilon, beta)
    x = gf.reconstruct_sobolev(y, mask, graph, cfg).xbar
    scaled_y = scale * y
    x_scaled = gf.reconstruct_sobolev(scaled_y, mask, graph, cfg).xbar
    assert np.linalg.norm(x_scaled - scale * x) <= 1e-12 * np.linalg.norm(scale * x)


@settings(max_examples=50, deadline=None)
@given(**direct_instances, s=st.floats(min_value=0.1, max_value=10.0))
def test_direct_path_depends_on_gamma_times_b(seed, n, m, epsilon, beta, s):
    # scaling W and eps by s scales B = (L + eps*I)**beta by s**beta, so
    # gamma / s**beta leaves gamma * B, and with it X, unchanged
    graph, mask, y, cfg = _direct_instance(seed, n, m, epsilon, beta)
    scaled_graph = gf.SensorGraph(s * graph.weights, sigma=graph.sigma)
    scaled_cfg = gf.SobolevConfig(s * epsilon, beta, cfg.gamma / s**beta)
    assert solver._takes_direct_path(scaled_graph, scaled_cfg, mask.astype(float))
    x = gf.reconstruct_sobolev(y, mask, graph, cfg).xbar
    x_scaled = gf.reconstruct_sobolev(y, mask, scaled_graph, scaled_cfg).xbar
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
    x = gf.reconstruct_sobolev(y, mask, graph, cfg).xbar
    permuted_y = y[perm]
    x_permuted = gf.reconstruct_sobolev(permuted_y, mask[perm], permuted_graph, cfg).xbar
    assert np.linalg.norm(x_permuted - x[perm]) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("seed", range(5))
def test_large_gamma_tends_to_observed_node_means(seed):
    # as gamma grows, X D -> 0 (B is positive definite for eps > 0), so each
    # node's row tends to the mean of its observed values, and the relative
    # deviation from that limit falls tenfold per decade of gamma
    graph, _, mask, y = random_instance(seed=seed, n=6, m=8, density=0.5)
    means = (y * mask).sum(axis=1) / mask.sum(axis=1)
    limit = np.repeat(means[:, None], 8, axis=1)
    deviations = []
    for gamma in (1e4, 1e5, 1e6, 1e7):
        cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=gamma)
        assert solver._takes_direct_path(graph, cfg, mask.astype(float))
        x = gf.reconstruct_sobolev(y, mask, graph, cfg).xbar
        deviations.append(np.linalg.norm(x - limit) / np.linalg.norm(limit))
    ratios = np.array(deviations[:-1]) / np.array(deviations[1:])
    assert np.all((9.5 <= ratios) & (ratios <= 10.5)), ratios
    assert deviations[-1] <= 1e-6


@pytest.mark.parametrize("graph_kind", ["path", "knn"])
@pytest.mark.parametrize("gamma", [10.0, 100.0])
def test_direct_path_singular_system_raises_deterministically(graph_kind, gamma):
    # Observations in two disconnected node x time blocks: with epsilon = 0,
    # X = 1 at nodes 0-1 and times 2-3, -1 at nodes 2-3 and times 0-1 and 0
    # elsewhere is in the null space. reconstruct_sobolev rejects the mask
    # before solving. Given the same system, _block_solve ends on each graph
    # at one gamma in a failed Cholesky pivot and at the other in a tiny
    # positive one, which only the relative pivot test catches.
    graph = unit_path_graph(4) if graph_kind == "path" else random_geometric_graph(4, 2, seed=3)
    mask = np.zeros((4, 4), dtype=bool)
    mask[:2, :2] = mask[2:, 2:] = True
    y = np.where(mask, np.arange(16.0).reshape(4, 4), 0.0)
    cfg = gf.SobolevConfig(epsilon=0.0, beta=1.0, gamma=gamma)
    assert solver._takes_direct_path(graph, cfg, mask.astype(float))
    b = gf.sobolev_operator(graph, cfg.epsilon, cfg.beta)
    for solve, expected in [
        (lambda: gf.reconstruct_sobolev(y, mask, graph, cfg),
         "no observed entries link node 0 to time step 2"),
        (lambda: solver._block_solve(b, gamma, mask.astype(float), y), "time block"),
    ]:
        messages = []
        for _ in range(2):
            with pytest.raises(SingularSystem) as caught:
                solve()
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert expected in messages[0]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=3, max_value=7),
    m=st.integers(min_value=2, max_value=5),
    k=st.integers(min_value=1, max_value=3),
    density=st.floats(min_value=0.2, max_value=0.6),
    epsilon=st.sampled_from([0.0, 0.1]),
    beta=st.sampled_from([1.0, 1.5, 2.0]),
    gamma=st.sampled_from([1e-3, 0.1, 1.0, 50.0]),
)
def test_singular_exactly_when_dense_oracle_is(seed, n, m, k, density, epsilon, beta, gamma):
    # Both solver paths must refuse a singular system as the oracle does: the
    # gamma values fall on either side of the direct-path rule, and the
    # Bernoulli mask may leave a node or a time step unobserved.
    assume(k < n)
    rng = np.random.default_rng(seed)
    graph = random_geometric_graph(n, k, seed)
    mask = rng.random((n, m)) < density
    y = np.where(mask, rng.normal(size=(n, m)), 0.0)
    cfg = gf.SobolevConfig(epsilon=epsilon, beta=beta, gamma=gamma)

    def raises(solve):
        try:
            solve(y, mask, graph, cfg)
        except SingularSystem:
            return True
        return False

    assert raises(gf.reconstruct_sobolev) == raises(gf.dense_oracle_solve)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("gamma", [1e-3, 1e-2, 1.0])
def test_isolated_node_tikhonov_raises_on_both_paths(seed, gamma):
    # The far outlier is its own graph component. With epsilon = 0 its row of
    # B is zero, so its unobserved entries are free. gamma <= 1e-2 takes the
    # CG path, which converges on such a consistent singular system, and
    # gamma = 1 the block solve: both must raise before solving.
    graph = gf.build_knn_graph(outlier_positions(), 5)
    mask = gf.random_mask(60, 12, 0.5, seed=seed)
    truth = np.random.default_rng(seed).normal(size=(60, 12))
    y = np.where(mask, truth, 0.0)
    cfg = gf.SobolevConfig(epsilon=0.0, beta=1.0, gamma=gamma)
    first_gap = int(np.flatnonzero(~mask[59])[0])
    with pytest.raises(SingularSystem, match=f"node 59 to time step {first_gap} "):
        gf.reconstruct_sobolev(y, mask, graph, cfg)


def test_block_solve_raises_where_cholesky_stops():
    # An indefinite first block: dpotrf stops at a pivot of -0.5, far from
    # negligible once squared, and that alone must raise.
    with pytest.raises(SingularSystem, match="time block 0 has .* pivot at node 0"):
        solver._block_solve(-np.eye(3), 1.0, np.full((3, 4), 0.5), np.ones((3, 4)))


def _one_sided_block_solve(b, gamma, j, y):
    """_block_solve as it was before long systems split, its pivot checks left
    out: one forward sweep from step 0, then back-substitution from step M - 1."""
    from scipy.linalg.blas import dgemv, dsyrk, dtpsv, dtrsm
    from scipy.linalg.lapack import dpotrf

    n, m = y.shape
    gb = np.asfortranarray(gamma * b)
    gb2 = 2.0 * gb
    t_diag = np.full(m, 2.0)
    t_diag[[0, -1]] = 1.0
    diagonal = np.ascontiguousarray(j.T + np.outer(t_diag, np.diagonal(gb)))
    packed = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool)))
    factors = np.empty((m, packed.size))
    h = np.array(y.T, order="C")
    s, previous = [(a, a.T.reshape(-1), a.T.reshape(-1)[:: n + 1])
                   for a in np.empty((2, n, n)).transpose(0, 2, 1)]
    for t in range(m):
        np.copyto(s[0], gb2 if 0 < t < m - 1 else gb)
        s[2][:] = diagonal[t]
        if t:
            wt = dtrsm(1.0, previous[0], gb, side=1, lower=1, trans_a=1)
            dsyrk(-1.0, wt, beta=1.0, c=s[0], lower=1, overwrite_c=1)
            dgemv(1.0, wt, h[t - 1], beta=1.0, y=h[t], overwrite_y=1)
        dpotrf(s[0], lower=1, clean=0, overwrite_a=1)
        s[1].take(packed, out=factors[t], mode="clip")
        dtpsv(n, factors[t], h[t], lower=1, overwrite_x=1)
        s, previous = previous, s
    dtpsv(n, factors[-1], h[-1], lower=1, trans=1, overwrite_x=1)
    for t in range(m - 2, -1, -1):
        coupled = dtpsv(n, factors[t], dgemv(1.0, gb, h[t + 1]), lower=1, overwrite_x=1)
        np.add(h[t], coupled, out=h[t])
        dtpsv(n, factors[t], h[t], lower=1, trans=1, overwrite_x=1)
    return np.ascontiguousarray(h.T)


def _block_system(n, m, seed, density=0.3):
    """(b, gamma, j, y) of a Sobolev system on a kNN graph, every node observed."""
    rng = np.random.default_rng(seed)
    positions = gf.NodePositions(coords=rng.random((n, 2)), node_ids=tuple(map(str, range(n))))
    b = gf.sobolev_operator(gf.build_knn_graph(positions, min(5, n - 1)), 0.5, 1.0)
    j = (rng.random((n, m)) < density).astype(float)
    j[:, rng.integers(m)] = 1.0
    return b, 0.5, j, np.where(j > 0, rng.normal(size=(n, m)), 0.0)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(min_value=2, max_value=9),
       m=st.integers(min_value=2, max_value=40))
def test_short_block_solve_is_the_one_sided_sweep_bit_for_bit(seed, n, m):
    system = _block_system(n, m, seed)
    assert np.array_equal(solver._block_solve(*system), _one_sided_block_solve(*system))


@pytest.mark.parametrize("m", [100, 300, solver._SPLIT_STEPS - 1])
def test_short_block_solve_keeps_its_bits_at_benchmark_sizes(m):
    # grid-sparse's 50 x 100 solves, a 50 x 300 reconstruct and the longest
    # system that does not split
    system = _block_system(50, m, seed=m)
    assert np.array_equal(solver._block_solve(*system), _one_sided_block_solve(*system))


@pytest.mark.parametrize("n, m", [(6, 3), (6, 4), (5, 9), (20, 50), (40, 50), (3, 600)])
def test_split_block_solve_matches_dense_oracle(monkeypatch, n, m):
    monkeypatch.setattr(solver, "_SPLIT_STEPS", 3)
    monkeypatch.setattr(solver, "_may_fork", lambda: False)
    back_substitutions = []
    back_substitute = solver._back_substitute
    monkeypatch.setattr(solver, "_back_substitute",
                        lambda *args: back_substitutions.append(1) or back_substitute(*args))
    graph, _, mask, y = random_instance(seed=n * m, n=n, m=m, density=0.6)
    cfg = gf.SobolevConfig(epsilon=0.3, beta=1.5, gamma=50.0)
    assert solver._takes_direct_path(graph, cfg, mask.astype(float))
    direct = gf.reconstruct_sobolev(y, mask, graph, cfg)
    assert len(back_substitutions) == 2  # one per half
    oracle = gf.dense_oracle_solve(y, mask, graph, cfg)
    rel = np.linalg.norm(direct.xbar - oracle.xbar) / np.linalg.norm(oracle.xbar)
    assert rel <= 1e-10


def test_split_block_solve_matches_the_one_sided_sweep_at_benchmark_size():
    # reconstruct-large's 50 x 10^4 system at density 0.3
    system = _block_system(50, 10_000, seed=0)
    assert 10_000 >= solver._SPLIT_STEPS
    x, one_sided = solver._block_solve(*system), _one_sided_block_solve(*system)
    assert np.abs(x - one_sided).max() <= 1e-12 * np.abs(one_sided).max()


@pytest.fixture(scope="module")
def split_probe():
    """What tests/split_probe.py saw of split solves in a fresh interpreter."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a forked helper needs two usable CPUs")
    src = Path(gf.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error",
                           str(Path(__file__).with_name("split_probe.py"))],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_split_solve_is_the_same_forked_in_process_and_on_one_cpu(split_probe):
    runs = split_probe["placements"]
    assert split_probe["may_fork"]
    assert len({run["outcome"] for run in runs.values()}) == 1
    assert [(run["forks"], run["receipts"]) for run in runs.values()] == [
        (1, [True, True]), (0, []), (0, [])]
    assert all(run["no_child_left"] for run in runs.values())


def test_killed_helper_gives_the_same_bits(split_probe):
    # the bottom half is recomputed in process wherever the helper died
    want = split_probe["placements"]["in process"]["outcome"]
    runs = split_probe["killed"]
    assert {name: (run["outcome"], run["forks"], run["receipts"], run["no_child_left"])
            for name, run in runs.items()} == {
        "in its sweep": (want, 1, [False], True),
        "in its back-substitution": (want, 1, [True, False], True),
        "sending its half of X": (want, 1, [True, False], True),
    }


def test_split_singular_system_names_the_real_time_block(split_probe):
    # steps 0-19 are the top half, 40-21 the bottom half and 20 the meeting
    # block: the top half reports first, each half in the order of its sweep
    named = {"5": 5, "35": 35, "20": 20, "5,35": 5, "35,20": 35, "20,5": 5, "33,37": 37}
    runs = split_probe["singular"]
    assert sorted(runs) == sorted(named)
    for bad, block in named.items():
        forked, in_process = runs[bad]["forked"], runs[bad]["in process"]
        assert forked["outcome"] == in_process["outcome"], bad
        assert in_process["outcome"].startswith(
            f"SingularSystem: singular system: time block {block} has"), bad
        assert (forked["forks"], in_process["forks"]) == (1, 0)
        assert forked["no_child_left"] and in_process["no_child_left"]


def test_helper_is_forked_only_where_it_is_safe(split_probe, monkeypatch):
    # not beside another thread, in a process multiprocessing started, or on
    # one CPU
    assert split_probe["may_fork"]
    assert not split_probe["may_fork_with_a_thread"]
    assert not split_probe["may_fork_in_a_pool_worker"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not solver._may_fork()


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
    y = rng.normal(size=(5, 6))
    full = np.ones((5, 6), dtype=bool)
    cfg = gf.SobolevConfig(epsilon=0.3, beta=1.5, gamma=1e-12)
    result = gf.reconstruct_sobolev(y, full, graph, cfg)
    assert np.abs(result.xbar - y).max() <= 1e-6


def test_constant_signal_reproduced_exactly(rng):
    graph = random_geometric_graph(6, 2, seed=1)
    constant = 3.25
    truth = np.full((6, 5), constant)
    mask = gf.random_mask(6, 5, 0.5, seed=4)
    y = masked(truth, mask)
    cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=1.0)
    result = gf.reconstruct_sobolev(y, mask, graph, cfg)
    assert np.abs(result.xbar - constant).max() <= 1e-6


def test_matches_dense_oracle_single_instance():
    graph, _, mask, y = random_instance(seed=10, n=5, m=4, density=0.5)
    cfg = gf.SobolevConfig(epsilon=0.1, beta=1.5, gamma=0.8)
    cg = gf.reconstruct_sobolev(y, mask, graph, cfg)
    oracle = gf.dense_oracle_solve(y, mask, graph, cfg)
    rel = np.linalg.norm(cg.xbar - oracle.xbar) / np.linalg.norm(oracle.xbar)
    assert rel <= 1e-6
    assert cg.final_relative_residual <= solver._CG_TOLERANCE


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
    rel = np.linalg.norm(cg.xbar - oracle.xbar) / np.linalg.norm(oracle.xbar)
    assert rel <= 1e-6


def test_gradient_optimality(rng):
    for seed in range(5):
        graph, _, mask, y = random_instance(seed=seed, n=6, m=5, density=0.5)
        cfg = gf.SobolevConfig(epsilon=0.2, beta=1.0, gamma=0.7)
        result = gf.reconstruct_sobolev(y, mask, graph, cfg)
        b = gf.sobolev_operator(graph, cfg.epsilon, cfg.beta)
        grad = gf.objective_gradient(result.xbar, y, mask, b, cfg.gamma)
        bound = 10 * solver._CG_TOLERANCE * np.linalg.norm(y)
        assert np.linalg.norm(grad) <= bound


def test_tikhonov_is_sobolev_special_case():
    # the harness's tikhonov cells are the Sobolev problem at eps = 0, beta = 1
    ds = gf.synthetic_dataset(n_nodes=12, k=3, n_steps=10, seed=3)
    tik = gf.grid_search(ds, 0.5, [], [], [0.6], repetitions=2, k_graph=3,
                         methods=["tikhonov"])
    sob = gf.grid_search(ds, 0.5, [0.0], [1.0], [0.6], repetitions=2, k_graph=3)
    assert [config for config, _ in tik.entries] == [gf.SobolevConfig(0.0, 1.0, 0.6)]
    (_, tik_result), (_, sob_result) = tik.entries + sob.entries
    assert tik_result.per_rep == sob_result.per_rep and len(tik_result.per_rep) == 2


def test_tikhonov_matches_oracle_with_plain_laplacian():
    graph, _, mask, y = random_instance(seed=31, n=5, m=4, density=0.6)
    tikhonov = gf.SobolevConfig(epsilon=0.0, beta=1.0, gamma=0.4)
    tik = gf.reconstruct_sobolev(y, mask, graph, tikhonov)
    oracle = gf.dense_oracle_solve(y, mask, graph, tikhonov)
    rel = np.linalg.norm(tik.xbar - oracle.xbar) / np.linalg.norm(oracle.xbar)
    assert rel <= 1e-6


def test_tikhonov_full_mask_small_gamma(rng):
    graph = random_geometric_graph(4, 2, seed=5)
    y = rng.normal(size=(4, 5))
    full = np.ones((4, 5), dtype=bool)
    result = gf.reconstruct_sobolev(y, full, graph, gf.SobolevConfig(0.0, 1.0, 1e-12))
    assert np.abs(result.xbar - y).max() <= 1e-6


def test_operator_symmetry_and_positivity(rng):
    graph, _, mask, _ = random_instance(seed=40, n=5, m=4, density=0.6)
    b = gf.sobolev_operator(graph, 0.4, 1.5)
    zero = np.zeros((5, 4))

    def apply_a(values):
        return gf.objective_gradient(values, zero, mask, b, 0.9)

    for _ in range(10):
        x1 = rng.normal(size=(5, 4))
        x2 = rng.normal(size=(5, 4))
        assert float(np.vdot(apply_a(x1), x2)) == pytest.approx(
            float(np.vdot(x1, apply_a(x2))), abs=1e-9, rel=1e-9
        )
        assert float(np.vdot(apply_a(x1), x1)) > 0.0


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("order", ["C", "F"])
def test_objective_gradient_matches_dense_form(beta, order):
    # the verifier itself, at an X that no solve produced:
    # diag(vec J) vec X - vec Y + gamma (T kron B) vec X, column-major vec
    graph, _, mask, y = random_instance(seed=41, n=6, m=7, density=0.5)
    b = gf.sobolev_operator(graph, 0.3, beta)
    d = gf.temporal_difference_operator(7)
    gamma = 0.7
    x = np.asarray(np.random.default_rng(42).normal(size=(6, 7)), order=order)
    assert x.flags.c_contiguous == (order == "C")

    def vec(a):
        return a.flatten(order="F")

    dense = vec(mask) * vec(x) - vec(y) + gamma * np.kron(d @ d.T, b) @ vec(x)
    assert np.linalg.norm(dense) > 1.0  # far from the minimizer
    grad = gf.objective_gradient(x, y, mask, b, gamma)
    assert np.linalg.norm(vec(grad) - dense) <= 1e-12 * np.linalg.norm(dense)


def test_monotone_data_fit_in_gamma(rng):
    graph = random_geometric_graph(6, 2, seed=6)
    y = rng.normal(size=(6, 8))
    full = np.ones((6, 8), dtype=bool)
    fits = []
    for gamma in (1.0, 1e-2, 1e-4):
        result = gf.reconstruct_sobolev(
            y, full, graph, gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=gamma)
        )
        fits.append(float(np.sqrt(np.mean((result.xbar - y) ** 2))))
    assert fits[0] >= fits[1] >= fits[2]


def test_solver_permutation_equivariance(rng):
    pos_coords = np.random.default_rng(77).uniform(0, 10, size=(6, 2))
    ids = tuple(f"n{i}" for i in range(6))
    pos = gf.NodePositions(coords=pos_coords, node_ids=ids)
    graph = gf.build_knn_graph(pos, 2)
    truth = rng.normal(size=(6, 5))
    mask = gf.random_mask(6, 5, 0.6, seed=8)
    y = masked(truth, mask)
    cfg = gf.SobolevConfig(epsilon=0.3, beta=2.0, gamma=0.5)
    base = gf.reconstruct_sobolev(y, mask, graph, cfg)

    perm = np.random.default_rng(5).permutation(6)
    p = np.eye(6)[perm]
    pos_perm = gf.NodePositions(coords=pos_coords[perm], node_ids=tuple(ids[i] for i in perm))
    graph_perm = gf.build_knn_graph(pos_perm, 2)
    y_perm = p @ y
    mask_perm = mask[perm]
    permuted = gf.reconstruct_sobolev(y_perm, mask_perm, graph_perm, cfg)
    assert np.abs(permuted.xbar - p @ base.xbar).max() <= 1e-8


def test_uncovered_node_raises_singular():
    graph = unit_path_graph(3)
    mask = np.array([[1, 1], [1, 1], [0, 0]], dtype=bool)
    y = np.array([[1.0, 2.0], [0.5, 0.3], [0.0, 0.0]])
    cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=1.0)
    with pytest.raises(SingularSystem):
        gf.reconstruct_sobolev(y, mask, graph, cfg)


def test_gamma_zero_full_mask_identity(rng):
    graph = unit_path_graph(3)
    y = rng.normal(size=(3, 3))
    full = np.ones((3, 3), dtype=bool)
    cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=0.0)
    result = gf.reconstruct_sobolev(y, full, graph, cfg)
    assert np.array_equal(result.xbar, y)
    assert result.iterations == 0
    assert result.final_relative_residual == 0.0
    oracle = gf.dense_oracle_solve(y, full, graph, cfg)
    assert np.abs(oracle.xbar - y).max() <= 1e-12


def test_gamma_zero_incomplete_mask_singular(rng):
    graph = unit_path_graph(4)
    mask = gf.random_mask(4, 4, 0.5, seed=0)
    y = masked(rng.normal(size=(4, 4)), mask)
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
    truth = rng.normal(size=(3, 3))
    mask = gf.random_mask(3, 3, 2 / 3, seed=2)
    y = masked(truth, mask)
    cfg = gf.SobolevConfig(epsilon=0.2, beta=2.0, gamma=0.5)
    oracle = gf.dense_oracle_solve(y, mask, graph, cfg)
    b = gf.sobolev_operator(graph, cfg.epsilon, cfg.beta)
    at_solution = gf.sobolev_objective(oracle.xbar, y, mask, b, cfg.gamma)
    at_y = gf.sobolev_objective(y, y, mask, b, cfg.gamma)
    at_zero = gf.sobolev_objective(np.zeros((3, 3)), y, mask, b, cfg.gamma)
    assert at_solution <= at_y
    assert at_solution <= at_zero
    assert at_solution == pytest.approx(oracle.objective_value)


def test_oracle_size_guard():
    graph = random_geometric_graph(50, 3, seed=9)
    y = np.zeros((50, 50))
    full = np.ones((50, 50), dtype=bool)
    with pytest.raises(InvalidInput, match=r"^dense oracle limited to N\*M <= 2000, got 2500$"):
        gf.dense_oracle_solve(y, full, graph, gf.SobolevConfig())


def test_max_iterations_raises_convergence_failure(monkeypatch):
    graph, _, mask, y = random_instance(seed=50, n=6, m=5, density=0.5)
    cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=0.05)
    assert not solver._takes_direct_path(graph, cfg, mask.astype(float))
    monkeypatch.setattr(solver, "_CG_MAX_ITERATIONS", 2)
    with pytest.raises(ConvergenceFailure, match=r"did not converge within 2 iterations "
                                                 r"\(relative residual \d\.\d{3}e[-+]\d+\)"):
        gf.reconstruct_sobolev(y, mask, graph, cfg)


def test_zero_rhs_short_circuits():
    graph = unit_path_graph(3)
    mask = gf.random_mask(3, 4, 2 / 3, seed=1)
    y = np.zeros((3, 4))
    result = gf.reconstruct_sobolev(y, mask, graph, gf.SobolevConfig())
    assert result.iterations == 0
    assert np.abs(result.xbar).max() == 0.0


def test_single_snapshot_rejected():
    graph = unit_path_graph(3)
    y = np.ones((3, 1))
    mask = np.ones((3, 1), dtype=bool)
    with pytest.raises(InvalidInput, match="^reconstruction needs at least 2 snapshots$"):
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
