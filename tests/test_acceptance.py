"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Criteria 1/2 verify the iterative solver against the dense direct oracle
and the first-order optimality of its output. Criteria 3/4 reproduce the
experimental protocol's qualitative findings on the bundled synthetic data:
errors shrink as sampling density grows, and the tuned Sobolev
reconstruction beats the kNN baseline while at least matching plain
Laplacian (Tikhonov) regularization. Criterion 5 is an optional real-data
check that runs only when converted Molene-style CSVs are supplied.
Criteria 6/7 bundle the structural invariants and the reduction identity
of the objective.
"""

import itertools
import os
import time

import numpy as np
import pytest

import graphfill as gf
from graphfill.harness import masked_problem

from conftest import dataset_of, masked, random_positions

DENSITIES = (0.1, 0.3, 0.5, 0.7)
_ORACLE_SUITE: list = []


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _well_posed(graph, mask, config) -> bool:
    """Unique minimizer check: with eps = 0 certain observation patterns make
    the normal equations singular, and 'match the oracle' is undefined."""
    b = gf.sobolev_operator(graph, config.epsilon, config.beta)
    d = gf.temporal_difference_operator(mask.shape[1])
    system = np.diag(mask.flatten(order="F").astype(float))
    system = system + config.gamma * np.kron(d @ d.T, b)
    return np.linalg.eigvalsh(system).min() > 1e-8


def _oracle_instances():
    """50 deterministic random well-posed instances spanning the solver's regimes."""
    rng = np.random.default_rng(20240901)
    eps_cycle = itertools.cycle([0.0, 0.1, 1.0])
    beta_cycle = itertools.cycle([1.0, 1.5, 2.0])
    gamma_cycle = itertools.cycle([0.1, 1.0])
    produced = 0
    attempt = 0
    while produced < 50:
        attempt += 1
        assert attempt < 500, "instance generation should not struggle this much"
        n = int(rng.integers(3, 7))
        m = int(rng.integers(3, 6))
        density = float(rng.choice([0.4, 0.6]))
        k = int(rng.integers(1, n))
        positions = gf.NodePositions(
            coords=rng.uniform(0.0, 10.0, size=(n, 2)),
            node_ids=tuple(f"n{i}" for i in range(n)),
        )
        graph = gf.build_knn_graph(positions, k)
        truth = rng.normal(0.0, 1.0, size=(n, m))
        mask = gf.random_mask(n, m, density, seed=1000 + attempt)
        config = gf.SobolevConfig(
            epsilon=next(eps_cycle), beta=next(beta_cycle), gamma=next(gamma_cycle)
        )
        if not _well_posed(graph, mask, config):
            continue
        produced += 1
        yield graph, mask, masked(truth, mask), config


def _run_oracle_suite():
    """Solve the 50 instances once; criterion 2 audits the same solutions."""
    if not _ORACLE_SUITE:
        outcomes = []
        for graph, mask, y, config in _oracle_instances():
            cg = gf.reconstruct_sobolev(y, mask, graph, config)
            oracle = gf.dense_oracle_solve(y, mask, graph, config)
            rel = np.linalg.norm(cg.xbar - oracle.xbar) / np.linalg.norm(oracle.xbar)
            outcomes.append((rel, cg, y, mask, graph, config))
        _ORACLE_SUITE.extend(outcomes)  # cache only a complete run
    return _ORACLE_SUITE


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    outcomes = _run_oracle_suite()
    elapsed = time.monotonic() - start
    worst = max(rel for rel, *_ in outcomes)
    ok = len(outcomes) == 50 and worst <= 1e-6 and elapsed < 10.0
    _report(
        "criterion 1 (oracle equivalence)",
        ok,
        f"50 instances, worst relative error {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_gradient_optimality():
    worst_ratio = 0.0
    for _, cg, y, mask, graph, config in _run_oracle_suite():
        b = gf.sobolev_operator(graph, config.epsilon, config.beta)
        grad = gf.objective_gradient(cg.xbar, y, mask, b, config.gamma)
        bound = 1e-8 * (1.0 + np.linalg.norm(y))
        worst_ratio = max(worst_ratio, np.linalg.norm(grad) / bound)
    _report(
        "criterion 2 (gradient optimality)",
        worst_ratio <= 1.0,
        f"worst gradient-to-bound ratio {worst_ratio:.3e}",
    )


def test_criterion_3_monotone_densities():
    start = time.monotonic()
    dataset = gf.synthetic_dataset(seed=0)
    all_monotone = True
    trends = []
    default = gf.SobolevConfig()
    for master_seed in (0, 1, 2):
        rmses = [
            gf.grid_search(dataset, density, [default.epsilon], [default.beta], [default.gamma],
                           master_seed=master_seed).best["sobolev"][1].rmse_mean
            for density in DENSITIES
        ]
        trends.append("->".join(f"{v:.4f}" for v in rmses))
        all_monotone &= all(a > b for a, b in zip(rmses, rmses[1:]))
    elapsed = time.monotonic() - start
    ok = all_monotone and elapsed < 60.0
    _report(
        "criterion 3 (monotone density trend)",
        ok,
        f"rmse per seed: {'; '.join(trends)}; {elapsed:.1f}s",
    )


def test_criterion_4_method_ordering():
    dataset = gf.synthetic_dataset(seed=0)
    eps_grid = (0.1, 0.5, 1.0, 2.0)
    beta_grid = (1.0, 1.5, 2.0)
    gamma_grid = (1e-3, 1e-2, 1e-1, 1.0)
    details = []
    ok = True
    for density in DENSITIES:
        # tikhonov searches gamma_grid at eps = 0, beta = 1; all three methods
        # are scored on the same 20 masks
        search = gf.grid_search(
            dataset, density, eps_grid, beta_grid, gamma_grid,
            repetitions=20, master_seed=0, k_graph=5,
            methods=("sobolev", "tikhonov", "knn_baseline"),
        )
        sob, tik, knn = (search.best[method][1].rmse_mean
                         for method in ("sobolev", "tikhonov", "knn_baseline"))
        beats_knn = sob <= knn
        matches_tikhonov = sob <= 1.02 * tik
        ok &= beats_knn and matches_tikhonov
        details.append(
            f"d={density}: sobolev {sob:.4f} vs knn {knn:.4f} vs tikhonov {tik:.4f}"
        )
    _report("criterion 4 (method ordering)", ok, "; ".join(details))


def test_criterion_5_molene_real_data_check():
    positions = os.environ.get("GRAPHFILL_MOLENE_POSITIONS")
    readings = os.environ.get("GRAPHFILL_MOLENE_READINGS")
    if not (positions and readings):
        pytest.skip(
            "set GRAPHFILL_MOLENE_POSITIONS / GRAPHFILL_MOLENE_READINGS to "
            "converted Molene CSVs to run the real-data check"
        )
    dataset = gf.filter_consistent_nodes(gf.load_dataset(positions, readings), 1.0)
    search = gf.grid_search(
        dataset, 0.5,
        eps_grid=(0.1, 0.5, 1.0, 2.0), beta_grid=(1.0, 1.5, 2.0),
        gamma_grid=(1e-3, 1e-2, 1e-1, 1.0), repetitions=20, master_seed=0, k_graph=5,
    )
    rmse = search.best["sobolev"][1].rmse_mean
    in_range = 0.6 <= rmse <= 2.4
    # informative only: reported, never blocking
    print(
        f"[INFO] criterion 5 (Molene, density 0.5): rmse_mean={rmse:.3f} "
        f"{'inside' if in_range else 'OUTSIDE'} the reference band [0.6, 2.4]"
    )


def test_criterion_6_invariant_suite():
    start = time.monotonic()
    rng = np.random.default_rng(7)

    # Laplacian invariants on random geometric graphs.
    for seed in range(5):
        graph = gf.build_knn_graph(random_positions(10, seed), 3)
        lam = graph.eigenvalues
        assert np.abs(graph.laplacian.sum(axis=1)).max() <= 1e-10
        assert lam.min() >= -1e-8 and abs(lam[0]) <= 1e-8

    # Temporal difference operator column structure.
    for m in (2, 5, 30):
        d = gf.temporal_difference_operator(m)
        assert np.abs(d.sum(axis=0)).max() == 0.0
        assert all(np.count_nonzero(d[:, c]) == 2 for c in range(m - 1))

    # RMSE dominates MAE on 100 random evaluation sets.
    for _ in range(100):
        truth = rng.normal(size=(4, 5))
        recon = rng.normal(size=(4, 5))
        count = int(rng.integers(1, 21))
        hidden = np.zeros(20, dtype=bool)
        hidden[rng.choice(20, size=count, replace=False)] = True
        report = gf.error_report(truth, recon, hidden.reshape(4, 5))
        assert report.rmse >= report.mae - 1e-15

    # Mask column counts and determinism.
    for density in DENSITIES:
        mask = gf.random_mask(23, 40, density, seed=3)
        expected = int(np.floor(density * 23 + 0.5))
        assert (mask.sum(axis=0) == expected).all()
        assert np.array_equal(mask, gf.random_mask(23, 40, density, seed=3))

    # Experiment determinism, with a configuration (gamma = 0) whose every
    # repetition fails, so that its aggregates are NaN.
    dataset = gf.synthetic_dataset(n_nodes=15, k=3, n_steps=20, seed=5)
    search = [gf.grid_search(dataset, 0.5, [0.5], [1.0], [0.0, 0.5], repetitions=3, k_graph=3,
                             methods=("sobolev", "tikhonov", "knn_baseline"))
              for _ in range(2)]
    assert search[0] == search[1] and not search[0].entries[0][1].per_rep

    # Permutation equivariance of graph construction and solver.
    positions = random_positions(6, seed=21)
    graph = gf.build_knn_graph(positions, 2)
    perm = rng.permutation(6)
    p = np.eye(6)[perm]
    permuted = gf.NodePositions(
        coords=positions.coords[perm],
        node_ids=tuple(positions.node_ids[i] for i in perm),
    )
    graph_perm = gf.build_knn_graph(permuted, 2)
    assert np.abs(graph_perm.weights - p @ graph.weights @ p.T).max() <= 1e-12
    truth = rng.normal(size=(6, 5))
    mask = gf.random_mask(6, 5, 0.6, seed=2)
    y = masked(truth, mask)
    config = gf.SobolevConfig(epsilon=0.4, beta=1.5, gamma=0.7)
    base = gf.reconstruct_sobolev(y, mask, graph, config)
    y_perm = p @ y
    mask_perm = mask[perm]
    solved_perm = gf.reconstruct_sobolev(y_perm, mask_perm, graph_perm, config)
    assert np.abs(solved_perm.xbar - p @ base.xbar).max() <= 1e-8

    # Scale round trip.
    x = rng.normal(size=(6, 7)) * 30 + 4
    _, _, scaled, unscale = masked_problem(dataset_of(x), 1.0, 0)
    assert np.abs(unscale(scaled) - x).max() <= 1e-12

    elapsed = time.monotonic() - start
    _report("criterion 6 (invariant suite)", elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_7_reduction_identity():
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(3, 7))
        graph = gf.build_knn_graph(random_positions(n, seed=200 + trial), min(2, n - 1))
        b = gf.sobolev_operator(graph, 0.0, 1.0)
        mask = gf.random_mask(n, m, 0.6, seed=trial)
        truth = rng.normal(size=(n, m))
        y = masked(truth, mask)
        xbar = rng.normal(size=(n, m))
        gamma = float(rng.uniform(0.1, 2.0))
        value = gf.sobolev_objective(xbar, y, mask, b, gamma)

        # plain-Laplacian objective evaluated independently
        j = mask.astype(float)
        data = 0.5 * np.sum((j * xbar - y) ** 2)
        z = xbar[:, 1:] - xbar[:, :-1]
        reg = 0.5 * gamma * np.trace(z.T @ graph.laplacian @ z)
        reference = data + reg
        worst = max(worst, abs(value - reference) / abs(reference))
    _report(
        "criterion 7 (reduction identity)",
        worst <= 1e-10,
        f"20 instances, worst relative deviation {worst:.3e}",
    )
