import math

import numpy as np
import pytest

import graphfill as gf
from graphfill.errors import DuplicateCoordinates, KTooLarge

from conftest import (
    outlier_positions,
    random_geometric_graph,
    random_positions,
    unit_path_graph,
)


def test_two_nodes_single_edge():
    pos = gf.NodePositions(coords=np.array([[0.0, 0.0], [3.0, 0.0]]), node_ids=("a", "b"))
    g = gf.build_knn_graph(pos, 1)
    assert g.edges == ((0, 1),)
    assert g.sigma == pytest.approx(3.0)
    # distance equals sigma, so the weight is exp(-1)
    assert g.weights[0, 1] == pytest.approx(math.exp(-1), abs=1e-12)


def test_three_collinear_nodes():
    pos = gf.NodePositions(
        coords=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), node_ids=("a", "b", "c")
    )
    g = gf.build_knn_graph(pos, 1)
    assert g.edges == ((0, 1), (1, 2))
    assert g.sigma == pytest.approx(1.0)
    assert g.weights[0, 1] == pytest.approx(math.exp(-1))
    assert g.weights[1, 2] == pytest.approx(math.exp(-1))
    assert g.weights[0, 2] == 0.0


def test_knn_tie_break_prefers_lower_index():
    # unit square: every node has two neighbours at distance 1; with k=1 the
    # lower-index one must win deterministically
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    g = gf.build_knn_graph(gf.NodePositions(coords=coords, node_ids=tuple("abcd")), 1)
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.sigma == pytest.approx(1.0)


@pytest.mark.parametrize("n,k,seed", [(5, 2, 0), (8, 3, 1), (12, 4, 2)])
def test_laplacian_invariants(n, k, seed):
    g = random_geometric_graph(n, k, seed)
    lap = g.laplacian
    assert np.abs(lap.sum(axis=1)).max() <= 1e-10
    assert np.abs(lap - lap.T).max() <= 1e-10
    lam = np.linalg.eigvalsh(lap)
    assert lam.min() >= -1e-8
    assert np.linalg.norm(lap @ np.ones(n)) <= 1e-8
    assert g.sigma > 0


def test_weights_match_gaussian_formula():
    pos = random_positions(7, seed=5)
    g = gf.build_knn_graph(pos, 2)
    for i, j in g.edges:
        d = np.linalg.norm(pos.coords[i] - pos.coords[j])
        assert g.weights[i, j] == pytest.approx(math.exp(-(d**2) / g.sigma**2))


def test_sigma_is_mean_edge_length():
    pos = random_positions(6, seed=9)
    g = gf.build_knn_graph(pos, 2)
    lengths = [np.linalg.norm(pos.coords[i] - pos.coords[j]) for i, j in g.edges]
    assert g.sigma == pytest.approx(np.mean(lengths))


def test_k_too_large():
    pos = random_positions(4, seed=0)
    with pytest.raises(KTooLarge):
        gf.build_knn_graph(pos, 4)
    with pytest.raises(ValueError):
        gf.build_knn_graph(pos, 0)


def test_duplicate_coordinates_rejected():
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    pos = gf.NodePositions(coords=coords, node_ids=("a", "b", "c"))
    with pytest.raises(DuplicateCoordinates):
        gf.build_knn_graph(pos, 1)


def test_node_positions_validation():
    with pytest.raises(ValueError):
        gf.NodePositions(coords=np.array([[0.0, 0.0]]), node_ids=("a",))
    with pytest.raises(ValueError):
        gf.NodePositions(coords=np.zeros((2, 2)), node_ids=("a", "a"))


def test_p2_eigenvalues():
    g = unit_path_graph(2)
    decomp = gf.spectral_decomposition(g)
    assert decomp.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)


def test_zero_eigenvalue_has_constant_eigenvector():
    g = random_geometric_graph(6, 2, seed=3)
    decomp = gf.spectral_decomposition(g)
    assert abs(decomp.eigenvalues[0]) <= 1e-8
    v = decomp.eigenvectors[:, 0]
    assert np.abs(v - v[0]).max() <= 1e-8  # proportional to the all-ones vector


def test_disconnected_graph_zero_multiplicity():
    # two distant pairs, k=1: each pair only links internally
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 100.0], [101.0, 100.0]])
    g = gf.build_knn_graph(gf.NodePositions(coords=coords, node_ids=tuple("abcd")), 1)
    lam = gf.spectral_decomposition(g).eigenvalues
    assert int(np.sum(np.abs(lam) < 1e-10)) == 2


def test_far_outlier_is_isolated_not_rejected():
    g = gf.build_knn_graph(outlier_positions(), 5)
    support = {(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(g.weights, 1)))}
    assert set(g.edges) == support
    assert not g.weights[59].any()
    assert g.sigma > 1.0  # the outlier's dropped edges still count towards sigma
    lam = gf.spectral_decomposition(g).eigenvalues
    assert int(np.sum(np.abs(lam) < 1e-10)) == 2


def test_spectral_reconstruction_and_orthonormality():
    g = random_geometric_graph(9, 3, seed=11)
    decomp = gf.spectral_decomposition(g)
    u, lam = decomp.eigenvectors, decomp.eigenvalues
    assert np.abs(u.T @ u - np.eye(9)).max() <= 1e-8
    assert np.abs((u * lam) @ u.T - g.laplacian).max() <= 1e-8
    assert np.all(np.diff(lam) >= -1e-12)


def test_eigenvector_sign_convention():
    g = random_geometric_graph(7, 2, seed=4)
    u = gf.spectral_decomposition(g).eigenvectors
    for col in range(7):
        v = u[:, col]
        first = v[np.abs(v) > 1e-12][0]
        assert first > 0


def test_spectral_decomposition_is_cached_and_deterministic():
    g = random_geometric_graph(6, 2, seed=8)
    d1 = gf.spectral_decomposition(g)
    d2 = gf.spectral_decomposition(g)
    assert d1 is d2
    g_again = random_geometric_graph(6, 2, seed=8)
    d3 = gf.spectral_decomposition(g_again)
    assert np.array_equal(d1.eigenvectors, d3.eigenvectors)


def test_sobolev_beta_one_is_shifted_laplacian():
    g = random_geometric_graph(5, 2, seed=2)
    b = gf.sobolev_operator(g, 0.7, 1.0)
    assert np.abs(b - (g.laplacian + 0.7 * np.eye(5))).max() <= 1e-12


def test_sobolev_p2_squared():
    g = unit_path_graph(2)
    b = gf.sobolev_operator(g, 1.0, 2.0)
    assert np.abs(b - np.array([[5.0, -4.0], [-4.0, 5.0]])).max() <= 1e-12


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0])
def test_sobolev_smallest_eigenvalue_bound(beta):
    g = random_geometric_graph(8, 2, seed=6)
    b = gf.sobolev_operator(g, 0.5, beta)
    assert np.linalg.eigvalsh(b).min() >= 0.5**beta - 1e-8


@pytest.mark.parametrize("beta", [1, 2, 3])
def test_integer_and_spectral_paths_agree(beta):
    g = random_geometric_graph(7, 3, seed=10)
    integer_path = gf.sobolev_operator(g, 0.3, float(beta))
    decomp = gf.spectral_decomposition(g)
    lam = np.clip(decomp.eigenvalues + 0.3, 0.0, None) ** beta
    spectral_path = (decomp.eigenvectors * lam) @ decomp.eigenvectors.T
    assert np.abs(integer_path - spectral_path).max() <= 1e-8


def test_sobolev_fractional_beta_with_zero_epsilon():
    # lambda_1 is a tiny signed zero; the fractional power must clamp it
    g = random_geometric_graph(6, 2, seed=7)
    b = gf.sobolev_operator(g, 0.0, 1.5)
    assert np.isfinite(b).all()
    assert np.linalg.eigvalsh(b).min() >= -1e-8


def test_sobolev_operator_is_cached():
    g = random_geometric_graph(5, 2, seed=1)
    b = gf.sobolev_operator(g, 0.5, 2.0)
    assert b is gf.sobolev_operator(g, 0.5, 2.0)
    assert np.array_equal(b, b.T) and not b.flags.writeable


def test_sobolev_parameter_validation():
    g = unit_path_graph(3)
    with pytest.raises(ValueError):
        gf.sobolev_operator(g, -0.1, 1.0)
    with pytest.raises(ValueError):
        gf.sobolev_operator(g, 0.1, 0.0)


def test_shift_makes_laplacian_invertible():
    g = random_geometric_graph(6, 2, seed=12)
    lam = gf.spectral_decomposition(g).eigenvalues
    assert abs(lam[0]) <= 1e-8  # L itself is singular
    shifted = np.linalg.eigvalsh(g.laplacian + 0.25 * np.eye(6))
    assert shifted.min() >= 0.25 - 1e-8


def test_permutation_equivariance():
    rng = np.random.default_rng(42)
    for trial in range(5):
        pos = random_positions(5, seed=100 + trial)
        g = gf.build_knn_graph(pos, 2)
        perm = rng.permutation(5)
        permuted = gf.NodePositions(
            coords=pos.coords[perm],
            node_ids=tuple(pos.node_ids[i] for i in perm),
        )
        g_perm = gf.build_knn_graph(permuted, 2)
        p = np.eye(5)[perm]
        assert np.abs(g_perm.weights - p @ g.weights @ p.T).max() <= 1e-12
        assert np.abs(g_perm.laplacian - p @ g.laplacian @ p.T).max() <= 1e-12


def test_sensor_graph_invariant_validation():
    w = np.array([[0.0, 1.0], [0.5, 0.0]])  # asymmetric
    with pytest.raises(ValueError):
        gf.SensorGraph(
            n_nodes=2, edges=((0, 1),), weights=w,
            laplacian=np.diag(w.sum(axis=1)) - w, sigma=1.0,
        )
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        gf.SensorGraph(n_nodes=2, edges=(), weights=w,
                       laplacian=np.diag(w.sum(axis=1)) - w, sigma=1.0)


def test_edge_list_export(tmp_path):
    pos = gf.NodePositions(
        coords=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), node_ids=("a", "b", "c")
    )
    g = gf.build_knn_graph(pos, 1)
    out = tmp_path / "edges.csv"
    gf.write_edge_list(g, pos.node_ids, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "src_id,dst_id,weight"
    assert lines[1].startswith("a,b,")
    assert lines[2].startswith("b,c,")
    assert float(lines[1].split(",")[2]) == pytest.approx(math.exp(-1), rel=1e-11)
