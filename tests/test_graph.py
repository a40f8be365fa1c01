import math
import warnings

import numpy as np
import pytest

import graphfill as gf
from graphfill.errors import InvalidInput

from graphfill.cli import _graph_block
from graphfill.graph import _reachable

from conftest import (
    bfs_components,
    bfs_reachable,
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


def _loop_knn_weights(positions, k):
    """W and sigma of the kNN rule as per-node loops, the reference for
    build_knn_graph's vectorized neighbour choice."""
    n = positions.n_nodes
    delta = positions.coords[:, None, :] - positions.coords[None, :, :]
    dist = np.sqrt((delta * delta).sum(axis=-1))
    edges = set()
    for i in range(n):
        row = dist[i].copy()
        row[i] = np.inf
        for j in np.lexsort((np.arange(n), row))[:k]:
            edges.add((min(i, int(j)), max(i, int(j))))
    edges = sorted(edges)
    sigma = float(np.mean([dist[i, j] for i, j in edges]))
    w = np.zeros((n, n))
    for i, j in edges:
        w[i, j] = w[j, i] = np.exp(-dist[i, j] ** 2 / sigma**2)
    return w, sigma


def _lattice(side):
    xs, ys = np.meshgrid(np.arange(float(side)), np.arange(float(side)))
    coords = np.column_stack([xs.ravel(), ys.ravel()])
    return gf.NodePositions(coords=coords, node_ids=tuple(map(str, range(side * side))))


@pytest.mark.parametrize(
    "positions,k",
    [
        *((random_positions(n, seed), k) for seed in range(3)
          for n, k in [(4, 2), (6, 3), (12, 5), (50, 5), (30, 29)]),
        (_lattice(5), 4),  # every node has tied neighbours
        (outlier_positions(), 5),
    ],
)
def test_knn_graph_matches_per_node_loop_bit_for_bit(positions, k):
    g = gf.build_knn_graph(positions, k)
    w, sigma = _loop_knn_weights(positions, k)
    assert g.weights.tobytes() == w.tobytes()
    assert g.sigma == sigma


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
    with pytest.raises(InvalidInput, match="^k=4 but the graph has only 4 nodes$"):
        gf.build_knn_graph(pos, 4)
    with pytest.raises(ValueError):
        gf.build_knn_graph(pos, 0)


def test_duplicate_coordinates_rejected():
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    pos = gf.NodePositions(coords=coords, node_ids=("a", "b", "c"))
    with pytest.raises(InvalidInput, match="^nodes 'a' and 'c' coincide$"):
        gf.build_knn_graph(pos, 1)


def test_overflowing_edge_distance_names_the_nodes():
    # the squared distances overflow; without the edge check this surfaced
    # as RuntimeWarnings and "weights must be finite", naming no node
    coords = np.array([[0.0, 0.0], [1e160, 0.0], [0.0, 2e160]])
    pos = gf.NodePositions(coords=coords, node_ids=("a", "b", "c"))
    with pytest.raises(ValueError, match="nodes 'a' and 'b' overflows; scale the coordinates down"):
        gf.build_knn_graph(pos, 1)


def test_overflow_between_non_neighbours_is_harmless():
    # two clusters 1e160 apart: only distances across them overflow, and
    # with k = 1 no edge crosses, so the graph builds without a warning
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1e160, 1e160], [1.0000001e160, 1e160]])
    g = gf.build_knn_graph(gf.NodePositions(coords=coords, node_ids=tuple("abcde")), 1)
    assert g.edges == ((0, 1), (0, 2), (3, 4))
    assert np.isfinite(g.weights).all() and np.isfinite(g.sigma)


def test_node_positions_validation():
    with pytest.raises(ValueError):
        gf.NodePositions(coords=np.array([[0.0, 0.0]]), node_ids=("a",))
    with pytest.raises(ValueError):
        gf.NodePositions(coords=np.zeros((2, 2)), node_ids=("a", "a"))


def test_p2_eigenvalues():
    g = unit_path_graph(2)
    assert g.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)


def test_zero_eigenvalue_has_constant_eigenvector():
    g = random_geometric_graph(6, 2, seed=3)
    lam, u = g.eigenvalues, g.eigenvectors
    assert abs(lam[0]) <= 1e-8
    v = u[:, 0]
    assert np.abs(v - v[0]).max() <= 1e-8  # proportional to the all-ones vector


def test_disconnected_graph_zero_multiplicity():
    # two distant pairs, k=1: each pair only links internally
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 100.0], [101.0, 100.0]])
    g = gf.build_knn_graph(gf.NodePositions(coords=coords, node_ids=tuple("abcd")), 1)
    lam = g.eigenvalues
    assert int(np.sum(np.abs(lam) < 1e-10)) == 2


def test_far_outlier_is_isolated_not_rejected():
    g = gf.build_knn_graph(outlier_positions(), 5)
    support = {(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(g.weights, 1)))}
    assert set(g.edges) == support
    assert not g.weights[59].any()
    assert not any(59 in edge for edge in g.edges)
    assert not g.laplacian[59].any() and not g.laplacian[:, 59].any()
    assert np.array_equal(g.laplacian, np.diag(g.weights.sum(axis=1)) - g.weights)
    assert g.sigma > 1.0  # the outlier's dropped edges still count towards sigma
    lam = g.eigenvalues
    assert int(np.sum(np.abs(lam) < 1e-10)) == 2


def test_spectral_reconstruction_and_orthonormality():
    g = random_geometric_graph(9, 3, seed=11)
    lam, u = g.eigenvalues, g.eigenvectors
    assert np.abs(u.T @ u - np.eye(9)).max() <= 1e-8
    assert np.abs((u * lam) @ u.T - g.laplacian).max() <= 1e-8
    assert np.all(np.diff(lam) >= -1e-12)


def test_eigenvector_sign_convention():
    g = random_geometric_graph(7, 2, seed=4)
    u = g.eigenvectors
    for col in range(7):
        v = u[:, col]
        first = v[np.abs(v) > 1e-12][0]
        assert first > 0


def test_spectrum_is_read_only_and_deterministic():
    g = random_geometric_graph(6, 2, seed=8)
    assert not g.eigenvalues.flags.writeable and not g.eigenvectors.flags.writeable
    g_again = random_geometric_graph(6, 2, seed=8)
    assert g.eigenvalues.tobytes() == g_again.eigenvalues.tobytes()
    assert g.eigenvectors.tobytes() == g_again.eigenvectors.tobytes()


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
    # every beta goes through the spectrum; an integer one must equal the
    # repeated product of L + eps*I
    g = random_geometric_graph(7, 3, seed=10)
    integer_path = np.linalg.matrix_power(g.laplacian + 0.3 * np.eye(7), beta)
    spectral_path = gf.sobolev_operator(g, 0.3, float(beta))
    assert np.abs(integer_path - spectral_path).max() <= 1e-8


def test_sobolev_fractional_beta_with_zero_epsilon():
    # lambda_1 is a tiny signed zero; the fractional power must clamp it
    g = random_geometric_graph(6, 2, seed=7)
    b = gf.sobolev_operator(g, 0.0, 1.5)
    assert np.isfinite(b).all()
    assert np.linalg.eigvalsh(b).min() >= -1e-8


def test_sobolev_fractional_beta_clips_rounding_below_zero():
    # scaling W by 1e8 leaves lambda_1 at about -6.6e-8: rounding, as L is PSD
    base = gf.build_knn_graph(gf.synthetic_dataset(seed=0).positions, 5)
    g = gf.SensorGraph(base.weights * 1e8, base.sigma)
    lam, u = g.eigenvalues, g.eigenvectors
    assert lam[0] < -1e-8
    b = gf.sobolev_operator(g, 0.0, 1.5)
    want = u @ np.diag(np.clip(lam, 0.0, None) ** 1.5) @ u.T
    assert np.abs(b - want).max() <= 1e-12 * np.abs(want).max()


def test_sobolev_operator_is_symmetric_and_read_only():
    g = random_geometric_graph(5, 2, seed=1)
    for beta in (1.5, 2.0):  # spectral and integer paths
        b = gf.sobolev_operator(g, 0.5, beta)
        assert np.array_equal(b, gf.sobolev_operator(g, 0.5, beta))
        assert np.array_equal(b, b.T) and not b.flags.writeable


def test_sobolev_parameter_validation():
    g = unit_path_graph(3)
    with pytest.raises(ValueError):
        gf.sobolev_operator(g, -0.1, 1.0)
    with pytest.raises(ValueError):
        gf.sobolev_operator(g, 0.1, 0.0)


def test_shift_makes_laplacian_invertible():
    g = random_geometric_graph(6, 2, seed=12)
    lam = g.eigenvalues
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
    with pytest.raises(ValueError, match="not symmetric"):
        gf.SensorGraph(np.array([[0.0, 1.0], [0.5, 0.0]]), sigma=1.0)
    # the tolerance is relative to the largest weight, so a one-sided edge
    # is asymmetric however small it is
    with pytest.raises(ValueError, match="not symmetric"):
        gf.SensorGraph(np.array([[0.0, 1e-11], [0.0, 0.0]]), sigma=1.0)
    w = np.array([[0.0, 1e-11], [1e-11 * (1 + 1e-12), 0.0]])
    assert gf.SensorGraph(w, sigma=1.0).edges == ((0, 1),)


@pytest.mark.parametrize("n", [3, 2])
def test_sensor_graph_rejects_overflowing_degrees(n):
    # three nodes: the degree sum overflows; two: the degree is finite, but
    # L's largest eigenvalue, twice the degree, is not
    w = np.full((n, n), 1e308) - np.diag(np.full(n, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="node degrees of W overflow"):
            gf.SensorGraph(w, sigma=1.0)


def test_sensor_graph_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="nonzero diagonal"):
        gf.SensorGraph(np.array([[0.0, 1.0], [1.0, 0.5]]), sigma=1.0)


def test_sensor_graph_rejects_negative_weight():
    with pytest.raises(ValueError, match="nonnegative"):
        gf.SensorGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]), sigma=1.0)
    # checked before symmetry, whose W - W^T would overflow here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="nonnegative"):
            gf.SensorGraph(np.array([[0.0, 1e308], [-1e308, 0.0]]), sigma=1.0)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_sensor_graph_rejects_non_square(shape):
    with pytest.raises(ValueError, match="must be N x N"):
        gf.SensorGraph(np.zeros(shape), sigma=1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_sensor_graph_rejects_non_finite_weight(value):
    # NaN and inf pass the symmetry and sign checks, and eigh returns NaN
    # eigenpairs for them without raising
    with pytest.raises(ValueError, match="finite"):
        gf.SensorGraph(np.array([[0.0, value], [value, 0.0]]), sigma=1.0)


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
def test_sensor_graph_sigma_must_be_positive_with_edges(sigma):
    with pytest.raises(ValueError, match="sigma must be positive"):
        gf.SensorGraph(np.array([[0.0, 1.0], [1.0, 0.0]]), sigma=sigma)
    assert gf.SensorGraph(np.zeros((2, 2)), sigma=sigma).n_edges == 0


def test_path_graph_edges_and_laplacian_derived_from_w():
    g = unit_path_graph(4)
    assert g.n_nodes == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    expected = np.array(
        [[1.0, -1.0, 0.0, 0.0], [-1.0, 2.0, -1.0, 0.0],
         [0.0, -1.0, 2.0, -1.0], [0.0, 0.0, -1.0, 1.0]]
    )
    assert np.array_equal(g.laplacian, expected)
    assert not g.weights.flags.writeable and not g.laplacian.flags.writeable


def test_edges_are_support_of_w_in_row_major_order():
    w = np.zeros((4, 4))
    for i, j, value in [(2, 3, 0.5), (0, 3, 1e-300), (1, 2, 2.0)]:
        w[i, j] = w[j, i] = value
    g = gf.SensorGraph(w, sigma=1.0)
    assert g.edges == ((0, 3), (1, 2), (2, 3))  # column-major would put (1, 2) first
    assert np.array_equal(g.laplacian, np.diag(w.sum(axis=1)) - w)


@pytest.mark.parametrize("n", range(2, 71))
def test_reachable_spans_a_path(n):
    # a path is the longest chain on n nodes, so it needs every one of the
    # ceil(log2 n) squarings, at n = 2**k and 2**k + 1 as anywhere
    adjacency = unit_path_graph(n).weights > 0
    reach = _reachable(adjacency)
    assert reach.all() and np.array_equal(reach, bfs_reachable(adjacency))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n, far, k, outlier_linked", [
    (11, (30.0, 30.0), 2, True),  # its weights are at most 1e-20: tiny, but in W
    (60, (1000.0, 1000.0), 5, False),  # its weights underflow to 0: no edge
], ids=["tiny-weight", "underflowed"])
def test_reachable_matches_bfs_on_knn_graphs_with_a_far_outlier(seed, n, far, k,
                                                                 outlier_linked):
    coords = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n + seed, 2))
    coords[-1] = far
    g = gf.build_knn_graph(gf.NodePositions(coords, tuple(map(str, range(len(coords))))), k)
    adjacency = g.weights > 0
    reach = _reachable(adjacency)
    assert np.array_equal(reach, bfs_reachable(adjacency))
    assert reach[-1, :-1].any() == outlier_linked
    if outlier_linked:
        assert 0 < g.weights[-1].max() < 1e-20
    assert _graph_block(g)["components"] == bfs_components(g.weights)
