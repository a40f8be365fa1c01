import numpy as np
import pytest

import graphfill as gf
from graphfill.errors import InvalidInput
from graphfill.harness import masked_problem
from graphfill.temporal import check_signal

from conftest import dataset_of, masked, random_geometric_graph, unit_path_graph


def objective_by_hand(xbar, y, j, b, gamma):
    """Entrywise re-evaluation of the reconstruction objective."""
    n, m = xbar.shape
    data = 0.0
    for i in range(n):
        for t in range(m):
            data += (j[i, t] * xbar[i, t] - y[i, t]) ** 2
    z = np.zeros((n, m - 1))
    for i in range(n):
        for t in range(m - 1):
            z[i, t] = xbar[i, t + 1] - xbar[i, t]
    reg = 0.0
    for t in range(m - 1):
        reg += z[:, t] @ b @ z[:, t]
    return 0.5 * data + 0.5 * gamma * reg


def test_difference_operator_m2():
    d = gf.temporal_difference_operator(2)
    assert d.shape == (2, 1)
    assert np.array_equal(d, np.array([[-1.0], [1.0]]))


def test_difference_operator_m3():
    d = gf.temporal_difference_operator(3)
    assert np.array_equal(d, np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("m", [2, 3, 7, 20])
def test_difference_operator_column_structure(m):
    d = gf.temporal_difference_operator(m)
    assert d.shape == (m, m - 1)
    assert np.abs(d.sum(axis=0)).max() == 0.0
    for col in range(m - 1):
        values = d[:, col]
        assert np.count_nonzero(values) == 2
        assert values[col] == -1.0 and values[col + 1] == 1.0


def test_difference_operator_too_short():
    with pytest.raises(InvalidInput, match="^need at least 2 snapshots, got 1$"):
        gf.temporal_difference_operator(1)


def test_temporal_difference_constant_signal():
    x = np.tile([[2.0], [5.0]], (1, 6))
    assert np.abs(x @ gf.temporal_difference_operator(6)).max() == 0.0


def test_temporal_difference_by_hand():
    x = np.array([[1.0, 3.0, 4.0], [1.0, 2.0, 0.0]])
    expected = np.array([[2.0, 1.0], [1.0, -2.0]])
    assert np.array_equal(x @ gf.temporal_difference_operator(3), expected)


def test_temporal_difference_matches_matrix_product(rng):
    # the objective differences with np.diff, the dense oracle with D
    x = rng.normal(size=(4, 6))
    d = gf.temporal_difference_operator(6)
    assert np.abs(np.diff(x, axis=1) - x @ d).max() <= 1e-12


def test_signal_validation():
    # every rule of the former TimeVaryingSignal constructor, with its message
    for bad in (np.array([[np.nan, 1.0], [0.0, 2.0]]), np.array([[1.0, np.inf], [0.0, 2.0]])):
        with pytest.raises(ValueError, match="^signal entries must be finite$"):
            check_signal(bad)
    for bad in (np.ones(5), np.ones((2, 2, 2)), 3.0):
        with pytest.raises(ValueError, match="^signal must be a 2-D matrix, got shape"):
            check_signal(bad)
    for bad in (np.ones((1, 5)), np.ones((3, 0))):
        with pytest.raises(ValueError, match=r"^signal needs >= 2 nodes and >= 1 snapshot"):
            check_signal(bad)
    ints = check_signal(np.array([[1, 2], [3, 4]]))
    assert ints.dtype == float and ints.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert check_signal([[1, 2]] * 2).dtype == float
    assert check_signal(np.ones((2, 1))).shape == (2, 1)
    assert not ints.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ints[0, 0] = 5.0


def test_check_signal_copies_only_writeable_input():
    caller = np.ones((2, 3))
    signal = check_signal(caller)
    assert signal is not caller and not np.shares_memory(signal, caller)
    assert caller.flags.writeable
    caller[0, 0] = 7.0
    assert signal[0, 0] == 1.0
    assert check_signal(signal) is signal


def test_dataset_signal_is_checked():
    # TimeVaryingSignal is left only as Dataset.signal's type; it runs check_signal
    wrapped = gf.TimeVaryingSignal(values=np.array([[1, 2], [3, 4]]))
    assert wrapped.values.dtype == float and not wrapped.values.flags.writeable
    with pytest.raises(ValueError, match="finite"):
        gf.TimeVaryingSignal(values=np.array([[np.nan, 1.0], [0.0, 2.0]]))
    assert not hasattr(wrapped, "n_nodes") and not hasattr(wrapped, "n_steps")


def _signal_calls():
    """name -> (function, valid arguments, positions of its signal arguments)."""
    graph = unit_path_graph(4)
    mask = gf.random_mask(4, 3, 0.5, seed=0)
    y = np.where(mask, np.arange(12.0).reshape(4, 3) / 11.0, 0.0)
    b = gf.sobolev_operator(graph, 0.5, 1.0)
    config = gf.SobolevConfig()
    return {
        "check_signal": (check_signal, [y], (0,)),
        "sobolev_objective": (gf.sobolev_objective, [y, y, mask, b, 0.5], (0, 1)),
        "objective_gradient": (gf.objective_gradient, [y, y, mask, b, 0.5], (0, 1)),
        "reconstruct_sobolev": (gf.reconstruct_sobolev, [y, mask, graph, config], (0,)),
        "dense_oracle_solve": (gf.dense_oracle_solve, [y, mask, graph, config], (0,)),
        "error_report": (gf.error_report, [y, y + 1.0, ~mask], (0, 1)),
        "unscale": (masked_problem(dataset_of(y), 1.0, 0)[3], [y], (0,)),
        "knn_baseline_impute": (gf.knn_baseline_impute, [y, mask, graph], (0,)),
    }


SIGNAL_ARGUMENTS = [
    (name, position) for name, (_, _, positions) in _signal_calls().items()
    for position in positions
]


@pytest.mark.parametrize("name, position", SIGNAL_ARGUMENTS)
def test_signal_arguments_are_checked(name, position):
    function, args, _ = _signal_calls()[name]
    function(*args)  # the valid call runs
    bad = list(args)
    bad[position] = args[position].copy()
    bad[position][1, 1] = np.nan
    with pytest.raises(ValueError, match="^signal entries must be finite$"):
        function(*bad)
    bad[position] = gf.TimeVaryingSignal(values=args[position])
    with pytest.raises(TypeError, match="TimeVaryingSignal"):
        function(*bad)


@pytest.mark.parametrize("name", [
    "check_signal", "objective_gradient", "reconstruct_sobolev", "dense_oracle_solve",
    "unscale", "knn_baseline_impute",
])
def test_signal_results_do_not_alias_their_inputs(name):
    function, args, positions = _signal_calls()[name]
    args = [a.copy() if i in positions else a for i, a in enumerate(args)]
    result = function(*args)
    result = getattr(result, "xbar", result)  # the solvers return a ReconstructionResult
    before = result.copy()
    assert not result.flags.writeable and result.dtype == float
    for i in positions:
        assert args[i].flags.writeable
        args[i] += 1.0
    assert np.array_equal(result, before)


def test_objective_zero_at_constant_fit():
    g = unit_path_graph(3)
    b = gf.sobolev_operator(g, 0.3, 1.0)
    y = np.tile([[1.0], [2.0], [0.5]], (1, 4))
    full = np.ones((3, 4), dtype=bool)
    assert gf.sobolev_objective(y, y, full, b, 1.7) == pytest.approx(0.0, abs=1e-12)


def test_objective_matches_entrywise_oracle(rng):
    g = random_geometric_graph(3, 1, seed=5)
    b = gf.sobolev_operator(g, 0.2, 1.5)
    mask = gf.random_mask(3, 4, 0.5, seed=9)
    truth = rng.normal(size=(3, 4))
    y = masked(truth, mask)
    xbar = rng.normal(size=(3, 4))
    expected = objective_by_hand(xbar, y, mask.astype(float), b, 0.8)
    assert gf.sobolev_objective(xbar, y, mask, b, 0.8) == pytest.approx(expected, rel=1e-12)


def test_objective_reduces_to_plain_laplacian_form(rng):
    # with eps = 0, beta = 1 the penalty operator is L itself
    for trial in range(5):
        g = random_geometric_graph(4, 2, seed=20 + trial)
        b = gf.sobolev_operator(g, 0.0, 1.0)
        mask = gf.random_mask(4, 5, 0.5, seed=trial)
        truth = rng.normal(size=(4, 5))
        y = masked(truth, mask)
        xbar = rng.normal(size=(4, 5))
        expected = objective_by_hand(xbar, y, mask.astype(float), g.laplacian, 1.3)
        value = gf.sobolev_objective(xbar, y, mask, b, 1.3)
        assert value == pytest.approx(expected, rel=1e-10)


def test_objective_convex_in_xbar(rng):
    g = random_geometric_graph(4, 2, seed=6)
    b = gf.sobolev_operator(g, 0.5, 1.0)
    mask = gf.random_mask(4, 4, 0.5, seed=3)
    y = masked(rng.normal(size=(4, 4)), mask)
    for _ in range(10):
        x1 = rng.normal(size=(4, 4))
        x2 = rng.normal(size=(4, 4))
        alpha = rng.uniform(0.05, 0.95)
        blend = alpha * x1 + (1 - alpha) * x2
        f_blend = gf.sobolev_objective(blend, y, mask, b, 0.9)
        f1 = gf.sobolev_objective(x1, y, mask, b, 0.9)
        f2 = gf.sobolev_objective(x2, y, mask, b, 0.9)
        assert f_blend <= alpha * f1 + (1 - alpha) * f2 + 1e-9


def test_duplicated_final_column_preserves_regularizer(rng):
    g = random_geometric_graph(5, 2, seed=7)
    b = gf.sobolev_operator(g, 0.2, 1.0)
    x = rng.normal(size=(5, 6))
    extended = np.hstack([x, x[:, -1:]])
    diff = np.diff(extended, axis=1)
    assert np.abs(diff[:, -1]).max() == 0.0
    y = np.zeros_like(x)
    y_ext = np.zeros_like(extended)
    unobserved = np.zeros(x.shape, dtype=bool)
    unobserved_ext = np.zeros(extended.shape, dtype=bool)
    reg = gf.sobolev_objective(x, y, unobserved, b, 2.0)
    reg_ext = gf.sobolev_objective(extended, y_ext, unobserved_ext, b, 2.0)
    assert reg_ext == pytest.approx(reg, rel=1e-9, abs=1e-12)
