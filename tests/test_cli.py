import csv
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphfill as gf
from graphfill import cli, errors, harness, solver
from graphfill.cli import main
from graphfill.harness import masked_problem

from conftest import bfs_components, outlier_positions


@pytest.fixture
def fixture_files(tmp_path):
    positions = tmp_path / "positions.csv"
    readings = tmp_path / "readings.csv"
    rng = np.random.default_rng(0)
    n, m = 8, 12
    coords = rng.uniform(0, 5, size=(n, 2))
    positions.write_text(
        "node_id,x,y\n"
        + "".join(f"s{i},{coords[i,0]:.4f},{coords[i,1]:.4f}\n" for i in range(n))
    )
    values = rng.normal(10.0, 2.0, size=(n, m))
    readings.write_text(
        "node_id,time_index,value\n"
        + "".join(f"s{i},{t},{values[i,t]:.6f}\n" for i in range(n) for t in range(m))
    )
    return positions, readings


def reconstruct_args(positions, readings, out, **overrides):
    flags = {
        "--positions": str(positions),
        "--readings": str(readings),
        "--k": "2",
        "--epsilon": "0.5",
        "--beta": "1.0",
        "--gamma": "0.5",
        "--density": "0.5",
        "--seed": "0",
        "--out": str(out),
    }
    flags.update(overrides)
    argv = ["reconstruct"]
    for key, value in flags.items():
        argv += [key, value]
    return argv


# A weaker regularizer under which the fixture's reconstruct solves by CG; at
# the default gamma it takes the direct path.
CG_GAMMA = {"--gamma": "0.05"}

METHODS = ["sobolev", "tikhonov", "knn_baseline"]


def _write_config(path, doc, overrides):
    doc.update(overrides)
    path.write_text(json.dumps({key: value for key, value in doc.items() if value is not None}))
    return path


# Tests parametrized by "experiment" and "gridsearch" run `graphfill gridsearch`
# with experiment_config and gridsearch_config respectively.
def experiment_config(tmp_path, **overrides):
    """A gridsearch config that runs the paper's experiment: all three methods
    at one density, on one-point grids. An override of None drops the key."""
    doc = {
        "density": 0.3,
        "eps_grid": [0.5],
        "beta_grid": [1.0],
        "gamma_grid": [0.5],
        "repetitions": 3,
        "master_seed": 0,
        "k_graph": 3,
        "methods": METHODS,
    }
    return _write_config(tmp_path / "config.json", doc, overrides)


def gridsearch_config(tmp_path, **overrides):
    """A Sobolev-only gridsearch config on one-point grids."""
    doc = {
        "density": 0.5,
        "eps_grid": [0.5],
        "beta_grid": [1.0],
        "gamma_grid": [0.3],
        "repetitions": 2,
        "master_seed": 0,
        "k_graph": 3,
    }
    return _write_config(tmp_path / "grid.json", doc, overrides)


def test_reconstruct_happy_path(tmp_path, fixture_files, capsys):
    positions, readings = fixture_files
    out = tmp_path / "recon"
    assert main(reconstruct_args(positions, readings, out, **CG_GAMMA)) == 0
    lines = (tmp_path / "recon.csv").read_text().splitlines()
    assert lines[0] == "node_id,time_index,value"
    assert len(lines) == 1 + 8 * 12
    doc = json.loads((tmp_path / "recon.json").read_text())
    assert doc["rmse"] is not None and doc["rmse"] >= 0
    assert doc["n_evaluated"] == 8 * 12 // 2
    assert doc["iterations"] >= 1


def test_reconstruct_creates_missing_out_directory(tmp_path, fixture_files):
    positions, readings = fixture_files
    out = tmp_path / "missing" / "recon"
    assert main(reconstruct_args(positions, readings, out)) == 0
    assert (tmp_path / "missing" / "recon.csv").exists()
    assert (tmp_path / "missing" / "recon.json").exists()


def test_reconstruct_csv_bytes_match_csv_writer(tmp_path):
    # node ids that need quoting, an empty id, an id with the writer's format
    # character %, and a natively missing reading
    ids = ["a,1", 'say "hi"', "", "d", "50%"]
    coords = [(0.0, 0.0), (1.0, 0.2), (0.3, 1.1), (1.4, 1.3), (2.0, 0.4)]
    rng = np.random.default_rng(3)
    positions = tmp_path / "p.csv"
    readings = tmp_path / "r.csv"
    with positions.open("w", newline="") as fh:
        csv.writer(fh).writerows([("node_id", "x", "y")] + [(n, *xy) for n, xy in zip(ids, coords)])
    with readings.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("node_id", "time_index", "value"))
        for n in ids:
            for t in range(0, 30, 3):
                if (n, t) != ("", 6):
                    writer.writerow((n, t, rng.normal(20.0, 3.0)))
    out = tmp_path / "recon"
    assert main(reconstruct_args(positions, readings, out)) == 0

    # the same reconstruction through the library, rendered by csv.writer
    ds = gf.load_dataset(positions, readings)
    graph = gf.build_knn_graph(ds.positions, 2)
    observed, _, y, unscale = masked_problem(ds, 0.5, 0)
    result = gf.reconstruct_sobolev(
        y, observed, graph, gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=0.5)
    )
    recon = unscale(result.xbar)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["node_id", "time_index", "value"])
    for i, n in enumerate(ds.positions.node_ids):
        for c, t in enumerate(ds.time_indices):
            writer.writerow([n, t, format(recon[i, c], ".12g")])
    assert (tmp_path / "recon.csv").read_bytes() == expected.getvalue().encode()
    assert b'"a,1",0,' in (tmp_path / "recon.csv").read_bytes()


def test_reconstruct_writes_quoted_line_break_back(tmp_path):
    positions = tmp_path / "p.csv"
    readings = tmp_path / "r.csv"
    positions.write_text('node_id,x,y\n"a\nb",0,0\nc,1,0\nd,0,1\n')
    readings.write_text(
        "node_id,time_index,value\n"
        + "".join(f'"a\nb",{t},{t}.5\nc,{t},2\nd,{t},{t}\n' for t in range(4))
    )
    out = tmp_path / "recon"
    assert main(reconstruct_args(positions, readings, out)) == 0
    written = tmp_path / "recon.csv"
    assert written.read_bytes().startswith(b'node_id,time_index,value\n"a\nb",0,')
    assert gf.load_dataset(positions, written).positions.node_ids == ("a\nb", "c", "d")


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_reconstruct_drops_node_whose_readings_are_all_empty(tmp_path, seed):
    # every row of d has an empty value: d is dropped, not left to be
    # "never observed" by every mask
    positions = tmp_path / "p.csv"
    readings = tmp_path / "r.csv"
    positions.write_text("node_id,x,y\na,0,0\nb,1,0\nc,0,1\nd,1,1\n")
    values = np.random.default_rng(0).normal(10.0, 2.0, size=(3, 6))
    readings.write_text(
        "node_id,time_index,value\n"
        + "".join(f"{n},{t},{values[i, t]:.4f}\n" for i, n in enumerate("abc") for t in range(6))
        + "".join(f"d,{t},\n" for t in range(6))
    )
    out = tmp_path / "recon"
    with pytest.warns(UserWarning, match="^dropping nodes with no readings: d$"):
        assert main(reconstruct_args(positions, readings, out, **{"--k": "1", "--seed": seed})) == 0
    rows = (tmp_path / "recon.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 6 and not any(row.startswith("d,") for row in rows)


def test_reconstruct_readings_too_wide_to_scale_exit_2(tmp_path, fixture_files, capsys):
    positions, readings = fixture_files
    _write_readings(readings, np.random.default_rng(1).choice([-1.5e308, 1.5e308], size=(8, 12)))
    assert main(reconstruct_args(positions, readings, tmp_path / "recon")) == 2
    assert capsys.readouterr().err == (
        "graphfill: the observed readings range from -1.5e+308 to 1.5e+308, wider than "
        "floating point can hold; scale the readings down\n"
    )


@pytest.mark.parametrize("name", ["run.2024", "run.2024.csv", "run.2024.json"])
@pytest.mark.parametrize("command", ["reconstruct", "experiment", "gridsearch"])
def test_out_drops_only_a_csv_or_json_suffix(tmp_path, fixture_files, command, name):
    positions, readings = fixture_files
    out = tmp_path / "out"
    if command == "reconstruct":
        argv = reconstruct_args(positions, readings, out / name)
    else:
        config = (experiment_config if command == "experiment" else gridsearch_config)(tmp_path)
        argv = ["gridsearch", "--positions", str(positions), "--readings", str(readings),
                "--config", str(config), "--out", str(out / name)]
    assert main(argv) == 0
    assert sorted(path.name for path in out.iterdir()) == ["run.2024.csv", "run.2024.json"]


def test_reconstruct_missing_gamma_exits_2(tmp_path, fixture_files, capsys):
    positions, readings = fixture_files
    argv = reconstruct_args(positions, readings, tmp_path / "x")
    idx = argv.index("--gamma")
    del argv[idx : idx + 2]
    assert main(argv) == 2
    assert "--gamma" in capsys.readouterr().err


def test_reconstruct_bad_density_exits_2(tmp_path, fixture_files, capsys):
    positions, readings = fixture_files
    argv = reconstruct_args(positions, readings, tmp_path / "x", **{"--density": "1.1"})
    assert main(argv) == 2
    assert "density" in capsys.readouterr().err


def test_reconstruct_negative_seed_exits_2_before_reading(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    argv = reconstruct_args(missing, missing, tmp_path / "x", **{"--seed": "-1"})
    assert main(argv) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "nan", "1.5"])
def test_reconstruct_min_coverage_out_of_range_exits_2(tmp_path, fixture_files, capsys, value):
    positions, readings = fixture_files
    argv = reconstruct_args(positions, readings, tmp_path / "x", **{"--min-coverage": value})
    assert main(argv) == 2
    assert f"min_coverage must be in [0, 1], got {float(value)}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_reconstruct_malformed_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    argv = reconstruct_args(bad, bad, tmp_path / "x")
    assert main(argv) == 2


def test_unknown_flag_rejected(tmp_path, fixture_files, capsys):
    positions, readings = fixture_files
    argv = reconstruct_args(positions, readings, tmp_path / "x") + ["--bogus", "1"]
    assert main(argv) == 2


def test_reconstruct_non_convergence_exits_3(tmp_path, fixture_files, capsys, monkeypatch):
    positions, readings = fixture_files
    # the cell runs CG, whose iteration budget is cut to one
    ds = gf.load_dataset(positions, readings)
    graph = gf.build_knn_graph(ds.positions, 2)
    mask = gf.random_mask(ds.n_nodes, ds.n_steps, 0.5, seed=0) & ds.native_mask
    cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=float(CG_GAMMA["--gamma"]))
    assert not solver._takes_direct_path(graph, cfg, mask.astype(float))
    monkeypatch.setattr(solver, "_CG_MAX_ITERATIONS", 1)
    assert main(reconstruct_args(positions, readings, tmp_path / "out" / "x", **CG_GAMMA)) == 3
    assert "graphfill: solver did not converge within 1 iterations" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("density", ["0.5", "1.0"])
def test_reconstruct_one_snapshot_exits_2_at_every_density(tmp_path, capsys, density):
    # the snapshot count is checked before the mask draw, whose coverage
    # check would otherwise fail first at densities below 1
    positions, readings = tmp_path / "positions.csv", tmp_path / "readings.csv"
    coords = np.random.default_rng(0).uniform(0, 5, size=(30, 2))
    positions.write_text("node_id,x,y\n" + "".join(f"s{i},{x:.4f},{y:.4f}\n"
                                                   for i, (x, y) in enumerate(coords)))
    readings.write_text("node_id,time_index,value\n"
                        + "".join(f"s{i},0,{i % 7}.5\n" for i in range(30)))
    argv = reconstruct_args(positions, readings, tmp_path / "x", **{"--density": density})
    assert main(argv) == 2
    assert capsys.readouterr().err == "graphfill: reconstruction needs at least 2 snapshots\n"


@pytest.mark.parametrize("flag", ["--cg-tolerance", "--max-iterations"])
def test_reconstruct_removed_solver_flags_exit_2(tmp_path, fixture_files, capsys, flag):
    positions, readings = fixture_files
    argv = reconstruct_args(positions, readings, tmp_path / "x") + [flag, "1"]
    assert main(argv) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--epsilon", "--beta", "--gamma"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_reconstruct_non_finite_hyperparameter_exits_2(tmp_path, fixture_files, capsys,
                                                        flag, value):
    positions, readings = fixture_files
    argv = reconstruct_args(positions, readings, tmp_path / "x", **{flag: value})
    assert main(argv) == 2
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err


def test_reconstruct_folds_natively_missing_entries(tmp_path, fixture_files):
    positions, readings = fixture_files
    # knock readings out of the source file: they must not be scored
    lines = readings.read_text().splitlines()
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("\n".join(lines[:1] + lines[7:]) + "\n")
    out = tmp_path / "sparse_out"
    assert main(reconstruct_args(positions, sparse, out)) == 0
    doc = json.loads((tmp_path / "sparse_out.json").read_text())

    # only artificially hidden cells with ground truth are scored
    native = np.ones((8, 12), dtype=bool)
    native[0, :6] = False  # the six removed readings all belong to node s0
    drawn = gf.random_mask(8, 12, 0.5, seed=0)
    expected = int((~drawn & native).sum())
    assert doc["n_evaluated"] == expected < 8 * 12 // 2
    assert doc["rmse"] is not None


def test_experiment_on_synthetic(tmp_path, capsys):
    config = experiment_config(tmp_path)
    out = tmp_path / "exp"
    code = main(
        ["gridsearch", "--synthetic", "--config", str(config), "--out", str(out)]
    )
    assert code == 0
    lines = (tmp_path / "exp.csv").read_text().splitlines()
    assert lines[0] == "method,epsilon,beta,gamma,rmse_mean,rmse_std,mae_mean,mae_std,reps,failed"
    assert [line.split(",")[:4] for line in lines[1:]] == [
        ["sobolev", "0.5", "1", "0.5"], ["tikhonov", "0", "1", "0.5"], ["knn_baseline", "", "", ""]
    ]
    doc = json.loads((tmp_path / "exp.json").read_text())
    assert [e["method"] for e in doc["entries"]] == METHODS
    assert doc["entries"][2]["config"] is None
    assert all([rep["seed"] for rep in e["per_rep"]] == [0, 1, 2] for e in doc["entries"])
    assert set(doc["best"]) == set(METHODS)  # the JSON sorts its keys
    assert doc["best"]["knn_baseline"] == {key: doc["entries"][2][key]
                                           for key in ("config", "rmse_mean", "mae_mean")}
    assert doc["config_echo"]["k_graph"] == 3
    best = capsys.readouterr().out.splitlines()[:3]
    assert [line.split(":")[0] for line in best] == [f"best {m}" for m in METHODS]
    assert best[1].startswith("best tikhonov: epsilon=0 beta=1 gamma=0.5 rmse_mean=")
    assert best[2].startswith("best knn_baseline: rmse_mean=")


def test_experiment_byte_deterministic(tmp_path):
    config = experiment_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(a)]) == 0
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(b)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_experiment_creates_missing_out_directory(tmp_path):
    config = experiment_config(tmp_path, repetitions=1)
    out = tmp_path / "missing" / "exp"
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(out)]) == 0
    assert (tmp_path / "missing" / "exp.csv").exists()
    assert (tmp_path / "missing" / "exp.json").exists()


def test_experiment_tikhonov_rows_labelled(tmp_path):
    # tikhonov searches gamma_grid alone, so the other grids are left out
    config = experiment_config(tmp_path, methods=["tikhonov"], eps_grid=None, beta_grid=None,
                               gamma_grid=[0.1, 0.5])
    out = tmp_path / "tik"
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(out)]) == 0
    rows = (tmp_path / "tik.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:4] for row in rows] == [["tikhonov", "0", "1", "0.1"],
                                                    ["tikhonov", "0", "1", "0.5"]]


def test_experiment_from_csv_files(tmp_path, fixture_files):
    positions, readings = fixture_files
    config = experiment_config(tmp_path, density=0.5, repetitions=2)
    out = tmp_path / "csvexp"
    code = main(
        ["gridsearch", "--positions", str(positions), "--readings", str(readings),
         "--config", str(config), "--out", str(out)]
    )
    assert code == 0
    assert len((tmp_path / "csvexp.csv").read_text().splitlines()) == 1 + len(METHODS)


def test_experiment_bad_config_exits_2(tmp_path, capsys):
    config = experiment_config(tmp_path, mystery_field=1)
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert "mystery_field" in capsys.readouterr().err


def test_gridsearch_failed_cells_are_listed_and_cannot_win(tmp_path, capsys):
    # gamma = 0 with an incomplete mask is singular in both repetitions, for
    # sobolev and tikhonov alike; each method still has a complete cell
    config = experiment_config(tmp_path, repetitions=2, gamma_grid=[0.0, 0.5])
    out = tmp_path / "failing"
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "failing.json").read_text())
    failing = [e for e in doc["entries"] if e["failed_reps"]]
    assert [(e["method"], e["config"]["gamma"]) for e in failing] == [("sobolev", 0.0),
                                                                       ("tikhonov", 0.0)]
    for entry in failing:
        assert [rep["seed"] for rep in entry["failed_reps"]] == [0, 1]
        assert entry["failed_reps"][0]["error"].startswith("SingularSystem: gamma = 0")
        assert entry["per_rep"] == [] and entry["rmse_mean"] is None
    assert doc["best"]["sobolev"]["config"]["gamma"] == 0.5
    assert doc["best"]["tikhonov"]["config"]["gamma"] == 0.5
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["experiment", "gridsearch"])
def test_min_coverage_is_reconstruct_only(tmp_path, capsys, command):
    config = (experiment_config if command == "experiment" else gridsearch_config)(tmp_path)
    argv = ["gridsearch", "--synthetic", "--min-coverage", "1", "--config", str(config),
            "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert "unrecognized arguments: --min-coverage 1" in capsys.readouterr().err


def test_experiment_requires_dataset_flags(tmp_path, capsys):
    config = experiment_config(tmp_path)
    assert main(["gridsearch", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x.csv").exists()


ONE_DATASET = ("name one dataset: --synthetic, with an optional --synthetic-seed, "
               "or --positions and --readings")


@pytest.mark.parametrize("flags, message", [
    (["--synthetic", "--positions", "{positions}", "--readings", "{readings}"], ONE_DATASET),
    (["--synthetic-seed", "5", "--positions", "{positions}", "--readings", "{readings}"],
     ONE_DATASET),
    (["--synthetic", "--synthetic-seed", "-1"], "--synthetic-seed must be >= 0, got -1"),
], ids=["synthetic-and-csvs", "seed-without-synthetic", "negative-synthetic-seed"])
@pytest.mark.parametrize("command", ["experiment", "gridsearch"])
def test_conflicting_dataset_flags_exit_2_writing_nothing(tmp_path, fixture_files, capfd,
                                                          command, flags, message):
    positions, readings = fixture_files
    config = (experiment_config if command == "experiment" else gridsearch_config)(tmp_path)
    out = tmp_path / "out" / "result"
    argv = ["gridsearch", *(f.format(positions=positions, readings=readings) for f in flags),
            "--config", str(config), "--out", str(out)]
    assert main(argv) == 2
    assert capfd.readouterr() == ("", f"graphfill: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["experiment", "gridsearch"])
def test_csv_pair_without_a_complete_node_runs(tmp_path, fixture_files, command):
    # node i misses its reading at time i, so no node has a complete series
    positions, readings = fixture_files
    values = np.random.default_rng(3).normal(10.0, 2.0, size=(8, 12))
    values[np.arange(8), np.arange(8)] = np.nan
    _write_readings(readings, values)
    config = (experiment_config if command == "experiment" else gridsearch_config)(
        tmp_path, repetitions=3)
    out = tmp_path / "result"
    argv = ["gridsearch", "--positions", str(positions), "--readings", str(readings),
            "--config", str(config), "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    assert all(r["failed_reps"] == [] and r["rmse_mean"] > 0 for r in doc["entries"])


@pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
def test_experiment_non_finite_gamma_exits_2(tmp_path, capsys, gamma):
    config = experiment_config(tmp_path, gamma_grid=[gamma])
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert "gamma must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, message",
    [
        ({"gamma_grid": ["0.5"]}, "gamma must be a real number, got '0.5'"),
        ({"eps_grid": [True]}, "epsilon must be a real number, got True"),
        ({"density": "0.5"}, "density must be a real number, got '0.5'"),
        ({"methods": "sobolev"}, "methods must be a JSON list"),
        ({"gamma_grid": 0.5}, "gamma_grid must be a JSON list"),
        ({"repetitions": "3"}, "repetitions must be an integer, got '3'"),
        ({"master_seed": False}, "master_seed must be an integer, got False"),
        ({"k_graph": 3.0}, "k_graph must be an integer, got 3.0"),
        ({"master_seed": -1}, "master_seed must be >= 0, got -1"),
    ],
)
def test_experiment_non_numeric_config_exits_2(tmp_path, capsys, override, message):
    config = experiment_config(tmp_path, **override)
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err


def test_gridsearch_single_point_echoes_config(tmp_path, capsys):
    config = gridsearch_config(tmp_path)
    out = tmp_path / "gridout"
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads(out.with_suffix(".json").read_text())
    assert report["best"]["sobolev"]["config"] == {"epsilon": 0.5, "beta": 1.0, "gamma": 0.3}
    assert len(report["entries"]) == 1
    assert report["entries"][0]["method"] == "sobolev"
    assert capsys.readouterr().out.startswith("best sobolev: epsilon=0.5 beta=1 gamma=0.3 ")


def test_gridsearch_creates_missing_out_directory(tmp_path):
    config = gridsearch_config(tmp_path, repetitions=1)
    out = tmp_path / "missing" / "grid"
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(out)]) == 0
    assert (tmp_path / "missing" / "grid.csv").exists()
    assert (tmp_path / "missing" / "grid.json").exists()


def test_gridsearch_eight_point_grid(tmp_path):
    config = gridsearch_config(
        tmp_path, eps_grid=[0.1, 1.0], beta_grid=[1.0, 2.0], gamma_grid=[0.1, 1.0]
    )
    out = tmp_path / "grid8"
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(out)]) == 0
    rows = (tmp_path / "grid8.csv").read_text().splitlines()
    assert len(rows) == 9  # header + 8 configs
    report = json.loads((tmp_path / "grid8.json").read_text())
    assert len(report["entries"]) == 8
    best = report["best"]["sobolev"]["rmse_mean"]
    assert all(e["rmse_mean"] >= best for e in report["entries"])


def test_gridsearch_empty_grid_exits_2(tmp_path, capsys):
    config = gridsearch_config(tmp_path, eps_grid=[])
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert "eps_grid must be nonempty: one of the methods sobolev searches it" in (
        capsys.readouterr().err)


def test_gridsearch_all_failed_names_the_first_failure(tmp_path, fixture_files, capsys):
    positions, readings = fixture_files
    out = tmp_path / "result"
    config = gridsearch_config(tmp_path, gamma_grid=[0.0])
    argv = ["gridsearch", "--positions", str(positions), "--readings", str(readings),
            "--config", str(config), "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "graphfill: every sobolev configuration had failed repetitions; the first was "
        "epsilon=0.5 beta=1 gamma=0 seed 0: "
        "SingularSystem: gamma = 0 with an incomplete mask\n"
    )
    # both files are written first, and the method without a winner has none
    assert out.with_suffix(".csv").exists()
    assert json.loads(out.with_suffix(".json").read_text())["best"] == {"sobolev": None}


def test_gridsearch_method_without_winner_writes_the_others(tmp_path, capsys):
    # half the readings are natively missing: at density 0.1, tikhonov
    # (epsilon = 0) fails every repetition; both files are still written, and
    # sobolev and the kNN baseline come out as they do without it
    ds = gf.synthetic_dataset(seed=0)
    positions, readings = tmp_path / "positions.csv", tmp_path / "readings.csv"
    positions.write_text("node_id,x,y\n" + "".join(
        f"s{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(ds.positions.coords.tolist())))
    native = np.random.default_rng(1).random(ds.signal.values.shape) >= 0.5
    _write_readings(readings, np.where(native, ds.signal.values, np.nan))

    def run(name, methods):
        config = gridsearch_config(tmp_path, density=0.1, gamma_grid=[0.1, 1.0],
                                   repetitions=4, k_graph=5, methods=methods)
        out = tmp_path / name
        code = main(["gridsearch", "--positions", str(positions), "--readings", str(readings),
                     "--config", str(config), "--out", str(out)])
        rows = out.with_suffix(".csv").read_text().splitlines()
        return code, rows, json.loads(out.with_suffix(".json").read_text()), capsys.readouterr()

    code, rows, doc, (stdout, stderr) = run("three", ["sobolev", "tikhonov", "knn_baseline"])
    assert code == 3
    assert stderr == (
        "graphfill: every tikhonov configuration had failed repetitions; the first was "
        "epsilon=0 beta=1 gamma=0.1 seed 0: SingularSystem: singular system: with "
        "epsilon = 0, no observed entries link node 0 to time step 6 within its graph "
        "component\n")
    assert doc["best"]["tikhonov"] is None
    assert [line.split(" ")[1] for line in stdout.splitlines()] == [
        "sobolev:", "knn_baseline:", str(tmp_path / "three.csv")]
    alone_code, alone_rows, alone, (alone_stdout, _) = run("two", ["sobolev", "knn_baseline"])
    assert alone_code == 0
    assert doc["best"] == {**alone["best"], "tikhonov": None}
    assert [e for e in doc["entries"] if e["method"] != "tikhonov"] == alone["entries"]
    assert [row for row in rows if not row.startswith("tikhonov,")] == alone_rows
    assert stdout.splitlines()[:2] == alone_stdout.splitlines()[:2]


@pytest.mark.parametrize("values, density, message", [
    (np.ones((8, 12)), 0.5, "max_value 1.0 must exceed min_value 1.0"),
    (np.random.default_rng(2).normal(size=(8, 3)), 0.1,
     "1 samples x 3 snapshots = 3 observations cannot cover 8 nodes"),
    # 0 to 1.7e308 scales, but a reconstruction above about 1.057 of that span
    # is beyond the float range in data units, as each command's is here
    (np.random.default_rng(1).choice([0.0, 1.7e308], size=(8, 12)), 0.5,
     "mapping the reconstruction back to data units overflows: the observed readings "
     "range from 0.0 to 1.7e+308; scale them down"),
], ids=["constant", "too-few-observations", "overflowing-reconstruction"])
@pytest.mark.parametrize("command", ["reconstruct", "experiment", "gridsearch"])
def test_input_fault_exits_2_from_every_command(tmp_path, fixture_files, capfd, command,
                                                values, density, message):
    # a seed whose problem cannot be posed, or whose reconstruction cannot be
    # mapped back to data units, ends gridsearch, with one method or three, as
    # it ends reconstruct, also when a worker process meets it
    positions, readings = fixture_files
    _write_readings(readings, values)
    out = tmp_path / "out" / "result"
    if command == "reconstruct":
        argv = reconstruct_args(positions, readings, out, **{"--density": str(density)})
    else:
        config = (experiment_config if command == "experiment" else gridsearch_config)(
            tmp_path, density=density, repetitions=2)
        argv = ["gridsearch", "--positions", str(positions), "--readings", str(readings),
                "--config", str(config), "--out", str(out)]
    assert main(argv) == 2
    assert capfd.readouterr() == ("", f"graphfill: {message}\n")
    assert not (tmp_path / "out").exists()


def test_reconstruct_mask_that_observes_no_reading_exits_2(tmp_path, capsys):
    # node i has its one reading at time i, and no draw in a thousand ANDed
    # with that native mask observes all eight: an input fault, not a
    # singular system
    positions, readings = tmp_path / "positions.csv", tmp_path / "readings.csv"
    positions.write_text("node_id,x,y\n" + "".join(f"s{i},{i},{i % 3}\n" for i in range(8)))
    readings.write_text("node_id,time_index,value\n"
                        + "".join(f"s{i},{i},{i}.5\n" for i in range(8)))
    for seed in ("2", "3"):
        argv = reconstruct_args(positions, readings, tmp_path / "x",
                                **{"--density": "0.2", "--seed": seed})
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "graphfill: 1000 draws never observed every one of 8 nodes "
            "(2 samples x 8 snapshots)\n"
        )
    assert not (tmp_path / "x.csv").exists()


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def _write_readings(path, values):
    path.write_text("node_id,time_index,value\n" + "".join(
        f"s{i},{t},{v!r}\n" for i, row in enumerate(values.tolist()) for t, v in enumerate(row)))


@pytest.mark.parametrize("values", [
    # each repetition's RMSE is near 1e200, so squared deviations from the mean overflow
    np.random.default_rng(1).uniform(-1e200, 1e200, size=(8, 12)),
    # each repetition's RMSE is near 6e307, so the sum over four overflows as well
    np.random.default_rng(1).choice([-5e307, 5e307], size=(8, 12)),
    # some reconstructions lie more than the float range from their hidden readings
    np.random.default_rng(1).choice([-8e307, 8e307], size=(8, 12)),
], ids=["std", "mean", "deviation"])
def test_gridsearch_statistics_of_huge_readings_are_finite(tmp_path, fixture_files, capfd,
                                                            values):
    positions, readings = fixture_files
    _write_readings(readings, values)
    out = tmp_path / "grid"
    config = gridsearch_config(tmp_path, repetitions=4)
    argv = ["gridsearch", "--positions", str(positions), "--readings", str(readings),
            "--config", str(config), "--out", str(out)]
    assert main(argv) == 0
    assert capfd.readouterr().err == ""  # no RuntimeWarning, here or in a worker
    stats = (tmp_path / "grid.csv").read_text().splitlines()[1].split(",")[4:8]
    assert all(math.isfinite(float(cell)) and float(cell) > 1e198 for cell in stats)
    report = json.loads(out.with_suffix(".json").read_text(), parse_constant=_reject_constant)
    assert format(report["best"]["sobolev"]["rmse_mean"], ".6g") == stats[0]


def test_reconstruct_maps_back_values_whose_scaled_product_overflows(tmp_path, fixture_files,
                                                                    capfd):
    # with readings of +-8e307 the span is 1.6e308, and the largest scaled
    # entry, about 1.19, overflows as x * span; its data-unit value, about
    # 1.1e308, is a double
    positions, readings = fixture_files
    _write_readings(readings, np.random.default_rng(0).choice([-8e307, 8e307], size=(8, 12)))
    out = tmp_path / "recon"
    argv = reconstruct_args(positions, readings, out, **{
        "--k": "3", "--gamma": "5", "--seed": "1"})
    assert main(argv) == 0
    assert capfd.readouterr().err == ""
    values = [float(row["value"]) for row in csv.DictReader(io.StringIO(
        out.with_suffix(".csv").read_text()))]
    assert all(math.isfinite(v) for v in values) and max(values) > 1e308
    report = json.loads(out.with_suffix(".json").read_text(), parse_constant=_reject_constant)
    assert math.isfinite(report["rmse"]) and math.isfinite(report["mae"])


def test_gridsearch_non_finite_gamma_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    def no_cell(*args):
        raise AssertionError("a grid cell ran")

    monkeypatch.setattr(harness, "_run_cells", no_cell)
    config = gridsearch_config(tmp_path, gamma_grid=[0.3, float("nan")])
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert "gamma must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, message",
    [
        ({"eps_grid": ["0.5"]}, "epsilon must be a real number, got '0.5'"),
        ({"gamma_grid": [0.3, True]}, "gamma must be a real number, got True"),
        ({"beta_grid": 1.0}, "beta_grid must be a JSON list"),
        ({"density": "0.5"}, "density must be a real number, got '0.5'"),
        ({"repetitions": 2.5}, "repetitions must be an integer, got 2.5"),
        ({"k_graph": "3"}, "k_graph must be an integer, got '3'"),
        ({"master_seed": -1}, "master_seed must be >= 0, got -1"),
    ],
)
def test_gridsearch_non_numeric_config_exits_2_before_solving(
    tmp_path, capsys, monkeypatch, override, message
):
    def no_cell(*args):
        raise AssertionError("a grid cell ran")

    monkeypatch.setattr(harness, "_run_cells", no_cell)
    config = gridsearch_config(tmp_path, **override)
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ({"methods": ["tikhonov"], "gamma_grid": [0.5]},
     "eps_grid must be empty: none of the methods tikhonov searches it"),
    ({"methods": ["knn_baseline"], "eps_grid": None, "beta_grid": None},
     "gamma_grid must be empty: none of the methods knn_baseline searches it"),
    ({"methods": ["sobolev", "knn_baseline"], "beta_grid": None},
     "beta_grid must be nonempty: one of the methods sobolev, knn_baseline searches it"),
    ({"methods": ["sobolev", "lasso"]},
     "method must be one of ('sobolev', 'tikhonov', 'knn_baseline'), got 'lasso'"),
    ({"methods": ["tikhonov", "sobolev", "tikhonov"]},
     "methods must be distinct and nonempty, got ['tikhonov', 'sobolev', 'tikhonov']"),
    ({"methods": [["sobolev"]]},
     "method must be one of ('sobolev', 'tikhonov', 'knn_baseline'), got ['sobolev']"),
    ({"methods": []}, "methods must be distinct and nonempty, got []"),
], ids=["unused-grid", "knn-with-a-grid", "missing-grid", "unknown", "repeated",
        "not-a-string", "none"])
def test_gridsearch_methods_rule_exits_2_writing_nothing(tmp_path, capfd, monkeypatch,
                                                         override, message):
    # a grid key is required, and nonempty, exactly when a named method
    # searches it; the methods are distinct names from METHODS
    def no_cell(*args):
        raise AssertionError("a grid cell ran")

    monkeypatch.setattr(harness, "_run_cells", no_cell)
    config = experiment_config(tmp_path, **override)
    out = tmp_path / "out" / "result"
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(out)]) == 2
    assert capfd.readouterr() == ("", f"graphfill: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["cg_tolerance", "max_iterations"])
def test_removed_solver_keys_exit_2(tmp_path, capsys, key):
    config = experiment_config(tmp_path, **{key: 1})
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert f"unknown config fields: {key}" in capsys.readouterr().err
    config = gridsearch_config(tmp_path, **{key: 1})
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert f"unknown config fields: {key}" in capsys.readouterr().err


def _write_dataset(tmp_path, pos, n_steps=6):
    """positions.csv and readings.csv for pos, with a random reading at every entry."""
    positions, readings = tmp_path / "positions.csv", tmp_path / "readings.csv"
    positions.write_text("node_id,x,y\n" + "".join(
        f"{node_id},{x!r},{y!r}\n" for node_id, (x, y) in zip(pos.node_ids, pos.coords.tolist())
    ))
    values = np.random.default_rng(0).normal(size=(pos.n_nodes, n_steps)).tolist()
    readings.write_text("node_id,time_index,value\n" + "".join(
        f"{node_id},{t},{v!r}\n" for node_id, row in zip(pos.node_ids, values)
        for t, v in enumerate(row)
    ))
    return positions, readings


def _graph_doc(argv, out):
    assert main(argv) == 0
    text = out.with_suffix(".json").read_text()
    assert text.count('"graph":') == 1
    return json.loads(text)["graph"]


@pytest.mark.parametrize("command", ["reconstruct", "gridsearch"])
def test_json_records_the_solved_graph(tmp_path, fixture_files, capsys, command):
    positions, readings = fixture_files
    out = tmp_path / "out"
    if command == "reconstruct":
        argv, k = reconstruct_args(positions, readings, out), 2
    else:
        argv, k = ["gridsearch", "--positions", str(positions), "--readings", str(readings),
                   "--config", str(gridsearch_config(tmp_path)), "--out", str(out)], 3
    graph = gf.build_knn_graph(gf.load_positions(positions), k)
    assert _graph_doc(argv, out) == {
        "nodes": graph.n_nodes, "edges": graph.n_edges, "sigma": graph.sigma,
        "lambda_2": graph.eigenvalues[1], "lambda_max": graph.eigenvalues[-1],
        "components": bfs_components(graph.weights),
    }


def test_graph_block_isolates_far_outlier(tmp_path, capsys):
    positions, readings = _write_dataset(tmp_path, outlier_positions())
    argv = reconstruct_args(positions, readings, tmp_path / "r", **{"--k": "5"})
    assert _graph_doc(argv, tmp_path / "r")["components"] == 2


def test_graph_block_counts_components_from_edges(tmp_path, capsys):
    # the far node's edges weigh about 1e-25: tiny, but in W, so it is linked,
    # although the Laplacian has two eigenvalues below 1e-10
    coords = np.random.default_rng(0).uniform(0.0, 1.0, size=(11, 2))
    coords[-1] = (30.0, 30.0)
    pos = gf.NodePositions(coords, tuple(f"n{i}" for i in range(11)))
    positions, readings = _write_dataset(tmp_path, pos)
    config = gridsearch_config(tmp_path, k_graph=2)
    argv = ["gridsearch", "--positions", str(positions), "--readings", str(readings),
            "--config", str(config), "--out", str(tmp_path / "g")]
    assert _graph_doc(argv, tmp_path / "g")["components"] == 1
    far = gf.build_knn_graph(gf.load_positions(positions), 2).weights[-1]
    assert far.any() and all(0 < weight < 1e-20 for weight in far[far > 0])


def test_reconstruct_overflowing_distance_exits_2(tmp_path, capsys):
    pos = gf.NodePositions([[0.0, 0.0], [1e160, 0.0], [0.0, 2e160]], ("a", "b", "c"))
    positions, readings = _write_dataset(tmp_path, pos)
    assert main(reconstruct_args(positions, readings, tmp_path / "r", **{"--k": "1"})) == 2
    err = capsys.readouterr().err
    assert "nodes 'a' and 'b' overflows; scale the coordinates down" in err


def test_removed_graph_info_command_exits_2(capsys):
    assert main(["graph-info", "--positions", "p.csv", "--k", "1"]) == 2
    assert "invalid choice: 'graph-info'" in capsys.readouterr().err
    assert not hasattr(gf, "write_edge_list") and not hasattr(gf.graph, "write_edge_list")


def checkout_env():
    """The environment of a fresh interpreter that imports graphfill from this checkout."""
    src = Path(gf.__file__).resolve().parent.parent
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def run_python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=checkout_env())


def test_python_dash_m_runs_the_cli():
    done = run_python("-m", "graphfill", "--help")
    assert done.returncode == 0, done.stderr
    assert "reconstruct" in done.stdout and "gridsearch" in done.stdout


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, expected", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "3"}, "3"),
    ({"OMP_NUM_THREADS": "2"}, None),
], ids=["none-set", "openblas-set", "omp-set"])
def test_import_pins_blas_to_one_thread_unless_the_user_chose(preset, expected):
    env = {k: v for k, v in checkout_env().items() if k not in BLAS_THREAD_VARS}
    probe = "import os, graphfill; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**env, **preset})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(expected)


# Runs `python -m graphfill ARGS` (or only imports graphfill when there are
# none) in this interpreter, then prints the process pool modules it loaded,
# whether the harness started its worker pool and the scipy modules it
# loaded, and exits with the command's code.
SCIPY_PROBE = """
import runpy, sys
code = 0
if len(sys.argv) > 1:
    try:
        runpy.run_module("graphfill", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import graphfill
pool = sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent"))
print("pool modules:", pool)
print("pool started:", sys.modules["graphfill.harness"]._pool is not None)
print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
sys.exit(code)
"""


@pytest.mark.parametrize(
    "command, code",
    [
        ((), 0),
        (("--help",), 0),
        (reconstruct_args("{positions}", "{readings}", "{out}", **{"--density": "1.5"}), 2),
        (reconstruct_args("{positions}", "{readings}", "{out}", **CG_GAMMA), 0),
        (("gridsearch", "--synthetic", "--config", "{config}", "--out", "{out}"), 0),
    ],
    ids=["import", "help", "reconstruct-exit-2", "reconstruct", "gridsearch-knn"],
)
def test_start_up_loads_no_scipy(tmp_path, fixture_files, command, code):
    # scipy.linalg is most of a cold start and only a direct solve needs it
    # (the reconstruct case runs CG, and the kNN baseline solves nothing);
    # scipy.spatial, scipy.fft and scipy.sparse.csgraph are never needed.
    # The worker pool serves grid searches of two or more repetitions alone.
    positions, readings = fixture_files
    config = experiment_config(tmp_path, methods=["knn_baseline"], eps_grid=None,
                               beta_grid=None, gamma_grid=None, repetitions=1)
    argv = [a.format(positions=positions, readings=readings, out=tmp_path / "r", config=config)
            for a in command]
    done = run_python("-c", SCIPY_PROBE, *argv)
    assert done.returncode == code, done.stderr
    assert done.stdout.splitlines()[-3:] == [
        "pool modules: []", "pool started: False", "scipy modules: []"
    ]


def test_no_process_outlives_a_pooled_gridsearch(tmp_path):
    # the CLI runs in its own session, so its process group holds it and
    # every worker it forks; none may be left once it has exited
    config = gridsearch_config(tmp_path, repetitions=4)
    argv = ["gridsearch", "--synthetic", "--config", str(config), "--out", str(tmp_path / "g")]
    proc = subprocess.Popen([sys.executable, "-c", SCIPY_PROBE, *argv], env=checkout_env(),
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    out, _ = proc.communicate()
    assert proc.returncode == 0
    assert out.splitlines()[-2] == f"pool started: {harness._WORKERS >= 2}"
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_fresh_direct_solve_imports_scipy_linalg_and_matches_in_process(
    tmp_path, fixture_files, monkeypatch
):
    # in-process tests run with scipy.linalg already loaded; this is the one
    # run whose first direct solve performs the deferred import
    positions, readings = fixture_files
    calls = []
    block_solve = solver._block_solve

    def counted(*args):
        calls.append(args)
        return block_solve(*args)

    monkeypatch.setattr(solver, "_block_solve", counted)
    direct = {"--gamma": "50"}
    assert main(reconstruct_args(positions, readings, tmp_path / "inproc", **direct)) == 0
    assert calls, "the configuration must take the direct path"
    argv = reconstruct_args(positions, readings, tmp_path / "fresh", **direct)
    done = run_python("-c", SCIPY_PROBE, *argv)
    assert done.returncode == 0, done.stderr
    assert "'scipy.linalg'" in done.stdout.splitlines()[-1]
    for suffix in (".csv", ".json"):
        fresh = (tmp_path / f"fresh{suffix}").read_bytes()
        assert fresh == (tmp_path / f"inproc{suffix}").read_bytes()


def test_reconstruct_oversized_quoted_field_exits_2(tmp_path, fixture_files, capsys):
    positions, readings = fixture_files
    huge = "n" * 200_000
    with readings.open("a") as fh:
        fh.write(f'"{huge}",0,1.0\n')
    lines = len(readings.read_text().splitlines())
    assert main(reconstruct_args(positions, readings, tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert f"{readings}:{lines}: field larger than field limit" in err
    assert huge not in err


def test_reconstruct_k_too_large_exits_2(tmp_path, fixture_files, capsys):
    positions, readings = fixture_files
    assert main(reconstruct_args(positions, readings, tmp_path / "r", **{"--k": "8"})) == 2
    assert capsys.readouterr().err == "graphfill: k=8 but the graph has only 8 nodes\n"


def test_exit_code_of_every_error_class(monkeypatch, capsys):
    # errors has one class per outcome the program acts on, and no other
    # module of the package defines an exception class
    classes = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.GraphfillError)]
    assert {cls.__name__ for cls in classes} == {
        "GraphfillError", "InvalidInput", "SingularSystem", "ConvergenceFailure",
    }
    for info in pkgutil.iter_modules(gf.__path__, "graphfill."):
        if info.name not in {"graphfill.errors", "graphfill.__main__"}:  # __main__ exits
            module = importlib.import_module(info.name)
            assert not [value for value in vars(module).values() if isinstance(value, type)
                        and issubclass(value, BaseException)
                        and value.__module__ == module.__name__], info.name
    raised = [cls("boom") for cls in classes] + [ValueError("boom"), OSError("boom")]
    got, want = {}, {}
    for exc in raised:
        def handler(args, exc=exc):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, "gridsearch", handler)
        name = type(exc).__name__
        got[name] = main(["gridsearch", "--config", "c.json", "--out", "o"])
        want[name] = 2 if name in {"InvalidInput", "ValueError"} else 3
        assert capsys.readouterr().err == "graphfill: boom\n"
    assert got == want
