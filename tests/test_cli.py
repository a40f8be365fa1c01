import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphfill as gf
from graphfill import harness, solver
from graphfill.cli import main
from graphfill.harness import fit_observed_scale

from conftest import outlier_positions


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


def test_reconstruct_happy_path(tmp_path, fixture_files, capsys):
    positions, readings = fixture_files
    out = tmp_path / "recon"
    assert main(reconstruct_args(positions, readings, out)) == 0
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
    effective = gf.random_mask(ds.n_nodes, ds.n_steps, 0.5, seed=0) & ds.native_mask
    params, y = fit_observed_scale(ds.signal.values, effective)
    result = gf.reconstruct_sobolev(
        gf.TimeVaryingSignal(values=y), effective, graph,
        gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=0.5),
    )
    recon = gf.inverse_scale(result.xbar, params).values
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
    # the fixture's cell runs CG, whose iteration budget is cut to one
    ds = gf.load_dataset(positions, readings)
    graph = gf.build_knn_graph(ds.positions, 2)
    mask = gf.random_mask(ds.n_nodes, ds.n_steps, 0.5, seed=0) & ds.native_mask
    cfg = gf.SobolevConfig(epsilon=0.5, beta=1.0, gamma=0.5)
    assert not solver._takes_direct_path(graph, cfg, mask.astype(float))
    monkeypatch.setattr(solver, "_CG_MAX_ITERATIONS", 1)
    assert main(reconstruct_args(positions, readings, tmp_path / "x")) == 3
    assert "converge" in capsys.readouterr().err


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


def experiment_config(tmp_path, **overrides):
    doc = {
        "densities": [0.3, 0.7],
        "repetitions": 3,
        "master_seed": 0,
        "method": "sobolev",
        "sobolev": {"epsilon": 0.5, "beta": 1.0, "gamma": 0.5},
        "k_graph": 3,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_experiment_on_synthetic(tmp_path, capsys):
    config = experiment_config(tmp_path, densities=[0.1, 0.3, 0.5, 0.7])
    out = tmp_path / "exp"
    code = main(
        ["experiment", "--synthetic", "--config", str(config), "--out", str(out)]
    )
    assert code == 0
    lines = (tmp_path / "exp.csv").read_text().splitlines()
    assert len(lines) == 5  # header + one row per density
    table = capsys.readouterr().out
    assert "rmse_mean" in table and table.count("sobolev") == 4
    doc = json.loads((tmp_path / "exp.json").read_text())
    assert len(doc["results"]) == 4
    assert doc["config"]["k_graph"] == 3


def test_experiment_byte_deterministic(tmp_path):
    config = experiment_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["experiment", "--synthetic", "--config", str(config), "--out", str(a)]) == 0
    assert main(["experiment", "--synthetic", "--config", str(config), "--out", str(b)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_experiment_creates_missing_out_directory(tmp_path):
    config = experiment_config(tmp_path, densities=[0.5], repetitions=1)
    out = tmp_path / "missing" / "exp"
    assert main(["experiment", "--synthetic", "--config", str(config), "--out", str(out)]) == 0
    assert (tmp_path / "missing" / "exp.csv").exists()
    assert (tmp_path / "missing" / "exp.json").exists()


def test_experiment_tikhonov_rows_labelled(tmp_path):
    config = experiment_config(tmp_path, method="tikhonov", densities=[0.5])
    out = tmp_path / "tik"
    assert main(["experiment", "--synthetic", "--config", str(config), "--out", str(out)]) == 0
    rows = (tmp_path / "tik.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[1] == "tikhonov" for row in rows)


def test_experiment_from_csv_files(tmp_path, fixture_files):
    positions, readings = fixture_files
    config = experiment_config(tmp_path, densities=[0.5], repetitions=2)
    out = tmp_path / "csvexp"
    code = main(
        ["experiment", "--positions", str(positions), "--readings", str(readings),
         "--config", str(config), "--out", str(out)]
    )
    assert code == 0
    assert (tmp_path / "csvexp.csv").exists()


def test_experiment_bad_config_exits_2(tmp_path, capsys):
    config = experiment_config(tmp_path, mystery_field=1)
    assert main(["experiment", "--synthetic", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert "mystery_field" in capsys.readouterr().err


def test_experiment_failed_reps_exit_3_with_partial_results(tmp_path, capsys):
    # gamma = 0 with an incomplete mask is singular in both repetitions
    config = experiment_config(
        tmp_path,
        densities=[0.3],
        repetitions=2,
        sobolev={"epsilon": 0.5, "beta": 1.0, "gamma": 0.0},
    )
    out = tmp_path / "failing"
    code = main(["experiment", "--synthetic", "--config", str(config), "--out", str(out)])
    assert code == 3
    doc = json.loads((tmp_path / "failing.json").read_text())
    assert len(doc["results"][0]["failed_reps"]) == 2
    assert "gamma = 0" in doc["results"][0]["failed_reps"][0]["error"]
    assert "failed" in capsys.readouterr().err


def test_experiment_requires_dataset_flags(tmp_path, capsys):
    config = experiment_config(tmp_path)
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
def test_experiment_non_finite_gamma_exits_2(tmp_path, capsys, gamma):
    config = experiment_config(tmp_path, sobolev={"epsilon": 0.5, "beta": 1.0, "gamma": gamma})
    assert main(["experiment", "--synthetic", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert "gamma must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, message",
    [
        ({"sobolev": {"epsilon": 0.5, "beta": 1.0, "gamma": "0.5"}},
         "gamma must be a real number, got '0.5'"),
        ({"sobolev": {"epsilon": True, "beta": 1.0, "gamma": 0.5}},
         "epsilon must be a real number, got True"),
        ({"densities": ["0.5"]}, "density must be a real number, got '0.5'"),
        ({"densities": 0.5}, "densities must be a JSON list"),
        ({"sobolev": 0.5}, "sobolev must be a JSON object"),
        ({"repetitions": "3"}, "repetitions must be an integer, got '3'"),
        ({"master_seed": False}, "master_seed must be an integer, got False"),
        ({"k_graph": 3.0}, "k_graph must be an integer, got 3.0"),
    ],
)
def test_experiment_non_numeric_config_exits_2(tmp_path, capsys, override, message):
    config = experiment_config(tmp_path, **override)
    assert main(["experiment", "--synthetic", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err


def gridsearch_config(tmp_path, **overrides):
    doc = {
        "density": 0.5,
        "eps_grid": [0.5],
        "beta_grid": [1.0],
        "gamma_grid": [0.3],
        "repetitions": 2,
        "master_seed": 0,
        "k_graph": 3,
    }
    doc.update(overrides)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    return path


def test_gridsearch_single_point_echoes_config(tmp_path, capsys):
    config = gridsearch_config(tmp_path)
    out = tmp_path / "gridout"
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads(out.with_suffix(".json").read_text())
    assert report["best_config"]["epsilon"] == 0.5
    assert report["best_config"]["gamma"] == 0.3
    assert len(report["entries"]) == 1
    assert "best:" in capsys.readouterr().out


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
    best = report["best_rmse_mean"]
    assert all(e["rmse_mean"] >= best for e in report["entries"])


def test_gridsearch_empty_grid_exits_2(tmp_path, capsys):
    config = gridsearch_config(tmp_path, eps_grid=[])
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(tmp_path / "x")]) == 2


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


@pytest.mark.parametrize("key", ["cg_tolerance", "max_iterations"])
def test_removed_solver_keys_exit_2(tmp_path, capsys, key):
    sobolev = {"epsilon": 0.5, "beta": 1.0, "gamma": 0.5, key: 1}
    config = experiment_config(tmp_path, sobolev=sobolev)
    assert main(["experiment", "--synthetic", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert f"unknown sobolev fields: {key}" in capsys.readouterr().err
    config = gridsearch_config(tmp_path, **{key: 1})
    assert main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert f"unknown config fields: {key}" in capsys.readouterr().err


def test_graph_info(tmp_path, fixture_files, capsys):
    positions, _ = fixture_files
    edge_out = tmp_path / "edges.csv"
    assert main(["graph-info", "--positions", str(positions), "--k", "2", "--out", str(edge_out)]) == 0
    out = capsys.readouterr().out
    assert "nodes:" in out and "sigma:" in out and "lambda_2:" in out
    assert edge_out.read_text().splitlines()[0] == "src_id,dst_id,weight"


def test_graph_info_isolates_far_outlier(tmp_path, capsys):
    pos = outlier_positions()
    positions = tmp_path / "positions.csv"
    positions.write_text("node_id,x,y\n" + "".join(
        f"{node_id},{x!r},{y!r}\n" for node_id, (x, y) in zip(pos.node_ids, pos.coords.tolist())
    ))
    assert main(["graph-info", "--positions", str(positions), "--k", "5"]) == 0
    out = capsys.readouterr().out
    assert "components:        2\n" in out and "connected:         False\n" in out


def test_graph_info_creates_missing_out_directory(tmp_path, fixture_files, capsys):
    positions, _ = fixture_files
    edge_out = tmp_path / "missing" / "edges.csv"
    assert main(["graph-info", "--positions", str(positions), "--k", "2", "--out", str(edge_out)]) == 0
    assert edge_out.read_text().splitlines()[0] == "src_id,dst_id,weight"


def run_python(*args):
    """Run a fresh interpreter that imports graphfill from this checkout."""
    src = Path(gf.__file__).resolve().parent.parent
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_python_dash_m_runs_the_cli():
    done = run_python("-m", "graphfill", "--help")
    assert done.returncode == 0, done.stderr
    assert "reconstruct" in done.stdout and "graph-info" in done.stdout


def test_import_leaves_out_scipy_spatial_and_fft():
    # Both cost a large share of every CLI start-up and neither is needed.
    done = run_python(
        "-c",
        "import sys, graphfill; "
        "print(sorted(m for m in ('scipy.spatial', 'scipy.fft') if m in sys.modules))",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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


def test_graph_info_k_too_large_exits_2(tmp_path, fixture_files, capsys):
    positions, _ = fixture_files
    assert main(["graph-info", "--positions", str(positions), "--k", "8"]) == 2
