"""Command-line interface.

Four subcommands: ``reconstruct`` (one solve over a masked dataset),
``experiment`` (Monte-Carlo protocol from a JSON config), ``gridsearch``
(hyperparameter tuning from a JSON config) and ``graph-info`` (inspect the
kNN graph built from a positions file).

Exit codes are a stable contract: 0 success, 2 usage or validation
problems (errors.InvalidInput or ValueError), 3 any other GraphfillError or
an OSError. Diagnostics go to stderr; result tables go to stdout and to the
``<out>.csv``/``<out>.json`` files, which only this module writes
(_write_results).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import ingest
from .errors import GraphfillError, InvalidInput
from .graph import _reachable, build_knn_graph, write_edge_list
from .harness import ExperimentConfig, grid_search, masked_problem, run_experiment
from .metrics import error_report, inverse_scale
from .solver import SobolevConfig, reconstruct_sobolev
from .synthetic import synthetic_dataset


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphfill",
        description="Recover missing sensor readings by reconstructing "
        "time-varying graph signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("reconstruct", help="single reconstruction run")
    rec.add_argument("--positions", required=True, help="node_id,x,y CSV")
    rec.add_argument("--readings", required=True, help="node_id,time_index,value CSV")
    rec.add_argument("--k", required=True, type=int, help="graph neighbours per node")
    rec.add_argument("--epsilon", required=True, type=float)
    rec.add_argument("--beta", required=True, type=float)
    rec.add_argument("--gamma", required=True, type=float)
    rec.add_argument("--density", required=True, type=float, help="observed fraction in (0, 1]")
    rec.add_argument("--seed", required=True, type=int)
    rec.add_argument("--out", required=True, help="output base path (.csv and .json)")
    rec.add_argument("--min-coverage", type=float, default=0.0,
                     help="drop nodes below this native coverage first")

    exp = sub.add_parser("experiment", help="Monte-Carlo experiment from a JSON config")
    _add_dataset_flags(exp)
    exp.add_argument("--config", required=True, help="experiment config JSON")
    exp.add_argument("--out", required=True, help="output base path (.csv and .json)")

    grid = sub.add_parser("gridsearch", help="hyperparameter grid search from a JSON config")
    _add_dataset_flags(grid)
    grid.add_argument("--config", required=True, help="grid config JSON")
    grid.add_argument("--out", required=True, help="output base path (.csv and .json)")

    info = sub.add_parser("graph-info", help="inspect the kNN sensor graph")
    info.add_argument("--positions", required=True)
    info.add_argument("--k", required=True, type=int)
    info.add_argument("--out", help="optional edge-list CSV path")

    return parser


def _add_dataset_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--positions", help="node_id,x,y CSV")
    sub.add_argument("--readings", help="node_id,time_index,value CSV")
    sub.add_argument("--synthetic", action="store_true",
                     help="use the bundled synthetic dataset instead of CSVs")
    sub.add_argument("--synthetic-seed", type=int, default=0)


def _load_experiment_dataset(args) -> "ingest.Dataset":
    if args.synthetic:
        return synthetic_dataset(seed=args.synthetic_seed)
    if not (args.positions and args.readings):
        raise ValueError("provide --positions and --readings, or --synthetic")
    dataset = ingest.load_dataset(args.positions, args.readings)
    return ingest.filter_consistent_nodes(dataset, 1.0)


def _strict_keys(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown {where} fields: {', '.join(sorted(unknown))}")


def _require_type(doc: dict, key: str, kind: type) -> None:
    if key in doc and not isinstance(doc[key], kind):
        raise ValueError(f"{key} must be a JSON {'list' if kind is list else 'object'}")


def _sobolev_from_json(doc: dict) -> SobolevConfig:
    _strict_keys(doc, {"epsilon", "beta", "gamma"}, "sobolev")
    return SobolevConfig(**doc)


def _experiment_config(path) -> ExperimentConfig:
    doc = _read_json(path)
    _strict_keys(
        doc,
        {"densities", "repetitions", "master_seed", "method", "sobolev", "k_graph"},
        "config",
    )
    _require_type(doc, "densities", list)
    _require_type(doc, "sobolev", dict)
    kwargs = dict(doc)
    if "densities" in kwargs:
        kwargs["densities"] = tuple(kwargs["densities"])
    if "sobolev" in kwargs:
        kwargs["sobolev"] = _sobolev_from_json(kwargs["sobolev"])
    return ExperimentConfig(**kwargs)


def _read_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} must be a JSON object")
    return doc


def _print_table(results, stream=None) -> None:
    stream = stream or sys.stdout
    header = f"{'dataset':<12} {'method':<12} {'density':>7} {'rmse_mean':>10} {'rmse_std':>9} {'mae_mean':>10} {'mae_std':>9} {'reps':>4}"
    print(header, file=stream)
    for r in results:
        print(
            f"{r.dataset_name:<12} {r.method:<12} {r.density:>7.3g} "
            f"{r.rmse_mean:>10.4g} {r.rmse_std:>9.4g} "
            f"{r.mae_mean:>10.4g} {r.mae_std:>9.4g} {len(r.per_rep):>4}",
            file=stream,
        )


def _cmd_reconstruct(args) -> int:
    if not 0 < args.density <= 1:
        raise ValueError(f"--density must be in (0, 1], got {args.density}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    dataset = ingest.load_dataset(args.positions, args.readings)
    dataset = ingest.filter_consistent_nodes(dataset, args.min_coverage)
    graph = build_knn_graph(dataset.positions, args.k)
    observed, hidden, params, y = masked_problem(dataset, args.density, args.seed)
    config = SobolevConfig(epsilon=args.epsilon, beta=args.beta, gamma=args.gamma)
    result = reconstruct_sobolev(y, observed, graph, config)
    recon = inverse_scale(result.xbar, params)
    metrics_doc = {
        "dataset": dataset.name,
        "density": args.density,
        "seed": args.seed,
        "config": asdict(config),
        "k": args.k,
        "iterations": result.iterations,
        "final_relative_residual": result.final_relative_residual,
        "objective_value": result.objective_value,
        "n_evaluated": int(hidden.sum()),
        "rmse": None,
        "mae": None,
    }
    if hidden.any():
        report = error_report(dataset.signal.values, recon, hidden)
        metrics_doc["rmse"] = report.rmse
        metrics_doc["mae"] = report.mae

    def write_csv(fh):
        _write_reconstruction(fh, dataset.positions.node_ids, dataset.time_indices, recon)

    csv_path, json_path = _write_results(args.out, write_csv, metrics_doc)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _write_reconstruction(fh, node_ids, time_indices, values: np.ndarray) -> None:
    """Write ``node_id,time_index,value`` rows, one block per node.

    The bytes are those of csv.writer with values formatted ``.12g``: each
    node id is quoted once by csv.writer itself, and each node's block is
    formatted by one ``%`` operation.
    """
    cells = [f",{t},%.12g\n" for t in time_indices]
    fh.write("node_id,time_index,value\n")
    for node_id, row in zip(node_ids, values):
        line = io.StringIO()
        csv.writer(line, lineterminator="\n").writerow([node_id, ""])
        # the empty second field stops an empty id being written as '""'
        prefix = line.getvalue()[:-2].replace("%", "%%")
        fh.write((prefix + prefix.join(cells)) % tuple(row.tolist()))


def _write_results(out, write_csv, doc: dict) -> tuple[Path, Path]:
    """Write ``<out>.csv`` by write_csv(file) and ``<out>.json`` from doc.

    A .csv or .json suffix on out is dropped and a missing parent directory
    is created. The JSON has sorted keys, so equal results give equal bytes.
    """
    base = Path(out)
    if base.suffix in {".csv", ".json"}:
        base = base.with_suffix("")
    base.parent.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = base.with_suffix(".csv"), base.with_suffix(".json")
    with csv_path.open("w", newline="") as fh:
        write_csv(fh)
    json_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return csv_path, json_path


def _write_table(header, rows):
    """A write_csv for _write_results: header and rows through csv.writer."""
    return lambda fh: csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _finite_or_none(value: float):
    return float(value) if math.isfinite(value) else None


# The statistics of an ExperimentResult, in the order of the CSV columns.
_STATS = ("rmse_mean", "rmse_std", "mae_mean", "mae_std")


def _stat_cells(r) -> list:
    """A result's CSV cells: each of _STATS to 6 digits (nan if not finite), then reps."""
    stats = [getattr(r, name) for name in _STATS]
    return [format(v, ".6g") if math.isfinite(v) else "nan" for v in stats] + [len(r.per_rep)]


def _failed_reps(r) -> list[dict]:
    return [{"seed": seed, "error": message} for seed, message in r.failed]


def _cmd_experiment(args) -> int:
    cfg = _experiment_config(args.config)
    dataset = _load_experiment_dataset(args)
    results = run_experiment(dataset, cfg)
    echo = asdict(cfg)
    echo["dataset"] = dataset.name
    header = ["dataset", "method", "density", *_STATS, "reps"]
    rows = [[r.dataset_name, r.method, format(r.density, ".6g"), *_stat_cells(r)]
            for r in results]
    doc = {
        "config": echo,
        "results": [
            {
                "dataset": r.dataset_name,
                "method": r.method,
                "density": r.density,
                **{name: _finite_or_none(getattr(r, name)) for name in _STATS},
                "repetitions": r.repetitions,
                "per_rep": [{"seed": seed, "rmse": rm, "mae": ma} for seed, rm, ma in r.per_rep],
                "failed_reps": _failed_reps(r),
            }
            for r in results
        ],
    }
    _write_results(args.out, _write_table(header, rows), doc)
    _print_table(results)
    failed = sum(len(r.failed) for r in results)
    if failed:
        print(f"graphfill: {failed} repetitions failed; see failed_reps in the JSON output",
              file=sys.stderr)
        return 3
    return 0


def _cmd_gridsearch(args) -> int:
    doc = _read_json(args.config)
    _strict_keys(
        doc,
        {"density", "eps_grid", "beta_grid", "gamma_grid", "repetitions",
         "master_seed", "k_graph"},
        "config",
    )
    for key in ("density", "eps_grid", "beta_grid", "gamma_grid"):
        if key not in doc:
            raise ValueError(f"config is missing required field {key!r}")
    for key in ("eps_grid", "beta_grid", "gamma_grid"):
        _require_type(doc, key, list)

    dataset = _load_experiment_dataset(args)
    search = grid_search(
        dataset,
        density=doc["density"],
        eps_grid=doc["eps_grid"],
        beta_grid=doc["beta_grid"],
        gamma_grid=doc["gamma_grid"],
        repetitions=doc.get("repetitions", 20),
        master_seed=doc.get("master_seed", 0),
        k_graph=doc.get("k_graph", 5),
    )

    header = ["epsilon", "beta", "gamma", *_STATS, "reps", "failed"]
    rows = [[format(v, ".6g") for v in (config.epsilon, config.beta, config.gamma)]
            + _stat_cells(result) + [len(result.failed)]
            for config, result in search.entries]
    report = {
        "config_echo": doc,
        "dataset": dataset.name,
        "best_config": asdict(search.best_config),
        "best_rmse_mean": _finite_or_none(search.best_result.rmse_mean),
        "best_mae_mean": _finite_or_none(search.best_result.mae_mean),
        "entries": [
            {
                "config": asdict(config),
                "rmse_mean": _finite_or_none(result.rmse_mean),
                "mae_mean": _finite_or_none(result.mae_mean),
                "failed_reps": _failed_reps(result),
            }
            for config, result in search.entries
        ],
    }
    csv_path, json_path = _write_results(args.out, _write_table(header, rows), report)
    best = search.best_config
    print(
        f"best: epsilon={best.epsilon:g} beta={best.beta:g} gamma={best.gamma:g} "
        f"rmse_mean={search.best_result.rmse_mean:.6g}"
    )
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_graph_info(args) -> int:
    positions = ingest.load_positions(args.positions)
    graph = build_knn_graph(positions, args.k)
    # one distinct row of the reachability matrix per connected component
    n_components = len(np.unique(_reachable(graph.weights > 0), axis=0))
    print(f"nodes:             {graph.n_nodes}")
    print(f"edges:             {graph.n_edges}")
    print(f"sigma:             {graph.sigma:.6g}")
    print(f"mean degree:       {2 * graph.n_edges / graph.n_nodes:.3f}")
    print(f"lambda_2:          {graph.eigenvalues[1]:.6g}")
    print(f"lambda_max:        {graph.eigenvalues[-1]:.6g}")
    print(f"components:        {n_components}")
    print(f"connected:         {n_components == 1}")
    if args.out:
        write_edge_list(graph, positions.node_ids, args.out)
        print(f"wrote {args.out}")
    return 0


_HANDLERS = {
    "reconstruct": _cmd_reconstruct,
    "experiment": _cmd_experiment,
    "gridsearch": _cmd_gridsearch,
    "graph-info": _cmd_graph_info,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed its diagnostic
        return int(exc.code) if exc.code is not None else 0
    try:
        return _HANDLERS[args.command](args)
    except (InvalidInput, ValueError) as exc:
        print(f"graphfill: {exc}", file=sys.stderr)
        return 2
    except (GraphfillError, OSError) as exc:
        print(f"graphfill: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
