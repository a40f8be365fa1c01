"""Command-line interface.

Two subcommands: ``reconstruct`` (one solve over a masked dataset) and
``gridsearch`` (the Monte-Carlo comparison of the named methods, each tuned
over its grid at one density, from a JSON config). Each records the sensor
graph it solved on in the ``graph`` block of its JSON (_graph_block).

Exit codes are a stable contract: 0 success; 2 usage or validation problems
(errors.InvalidInput or ValueError), alike in every command; 3 a failed
solve, a named method whose every configuration has a failed repetition
(after both result files are written), or an OSError. Diagnostics go to
stderr; result tables go to stdout and to the ``<out>.csv``/``<out>.json``
files, which only this module writes (_write_results).
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
from .graph import SensorGraph, _reachable, build_knn_graph
from .harness import SEARCHES, grid_search, masked_problem
from .metrics import error_report
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

    grid = sub.add_parser("gridsearch", help="compare methods, each tuned over its grid, "
                          "from a JSON config")
    _add_dataset_flags(grid)
    grid.add_argument("--config", required=True, help="grid config JSON")
    grid.add_argument("--out", required=True, help="output base path (.csv and .json)")

    return parser


def _add_dataset_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--positions", help="node_id,x,y CSV")
    sub.add_argument("--readings", help="node_id,time_index,value CSV")
    sub.add_argument("--synthetic", action="store_true",
                     help="use the bundled synthetic dataset instead of CSVs")
    sub.add_argument("--synthetic-seed", type=int,
                     help="seed of the synthetic dataset (default 0); needs --synthetic")


def _load_experiment_dataset(args) -> "ingest.Dataset":
    csvs = (args.positions, args.readings)
    if (args.synthetic_seed or 0) < 0:
        raise ValueError(f"--synthetic-seed must be >= 0, got {args.synthetic_seed}")
    if args.synthetic and not any(csvs):
        return synthetic_dataset(seed=args.synthetic_seed or 0)
    if args.synthetic or args.synthetic_seed is not None or not all(csvs):
        raise ValueError("name one dataset: --synthetic, with an optional --synthetic-seed, "
                         "or --positions and --readings")
    return ingest.load_dataset(*csvs)


def _read_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} must be a JSON object")
    return doc


def _cmd_reconstruct(args) -> int:
    if not 0 < args.density <= 1:
        raise ValueError(f"--density must be in (0, 1], got {args.density}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    dataset = ingest.load_dataset(args.positions, args.readings)
    dataset = ingest.filter_consistent_nodes(dataset, args.min_coverage)
    graph = build_knn_graph(dataset.positions, args.k)
    observed, hidden, y, unscale = masked_problem(dataset, args.density, args.seed)
    config = SobolevConfig(epsilon=args.epsilon, beta=args.beta, gamma=args.gamma)
    result = reconstruct_sobolev(y, observed, graph, config)
    recon = unscale(result.xbar)
    metrics_doc = {
        "dataset": dataset.name,
        "density": args.density,
        "seed": args.seed,
        "config": asdict(config),
        "k": args.k,
        "graph": _graph_block(graph),
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

    Only a .csv or .json suffix on out is dropped (out/run.2024 gives
    out/run.2024.csv), and a missing parent directory is created. The JSON
    has sorted keys, so equal results give equal bytes.
    """
    base = Path(out)
    if base.suffix in {".csv", ".json"}:
        base = base.with_suffix("")
    base.parent.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = (base.with_name(base.name + suffix) for suffix in (".csv", ".json"))
    with csv_path.open("w", newline="") as fh:
        write_csv(fh)
    json_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return csv_path, json_path


def _write_table(header, rows):
    """A write_csv for _write_results: header and rows through csv.writer."""
    return lambda fh: csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _graph_block(graph: SensorGraph) -> dict:
    """The JSON ``graph`` block. Components are counted over the support of W,
    by the eps = 0 check's reachability: a node's first reachable node names its one."""
    roots = _reachable(graph.weights > 0).argmax(axis=1)
    return {"nodes": graph.n_nodes, "edges": graph.n_edges, "sigma": graph.sigma,
            "lambda_2": float(graph.eigenvalues[1]),
            "lambda_max": float(graph.eigenvalues[-1]), "components": len(set(roots.tolist()))}


def _finite_or_none(value: float):
    return float(value) if math.isfinite(value) else None


# The statistics of an ExperimentResult, in the order of the CSV columns.
_STATS = ("rmse_mean", "rmse_std", "mae_mean", "mae_std")


def _stat_cells(r) -> list:
    """A result's CSV cells: each of _STATS to 6 digits (nan if not finite), then reps."""
    stats = [getattr(r, name) for name in _STATS]
    return [format(v, ".6g") if math.isfinite(v) else "nan" for v in stats] + [len(r.per_rep)]


def _describe(config) -> str:
    """A cell's hyperparameters as 'epsilon=.. beta=.. gamma=.. ', or '' for None."""
    if config is None:
        return ""
    return f"epsilon={config.epsilon:g} beta={config.beta:g} gamma={config.gamma:g} "


def _cmd_gridsearch(args) -> int:
    doc = _read_json(args.config)
    grids = SEARCHES["sobolev"]  # every grid key
    unknown = set(doc) - {"density", *grids, "repetitions", "master_seed", "k_graph", "methods"}
    if unknown:
        raise ValueError(f"unknown config fields: {', '.join(sorted(unknown))}")
    if "density" not in doc:
        raise ValueError("config is missing required field 'density'")
    for key in (*grids, "methods"):
        if key in doc and not isinstance(doc[key], list):
            raise ValueError(f"{key} must be a JSON list")

    dataset = _load_experiment_dataset(args)
    # a grid key that no named method searches may be left out
    search = grid_search(dataset, **{**dict.fromkeys(grids, ()), **doc})

    def summary(config, result) -> dict:
        return {"config": None if config is None else asdict(config),
                "rmse_mean": _finite_or_none(result.rmse_mean),
                "mae_mean": _finite_or_none(result.mae_mean)}

    header = ["method", "epsilon", "beta", "gamma", *_STATS, "reps", "failed"]
    rows = [[result.method]
            + (["", "", ""] if config is None else
               [format(v, ".6g") for v in (config.epsilon, config.beta, config.gamma)])
            + _stat_cells(result) + [len(result.failed)]
            for config, result in search.entries]
    report = {
        "config_echo": doc,
        "dataset": dataset.name,
        "graph": _graph_block(search.graph),
        "best": {method: None if entry is None else summary(*entry)
                 for method, entry in search.best.items()},
        "entries": [
            {
                "method": result.method,
                **summary(config, result),
                "per_rep": [{"seed": seed, "rmse": rmse, "mae": mae}
                            for seed, rmse, mae in result.per_rep],
                "failed_reps": [{"seed": seed, "error": message}
                                for seed, message in result.failed],
            }
            for config, result in search.entries
        ],
    }
    csv_path, json_path = _write_results(args.out, _write_table(header, rows), report)
    for method, entry in search.best.items():
        if entry is not None:
            config, result = entry
            print(f"best {method}: {_describe(config)}rmse_mean={result.rmse_mean:.6g}")
    print(f"wrote {csv_path} and {json_path}")
    for method, entry in search.best.items():
        if entry is None:  # then every configuration, the first too, has a failed repetition
            config, result = next(e for e in search.entries if e[1].method == method)
            seed, message = result.failed[0]
            raise GraphfillError(f"every {method} configuration had failed repetitions; "
                                 f"the first was {_describe(config)}seed {seed}: {message}")
    return 0


_HANDLERS = {"reconstruct": _cmd_reconstruct, "gridsearch": _cmd_gridsearch}


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
