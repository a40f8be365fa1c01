"""Dataset loading from CSV and result serialization.

Two long-format CSV contracts cover both weather-station style and indoor
lab style sensor networks:

* positions: header ``node_id,x,y``; one row per node.
* readings: header ``node_id,time_index,value``; absent (node, time) rows or
  non-finite value tokens mean the reading is natively missing.

Time is an integer index; only its ordering matters. Nodes keep the
positions-file order, time columns are sorted ascending by index.

Both files are UTF-8, with or without a byte-order mark, and use csv
(RFC-4180) quoting. Fields are stripped of surrounding whitespace, blank
lines are skipped, and every fault is reported as ``file:line``, the line on
which the row starts; of several faults, the first in file order is raised.

A readings file without a quote character is parsed by numpy's C parser in
one np.loadtxt call. Anything it refuses or finds wrong sends the file to the
exact column checker, which parses column by column and raises the first
fault, so both paths load the same Dataset and raise the same errors.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateReading,
    EmptyDataset,
    MalformedCsv,
    UnknownNode,
)
from .graph import NodePositions, _frozen
from .temporal import TimeVaryingSignal, check_mask

_POSITIONS_HEADER = ["node_id", "x", "y"]
_READINGS_HEADER = ["node_id", "time_index", "value"]

# numpy stores every id of a readings row in 4 bytes per character of the
# longest node id. Past this length that outweighs the column checker's
# Python strings, so such files take the checker.
_FAST_ID_CHARS = 64


@dataclass(frozen=True, eq=False)
class Dataset:
    """One sensor network: positions, readings matrix, native-missing mask.

    native_mask is a bool array marking entries that exist in the source
    data; the signal is exactly zero (a placeholder, never evaluated) where
    native_mask is False.
    """

    positions: NodePositions
    signal: TimeVaryingSignal
    native_mask: np.ndarray
    name: str
    time_indices: tuple[int, ...]

    def __post_init__(self):
        native = _frozen(check_mask(self.native_mask, self.signal.values.shape), bool)
        if self.positions.n_nodes != self.signal.n_nodes:
            raise ValueError("positions and signal node counts differ")
        if len(self.time_indices) != self.signal.n_steps:
            raise ValueError("time_indices and signal column counts differ")
        if np.any(self.signal.values[~native] != 0.0):
            raise ValueError("signal must be zero where the reading is missing")
        object.__setattr__(self, "native_mask", native)
        object.__setattr__(self, "time_indices", tuple(int(t) for t in self.time_indices))

    @property
    def n_nodes(self) -> int:
        return self.signal.n_nodes

    @property
    def n_steps(self) -> int:
        return self.signal.n_steps

    @property
    def fully_covered(self) -> bool:
        return bool(self.native_mask.all())


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise MalformedCsv(f"{path}: {exc}") from exc


def _read_columns(path: Path, text: str, header: list[str]) -> tuple[list[list[str]], np.ndarray]:
    """Split CSV text into one list of stripped fields per header column.

    Also returns the physical line number, from 1, on which each row starts.
    Fields follow csv.reader's rules. Text without a quote character is split
    on commas directly, which gives the same fields without building one list
    per row. Blank and whitespace-only lines are skipped; a row with the wrong
    number of fields, or one csv.reader rejects (a quoted field longer than
    csv.field_size_limit()), raises MalformedCsv naming ``file:line``.
    """
    lines = text.splitlines()
    if '"' in text:
        reader = csv.reader(lines)
        records, starts = [], [1]
        try:
            for record in reader:
                records.append(record)
                starts.append(reader.line_num + 1)  # a quoted field may span lines
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise MalformedCsv(f"{path}:{reader.line_num}: {exc}") from exc
        widths = [len(record) for record in records]
        fields = list(itertools.chain.from_iterable(records))
        line_nos = np.array(starts[:-1])
    else:
        widths = [line.count(",") + 1 for line in lines]
        fields = ",".join(lines).split(",")
        line_nos = np.arange(1, len(lines) + 1)
    if not widths:
        raise MalformedCsv(f"{path}: empty file")
    got = [field.strip() for field in fields[: widths[0]]]
    if got != header:
        raise MalformedCsv(f"{path}: expected header {','.join(header)}, got {','.join(got)}")
    n = len(header)
    fields, widths, line_nos = fields[widths[0] :], widths[1:], line_nos[1:]
    if widths.count(n) != len(widths):
        starts = list(itertools.accumulate(widths, initial=0))
        body, done = [], 0
        for k, width in enumerate(widths):
            if width == n:
                continue
            if width > 1 or (width == 1 and fields[starts[k]].strip()):
                raise MalformedCsv(f"{path}:{line_nos[k]}: expected {n} fields, got {width}")
            body += fields[done : starts[k]]
            done = starts[k + 1]
        fields = body + fields[done:]
        line_nos = line_nos[np.array(widths) == n]
    return [[field.strip() for field in fields[j::n]] for j in range(n)], line_nos


def _parse_prefix(parse, tokens: list[str]) -> tuple[list, int | None]:
    """Apply parse to tokens up to the first ValueError: (values, its index or None)."""
    values: list = []
    try:
        values.extend(map(parse, tokens))  # keeps what was parsed before a failure
    except ValueError:
        return values, len(values)
    return values, None


def _first_repeat(rows: np.ndarray, cols: np.ndarray, n_steps: int) -> int | None:
    """Index of the first row, in file order, whose (row, col) cell an earlier row holds."""
    keys = rows * n_steps + cols
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    return int(repeats.min()) if repeats.size else None


def load_positions(path) -> NodePositions:
    """Read a ``node_id,x,y`` CSV into NodePositions."""
    path = Path(path)
    (ids, xs, ys), line_nos = _read_columns(path, _read_text(path), _POSITIONS_HEADER)
    seen: set[str] = set()
    coords: list[tuple[float, float]] = []
    for line, node_id, x, y in zip(line_nos, ids, xs, ys):
        if node_id in seen:
            raise MalformedCsv(f"{path}:{line}: duplicate node_id {node_id!r}")
        try:
            xy = (float(x), float(y))
        except ValueError as exc:
            raise MalformedCsv(f"{path}:{line}: bad coordinate for {node_id!r}: {exc}") from exc
        if not all(math.isfinite(v) for v in xy):
            raise MalformedCsv(f"{path}:{line}: non-finite coordinate for {node_id!r}")
        seen.add(node_id)
        coords.append(xy)
    if len(ids) < 2:
        raise EmptyDataset(f"{path}: need at least 2 nodes, got {len(ids)}")
    return NodePositions(coords=np.array(coords), node_ids=tuple(ids))


def _parse_readings_fast(text: str, node_index: dict[str, int]):
    """Parse quote-free readings with numpy's C parser, or return None.

    Returns (rows, time_order, cols, values) only when the text has no fault
    of any kind; anything else, from a quote character to a duplicate reading,
    returns None and leaves the file to _parse_readings_checked. Where loadtxt
    accepts a token it agrees with Python's int() and float(); the tokens it
    refuses (padded ids, empty values, ``1_0``, ``5.0`` as a time, int64
    overflow, whitespace-only lines) fall back, as do node ids of
    _FAST_ID_CHARS characters or more.
    """
    if '"' in text or "\x00" in text:  # numpy strings drop trailing NULs
        return None
    lines = text.splitlines()  # the lines the checker sees, \x85 and \u2028 included
    if not lines or [field.strip() for field in lines[0].split(",")] != _READINGS_HEADER:
        return None
    width = max(map(len, node_index)) + 1  # a longer id loads truncated, so unknown
    if width > _FAST_ID_CHARS:
        return None
    dtype = np.dtype([("id", f"U{width}"), ("time", np.int64), ("value", np.float64)])
    try:
        with warnings.catch_warnings():
            # numpy 1.2x only warns when it reads "5.0" as an int; no rows warns too
            warnings.simplefilter("error")
            table = np.loadtxt(
                lines, dtype=dtype, delimiter=",", comments=None, skiprows=1, ndmin=1
            )
    except (ValueError, Warning):  # a token or row loadtxt refuses, or no rows
        return None
    rows = np.array([node_index.get(nid, -1) for nid in table["id"].tolist()], dtype=np.int64)
    if rows.min() < 0 or table["time"].min() < 0:
        return None
    time_order, cols = np.unique(table["time"], return_inverse=True)
    if _first_repeat(rows, cols, len(time_order)) is not None:
        return None
    return rows, time_order, cols, table["value"]


def _parse_readings_checked(path: Path, text: str, node_index: dict[str, int]):
    """Parse readings column by column: (rows, time_order, cols, values).

    Raises the first fault in file order, naming ``file:line``. The checks run
    column by column in the order they apply to one row, and each scans only
    the rows before the earliest fault found so far.
    """
    (ids, time_tokens, value_tokens), line_nos = _read_columns(path, text, _READINGS_HEADER)
    if not ids:
        raise EmptyDataset(f"{path}: no readings")

    def where(k: int) -> str:
        return f"{path}:{line_nos[k]}"

    rows = [node_index.get(nid, -1) for nid in ids]
    end, fault = len(rows), None
    if -1 in rows:
        end = rows.index(-1)
        fault = UnknownNode(f"{where(end)}: node {ids[end]!r} not in positions file")
    times, bad = _parse_prefix(int, time_tokens[:end])
    if bad is not None:
        end, fault = bad, MalformedCsv(f"{where(bad)}: bad time_index {time_tokens[bad]!r}")
    try:
        times = np.array(times, dtype=np.int64)
    except OverflowError:  # keep huge indices exact
        times = np.array(times, dtype=object)
    negative = np.flatnonzero(times < 0)
    if negative.size:
        end = int(negative[0])
        fault = MalformedCsv(f"{where(end)}: negative time_index {times[end]}")
    time_order, cols = np.unique(times[:end], return_inverse=True)
    rows = np.array(rows[:end], dtype=np.int64)
    repeat = _first_repeat(rows, cols, len(time_order))
    if repeat is not None:
        end = repeat
        fault = DuplicateReading(
            f"{where(end)}: duplicate reading for ({ids[end]!r}, {times[end]})"
        )
    values, bad = _parse_prefix(float, [token or "nan" for token in value_tokens[:end]])
    if bad is not None:
        fault = MalformedCsv(f"{where(bad)}: bad value {value_tokens[bad]!r}")
    if fault is not None:
        raise fault
    return rows, time_order, cols, np.array(values)


def load_dataset(positions_path, readings_path, name: str | None = None) -> Dataset:
    """Load positions + long-format readings and pivot into an N x M matrix.

    Node order follows the positions file; time columns are the distinct
    time_index values sorted ascending. Nodes with no readings at all are
    dropped with a warning. A missing (node, time) row, or a value token
    that does not parse to a finite real, marks that entry natively missing.

    Raises:
        MalformedCsv, DuplicateReading, UnknownNode, EmptyDataset.
    """
    positions_path = Path(positions_path)
    readings_path = Path(readings_path)
    positions = load_positions(positions_path)
    node_index = {nid: i for i, nid in enumerate(positions.node_ids)}
    text = _read_text(readings_path)
    parsed = _parse_readings_fast(text, node_index)
    if parsed is None:
        parsed = _parse_readings_checked(readings_path, text, node_index)
    rows, time_order, cols, values = parsed

    present = np.bincount(rows, minlength=positions.n_nodes) > 0
    dropped = [positions.node_ids[i] for i in np.flatnonzero(~present)]
    if dropped:
        warnings.warn(f"dropping nodes with no readings: {', '.join(dropped)}", stacklevel=2)
    keep = np.flatnonzero(present)
    if len(keep) < 2:
        raise EmptyDataset(f"{readings_path}: fewer than 2 nodes have readings")

    finite = np.isfinite(values)
    cells = ((np.cumsum(present) - 1)[rows[finite]], cols[finite])
    signal = np.zeros((len(keep), len(time_order)))
    signal[cells] = values[finite]
    native = np.zeros(signal.shape, dtype=bool)
    native[cells] = True

    kept_positions = NodePositions(
        coords=positions.coords[keep],
        node_ids=tuple(positions.node_ids[i] for i in keep),
    )
    return Dataset(
        positions=kept_positions,
        signal=TimeVaryingSignal(values=signal),
        native_mask=native,
        name=name if name is not None else readings_path.stem,
        time_indices=tuple(time_order.tolist()),
    )


def filter_consistent_nodes(dataset: Dataset, min_coverage: float) -> Dataset:
    """Keep nodes whose fraction of native readings is at least min_coverage.

    min_coverage = 1.0 keeps only nodes with a complete series;
    min_coverage = 0 is the identity.
    """
    if not 0 <= min_coverage <= 1:
        raise ValueError(f"min_coverage must be in [0, 1], got {min_coverage}")
    coverage = dataset.native_mask.mean(axis=1)
    keep = np.nonzero(coverage >= min_coverage)[0]
    if keep.size < 2:
        raise EmptyDataset(
            f"only {keep.size} nodes reach coverage {min_coverage}; need at least 2"
        )
    if keep.size == dataset.n_nodes:
        return dataset
    positions = NodePositions(
        coords=dataset.positions.coords[keep],
        node_ids=tuple(dataset.positions.node_ids[i] for i in keep),
    )
    return Dataset(
        positions=positions,
        signal=TimeVaryingSignal(values=dataset.signal.values[keep]),
        native_mask=dataset.native_mask[keep],
        name=dataset.name,
        time_indices=dataset.time_indices,
    )


def _finite_or_none(value: float):
    return float(value) if value is not None and math.isfinite(value) else None


def result_paths(path) -> tuple[Path, Path]:
    """Resolve an output base path into its (csv, json) pair.

    The parent directory is created if it does not exist yet.
    """
    base = Path(path)
    if base.suffix in {".csv", ".json"}:
        base = base.with_suffix("")
    base.parent.mkdir(parents=True, exist_ok=True)
    return base.with_suffix(".csv"), base.with_suffix(".json")


def write_results(results, path, config: dict | None = None) -> None:
    """Write experiment results as a CSV summary table plus a JSON document.

    ``path`` is a base path: ``<path>.csv`` gets one row per (dataset,
    method, density) with means and population standard deviations at 6
    significant digits; ``<path>.json`` carries full-precision per-repetition
    values, failures, and an echo of the configuration. Output bytes are
    deterministic for identical inputs.
    """
    results = list(results)
    if not results:
        raise ValueError("results must be nonempty")
    csv_path, json_path = result_paths(path)

    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["dataset", "method", "density", "rmse_mean", "rmse_std", "mae_mean", "mae_std", "reps"]
        )
        for r in results:
            writer.writerow(
                [
                    r.dataset_name,
                    r.method,
                    format(r.density, ".6g"),
                    _fmt(r.rmse_mean),
                    _fmt(r.rmse_std),
                    _fmt(r.mae_mean),
                    _fmt(r.mae_std),
                    len(r.per_rep),
                ]
            )

    doc = {
        "config": config,
        "results": [
            {
                "dataset": r.dataset_name,
                "method": r.method,
                "density": r.density,
                "rmse_mean": _finite_or_none(r.rmse_mean),
                "rmse_std": _finite_or_none(r.rmse_std),
                "mae_mean": _finite_or_none(r.mae_mean),
                "mae_std": _finite_or_none(r.mae_std),
                "repetitions": r.repetitions,
                "per_rep": [
                    {"seed": seed, "rmse": rm, "mae": ma} for seed, rm, ma in r.per_rep
                ],
                "failed_reps": [
                    {"seed": seed, "error": message} for seed, message in r.failed
                ],
            }
            for r in results
        ],
    }
    json_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _fmt(value: float) -> str:
    return format(value, ".6g") if math.isfinite(value) else "nan"
