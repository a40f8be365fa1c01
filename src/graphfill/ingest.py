"""Dataset loading from CSV.

Two long-format CSV contracts cover both weather-station style and indoor
lab style sensor networks:

* positions: header ``node_id,x,y``; one row per node.
* readings: header ``node_id,time_index,value``; absent (node, time) rows or
  non-finite value tokens mean the reading is natively missing.

Time is an integer index; only its ordering matters. Nodes keep the
positions-file order, time columns are sorted ascending by index.

Both files are UTF-8, with or without a byte-order mark, and are read by one
csv.reader: RFC-4180 quoting, and quoted fields keep their line breaks.
Fields are stripped of surrounding whitespace, blank lines are skipped, and
every fault is reported as ``file:line``, the line on which the row starts;
of several faults, field counts included, the first in file order is raised.

numpy's C parser reads a readings file itself, in one np.loadtxt call, and
ids map to nodes by np.searchsorted over the sorted node ids. That path skips
a file with a quote character or NUL, with a line break other than CR, LF or
CRLF (str.splitlines also breaks at VT, FF, U+001C-U+001E, NEL, U+2028 and
U+2029), or when a node id holds a NUL, which numpy drops. Anything it
refuses or finds wrong sends the file to the row checker, which raises the
first fault, so both paths load the same Dataset and raise the same errors.
Only the checker applies csv.field_size_limit().
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .graph import NodePositions, _frozen
from .temporal import TimeVaryingSignal, check_mask

_POSITIONS_HEADER = ["node_id", "x", "y"]
_READINGS_HEADER = ["node_id", "time_index", "value"]

# numpy stores every id of a readings row in 4 bytes per character of the
# longest node id. Past this length that outweighs the row checker's
# Python strings, so such files take the checker.
_FAST_ID_CHARS = 64

# Line breaks of str.splitlines that numpy's file reader does not break at.
_OTHER_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


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
        if self.positions.n_nodes != self.n_nodes:
            raise ValueError("positions and signal node counts differ")
        if len(self.time_indices) != self.n_steps:
            raise ValueError("time_indices and signal column counts differ")
        if np.any(self.signal.values[~native] != 0.0):
            raise ValueError("signal must be zero where the reading is missing")
        object.__setattr__(self, "native_mask", native)
        object.__setattr__(self, "time_indices", tuple(int(t) for t in self.time_indices))

    @property
    def n_nodes(self) -> int:
        return self.signal.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.signal.values.shape[1]


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def _records(path: Path, text: str, header: list[str]):
    """Yield (line, stripped fields) for each data row of CSV text.

    Fields follow csv.reader's rules, and a quoted field keeps its line
    breaks. line is the physical line, from 1, on which the row starts. The
    first row must match header. Blank and whitespace-only lines are skipped;
    an empty file, a row with the wrong number of fields, or one csv.reader
    rejects (a field longer than csv.field_size_limit()) raises InvalidInput.
    """
    reader = csv.reader(text.splitlines(keepends=True))
    start = 1
    try:
        for record in reader:
            fields = [field.strip() for field in record]
            if start == 1:
                if fields != header:
                    got = ",".join(fields)
                    raise InvalidInput(f"{path}: expected header {','.join(header)}, got {got}")
            elif len(fields) == len(header):
                yield start, fields
            elif len(fields) > 1 or any(fields):  # one blank field is a blank line
                raise InvalidInput(
                    f"{path}:{start}: expected {len(header)} fields, got {len(fields)}"
                )
            start = reader.line_num + 1
    except csv.Error as exc:
        raise InvalidInput(f"{path}:{reader.line_num}: {exc}") from exc
    if start == 1:
        raise InvalidInput(f"{path}: empty file")


def load_positions(path) -> NodePositions:
    """Read a ``node_id,x,y`` CSV into NodePositions."""
    path = Path(path)
    coords: dict[str, tuple[float, float]] = {}
    for line, (node_id, x, y) in _records(path, _read_text(path), _POSITIONS_HEADER):
        if node_id in coords:
            raise InvalidInput(f"{path}:{line}: duplicate node_id {node_id!r}")
        try:
            xy = (float(x), float(y))
        except ValueError as exc:
            raise InvalidInput(f"{path}:{line}: bad coordinate for {node_id!r}: {exc}") from exc
        if not all(math.isfinite(v) for v in xy):
            raise InvalidInput(f"{path}:{line}: non-finite coordinate for {node_id!r}")
        coords[node_id] = xy
    if len(coords) < 2:
        raise InvalidInput(f"{path}: need at least 2 nodes, got {len(coords)}")
    return NodePositions(coords=np.array(list(coords.values())), node_ids=tuple(coords))


def _parse_readings_fast(path: Path, text: str, node_index: dict[str, int]):
    """Parse a quote-free readings file with numpy's C parser, or return None.

    numpy reads the file at path itself, and text, the file as _read_text
    decoded it, decides whether it may; a file rewritten in between is out of
    scope. Returns (rows, time_order, cols, values) only when the file has no
    fault of any kind; anything else, from a quote character to a duplicate
    reading, returns None and leaves the file to _parse_readings_checked.
    Where loadtxt accepts a token it agrees with Python's int() and float();
    the tokens it refuses (padded ids, empty values, ``1_0``, ``5.0`` as a
    time, int64 overflow, whitespace-only lines) fall back, as do node ids of
    _FAST_ID_CHARS characters or more.
    """
    if ('"' in text or "\x00" in text or any(brk in text for brk in _OTHER_LINE_BREAKS)
            or any("\x00" in nid for nid in node_index)):  # numpy reads "a\x00" as "a"
        return None
    header = text[: text.find("\n")]  # what skiprows=1 skips; one line has no rows
    if [field.strip() for field in header.split(",")] != _READINGS_HEADER:
        return None
    width = max(map(len, node_index)) + 1  # a longer id loads truncated, so unknown
    if width > _FAST_ID_CHARS:
        return None
    dtype = np.dtype([("id", f"U{width}"), ("time", np.int64), ("value", np.float64)])
    try:
        with warnings.catch_warnings():
            # numpy 1.2x only warns when it reads "5.0" as an int; no rows warns too
            warnings.simplefilter("error")
            table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, skiprows=1,
                               ndmin=1, encoding="utf-8-sig")
    except (ValueError, Warning):  # a token or row loadtxt refuses, or no rows
        return None
    known = np.array(list(node_index), dtype=dtype["id"])
    order = np.argsort(known)
    at = order[np.searchsorted(known, table["id"], sorter=order).clip(max=len(known) - 1)]
    if (known[at] != table["id"]).any() or table["time"].min() < 0:
        return None
    rows = np.fromiter(node_index.values(), np.int64, len(known))[at]
    time_order, cols = np.unique(table["time"], return_inverse=True)
    keys = np.sort(rows * len(time_order) + cols)
    if (keys[1:] == keys[:-1]).any():  # a repeated (node, time) cell
        return None
    return rows, time_order, cols, table["value"]


def _parse_readings_checked(path: Path, text: str, node_index: dict[str, int]):
    """Parse readings row by row: (rows, time_order, cols, values).

    Raises the first fault in file order, naming ``file:line``. Each row is
    checked for its node, its time_index, a repeated (node, time) cell and
    its value, in that order.
    """
    rows, times, values, seen = [], [], [], set()
    for line, (node_id, time_token, value_token) in _records(path, text, _READINGS_HEADER):
        row = node_index.get(node_id)
        if row is None:
            raise InvalidInput(f"{path}:{line}: node {node_id!r} not in positions file")
        try:
            time = int(time_token)
        except ValueError as exc:
            raise InvalidInput(f"{path}:{line}: bad time_index {time_token!r}") from exc
        if time < 0:
            raise InvalidInput(f"{path}:{line}: negative time_index {time}")
        if (row, time) in seen:
            raise InvalidInput(f"{path}:{line}: duplicate reading for ({node_id!r}, {time})")
        seen.add((row, time))
        try:
            values.append(float(value_token or "nan"))
        except ValueError as exc:
            raise InvalidInput(f"{path}:{line}: bad value {value_token!r}") from exc
        rows.append(row)
        times.append(time)
    if not rows:
        raise InvalidInput(f"{path}: no readings")
    try:
        times = np.array(times, dtype=np.int64)
    except OverflowError:  # keep huge indices exact
        times = np.array(times, dtype=object)
    time_order, cols = np.unique(times, return_inverse=True)
    return np.array(rows, dtype=np.int64), time_order, cols, np.array(values)


def load_dataset(positions_path, readings_path) -> Dataset:
    """Load positions + long-format readings and pivot into an N x M matrix.

    Node order follows the positions file; time columns are the distinct
    time_index values sorted ascending. A missing (node, time) row, or an
    empty or non-finite value, marks that entry natively missing, and nodes
    with no finite reading at all are dropped with a warning. The dataset is
    named after the readings file's stem.

    Raises InvalidInput at the first fault in file order, naming ``file:line``.
    """
    positions_path = Path(positions_path)
    readings_path = Path(readings_path)
    positions = load_positions(positions_path)
    node_index = {nid: i for i, nid in enumerate(positions.node_ids)}
    text = _read_text(readings_path)
    parsed = _parse_readings_fast(readings_path, text, node_index)
    if parsed is None:
        parsed = _parse_readings_checked(readings_path, text, node_index)
    rows, time_order, cols, values = parsed

    finite = np.isfinite(values)
    present = np.bincount(rows[finite], minlength=positions.n_nodes) > 0
    dropped = [positions.node_ids[i] for i in np.flatnonzero(~present)]
    if dropped:
        warnings.warn(f"dropping nodes with no readings: {', '.join(dropped)}", stacklevel=2)
    keep = np.flatnonzero(present)
    if len(keep) < 2:
        raise InvalidInput(f"{readings_path}: fewer than 2 nodes have readings")

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
        name=readings_path.stem,
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
        raise InvalidInput(
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

