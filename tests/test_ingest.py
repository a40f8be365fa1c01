import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfill as gf
from graphfill import cli, ingest
from graphfill.errors import GraphfillError, InvalidInput


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def positions_csv(tmp_path):
    return write(
        tmp_path / "positions.csv",
        "node_id,x,y\na,0.0,0.0\nb,1.0,0.0\nc,0.0,1.0\n",
    )


def readings_text(rows):
    return "node_id,time_index,value\n" + "".join(f"{n},{t},{v}\n" for n, t, v in rows)


def test_load_complete_dataset(tmp_path, positions_csv):
    rows = [(n, t, f"{10 * i + t}.5") for i, n in enumerate("abc") for t in range(3)]
    readings = write(tmp_path / "r.csv", readings_text(rows))
    ds = gf.load_dataset(positions_csv, readings)
    assert ds.signal.values.shape == (3, 3)
    assert ds.native_mask.all()
    assert ds.positions.node_ids == ("a", "b", "c")
    assert ds.signal.values[1, 2] == 12.5
    assert ds.time_indices == (0, 1, 2)


def test_missing_row_marks_native_missing(tmp_path, positions_csv):
    rows = [(n, t, "1.0") for n in "abc" for t in range(3) if not (n == "b" and t == 2)]
    ds = gf.load_dataset(positions_csv, write(tmp_path / "r.csv", readings_text(rows)))
    assert ds.native_mask[1, 2] == 0
    assert ds.signal.values[1, 2] == 0.0
    assert ds.native_mask.sum() == 8


def test_non_finite_value_marks_native_missing(tmp_path, positions_csv):
    rows = [("a", 0, "1.0"), ("a", 1, "nan"), ("b", 0, "2.0"), ("b", 1, ""), ("c", 0, "3.0"), ("c", 1, "4.0")]
    ds = gf.load_dataset(positions_csv, write(tmp_path / "r.csv", readings_text(rows)))
    assert ds.native_mask[0, 1] == 0
    assert ds.native_mask[1, 1] == 0
    assert ds.native_mask[2, 1] == 1


def test_time_axis_is_sorted_distinct_indices(tmp_path, positions_csv):
    rows = [("a", 7, "1.0"), ("b", 2, "2.0"), ("c", 7, "3.0"), ("a", 2, "4.0")]
    ds = gf.load_dataset(positions_csv, write(tmp_path / "r.csv", readings_text(rows)))
    assert ds.time_indices == (2, 7)
    assert ds.signal.values[0, 0] == 4.0
    assert ds.signal.values[0, 1] == 1.0


def test_many_time_steps(tmp_path):
    # Intel-style horizon: 10^4 distinct epochs become 10^4 columns
    positions = write(tmp_path / "p.csv", "node_id,x,y\na,0,0\nb,1,0\n")
    rows = [(n, t, "1.0") for n in "ab" for t in range(10_000)]
    ds = gf.load_dataset(positions, write(tmp_path / "r.csv", readings_text(rows)))
    assert ds.n_steps == 10_000


def test_duplicate_reading_rejected(tmp_path, positions_csv):
    rows = [("a", 0, "1.0"), ("a", 0, "2.0"), ("b", 0, "1.0"), ("c", 0, "1.0")]
    readings = write(tmp_path / "r.csv", readings_text(rows))
    with pytest.raises(InvalidInput) as info:
        gf.load_dataset(positions_csv, readings)
    assert str(info.value) == f"{readings}:3: duplicate reading for ('a', 0)"
    # the first repeat in file order is reported, not the smallest key
    rows = [("a", 0, "1.0"), ("c", 5, "1.0"), ("c", 5, "2.0"), ("a", 0, "3.0")]
    readings = write(tmp_path / "r2.csv", readings_text(rows))
    with pytest.raises(InvalidInput) as info:
        gf.load_dataset(positions_csv, readings)
    assert str(info.value) == f"{readings}:4: duplicate reading for ('c', 5)"


def test_unknown_node_rejected(tmp_path, positions_csv):
    rows = [("a", 0, "1.0"), ("z", 0, "1.0")]
    readings = write(tmp_path / "r.csv", readings_text(rows))
    with pytest.raises(InvalidInput) as info:
        gf.load_dataset(positions_csv, readings)
    assert str(info.value) == f"{readings}:3: node 'z' not in positions file"
    # the first unknown id in file order is reported
    rows = [("a", 0, "1.0"), ("z", 0, "1.0"), ("y", 0, "1.0")]
    readings = write(tmp_path / "r2.csv", readings_text(rows))
    with pytest.raises(InvalidInput) as info:
        gf.load_dataset(positions_csv, readings)
    assert str(info.value) == f"{readings}:3: node 'z' not in positions file"


def test_malformed_headers_rejected(tmp_path, positions_csv):
    bad_positions = write(tmp_path / "bad_p.csv", "id,x,y\na,0,0\nb,1,1\n")
    with pytest.raises(InvalidInput) as info:
        gf.load_positions(bad_positions)
    assert str(info.value) == f"{bad_positions}: expected header node_id,x,y, got id,x,y"
    bad_readings = write(tmp_path / "bad_r.csv", "node_id,time,value\na,0,1.0\n")
    with pytest.raises(InvalidInput) as info:
        gf.load_dataset(positions_csv, bad_readings)
    assert str(info.value) == (
        f"{bad_readings}: expected header node_id,time_index,value, got node_id,time,value"
    )


def test_malformed_values_rejected(tmp_path, positions_csv):
    header = "node_id,time_index,value\n"
    cases = [
        ("a,0,abc\n", "{}:2: bad value 'abc'"),
        ("a,1.5,2.0\n", "{}:2: bad time_index '1.5'"),
        ("a,0,1.0\nb,-3,2.0\n", "{}:3: negative time_index -3"),
        ("a,0,1.0\n\nb,1\n", "{}:4: expected 3 fields, got 2"),
        ("a,0,1.0\n  \nb\n", "{}:4: expected 3 fields, got 1"),
        ("a,0,1.0\n , \n", "{}:3: expected 3 fields, got 2"),  # empty fields, not a blank line
        # faults are reported in file order, whatever check finds them
        ("a,0,1.0\nb,0,x\nz,0,1.0\nb,q,1.0\n", "{}:3: bad value 'x'"),
        ("a,0,1.0\nb,-1,1.0\na,0,x\n", "{}:3: negative time_index -1"),
        ("a,0,1.0\nz,x,1.0\nb,1,1.0\n", "{}:3: node 'z' not in positions file"),
        # a wrong field count takes its place in file order too
        ("a,0,zz\nb,0,1.0\na,1\n", "{}:2: bad value 'zz'"),
        ("z,0,1.0\na,0,1.0,2\n", "{}:2: node 'z' not in positions file"),
    ]
    for k, (body, message) in enumerate(cases):
        readings = write(tmp_path / f"r{k}.csv", header + body)
        with pytest.raises(InvalidInput) as info:
            gf.load_dataset(positions_csv, readings)
        assert str(info.value) == message.format(readings)
    positions = write(tmp_path / "p.csv", "node_id,x,y\na,0,0\na,1,1\nb,2\n")
    with pytest.raises(InvalidInput) as info:
        gf.load_positions(positions)
    assert str(info.value) == f"{positions}:3: duplicate node_id 'a'"


def test_quoting_padding_and_blank_lines(tmp_path):
    positions = write(
        tmp_path / "p.csv", 'node_id , x , y\n"a,1",0,0\n  b  , 1.0 ,\t0\n"say ""hi""",0,1\n'
    )
    readings = write(
        tmp_path / "r.csv",
        "node_id,time_index,value\n"
        '"a,1",0,1.5\n'
        "\n"
        "   \n"
        " b ,\t0 , 2.5 \n"
        "\t\n"
        '"say ""hi""", 1 ,\n'
        '"a,1",1,  -0.25\n'
        "\n",
    )
    # 'say "hi"' has one reading, and its value is empty, so it is dropped
    with pytest.warns(UserWarning, match='^dropping nodes with no readings: say "hi"$'):
        ds = gf.load_dataset(positions, readings)
    assert ds.positions.node_ids == ("a,1", "b")
    assert ds.positions.coords.tolist() == [[0, 0], [1, 0]]
    assert ds.time_indices == (0, 1)
    assert ds.signal.values.tolist() == [[1.5, -0.25], [2.5, 0.0]]
    assert ds.native_mask.tolist() == [[True, True], [True, False]]


def test_quoted_line_break_kept_in_node_id(tmp_path):
    positions = write(tmp_path / "p.csv", 'node_id,x,y\n"a\nb",0,0\nc,1,0\n')
    readings = write(
        tmp_path / "r.csv",
        'node_id,time_index,value\n"a\nb",0,1.5\nc,0,2.5\n\n"a\nb",1,0.5\n',
    )
    ds = gf.load_dataset(positions, readings)
    assert ds.positions.node_ids == ("a\nb", "c")
    assert ds.signal.values.tolist() == [[1.5, 0.5], [2.5, 0.0]]
    # a later fault still names its physical line
    write(readings, readings.read_text() + "c,x,1.0\n")
    with pytest.raises(InvalidInput, match=f"^{readings}:8: bad time_index 'x'$"):
        gf.load_dataset(positions, readings)


def test_node_without_readings_dropped_with_warning(tmp_path, positions_csv):
    rows = [(n, t, "1.0") for n in "ab" for t in range(2)]
    readings = write(tmp_path / "r.csv", readings_text(rows))
    with pytest.warns(UserWarning, match="c"):
        ds = gf.load_dataset(positions_csv, readings)
    assert ds.positions.node_ids == ("a", "b")


@pytest.mark.parametrize("token", ["", "nan", "inf"])
def test_node_without_finite_readings_dropped_with_warning(tmp_path, positions_csv, token):
    # rows of c exist, but none holds a finite value
    rows = [(n, t, "1.0" if n != "c" else token) for n in "abc" for t in range(2)]
    readings = write(tmp_path / "r.csv", readings_text(rows))
    with pytest.warns(UserWarning, match="^dropping nodes with no readings: c$"):
        ds = gf.load_dataset(positions_csv, readings)
    assert ds.positions.node_ids == ("a", "b")
    assert ds.time_indices == (0, 1)
    assert ds.native_mask.all()


def test_empty_readings_rejected(tmp_path, positions_csv):
    readings = write(tmp_path / "r.csv", "node_id,time_index,value\n")
    with pytest.raises(InvalidInput) as info:
        gf.load_dataset(positions_csv, readings)
    assert str(info.value) == f"{readings}: no readings"


def test_duplicate_position_ids_rejected(tmp_path):
    bad = write(tmp_path / "p.csv", "node_id,x,y\na,0,0\na,1,1\n")
    with pytest.raises(InvalidInput) as info:
        gf.load_positions(bad)
    assert str(info.value) == f"{bad}:3: duplicate node_id 'a'"


def test_filter_consistent_nodes(tmp_path, positions_csv):
    # coverages over 10 steps: a = 1.0, b = 0.9, c = 0.5
    rows = [("a", t, "1.0") for t in range(10)]
    rows += [("b", t, "1.0") for t in range(9)]
    rows += [("c", t, "1.0") for t in range(5)]
    ds = gf.load_dataset(positions_csv, write(tmp_path / "r.csv", readings_text(rows)))

    kept = gf.filter_consistent_nodes(ds, 0.9)
    assert kept.positions.node_ids == ("a", "b")
    assert gf.filter_consistent_nodes(ds, 0.0) is ds
    with pytest.raises(InvalidInput, match="^only 1 nodes reach coverage 1.0; need at least 2$"):
        gf.filter_consistent_nodes(ds, 1.0)  # only "a" is fully covered


def test_filter_full_coverage_drops_incomplete_node(tmp_path, positions_csv):
    rows = [(n, t, "1.0") for n in "ab" for t in range(4)]
    rows += [("c", t, "1.0") for t in range(4) if t != 2]  # c misses one reading
    ds = gf.load_dataset(positions_csv, write(tmp_path / "r.csv", readings_text(rows)))
    filtered = gf.filter_consistent_nodes(ds, 1.0)
    assert filtered.positions.node_ids == ("a", "b")
    assert filtered.native_mask.all()


def test_filter_drops_below_two_nodes(tmp_path, positions_csv):
    rows = [("a", t, "1.0") for t in range(4)]
    rows += [("b", 0, "1.0"), ("c", 0, "1.0")]
    ds = gf.load_dataset(positions_csv, write(tmp_path / "r.csv", readings_text(rows)))
    with pytest.raises(InvalidInput, match="^only 1 nodes reach coverage 1.0; need at least 2$"):
        gf.filter_consistent_nodes(ds, 1.0)


def test_round_trip_preserves_triples(tmp_path, positions_csv):
    rows = [("a", 0, "1.5"), ("a", 2, "2.5"), ("b", 0, "-3.25"), ("b", 2, "0.125"), ("c", 2, "9.0")]
    ds = gf.load_dataset(positions_csv, write(tmp_path / "r.csv", readings_text(rows)))
    recovered = {
        (ds.positions.node_ids[i], ds.time_indices[c], float(ds.signal.values[i, c]))
        for i, c in zip(*np.nonzero(ds.native_mask))
    }
    expected = {(n, t, float(v)) for n, t, v in rows}
    assert recovered == expected


def test_utf8_bom_files_load(tmp_path):
    # spreadsheet exports often start with a byte-order mark
    positions = tmp_path / "p.csv"
    positions.write_bytes("\ufeffnode_id,x,y\na,0,0\nb,1,0\n".encode("utf-8"))
    readings = tmp_path / "r.csv"
    readings.write_bytes(
        ("\ufeff" + readings_text([("a", 0, "1.5"), ("b", 0, "2.5")])).encode("utf-8")
    )
    ds = gf.load_dataset(positions, readings)
    assert ds.positions.node_ids == ("a", "b")
    assert ds.signal.values[:, 0].tolist() == [1.5, 2.5]


def csv_text(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


node_ids = st.lists(
    st.text(alphabet='ab ,"', min_size=1, max_size=4).filter(lambda s: s.strip()),
    min_size=2,
    max_size=4,
    unique_by=str.strip,
)
value_tokens = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["", "nan", "inf", "-inf", " 1.5 "]),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ids=node_ids)
def test_load_matches_dict_pivot(data, ids):
    # Round trip: a long table written by csv.writer, in any row order and
    # with any rows absent, loads as the plain dict pivot of that table.
    cells = data.draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.integers(0, 20)), unique=True, max_size=30
        )
    )
    rows = [(n, t, data.draw(value_tokens)) for n, t in data.draw(st.permutations(cells))]
    with tempfile.TemporaryDirectory() as tmp:
        positions = Path(tmp) / "p.csv"
        readings = Path(tmp) / "r.csv"
        positions.write_text(
            csv_text([("node_id", "x", "y")] + [(n, k, 0) for k, n in enumerate(ids)])
        )
        readings.write_text(csv_text([("node_id", "time_index", "value")] + rows))

        pivot = {}
        for n, t, v in rows:
            value = float(v) if v.strip() else math.nan
            pivot[n.strip(), t] = value if math.isfinite(value) else None
        kept = [n.strip() for n in ids
                if any(key[0] == n.strip() and v is not None for key, v in pivot.items())]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if len(kept) < 2:
                with pytest.raises(InvalidInput) as info:
                    gf.load_dataset(positions, readings)
                fault = "fewer than 2 nodes have readings" if rows else "no readings"
                assert str(info.value) == f"{readings}: {fault}"
                return
            ds = gf.load_dataset(positions, readings)

    times = sorted({t for _, t in pivot})
    assert ds.positions.node_ids == tuple(kept)
    assert ds.time_indices == tuple(times)
    assert bool(caught) == (len(kept) < len(ids))
    for i, n in enumerate(kept):
        for c, t in enumerate(times):
            value = pivot.get((n, t))
            assert ds.native_mask[i, c] == (value is not None)
            assert ds.signal.values[i, c] == (0.0 if value is None else value)


def load_outcome(positions, readings, checker_only=False):
    """What load_dataset gives: the Dataset's bytes and its warnings, or its error.

    checker_only turns numpy's parser off, so every file goes through the
    row checker.
    """
    no_fast_path = mock.patch.object(
        ingest, "_parse_readings_fast", lambda path, text, index: None
    )
    with warnings.catch_warnings(record=True) as caught, (
        no_fast_path if checker_only else contextlib.nullcontext()
    ):
        warnings.simplefilter("always")
        try:
            ds = gf.load_dataset(positions, readings)
        except GraphfillError as exc:
            return type(exc), str(exc)
    return (
        ds.signal.values.shape,
        ds.signal.values.tobytes(),
        ds.native_mask.tobytes(),
        ds.positions.node_ids,
        ds.positions.coords.tobytes(),
        ds.time_indices,
        [str(w.message) for w in caught],
    )


def fast_parse(readings, node_ids):
    text = Path(readings).read_text(encoding="utf-8-sig")
    index = {nid: i for i, nid in enumerate(node_ids)}
    return ingest._parse_readings_fast(Path(readings), text, index)


quote_free_ids = st.lists(
    st.text(alphabet="ab", min_size=1, max_size=3), min_size=2, max_size=4, unique=True
)
time_formats = st.sampled_from(["{}", " {} ", "+{}", "0{}", "\t{}"])
accepted_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(
        ["nan", "NaN", "inf", "-inf", "Infinity", " 1.5 ", "-0.0", "1e-300", "5e-324", "1e400",
         ".5", "1.", "+2"]
    ),
)
refused_values = st.sampled_from(["", "1_0", " "])
faulty_rows = st.sampled_from(
    ["z,0,1.0", "{id},-1,1.0", "{id},x,1.0", "{id},5.0,1.0", "{id},0,x", "{id},0", "{id}\x00,0,1.0",
     "{id}{id},0,1.0", " {id} ,0,1.0", "{id},99999999999999999999,1.0", " "]
)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), ids=quote_free_ids, refused=st.booleans())
def test_fast_path_matches_checker(data, ids, refused):
    # Quote-free files in any row order, with padding, blank lines and every
    # value token class load the same through the public entry as through the
    # row checker alone, down to the bytes, the drop warning and the error
    # message. Files with refused tokens, faulty rows or a repeated cell fall
    # back; the others must take numpy's parser.
    cells = data.draw(
        st.lists(st.tuples(st.sampled_from(ids), st.integers(0, 20)), unique=True, max_size=30)
    )
    values = st.one_of(accepted_values, refused_values) if refused else accepted_values
    lines = [
        f"{n},{data.draw(time_formats).format(t)},{data.draw(values)}"
        for n, t in data.draw(st.permutations(cells))
    ]
    if refused:
        for _ in range(data.draw(st.integers(0, 2))):
            fault = data.draw(faulty_rows).format(id=data.draw(st.sampled_from(ids)))
            lines.insert(data.draw(st.integers(0, len(lines))), fault)
        if cells and data.draw(st.booleans()):  # a repeat of an earlier cell
            lines.append(f"{cells[0][0]},{cells[0][1]},0.5")
    for _ in range(data.draw(st.integers(0, 2))):
        lines.insert(data.draw(st.integers(0, len(lines))), "")
    with tempfile.TemporaryDirectory() as tmp:
        rows = "".join(f"{n},{k},0\n" for k, n in enumerate(ids))
        positions = write(Path(tmp) / "p.csv", "node_id,x,y\n" + rows)
        readings = write(Path(tmp) / "r.csv", "\n".join(["node_id,time_index,value"] + lines))
        if cells and not refused:
            assert fast_parse(readings, ids) is not None
        assert load_outcome(positions, readings) == load_outcome(positions, readings, True)


def test_fast_path_taken_on_clean_files(tmp_path, positions_csv):
    # every token class numpy's parser agrees on, plus blank lines
    rows = [
        "a, 0 , 1.5 ", "b,+0,-0.0", "c,00,1e-300", "", "a,\t1,5e-324", "b,1,nan",
        "c,1,-Infinity", "a,2,1e400", "b,2,.5", "c,2,1.",
    ]
    readings = write(tmp_path / "r.csv", "node_id,time_index,value\n" + "\n".join(rows))
    assert fast_parse(readings, ("a", "b", "c")) is not None
    assert load_outcome(positions_csv, readings) == load_outcome(positions_csv, readings, True)


FAULTS = {
    "unknown node": ("a,0,1\nz,0,1\n", "{}:3: node 'z' not in positions file"),
    "bad time_index": ("a,0,1\n\nb,1e3,1\n", "{}:4: bad time_index '1e3'"),
    "negative time_index": ("a,0,1\nb,-2,1\n", "{}:3: negative time_index -2"),
    "duplicate reading": ("a,0,1\nb,0,1\n \na,0,2\n", "{}:5: duplicate reading for ('a', 0)"),
    "bad value": ("a,0,1\nb,0,1\nc,0,1.2.3\n", "{}:4: bad value '1.2.3'"),
    "field count": ("a,0,1\nb,0\n", "{}:3: expected 3 fields, got 2"),
    "fault after a quoted field over two lines": ('a,0,"1\n"\nb,0,x\n', "{}:4: bad value 'x'"),
    "header": ("", "{}: expected header node_id,time_index,value, got node_id,t,v"),
    "no readings": ("\n\n", "{}: no readings"),
    "one node with readings": ("a,0,1\na,1,2\n", "{}: fewer than 2 nodes have readings"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_same_through_both_paths(tmp_path, positions_csv, fault):
    body, message = FAULTS[fault]
    header = "node_id,t,v\n" if fault == "header" else "node_id,time_index,value\n"
    readings = write(tmp_path / "r.csv", header + body)
    outcome = load_outcome(positions_csv, readings)
    assert outcome == (InvalidInput, message.format(readings))
    assert outcome == load_outcome(positions_csv, readings, checker_only=True)


FALLBACKS = {
    # case: (readings body, whether numpy's parser refuses the file)
    "trailing NUL id": ("a\x00,0,1\nb,0,1\n", True),
    "id longer than every node id": ("a,0,1\nbbbb,0,1\n", True),
    "id with a node id as prefix": ("a,0,1\nab,0,1\n", True),
    "padded id": (" a ,0,1\nb,0,1\n", True),
    "id after every node id": ("a,0,1\nz,0,1\n", True),
    # str.splitlines breaks lines at these, and numpy's file reader does not
    "NEL inside a line": ("a,0,1\x85b,0,2\nc,0,3\n", True),
    "LINE SEPARATOR inside a line": ("a,0,1\u2028b,0,2\nc,0,3\n", True),
    # numpy reads "a,0<break>,1" as one row; the checker finds two short lines
    "vertical tab after a time": ("a,0\v,1\nb,0,2\n", True),
    "form feed after a time": ("a,0\f,1\nb,0,2\n", True),
    "x1c after a time": ("a,0\x1c,1\nb,0,2\n", True),
    "x1d after a time": ("a,0\x1d,1\nb,0,2\n", True),
    "x1e after a time": ("a,0\x1e,1\nb,0,2\n", True),
    "NEL after a time": ("a,0\x85,1\nb,0,2\n", True),
    "LINE SEPARATOR after a time": ("a,0\u2028,1\nb,0,2\n", True),
    "PARAGRAPH SEPARATOR after a time": ("a,0\u2029,1\nb,0,2\n", True),
    "whitespace-only line": ("a,0,1\n \t \nb,0,2\n", True),
    "empty value": ("a,0,\nb,0,2\n", True),
    "underscore in time": ("a,1_0,1\nb,0,2\n", True),
    "underscore in value": ("a,0,1_0\nb,0,2\n", True),
    "5.0 as a time": ("a,5.0,1\nb,0,2\n", True),
    "time over int64": ("a,99999999999999999999,1\nb,0,2\n", True),
    "quoted field": ('"a",0,1\nb,0,2\n', True),
    "header only": ("", True),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_fallback_loads_as_checker(tmp_path, positions_csv, case):
    body, refused = FALLBACKS[case]
    readings = write(tmp_path / "r.csv", "node_id,time_index,value\n" + body)
    assert (fast_parse(readings, ("a", "b", "c")) is None) == refused
    assert load_outcome(positions_csv, readings) == load_outcome(positions_csv, readings, True)


FAST_CASES = {
    # case: (node ids in positions order, readings file bytes)
    "CRLF": ("abc", b"node_id,time_index,value\r\na,0,1\r\nb,0,2\r\nc,1,3\r\n"),
    "lone CR": ("abc", b"node_id,time_index,value\ra,0,1\rb,0,2\rc,1,3\r"),
    "BOM and CRLF": ("abc", b"\xef\xbb\xbfnode_id,time_index,value\r\na,0,1\r\nb,1,2\r\n"),
    "non-ASCII ids": (
        ("é", "ß", "東京", "e"),
        "node_id,time_index,value\né,0,1\n東京,0,2\nß,1,3\ne,1,4\n".encode("utf-8"),
    ),
    "ids that sort between known ids": (
        ("b", "ab", "ba", "a", "bb"),
        b"node_id,time_index,value\nba,0,1\nab,0,2\nbb,1,3\na,1,4\nb,0,5\n",
    ),
}


@pytest.mark.parametrize("case", sorted(FAST_CASES))
def test_fast_path_cases_load_as_checker(tmp_path, case):
    ids, body = FAST_CASES[case]
    rows = "".join(f"{n},{k},0\n" for k, n in enumerate(ids))
    positions = write(tmp_path / "p.csv", "node_id,x,y\n" + rows)
    readings = tmp_path / "r.csv"
    readings.write_bytes(body)
    assert fast_parse(readings, tuple(ids)) is not None
    outcome = load_outcome(positions, readings)
    assert outcome == load_outcome(positions, readings, True)
    assert not isinstance(outcome[0], type)  # a Dataset, not an error


def test_node_id_with_trailing_nul_takes_the_checker(tmp_path):
    # numpy would read the node id "a\x00" as "a" and take a's readings
    readings = write(tmp_path / "r.csv", readings_text([("a", 0, "1"), ("b", 0, "2")]))
    assert fast_parse(readings, ("a\x00", "b")) is None
    nodes = gf.NodePositions(coords=np.array([[0.0, 0.0], [1.0, 0.0]]), node_ids=("a\x00", "b"))
    with mock.patch.object(ingest, "load_positions", lambda path: nodes):
        with pytest.raises(InvalidInput, match=r"r\.csv:2: node 'a' not in positions file"):
            gf.load_dataset(tmp_path / "p.csv", readings)


@pytest.mark.parametrize("length", [ingest._FAST_ID_CHARS - 1, ingest._FAST_ID_CHARS])
def test_long_node_ids_take_the_checker(tmp_path, length):
    # numpy would store every row's id at the longest node id's width
    long_id = "s" * length
    positions = write(tmp_path / "p.csv", f"node_id,x,y\n{long_id},0,0\nb,1,0\n")
    readings = write(tmp_path / "r.csv", readings_text([(long_id, 0, "1.5"), ("b", 0, "2.5")]))
    assert (fast_parse(readings, (long_id, "b")) is None) == (length == ingest._FAST_ID_CHARS)
    ds = gf.load_dataset(positions, readings)
    assert ds.positions.node_ids == (long_id, "b")
    assert ds.signal.values[:, 0].tolist() == [1.5, 2.5]


# Result files are written by the CLI; these run a kNN-baseline `graphfill gridsearch`.
def _experiment(tmp_path, out, **overrides) -> int:
    doc = {"density": 0.1, "repetitions": 2, "master_seed": 0,
           "methods": ["knn_baseline"], "k_graph": 5}
    doc.update(overrides)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["gridsearch", "--synthetic", "--config", str(config), "--out", str(out)])


def test_write_results_csv_shape(tmp_path):
    assert _experiment(tmp_path, tmp_path / "results") == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    (entry,) = json.loads((tmp_path / "results.json").read_text())["entries"]
    assert len(lines) == 2
    assert lines[0] == "method,epsilon,beta,gamma,rmse_mean,rmse_std,mae_mean,mae_std,reps,failed"
    # the stds are not in the JSON: the population std of per_rep, to 6 digits
    rmses, maes = ([rep[key] for rep in entry["per_rep"]] for key in ("rmse", "mae"))
    stats = [format(v, ".6g") for v in
             (entry["rmse_mean"], np.std(rmses), entry["mae_mean"], np.std(maes))]
    assert lines[1] == ",".join(["knn_baseline", "", "", "", *stats, "2", "0"])


def test_write_results_byte_deterministic(tmp_path):
    assert _experiment(tmp_path, tmp_path / "a", master_seed=1) == 0
    assert _experiment(tmp_path, tmp_path / "b", master_seed=1) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_write_results_json_contents(tmp_path):
    assert _experiment(tmp_path, tmp_path / "out", k_graph=4) == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["config_echo"] == {
        "density": 0.1, "repetitions": 2, "master_seed": 0, "methods": ["knn_baseline"],
        "k_graph": 4,
    }
    assert doc["dataset"] == "synthetic"
    (entry,) = doc["entries"]
    assert entry["method"] == "knn_baseline" and entry["config"] is None
    assert doc["best"] == {"knn_baseline": {key: entry[key]
                                            for key in ("config", "rmse_mean", "mae_mean")}}
    assert [rep["seed"] for rep in entry["per_rep"]] == [0, 1]
    assert set(entry["per_rep"][0]) == {"seed", "rmse", "mae"}
    # the JSON keeps full precision; only the CSV rounds to 6 digits
    assert entry["rmse_mean"] == np.mean([rep["rmse"] for rep in entry["per_rep"]])
    assert entry["failed_reps"] == []

    # gamma = 0 fails both repetitions; gamma = 0.5 wins
    assert _experiment(tmp_path, tmp_path / "failed", methods=["sobolev"], eps_grid=[0.5],
                       beta_grid=[1.0], gamma_grid=[0.0, 0.5]) == 0
    entry, _ = json.loads((tmp_path / "failed.json").read_text())["entries"]
    assert entry["config"] == {"epsilon": 0.5, "beta": 1.0, "gamma": 0.0}
    assert [rep["seed"] for rep in entry["failed_reps"]] == [0, 1]
    assert entry["failed_reps"][0]["error"].startswith("SingularSystem: gamma = 0")
    assert entry["per_rep"] == [] and entry["rmse_mean"] is None


def test_result_paths_strip_suffix(tmp_path):
    assert _experiment(tmp_path, tmp_path / "new" / "x.csv") == 0
    # a missing parent directory is created
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == ["x.csv", "x.json"]


def test_write_results_requires_nonempty(tmp_path, capsys):
    assert _experiment(tmp_path, tmp_path / "nothing", methods=[]) == 2
    assert "methods must be distinct and nonempty" in capsys.readouterr().err
    assert not (tmp_path / "nothing.csv").exists()
