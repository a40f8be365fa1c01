import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfill as gf
from graphfill.errors import (
    DuplicateReading,
    EmptyDataset,
    MalformedCsv,
    UnknownNode,
)
from graphfill.harness import ExperimentResult
from graphfill.ingest import result_paths


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
    with pytest.raises(DuplicateReading):
        gf.load_dataset(positions_csv, write(tmp_path / "r.csv", readings_text(rows)))
    # the first repeat in file order is reported, not the smallest key
    rows = [("a", 0, "1.0"), ("c", 5, "1.0"), ("c", 5, "2.0"), ("a", 0, "3.0")]
    readings = write(tmp_path / "r2.csv", readings_text(rows))
    with pytest.raises(DuplicateReading) as info:
        gf.load_dataset(positions_csv, readings)
    assert str(info.value) == f"{readings}: duplicate reading for ('c', 5)"


def test_unknown_node_rejected(tmp_path, positions_csv):
    rows = [("a", 0, "1.0"), ("z", 0, "1.0")]
    with pytest.raises(UnknownNode):
        gf.load_dataset(positions_csv, write(tmp_path / "r.csv", readings_text(rows)))
    # the first unknown id in file order is reported
    rows = [("a", 0, "1.0"), ("z", 0, "1.0"), ("y", 0, "1.0")]
    readings = write(tmp_path / "r2.csv", readings_text(rows))
    with pytest.raises(UnknownNode) as info:
        gf.load_dataset(positions_csv, readings)
    assert str(info.value) == f"{readings}: node 'z' not in positions file"


def test_malformed_headers_rejected(tmp_path, positions_csv):
    bad_positions = write(tmp_path / "bad_p.csv", "id,x,y\na,0,0\nb,1,1\n")
    with pytest.raises(MalformedCsv):
        gf.load_positions(bad_positions)
    bad_readings = write(tmp_path / "bad_r.csv", "node_id,time,value\na,0,1.0\n")
    with pytest.raises(MalformedCsv):
        gf.load_dataset(positions_csv, bad_readings)


def test_malformed_values_rejected(tmp_path, positions_csv):
    header = "node_id,time_index,value\n"
    cases = [
        ("a,0,abc\n", "{}: bad value 'abc'"),
        ("a,1.5,2.0\n", "{}: bad time_index '1.5'"),
        ("a,0,1.0\nb,-3,2.0\n", "{}: negative time_index -3"),
        ("a,0,1.0\n\nb,1\n", "{}:4: expected 3 fields, got 2"),
        ("a,0,1.0\n  \nb\n", "{}:4: expected 3 fields, got 1"),
        # faults are reported in file order, whatever check finds them
        ("a,0,1.0\nb,0,x\nz,0,1.0\nb,q,1.0\n", "{}: bad value 'x'"),
        ("a,0,1.0\nb,-1,1.0\na,0,x\n", "{}: negative time_index -1"),
        ("a,0,1.0\nz,x,1.0\nb,1,1.0\n", "{}: node 'z' not in positions file"),
    ]
    for k, (body, message) in enumerate(cases):
        readings = write(tmp_path / f"r{k}.csv", header + body)
        with pytest.raises((MalformedCsv, UnknownNode)) as info:
            gf.load_dataset(positions_csv, readings)
        assert str(info.value) == message.format(readings)


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
    ds = gf.load_dataset(positions, readings)
    assert ds.positions.node_ids == ("a,1", "b", 'say "hi"')
    assert ds.positions.coords.tolist() == [[0, 0], [1, 0], [0, 1]]
    assert ds.time_indices == (0, 1)
    assert ds.signal.values.tolist() == [[1.5, -0.25], [2.5, 0.0], [0.0, 0.0]]
    assert ds.native_mask.tolist() == [[True, True], [True, False], [False, False]]


def test_node_without_readings_dropped_with_warning(tmp_path, positions_csv):
    rows = [(n, t, "1.0") for n in "ab" for t in range(2)]
    readings = write(tmp_path / "r.csv", readings_text(rows))
    with pytest.warns(UserWarning, match="c"):
        ds = gf.load_dataset(positions_csv, readings)
    assert ds.positions.node_ids == ("a", "b")


def test_empty_readings_rejected(tmp_path, positions_csv):
    with pytest.raises(EmptyDataset):
        gf.load_dataset(
            positions_csv, write(tmp_path / "r.csv", "node_id,time_index,value\n")
        )


def test_duplicate_position_ids_rejected(tmp_path):
    bad = write(tmp_path / "p.csv", "node_id,x,y\na,0,0\na,1,1\n")
    with pytest.raises(MalformedCsv):
        gf.load_positions(bad)


def test_filter_consistent_nodes(tmp_path, positions_csv):
    # coverages over 10 steps: a = 1.0, b = 0.9, c = 0.5
    rows = [("a", t, "1.0") for t in range(10)]
    rows += [("b", t, "1.0") for t in range(9)]
    rows += [("c", t, "1.0") for t in range(5)]
    ds = gf.load_dataset(positions_csv, write(tmp_path / "r.csv", readings_text(rows)))

    kept = gf.filter_consistent_nodes(ds, 0.9)
    assert kept.positions.node_ids == ("a", "b")
    assert gf.filter_consistent_nodes(ds, 0.0) is ds
    with pytest.raises(EmptyDataset):  # only "a" is fully covered
        gf.filter_consistent_nodes(ds, 1.0)


def test_filter_full_coverage_drops_incomplete_node(tmp_path, positions_csv):
    rows = [(n, t, "1.0") for n in "ab" for t in range(4)]
    rows += [("c", t, "1.0") for t in range(4) if t != 2]  # c misses one reading
    ds = gf.load_dataset(positions_csv, write(tmp_path / "r.csv", readings_text(rows)))
    filtered = gf.filter_consistent_nodes(ds, 1.0)
    assert filtered.positions.node_ids == ("a", "b")
    assert filtered.fully_covered


def test_filter_drops_below_two_nodes(tmp_path, positions_csv):
    rows = [("a", t, "1.0") for t in range(4)]
    rows += [("b", 0, "1.0"), ("c", 0, "1.0")]
    ds = gf.load_dataset(positions_csv, write(tmp_path / "r.csv", readings_text(rows)))
    with pytest.raises(EmptyDataset):
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
        kept = [n.strip() for n in ids if any(key[0] == n.strip() for key in pivot)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if len(kept) < 2:
                with pytest.raises(EmptyDataset):
                    gf.load_dataset(positions, readings)
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


def _result(density=0.1, with_failure=False):
    return ExperimentResult(
        dataset_name="demo",
        method="sobolev",
        density=density,
        rmse_mean=1.23456789,
        rmse_std=0.1,
        mae_mean=0.87654321,
        mae_std=0.05,
        per_rep=((0, 1.2, 0.9), (1, 1.3, 0.85)),
        failed=((7, "SingularSystem: node 3 is never observed"),) if with_failure else (),
        repetitions=2,
    )


def test_write_results_csv_shape(tmp_path):
    out = tmp_path / "results"
    gf.write_results([_result()], out)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "dataset,method,density,rmse_mean,rmse_std,mae_mean,mae_std,reps"
    assert lines[1].startswith("demo,sobolev,0.1,1.23457,")


def test_write_results_four_density_rows(tmp_path):
    results = [_result(density=d) for d in (0.1, 0.3, 0.5, 0.7)]
    gf.write_results(results, tmp_path / "table")
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert len(lines) == 5
    assert [line.split(",")[2] for line in lines[1:]] == ["0.1", "0.3", "0.5", "0.7"]


def test_write_results_byte_deterministic(tmp_path):
    results = [_result(), _result(density=0.3)]
    gf.write_results(results, tmp_path / "a", config={"master_seed": 1})
    gf.write_results(results, tmp_path / "b", config={"master_seed": 1})
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_write_results_json_contents(tmp_path):
    gf.write_results([_result(with_failure=True)], tmp_path / "out", config={"k": 5})
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["config"] == {"k": 5}
    entry = doc["results"][0]
    assert entry["per_rep"] == [
        {"seed": 0, "rmse": 1.2, "mae": 0.9},
        {"seed": 1, "rmse": 1.3, "mae": 0.85},
    ]
    assert entry["failed_reps"][0]["seed"] == 7
    assert entry["rmse_mean"] == 1.23456789


def test_result_paths_strip_suffix(tmp_path):
    csv_path, json_path = result_paths(tmp_path / "new" / "x.csv")
    assert csv_path.name == "x.csv" and json_path.name == "x.json"
    assert csv_path.parent.is_dir()  # a missing parent directory is created


def test_write_results_requires_nonempty(tmp_path):
    with pytest.raises(ValueError):
        gf.write_results([], tmp_path / "nothing")
