"""The file boundary: every loader turns a malformed file into ParseError or ValidationError,
write_json writes json.dumps's bytes, and read_table names every bad row's line."""

import csv
import inspect
import json
import math
from itertools import cycle, islice

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xbarsim import (
    CrossbarSpec,
    GenParams,
    Hardware,
    generate_synthetic,
    load_network,
    load_placement,
    load_spec,
    load_spikes,
    load_tech,
    map_network,
    preset,
    save_network,
    save_placement,
    save_spec,
    save_tech,
)
from xbarsim.errors import ParseError, ValidationError
from xbarsim.files import _CHUNK_ROWS, _RECORDS_PER_CALL, Records, json_ints, read_table, write_json, write_table
from xbarsim.fixtures import mapping_demo_network
from xbarsim.mapper import placement_from_json, placement_to_json
from xbarsim.techmodel import PRESETS
from xbarsim.workload import network_from_json, network_to_json
from xbarsim.reports import read_energy_csv, read_isi_csv, read_latency_csv, read_sweep_csv

from conftest import BAD_PLACEMENTS, write_boundary_files

LOADERS = [load_spec, load_tech, load_network, load_placement, load_spikes,
           read_latency_csv, read_energy_csv, read_isi_csv, read_sweep_csv]

# CSV readers and their headers
TABLES = {
    load_spikes: "neuron,time_us",
    read_latency_csv: "crossbar,cluster,best,worst,diff,ratio,mean,"
                      "extreme_best,extreme_worst,extreme_diff,extreme_ratio",
    read_energy_csv: "static_j,spike_j,routing_j,access_overhead_j,total_j",
    read_isi_csv: "neuron,isi_distortion",
    read_sweep_csv: "network,P,Q,norm_energy,norm_latency,norm_variation,expanded_fraction",
}


@pytest.mark.parametrize("name", ["bad.json", "bad.bin"])
@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__name__)
def test_loaders_reject_undecodable_files(tmp_path, loader, name):
    write_boundary_files(tmp_path)
    with pytest.raises((ParseError, ValidationError), match="bad"):
        loader(tmp_path / name)


# The exact message of a BAD_PLACEMENTS case, where one is pinned.
BAD_PLACEMENT_MESSAGES = {"state-lrs9": "bad placement document: unknown resistance state 'LRS9'"}


@pytest.mark.parametrize("name", BAD_PLACEMENTS)
def test_load_placement_rejects_malformed_or_unsound_documents(tmp_path, name):
    write_boundary_files(tmp_path)
    with pytest.raises(ValidationError) as exc:
        load_placement(tmp_path / f"placement-{name}.json")
    if name in BAD_PLACEMENT_MESSAGES:
        assert str(exc.value) == BAD_PLACEMENT_MESSAGES[name]


@pytest.mark.parametrize("node", PRESETS)
def test_every_json_document_written_reads_back_equal(tmp_path, node):
    """Spec, technology, network and placement: saved by the package, loaded by
    its loaders (which refuse NaN and Infinity), and equal to what was saved."""
    tech, spec = preset(node), CrossbarSpec(n=64, n_h=8, n_l=8, p=48, q=56)
    network, _ = generate_synthetic(GenParams(clusters=4, pre_range=(4, 40), post_range=(4, 40),
                                              density=0.12, seed=7))
    placement = map_network(network, Hardware(crossbar_count=4, spec=spec, tech=tech))
    for save, load, value in ((save_spec, load_spec, spec), (save_tech, load_tech, tech),
                              (save_network, load_network, network), (save_placement, load_placement, placement)):
        save(value, tmp_path / "doc.json")
        assert load(tmp_path / "doc.json") == value


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_read_json_refuses_non_finite_tokens(tmp_path, token):
    path = tmp_path / "doc.json"
    path.write_text(f'{{"a": [1, {token}]}}')
    with pytest.raises(ValidationError, match=rf"doc\.json: non-finite number {token}$"):
        load_network(path)


@pytest.mark.parametrize("reader", TABLES, ids=lambda f: f.__name__)
def test_table_readers_reject_non_numeric_values(tmp_path, reader):
    header = TABLES[reader]
    path = tmp_path / "table.csv"
    path.write_text(header + "\n" + ",".join(["abc"] * len(header.split(","))) + "\n")
    with pytest.raises(ParseError, match=r"table\.csv:2:"):
        reader(path)


def test_load_placement_names_file_first_problem_and_count(tmp_path):
    write_boundary_files(tmp_path)
    path = tmp_path / "placement-row-500.json"
    with pytest.raises(ValidationError, match=r"placement-row-500\.json: 1 placement problem\(s\), "
                                              r"first: crossbar 0: cell \(500,0\) outside config '11'$"):
        load_placement(path)


def test_synapse_record_errors_name_the_first_bad_record():
    # Records are parsed column by column, then a bad batch record by record: a bad
    # state in record 0 is reported ahead of a bad pre in record 1.
    network = mapping_demo_network()
    placement = map_network(network, Hardware(crossbar_count=3, spec=CrossbarSpec(n=4), tech=preset("16nm")))
    network_doc, placement_doc = (json.loads(json.dumps(doc, default=list))
                                  for doc in (network_to_json(network), placement_to_json(placement)))
    for records in (network_doc["clusters"][0]["synapses"], placement_doc["crossbars"][0]["synapses"]):
        records[0]["state"], records[1]["pre"] = "LRS9", 0.5
    with pytest.raises(ValidationError, match=r"^unknown resistance state 'LRS9'$"):
        network_from_json(network_doc)
    with pytest.raises(ValidationError, match=r"^bad placement document: unknown resistance state 'LRS9'$"):
        placement_from_json(placement_doc)


def test_json_ints_accepts_ints_and_integral_floats():
    got = json_ints([3, 128.0, -2.0, 2**70], "n")
    assert got == [3, 128, -2, 2**70] and {type(v) for v in got} == {int}


@pytest.mark.parametrize("value", [0.9, 95.7, True, False, math.inf, -math.inf, math.nan, "3", None])
def test_json_ints_rejects_other_values(value):
    with pytest.raises(ValueError) as exc:
        json_ints([1, 2.0, value, 0.5], "p")
    assert str(exc.value) == f"p: expected an integer, got {value!r}"


def test_read_table_streams_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], [[1, "x"], [2, "y"]])
    assert path.read_bytes() == b"a,b\r\n1,x\r\n2,y\r\n"
    rows = read_table(path, {"a": int, "b": str}, "test")
    assert iter(rows) is rows
    assert list(rows) == [[1, "x"], [2, "y"]]


@pytest.mark.parametrize("text, message", [
    ("", "not a test table"),
    ("a,c\n1,2\n", "not a test table"),
    ("a,b,c\n1,2,3\n", "not a test table"),
    ("a,b\n1,2\n\n3\n", r"t\.csv:4: expected 2 values"),
    ("a,b\n1,2,3\n", r"t\.csv:2: expected 2 values"),
    ("a,b\n1," + "9" * 200_000 + "\n", r"t\.csv:2: field larger than field limit"),
])
def test_read_table_rejects_malformed_tables(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        list(read_table(path, {"a": int, "b": int}, "test"))


# --- write_json: the bytes of json.dumps(doc, indent=2, sort_keys=True) + "\n"

# strings built from the pieces the writer splices compact output at, and the
# %-template syntax it formats records with
_TRICKY_TEXT = st.lists(st.sampled_from(["\0", "}", "{", ",", ": ", "}\0{", '"', "\\", "\n", "a", "\u00e9",
                                         "\u2028", "\U0001f600", "%", "%s", "%%"])).map("".join)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True, allow_infinity=True)
            | st.text() | _TRICKY_TEXT)
_KEYS = st.text() | _TRICKY_TEXT

# the values of one Records column: one scalar kind, or any mix
_COLUMN_VALUES = st.sampled_from([
    st.integers(), st.integers(min_value=2**64) | st.integers(max_value=-2**64), st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text() | _TRICKY_TEXT, _SCALARS,
])


@st.composite
def _records(draw):
    """Records of 0 to 4 columns: none, a few, or more than one write block of
    records (a drawn cycle of values repeated to the record count)."""
    names = draw(st.lists(_KEYS, unique=True, max_size=4))
    count = draw(st.sampled_from([0, 1, 2, 3, _RECORDS_PER_CALL, 2 * _RECORDS_PER_CALL + 3]))
    columns = [list(islice(cycle(draw(st.lists(draw(_COLUMN_VALUES), min_size=1, max_size=5))), count))
               for _ in names]
    return Records(names, columns)


def _containers(children):
    return (st.lists(children) | st.lists(children).map(tuple)
            | st.dictionaries(_KEYS, children) | st.dictionaries(st.integers(), children)
            | st.dictionaries(st.floats(allow_nan=False), children)
            | st.lists(st.dictionaries(_KEYS, _SCALARS, min_size=1), min_size=1))


def _expected(doc) -> str:
    """json.dumps's bytes, a Records written as the list of dicts it iterates as."""
    return json.dumps(doc, indent=2, sort_keys=True, default=list) + "\n"


def _assert_written(path, doc):
    """`path` holds _expected(doc). A mismatch names the first differing offset:
    pytest's own diff of two long texts can take minutes."""
    got, want = path.read_text(encoding="utf-8"), _expected(doc)
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        window = slice(max(i - 40, 0), i + 40)
        pytest.fail(f"differs at offset {i}: written {got[window]!r}, json.dumps {want[window]!r}")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.recursive(_SCALARS | _records(), _containers, max_leaves=20))
def test_write_json_matches_json_dumps(tmp_path, doc):
    path = tmp_path / "doc.json"
    write_json(doc, path)
    _assert_written(path, doc)


def test_write_json_matches_json_dumps_on_readme_size_documents(tmp_path):
    """The 64-cluster README workload (pre/post 8:120, density 0.12, seed 7) and its placement."""
    network, _ = generate_synthetic(GenParams(clusters=64, pre_range=(8, 120), post_range=(8, 120),
                                              density=0.12, seed=7))
    placement = map_network(network, Hardware(crossbar_count=64, spec=CrossbarSpec(n=128, n_h=16, n_l=16),
                                              tech=preset("16nm")))
    for doc in (network_to_json(network), placement_to_json(placement)):
        write_json(doc, tmp_path / "doc.json")
        _assert_written(tmp_path / "doc.json", doc)


@pytest.mark.parametrize("names, columns", [(["a", "b"], [[1, 2], [1]]), (["a"], [[1], [2]]), (["a", "b"], [[1]])],
                         ids=repr)
def test_records_need_one_column_per_name_all_of_one_length(names, columns):
    with pytest.raises(ValueError, match="^Records: "):
        Records(names, columns)


@pytest.mark.parametrize("doc", [
    [np.int64(1)], {"a": [1, np.float32(2.0)]}, [{"a": np.int64(1)}], np.int64(1),
    {(1, 2): 3}, {"a": [1], (1, 2): [2]}, {1: "a", "b": 2}, {"a": [1], 2: [2]},
], ids=repr)
def test_write_json_rejects_what_json_rejects(tmp_path, doc):
    with pytest.raises(TypeError) as ours:
        write_json(doc, tmp_path / "doc.json")
    with pytest.raises(TypeError) as theirs:
        json.dumps(doc, indent=2, sort_keys=True)
    assert str(ours.value) == str(theirs.value)


# --- read_table: chunked and column-wise, every message as a row-by-row reader gives it


def _reference_read_table(path, header, what):
    """The row-at-a-time reader read_table replaced: the oracle for its rows and messages."""
    names, parse = list(header), list(header.values())
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got is None or [h.strip() for h in got] != names:
                raise ParseError(f"{path}: not a {what} table: expected header {','.join(names)!r}, got {got}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(names):
                    raise ParseError(f"{path}:{reader.line_num}: expected {len(names)} values, got {row}")
                yield [f(cell) for f, cell in zip(parse, row)]
        except (csv.Error, ValueError) as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc


def _outcome(reader, path):
    try:
        return list(reader(path, {"a": int, "b": int}, "test"))
    except ParseError as exc:
        return str(exc)


def _table(rows: int, edits: dict) -> str:
    """Header a,b and `rows` rows "i,i", with the lines numbered in `edits` replaced."""
    lines = ["a,b"] + [f"{i},{i}" for i in range(rows)]
    for line, text in edits.items():
        lines[line - 1] = text
    return "\r\n".join(lines) + "\r\n"


_LAST = _CHUNK_ROWS + 1  # the line of the first chunk's last row (the header is line 1)

_CHUNKED_TABLES = {
    **{f"{kind}-line-{line}": _table(2 * _CHUNK_ROWS + 100, {line: text})
       for line in (11, _LAST - 1, _LAST, _LAST + 1, _LAST + 2, 2 * _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 2)
       for kind, text in (("width", "1"), ("value", "1,x"), ("first-value", "x,1"))},
    **{f"blanks-to-line-{line}": _table(2 * _CHUNK_ROWS + 100, {**dict.fromkeys(range(line - 4, line), ""),
                                                               line: "1,2,3"})
       for line in (_LAST - 1, _LAST + 1, _LAST + 3)},
    **{f"quoted-line-breaks-to-line-{line}": _table(2 * _CHUNK_ROWS + 100, {
        line - 5: '"1\r\n\r\n",2', line - 3: '"3\n",4', line - 2: '5,"6\r"', line: "z,z"})
       for line in (_LAST - 1, _LAST + 2, _LAST + 5)},
    "value-then-width": _table(100, {5: "1,x", 9: "1"}),
    "width-then-value": _table(100, {5: "1", 9: "x,1"}),
    "value-then-oversized-field": _table(2 * _CHUNK_ROWS, {_LAST + 2: "1,x", _LAST + 3: "1," + "9" * 200_000}),
    "oversized-field-then-value": _table(2 * _CHUNK_ROWS, {_LAST + 2: "1," + "9" * 200_000, _LAST + 3: "1,x"}),
    "quote-open-at-end": "a,b\r\n1,2\r\n3,\"x\r\n4,5\r\n",
    "no-final-line-break": "a,b\r\n1,2\r\n3,x",
    "only-blank-lines": "a,b\r\n" + "\r\n" * (_CHUNK_ROWS + 5),
    "full-chunk": _table(_CHUNK_ROWS, {}),
    "valid": _table(2 * _CHUNK_ROWS + 100, {_LAST: "", _LAST + 1: '"7\r\n",8'}),
}


@pytest.mark.parametrize("name", _CHUNKED_TABLES)
def test_read_table_matches_row_by_row_reader_across_chunks(tmp_path, name):
    path = tmp_path / "t.csv"
    path.write_text(_CHUNKED_TABLES[name], newline="")
    assert _outcome(read_table, path) == _outcome(_reference_read_table, path)


def test_read_table_names_bad_row_line_in_first_chunk(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(_table(5000, {11: "9,9,9"}), newline="")
    with pytest.raises(ParseError) as exc:
        list(read_table(path, {"a": int, "b": int}, "test"))
    assert str(exc.value) == f"{path}:11: expected 2 values, got ['9', '9', '9']"


def test_read_table_names_undecodable_bytes_after_bad_row(tmp_path):
    """A bad value comes before bytes that are not UTF-8 in the same chunk; the value is reported.

    The file is decoded ahead of the csv reader, so the bytes sit some
    kilobytes after the value."""
    path = tmp_path / "t.csv"
    path.write_bytes(_table(_CHUNK_ROWS - 10, {100: "1,x"}).encode() + b"\xff\xfe\r\n")
    assert _outcome(read_table, path) == _outcome(_reference_read_table, path) == (
        f"{path}:100: invalid literal for int() with base 10: 'x'")


def test_read_table_is_a_generator(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(_table(10, {}))
    assert inspect.isgeneratorfunction(read_table)
    rows = read_table(path, {"a": int, "b": int}, "test")
    assert next(rows) == [0, 0]
