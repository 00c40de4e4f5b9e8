"""The file boundary: every loader turns a malformed file into ParseError or ValidationError,
write_json writes compact json.dumps's bytes or leaves the file alone, and read_table names
every bad row's line."""

import csv
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from xbarsim import (
    Cluster,
    ControlMode,
    CrossbarSpec,
    GenParams,
    Hardware,
    Network,
    Route,
    Synapse,
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
from xbarsim.crossbar import STATE_LABELS
from xbarsim.errors import Infeasible, ParseError, ValidationError
from xbarsim.files import json_floats, json_ints, read_table, write_json, write_table
from xbarsim.fixtures import mapping_demo_network
from xbarsim.mapper import check_placement, placement_from_json, placement_to_json
from xbarsim.techmodel import PRESETS
from xbarsim.workload import network_from_json, network_to_json
from xbarsim.reports import read_energy_csv, read_isi_csv, read_latency_csv, read_sweep_csv

from conftest import BAD_PLACEMENTS, write_boundary_files

LOADERS = [load_spec, load_tech, load_network, load_placement, load_spikes,
           read_latency_csv, read_energy_csv, read_isi_csv, read_sweep_csv]

# CSV readers and their headers
TABLES = {
    load_spikes: "neuron,time_ns",
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
BAD_PLACEMENT_MESSAGES = {
    "state-lrs9": "bad placement document: synapses.state[0]: unknown resistance state 'LRS9'",
    "synapse-record-layout": "bad placement document: synapses: expected an object of column lists "
                             "pre/post/state, got a list (the old record layout)",
    "previous-layout": "bad placement document: cluster: expected a cluster object, got the cluster id 0 "
                       "(the earlier layout, with per-synapse cells and seat maps)",
    "pre-not-in-rows": "bad placement document: crossbar 0: rows holds 3 seats for 4 neurons",
    "rows-not-a-list": "bad placement document: rows: expected a list, got {'0': 0, '1': 1, '2'... (32 characters)",
}

# The problems check_placement finds in a BAD_PLACEMENTS case, where they are pinned.
BAD_PLACEMENT_PROBLEMS = {
    "rows-shared": ["crossbar 1: row 2 seats 2 neurons"],
    "seat-outside": ["crossbar 0: neuron 999 seated at row 999, outside the 4x4 crossbar"],
    "cluster-repeated": ["duplicate cluster ids", "route src neuron 4 not in cluster 0"],
}


@pytest.mark.parametrize("name", BAD_PLACEMENTS)
def test_load_placement_rejects_malformed_or_unsound_documents(tmp_path, name):
    write_boundary_files(tmp_path)
    path = tmp_path / f"placement-{name}.json"
    with pytest.raises(ValidationError) as exc:
        load_placement(path)
    if name in BAD_PLACEMENT_MESSAGES:
        assert str(exc.value) == BAD_PLACEMENT_MESSAGES[name]
    if name in BAD_PLACEMENT_PROBLEMS:
        assert check_placement(placement_from_json(json.loads(path.read_text()))) == BAD_PLACEMENT_PROBLEMS[name]


@pytest.mark.parametrize("node", PRESETS)
def test_every_json_document_written_reads_back_equal(tmp_path, node):
    """Spec, technology, network and placement: saved by the package, loaded by
    its loaders (which refuse NaN and Infinity), and equal to what was saved."""
    tech, spec = preset(node), CrossbarSpec(n=64, n_h=8, n_l=8, p=48, q=56)
    network, _ = generate_synthetic(GenParams(clusters=4, pre_range=(4, 40), post_range=(4, 40),
                                              density=0.12, seed=7))
    placement = map_network(network, Hardware(crossbar_count=4, spec=spec))
    for save, load, value in ((save_spec, load_spec, spec), (save_tech, load_tech, tech),
                              (save_network, load_network, network), (save_placement, load_placement, placement)):
        save(value, tmp_path / "doc.json")
        assert load(tmp_path / "doc.json") == value


_IDS = st.integers(-2**63, 2**63 - 1)


@st.composite
def _networks(draw):
    """Networks of 1 to 3 clusters, each of 1 to 6 pre- and post-neurons with
    any int64 ids and 1 or more synapses, and up to 3 routes between them.
    The synapses reach only a leading part of each neuron list, which may
    leave neurons with no synapse on either axis."""
    clusters = []
    for cid in draw(st.lists(_IDS, min_size=1, max_size=3, unique=True)):
        pre, post = (draw(st.lists(_IDS, min_size=1, max_size=6, unique=True)) for _ in range(2))
        reached_pre, reached_post = draw(st.integers(1, len(pre))), draw(st.integers(1, len(post)))
        pairs = draw(st.lists(st.tuples(st.integers(0, reached_pre - 1), st.integers(0, reached_post - 1)),
                              min_size=1, unique=True))
        states = draw(st.lists(st.sampled_from(STATE_LABELS), min_size=len(pairs), max_size=len(pairs)))
        clusters.append(Cluster(cid, pre, post, [Synapse(p, q, state) for (p, q), state in zip(pairs, states)]))
    ends = st.sampled_from(clusters).flatmap(
        lambda c: st.tuples(st.just(c.id), st.sampled_from(c.pre_neurons + c.post_neurons)))
    routes = draw(st.lists(st.builds(lambda src, dst, hops: Route(*src, *dst, hops), ends, ends, st.integers(1, 4)),
                           max_size=3))
    return Network(clusters, routes)


_SPECS = st.builds(CrossbarSpec, n=st.just(8), n_h=st.integers(0, 1), n_l=st.integers(0, 1),
                   p=st.integers(1, 8), q=st.integers(1, 8), control=st.sampled_from(ControlMode))


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


_IDLE_NEURONS = Network([Cluster(5, (1, 2, 3), (4, 5), [Synapse(1, 0, "HRS")])])


@settings(max_examples=60, deadline=None)
@given(network=_networks(), spec=_SPECS)
@example(network=_IDLE_NEURONS, spec=CrossbarSpec(n=8))
def test_network_and_placement_documents_read_back_equal(network, spec):
    """A network and its placement, dumped as write_json writes them, decode to
    equal values, the seats of neurons with no synapse among them."""
    assert network_from_json(json.loads(_dumps(network_to_json(network)))) == network
    try:
        placement = map_network(network, Hardware(crossbar_count=len(network.clusters), spec=spec))
    except Infeasible:
        assume(False)
    assert placement_from_json(json.loads(_dumps(placement_to_json(placement)))) == placement


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


# Edits of the demo documents' first "synapses" object, and the message each
# gives after "bad network document: " or "bad placement document: ". Columns
# are decoded in the order pre, post, state (, row, col), so the first bad
# column is reported, and in it the first bad entry.
_SYNAPSE_COLUMN_ERRORS = [
    ({"pre": {3: 0.9}, "state": {0: "LRS9"}}, r"synapses\.pre\[3\]: expected an integer, got 0\.9"),
    ({"pre": {3: 0.9, 1: 0.5}}, r"synapses\.pre\[1\]: expected an integer, got 0\.5"),
    ({"post": {2: True}, "state": {0: "LRS9"}}, r"synapses\.post\[2\]: expected an integer, got True"),
    ({"state": {2: "LRS9", 3: 7}}, r"synapses\.state\[2\]: unknown resistance state 'LRS9'"),
    ({"state": {3: ["HRS"]}}, r"synapses\.state\[3\]: unknown resistance state \['HRS'\]"),
]


def test_synapse_column_errors_name_the_column_and_index():
    network = mapping_demo_network()
    placement = map_network(network, Hardware(crossbar_count=3, spec=CrossbarSpec(n=4)))
    for edits, message in _SYNAPSE_COLUMN_ERRORS:
        network_doc, placement_doc = (json.loads(json.dumps(doc))
                                      for doc in (network_to_json(network), placement_to_json(placement)))
        for synapses in (network_doc["clusters"][0]["synapses"],
                         placement_doc["crossbars"][0]["cluster"]["synapses"]):
            for name, entries in edits.items():
                for i, value in entries.items():
                    synapses[name][i] = value
        # a bad state is the decoder's ValidationError, which network_from_json passes on as it is
        prefix = "" if message.startswith(r"synapses\.state") else "bad network document: "
        with pytest.raises(ValidationError, match=f"^{prefix}{message}$"):
            network_from_json(network_doc)
        with pytest.raises(ValidationError, match=f"^bad placement document: {message}$"):
            placement_from_json(placement_doc)


@pytest.mark.parametrize("edit, message", [
    (lambda s: s.pop("post"), "synapses.post: expected a list, got no such column"),
    (lambda s: s.update(post=0), "synapses.post: expected a list, got 0"),
    (lambda s: s.update(post=None), "synapses.post: expected a list, got None"),
    (lambda s: s["state"].pop(), "synapses: columns of unequal length: pre 4, post 4, state 3"),
], ids=["missing", "not-a-list", "null", "unequal"])
def test_synapse_column_shape_errors_name_the_column(edit, message):
    doc = json.loads(json.dumps(network_to_json(mapping_demo_network())))
    edit(doc["clusters"][0]["synapses"])
    with pytest.raises(ValidationError) as exc:
        network_from_json(doc)
    assert str(exc.value) == f"bad network document: {message}"


def test_json_ints_accepts_ints_and_integral_floats():
    got = json_ints([3, 128.0, -2.0, 2**70], "n")
    assert got == [3, 128, -2, 2**70] and {type(v) for v in got} == {int}


@pytest.mark.parametrize("value", [0.9, 95.7, True, False, math.inf, -math.inf, math.nan, "3", None])
def test_json_ints_rejects_other_values(value):
    with pytest.raises(ValueError) as exc:
        json_ints([1, 2.0, value, 0.5], "p")
    assert str(exc.value) == f"p: expected an integer, got {value!r}"


def test_json_floats_accepts_ints_and_finite_floats():
    got = json_floats([3, 2.36e-11, -2.0, 2**70, 0], "e_spike")
    assert got == [3.0, 2.36e-11, -2.0, 2.0**70, 0.0] and {type(v) for v in got} == {float}


@pytest.mark.parametrize("value", [True, False, "2.36e-11", None, [1.0], {"v": 1.0},
                                   math.inf, -math.inf, math.nan, 2**1100, -2**1100], ids=repr)
def test_json_floats_rejects_other_values(value):
    with pytest.raises(ValueError) as exc:
        json_floats([1, 2.5, value, "x"], "e_spike")
    text = repr(value)  # 2**1100 is cut to its first 20 characters and its length
    shown = text if len(text) <= 24 else f"{text[:20]}... ({len(text)} characters)"
    assert str(exc.value) == f"e_spike: expected a finite number, got {shown}"


# every number of a technology document: its top-level numeric keys, and the ohms of each of its states
_TECH_NUMBERS = [*sorted(set(preset("16nm").to_json()) - {"node", "states"}), *range(len(preset("16nm").states))]


@pytest.mark.parametrize("value", [True, "1.5", None])
@pytest.mark.parametrize("field", _TECH_NUMBERS)
def test_load_tech_takes_only_finite_json_numbers(tmp_path, field, value):
    doc = preset("16nm").to_json()
    key, holder = ("ohms", doc["states"][field]) if isinstance(field, int) else (field, doc)
    holder[key] = value
    path = tmp_path / "tech.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=rf"^bad technology document: {key}: expected a finite number, got "):
        load_tech(path)


@pytest.mark.parametrize("node", [5, None, ["16nm"]])
def test_load_tech_takes_only_a_string_node(tmp_path, node):
    path = tmp_path / "tech.json"
    path.write_text(json.dumps({**preset("16nm").to_json(), "node": node}))
    with pytest.raises(ValidationError, match="^bad technology document: node: expected a string, got "):
        load_tech(path)


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


# --- write_json: the bytes of json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"

# strings built from JSON's structural characters, escapes and non-ASCII text
_TRICKY_TEXT = st.lists(st.sampled_from(["\0", "}", "{", ",", ": ", "}\0{", '"', "\\", "\n", "a", "\u00e9",
                                         "\u2028", "\U0001f600", "%", "%s", "%%"])).map("".join)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True, allow_infinity=True)
            | st.text() | _TRICKY_TEXT)
_KEYS = st.text() | _TRICKY_TEXT

def _containers(children):
    return (st.lists(children) | st.lists(children).map(tuple)
            | st.dictionaries(_KEYS, children) | st.dictionaries(st.integers(), children)
            | st.dictionaries(st.floats(allow_nan=False), children)
            | st.lists(st.dictionaries(_KEYS, _SCALARS, min_size=1), min_size=1))


def _expected(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _assert_written(path, doc):
    """`path` holds _expected(doc). A mismatch names the first differing offset:
    pytest's own diff of two long texts can take minutes."""
    got, want = path.read_text(encoding="utf-8"), _expected(doc)
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        window = slice(max(i - 40, 0), i + 40)
        pytest.fail(f"differs at offset {i}: written {got[window]!r}, json.dumps {want[window]!r}")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.recursive(_SCALARS, _containers, max_leaves=20))
def test_write_json_matches_json_dumps(tmp_path, doc):
    # A document with a NaN or infinite number is json's ValueError, and no file is written.
    path = tmp_path / "doc.json"
    path.unlink(missing_ok=True)  # tmp_path is shared by every example
    try:
        _expected(doc)
    except ValueError as theirs:
        with pytest.raises(ValueError) as ours:
            write_json(doc, path)
        assert str(ours.value) == str(theirs)
        assert not path.exists()
        return
    write_json(doc, path)
    _assert_written(path, doc)


@pytest.mark.parametrize("doc", [{"x": float("inf")}, [float("nan")], {"a": [1.0, -float("inf")]}, {float("inf"): 1}])
def test_write_json_refuses_non_finite_numbers_and_keeps_the_earlier_file(tmp_path, doc):
    path = tmp_path / "doc.json"
    write_json({"kept": [1, 2, 3]}, path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(doc, path)
    assert path.read_bytes() == before


def test_write_json_matches_json_dumps_on_readme_size_documents(tmp_path):
    """The 64-cluster README workload (pre/post 8:120, density 0.12, seed 7) and its placement."""
    network, _ = generate_synthetic(GenParams(clusters=64, pre_range=(8, 120), post_range=(8, 120),
                                              density=0.12, seed=7))
    placement = map_network(network, Hardware(crossbar_count=64, spec=CrossbarSpec(n=128, n_h=16, n_l=16)))
    for doc in (network_to_json(network), placement_to_json(placement)):
        write_json(doc, tmp_path / "doc.json")
        _assert_written(tmp_path / "doc.json", doc)


_REFUSED = pytest.mark.parametrize("doc", [
    [np.int64(1)], {"a": [1, np.float32(2.0)]}, [{"a": np.int64(1)}], np.int64(1),
    {(1, 2): 3}, {"a": [1], (1, 2): [2]}, {1: "a", "b": 2}, {"a": [1], 2: [2]},
], ids=repr)


@_REFUSED
def test_write_json_rejects_what_json_rejects(tmp_path, doc):
    with pytest.raises(TypeError) as ours:
        write_json(doc, tmp_path / "doc.json")
    with pytest.raises(TypeError) as theirs:
        json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert str(ours.value) == str(theirs.value)


@_REFUSED
def test_refused_write_leaves_the_earlier_file(tmp_path, doc):
    """A document json refuses raises json's TypeError and leaves the file's earlier bytes in place."""
    path = tmp_path / "doc.json"
    write_json({"kept": [1, 2, 3]}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError) as ours:
        write_json(doc, path)
    with pytest.raises(TypeError) as theirs:
        json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert str(ours.value) == str(theirs.value)
    assert path.read_bytes() == before


# --- read_table: every row and message as an independent row-by-row reader gives them


def _reference_read_table(path, header, what):
    """A row-at-a-time reader written apart from read_table: the oracle for its rows and messages."""
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


# The tables below put their edits around line 4,096, where a reader that
# parsed 4,096 rows at a time ended its first block.
_CHUNK_ROWS = 4096
_LAST = _CHUNK_ROWS + 1  # the line of the first block's last row (the header is line 1)

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
    """A bad value comes before bytes that are not UTF-8; the value is reported.

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
