"""The file boundary: every loader turns a malformed file into ParseError or ValidationError."""

import pytest

from xbarsim import load_network, load_placement, load_spec, load_spikes, load_tech
from xbarsim.errors import ParseError, ValidationError
from xbarsim.files import read_table, write_table
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


@pytest.mark.parametrize("name", BAD_PLACEMENTS)
def test_load_placement_rejects_malformed_or_unsound_documents(tmp_path, name):
    write_boundary_files(tmp_path)
    with pytest.raises(ValidationError):
        load_placement(tmp_path / f"placement-{name}.json")


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
