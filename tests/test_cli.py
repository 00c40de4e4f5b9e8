import hashlib
import json
import re
import warnings

import pytest

from xbarsim import files, reports, save_network, save_spec, save_spikes
from xbarsim.cli import main, resolve_tech
from xbarsim.crossbar import CrossbarSpec
from xbarsim.fixtures import mapping_demo_network
from xbarsim.techmodel import preset, save_tech
from xbarsim.workload import SpikeTrace, SpikeTrain
from xbarsim.errors import ValidationError

from conftest import BAD_NETWORKS, BAD_PLACEMENTS, write_boundary_files


def run(argv):
    return main(argv)


def test_analyze_single_row(tmp_path, capsys):
    out = tmp_path / "analysis.csv"
    assert run(["analyze", "--n", "128", "--node", "16nm", "--out", str(out)]) == 0
    text = out.read_text()
    assert "566.0" in text
    header = text.splitlines()[0]
    assert header == "n,F,cost_per_bit,total_bits,height_pct,width_pct,iso_count_fine,iso_count_coarse"
    row = text.splitlines()[1].split(",")
    assert row[0] == "128" and row[3] == "32768"
    assert row[6] == "32512" and row[7] == "256"


def test_analyze_sweep_monotone(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["analyze", "--sweep-n", "16:256:16", "--node", "45nm", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 16
    costs = [float(r.split(",")[2]) for r in rows]
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_analyze_missing_node_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--n", "128"])
    assert exc.value.code == 2


def test_analyze_stdout_when_no_out(capsys):
    assert run(["analyze", "--n", "4", "--node", "45nm"]) == 0
    captured = capsys.readouterr()
    assert "cost_per_bit" in captured.out


@pytest.mark.parametrize("dims", [
    [],
    ["--n", "128", "--sweep-n", "16:64:16"],
    ["--sweep-n", "1:0:1"],
    ["--sweep-n", "a:b"],
])
def test_analyze_dimension_usage_error(tmp_path, capsys, dims):
    out = tmp_path / "analysis.csv"
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--node", "16nm", "--out", str(out), *dims])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_tech_label(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["analyze", "--n", "4", "--node", "3nm", "--out", str(out)]) == 2


def test_resolve_tech_env_dir(tmp_path, monkeypatch):
    custom = preset("22nm")
    save_tech(custom, tmp_path / "mytech.json")
    monkeypatch.setenv("XBARSIM_TECH_DIR", str(tmp_path))
    assert resolve_tech("mytech") == custom
    assert resolve_tech("mytech.json") == custom
    monkeypatch.delenv("XBARSIM_TECH_DIR")
    with pytest.raises(ValidationError):
        resolve_tech("mytech")


def _pipeline(tmp_path, tag=""):
    """gen -> map -> simulate; returns the output paths."""
    net_path = tmp_path / f"net{tag}.json"
    spk_path = tmp_path / f"spk{tag}.csv"
    spec_path = tmp_path / f"spec{tag}.json"
    place_path = tmp_path / f"placement{tag}.json"
    report_dir = tmp_path / f"reports{tag}"
    assert run(["gen", "--clusters", "4", "--pre", "4:40", "--post", "4:40",
                "--density", "0.2", "--rate", "50", "--duration", "0.2",
                "--seed", "11", "--out-network", str(net_path),
                "--out-spikes", str(spk_path)]) == 0
    save_spec(CrossbarSpec(n=128, n_h=64, n_l=64, p=96, q=96), spec_path)
    assert run(["map", "--network", str(net_path), "--spec", str(spec_path),
                "--out", str(place_path)]) == 0
    assert run(["simulate", "--placement", str(place_path), "--spikes", str(spk_path),
                "--duration", "0.2", "--node", "16nm", "--out", str(report_dir)]) == 0
    return net_path, spk_path, spec_path, place_path, report_dir


def test_gen_map_simulate_pipeline(tmp_path, capsys):
    net_path, spk_path, spec_path, place_path, report_dir = _pipeline(tmp_path)
    assert (report_dir / "latency.csv").exists()
    assert (report_dir / "energy.csv").exists()
    assert (report_dir / "isi.csv").exists()
    report = json.loads((report_dir / "report.json").read_text())
    assert report["energy"]["total_j"] > 0
    assert "aggregate" in report["latency"]
    captured = capsys.readouterr()
    assert "config histogram" in captured.out


def test_map_unreadable_file_is_usage_error(tmp_path):
    spec_path = tmp_path / "spec.json"
    save_spec(CrossbarSpec(n=4), spec_path)
    assert run(["map", "--network", str(tmp_path / "missing.json"),
                "--spec", str(spec_path), "--out", str(tmp_path / "p.json")]) == 2


def test_map_infeasible_is_domain_error(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    save_network(mapping_demo_network(), net_path)
    spec_path = tmp_path / "spec.json"
    save_spec(CrossbarSpec(n=2), spec_path)  # 4-input cluster cannot fit
    assert run(["map", "--network", str(net_path), "--spec", str(spec_path),
                "--out", str(tmp_path / "p.json")]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_map_single_control_flag(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    save_network(mapping_demo_network(), net_path)
    spec_path = tmp_path / "spec.json"
    save_spec(CrossbarSpec(n=8, p=4, q=4), spec_path)
    assert run(["map", "--network", str(net_path), "--spec", str(spec_path),
                "--control", "single", "--out", str(tmp_path / "p.json")]) == 0
    out = capsys.readouterr().out
    assert "'01'" not in out and "'10'" not in out


def test_simulate_unknown_neuron_is_domain_error(tmp_path):
    net_path = tmp_path / "net.json"
    save_network(mapping_demo_network(), net_path)
    spec_path = tmp_path / "spec.json"
    save_spec(CrossbarSpec(n=4), spec_path)
    place_path = tmp_path / "p.json"
    assert run(["map", "--network", str(net_path), "--spec", str(spec_path),
                "--out", str(place_path)]) == 0
    spk_bad = tmp_path / "bad.csv"
    save_spikes(SpikeTrace.from_trains([SpikeTrain(neuron=999, times=(1e-6,))]), spk_bad)
    assert run(["simulate", "--placement", str(place_path), "--spikes", str(spk_bad),
                "--duration", "1.0", "--out", str(tmp_path / "r")]) == 3


def _simulate_one_unplaced_spike(tmp_path, capsys, neuron):
    """Exit code and stderr of simulate on the demo network with a spike from `neuron`."""
    net_path, spec_path, place_path = tmp_path / "net.json", tmp_path / "spec.json", tmp_path / "p.json"
    save_network(mapping_demo_network(), net_path)
    save_spec(CrossbarSpec(n=4), spec_path)
    assert run(["map", "--network", str(net_path), "--spec", str(spec_path), "--out", str(place_path)]) == 0
    spikes = tmp_path / "spikes.csv"
    # Written as text: a trace in memory holds no neuron id beyond int64.
    spikes.write_bytes(f"neuron,time_ns\r\n0,1000\r\n0,2000\r\n{neuron},1000\r\n".encode())
    capsys.readouterr()
    code = _exit_code(["simulate", "--placement", str(place_path), "--spikes", str(spikes),
                       "--duration", "1.0", "--out", str(tmp_path / "r")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("neuron", [999, 2**63 - 1, -(2**63)])
def test_simulate_unplaced_neuron_of_any_size_exits_3(tmp_path, capsys, neuron):
    """An unplaced id, up to the int64 extremes, is an unknown neuron, not an overflow."""
    code, err = _simulate_one_unplaced_spike(tmp_path, capsys, neuron)
    assert code == 3
    assert f"neuron {neuron} spikes but is not placed as a pre-synaptic neuron" in err


@pytest.mark.parametrize("neuron", [2**63, 2**64 + 5, -(2**63) - 1])
def test_simulate_spike_neuron_beyond_int64_is_usage_error(tmp_path, capsys, neuron):
    """A spike file's neuron id that no int64 holds fails at the file boundary, naming the file and line."""
    code, err = _simulate_one_unplaced_spike(tmp_path, capsys, neuron)
    assert code == 2
    assert f"spikes.csv:4: neuron {neuron} does not fit int64" in err
    assert not (tmp_path / "r").exists()


def test_dse_single_point(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    spk_path = tmp_path / "spk.csv"
    assert run(["gen", "--clusters", "3", "--pre", "4:30", "--post", "4:30",
                "--density", "0.2", "--seed", "1",
                "--out-network", str(net_path), "--out-spikes", str(spk_path)]) == 0
    spec_path = tmp_path / "spec.json"
    save_spec(CrossbarSpec(n=128), spec_path)
    out = tmp_path / "sweep.csv"
    assert run(["dse", "--networks", str(net_path), "--spec", str(spec_path),
                "--grid", "128", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "network,P,Q,norm_energy,norm_latency,norm_variation,expanded_fraction"
    assert lines[1].split(",")[3] == "1.0"
    assert "selected P=128 Q=128" in capsys.readouterr().out


def test_dse_no_feasible_knee(tmp_path):
    net_path = tmp_path / "net.json"
    spk_path = tmp_path / "spk.csv"
    # clusters need ~40 rows; a single tiny grid point forces expansion and
    # a latency regression, so no knee qualifies
    assert run(["gen", "--clusters", "3", "--pre", "40:60", "--post", "40:60",
                "--density", "0.1", "--seed", "2",
                "--out-network", str(net_path), "--out-spikes", str(spk_path)]) == 0
    spec_path = tmp_path / "spec.json"
    save_spec(CrossbarSpec(n=128), spec_path)
    assert run(["dse", "--networks", str(net_path), "--spec", str(spec_path),
                "--grid", "8", "--out", str(tmp_path / "s.csv")]) == 3


def test_outputs_byte_identical_across_runs(tmp_path):
    a = tmp_path / "runA"
    b = tmp_path / "runB"
    a.mkdir()
    b.mkdir()
    paths_a = _pipeline(a)
    paths_b = _pipeline(b)
    for pa, pb in zip(paths_a[:4], paths_b[:4]):
        assert pa.read_bytes() == pb.read_bytes()
    for name in ("latency.csv", "energy.csv", "isi.csv", "report.json"):
        assert (paths_a[4] / name).read_bytes() == (paths_b[4] / name).read_bytes()


def _output_digests(tmp_path):
    """sha256 of every file the pipeline and a dse sweep of its network write."""
    net_path, spk_path, spec_path, place_path, report_dir = _pipeline(tmp_path)
    sweep_path = tmp_path / "sweep.csv"
    assert run(["dse", "--networks", str(net_path), "--spec", str(spec_path),
                "--grid", "96,112,128", "--out", str(sweep_path)]) == 0
    paths = [net_path, spk_path, spec_path, place_path, sweep_path, *sorted(report_dir.iterdir())]
    return {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths}


GOLDEN_DIGESTS = {
    "net.json": "35b3ce1ca85151d4ae2d8e2d7d9e6c24effedab4643282e9544520766a334b2a",
    "placement.json": "e508e08864b9c34c04f895a78608211f64ca49b7453142840a44e50613521fdc",
    "reports/energy.csv": "d127cec1c2f37e7870eb2940340c235015600f83fb5497eda5aa71d1f61d6fbb",
    "reports/isi.csv": "d281f741c082c96e94e4aea8dc8474daba32ceca6feac9baa8f238efd65bc182",
    "reports/latency.csv": "7e696fa0f911d71ea57f0d65d58bc5098c20c64ef8aee87ec98fb5fe68e0fca6",
    "reports/report.json": "f236d4fe8dcdfae09129a94dcaf2a8aae5c003258913e485992b93229499323f",
    "spec.json": "122b4733648128d16ae6a1d4360e0d82feb36a20bdfbd6cbb28a0f971214077c",
    "spk.csv": "d50d9640618281a2e511a23e6ab74624b878cafa8028dae118752dd65baa991d",
    "sweep.csv": "0f28c68690a588078d1f81785d723dca6a8276ddcc6fe7bfd7fcdd44d327873b",
}


def test_outputs_match_golden_digests(tmp_path):
    """The CLI writes the same bytes as when these digests were taken.

    A change that alters any output on purpose (a defect fix) updates the
    digests here and records the change and its reason in CHANGES.md.
    """
    assert _output_digests(tmp_path) == GOLDEN_DIGESTS


def test_readme_flow_never_reaches_the_checked_csv_reader(tmp_path, monkeypatch):
    """gen -> map -> simulate -> dse at the README size (64 clusters, pre/post
    8:120) reads every table it wrote through numpy: files.read_table, the
    checked row-by-row reader, is only a fallback for tables numpy refuses."""
    def refuse(*args):
        raise AssertionError("the checked csv reader was called")

    monkeypatch.setattr(files, "read_table", refuse)
    monkeypatch.setattr(reports, "read_table", refuse)
    save_spec(CrossbarSpec(n=128, n_h=16, n_l=16, p=96, q=96), tmp_path / "spec.json")
    save_spec(CrossbarSpec(n=128), tmp_path / "base_spec.json")
    net, spikes, place = (str(tmp_path / name) for name in ("net.json", "spikes.csv", "placement.json"))
    assert run(["gen", "--clusters", "64", "--pre", "8:120", "--post", "8:120", "--density", "0.12",
                "--seed", "7", "--out-network", net, "--out-spikes", spikes]) == 0
    assert run(["map", "--network", net, "--spec", str(tmp_path / "spec.json"), "--out", place]) == 0
    assert run(["simulate", "--placement", place, "--spikes", spikes, "--duration", "1.0",
                "--node", "16nm", "--out", str(tmp_path / "reports")]) == 0
    assert run(["dse", "--networks", net, "--spec", str(tmp_path / "base_spec.json"),
                "--grid", "96,112,128", "--out", str(tmp_path / "sweep.csv")]) == 0


@pytest.mark.parametrize("option, value", [
    ("--mix", "HRS=abc"),
    ("--mix", "HRS"),
    ("--mix", "HRS=nan,LRS1=1"),
    ("--mix", "HRS=0.5,LRS1=0.5,HRS=0.5"),
    ("--pre", "8:x"),
    ("--post", "8:x"),
    ("--post", "many"),
])
def test_gen_malformed_value_is_usage_error(tmp_path, capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--clusters", "2", option, value,
             "--out-network", str(tmp_path / "n.json"), "--out-spikes", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    assert f"error: argument {option}: invalid" in capsys.readouterr().err
    assert not (tmp_path / "n.json").exists()


@pytest.mark.parametrize("grid", ["64,abc", "", "64;96"])
def test_dse_malformed_grid_is_usage_error(tmp_path, capsys, grid):
    net_path = tmp_path / "net.json"
    save_network(mapping_demo_network(), net_path)
    spec_path = tmp_path / "spec.json"
    save_spec(CrossbarSpec(n=8), spec_path)
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        run(["dse", "--networks", str(net_path), "--spec", str(spec_path),
             "--grid", grid, "--out", str(out)])
    assert exc.value.code == 2
    assert "error: argument --grid: invalid" in capsys.readouterr().err
    assert not out.exists()


def _simulate(*extra, placement="placement.json", spikes="spk.csv", duration="1.0"):
    return ["simulate", "--placement", placement, "--spikes", spikes, "--duration", duration, *extra,
            "--out", "out"]


def _map(*extra, network="net.json", spec="spec.json"):
    return ["map", "--network", network, "--spec", spec, *extra, "--out", "out"]


def _dse(*extra, spec="spec.json"):
    return ["dse", "--networks", "net.json", "--spec", spec, "--grid", "2,4", *extra, "--out", "out"]


# each command reads one malformed file or gets one bad numeric flag;
# files as written by conftest.write_boundary_files
MALFORMED_INPUTS = {
    "spec-invalid-json": _map(spec="bad.json"),
    "node-invalid-json": _simulate("--node", "bad.json"),
    "node-energy-huge": _simulate("--node", "tech-huge.json"),
    "node-energy-inf": _simulate("--node", "tech-inf.json"),
    "node-energy-nan": _simulate("--node", "tech-nan.json"),
    "node-energy-bool": _simulate("--node", "tech-bool.json"),
    "node-energy-string": _simulate("--node", "tech-string.json"),
    "node-ohms-bool": _simulate("--node", "tech-ohms-bool.json"),
    "node-label-int": _simulate("--node", "tech-node-int.json"),
    "placement-invalid-json": _simulate(placement="bad.json"),
    "network-not-utf8": _map(network="bad.bin"),
    "spikes-not-utf8": _simulate(spikes="bad.bin"),
    "spikes-time-inf": _simulate(spikes="spk-inf.csv"),
    "spikes-time-nan": _simulate(spikes="spk-nan.csv"),
    "spikes-neuron-huge": _simulate(spikes="spk-neuron-huge.csv"),
    "spikes-time-us-layout": _simulate(spikes="spk-time-us.csv"),
    "spikes-time-fraction": _simulate(spikes="spk-fraction.csv"),
    "spikes-time-huge": _simulate(spikes="spk-huge.csv"),
    "spec-n-inf": _map(spec="spec-n-inf.json"),
    "spec-p-fraction": _map(spec="spec-p-fraction.json"),
    "spec-n-huge": _map(spec="spec-n-huge.json"),
    "spec-n-huge-regions": _map(spec="spec-n-huge-regions.json"),
    "spec-n-5000-digits": _map(spec="spec-n-digits.json"),
    "spec-p-huge": _map(spec="spec-p-huge.json"),
    "spec-n-h-huge": _map(spec="spec-n-h-huge.json"),
    "spec-list": _map(spec="spec-list.json"),
    "spec-string": _map(spec="spec-string.json"),
    **{f"network-{name}": _map(network=f"net-{name}.json") for name in BAD_NETWORKS},
    **{f"placement-{name}": _simulate(placement=f"placement-{name}.json") for name in BAD_PLACEMENTS},
    "simulate-duration-0": _simulate(duration="0"),
    "simulate-duration-nan": _simulate(duration="nan"),
    "simulate-duration-inf": _simulate(duration="inf"),
    "dse-networks-same-stem": ["dse", "--networks", "net.json", "other/net.json", "--spec", "spec.json",
                               "--grid", "2,4", "--out", "out"],
    "dse-spec-list": _dse(spec="spec-list.json"),
    "dse-spec-string": _dse(spec="spec-string.json"),
    "dse-duration-0": _dse("--duration", "0"),
    "dse-rate-negative": _dse("--rate", "-1"),
    "dse-rate-nan": _dse("--rate", "nan"),
    "map-crossbars-0": _map("--crossbars", "0"),
    "map-node-retired": _map("--node", "16nm"),
    "gen-rate-nan": ["gen", "--clusters", "2", "--rate", "nan", "--out-network", "out", "--out-spikes", "out"],
    "gen-seed-negative": ["gen", "--clusters", "2", "--seed", "-1", "--out-network", "out", "--out-spikes", "out"],
    "dse-seed-negative": _dse("--seed", "-1"),
    "dse-tolerance-nan": _dse("--tolerance", "nan"),
    # empty documents, and a technology whose finite values overflow in the evaluation
    "map-crossbars-1-network-clusters-empty": _map("--crossbars", "1", network="net-clusters-empty.json"),
    "dse-network-clusters-empty": ["dse", "--networks", "net-clusters-empty.json", "--spec", "spec.json",
                                   "--grid", "2,4", "--out", "out"],
    "simulate-node-c-sense-overflow": _simulate("--node", "tech-c-sense-overflow.json"),
    "dse-node-c-sense-overflow": _dse("--node", "tech-c-sense-overflow.json"),
    "dse-node-t-iso-overflow": _dse("--node", "tech-t-iso-overflow.json"),
}


def _exit_code(argv):
    """run(argv)'s exit code, argparse's too, with every warning raised, so that one the command would print
    fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return run(argv)
        except SystemExit as exc:
            return exc.code


@pytest.mark.parametrize("argv", [_simulate(), _map(), _dse(), _map("--crossbars", "3")])
def test_boundary_files_are_valid(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_boundary_files(tmp_path)
    assert run(argv) == 0
    assert (tmp_path / "out").exists()


# the whole error output of a MALFORMED_INPUTS case, where it is pinned
_HUGE = "16069380442589902755... (61 characters)"  # 2**200, cut short
MALFORMED_ERRORS = {
    "spec-p-huge": f"error: partition points must satisfy 1 <= P,Q <= N: P={_HUGE} Q=4 N=4\n",
    "spec-n-h-huge": f"error: regions must satisfy 0 <= N_h, N_l and N_h+N_l <= N: N_h={_HUGE} N_l=0\n",
    "spikes-time-us-layout": "error: spk-time-us.csv: not a spike table: expected header 'neuron,time_ns', got "
                             "['neuron', 'time_us'] (the earlier layout, with times in float microseconds)\n",
    "spikes-time-fraction": "error: spk-fraction.csv:3: invalid literal for int() with base 10: '100.5'\n",
    "spikes-time-huge": "error: spk-huge.csv:3: time_ns 1180591620717411303424 does not fit int64\n",
    "network-cluster-not-an-object": "error: bad network document: clusters[0]: expected a cluster object, got 3\n",
    "network-clusters-not-a-list": "error: bad network document: clusters: expected a list of cluster objects, got 3\n",
    "network-cluster-pre-missing": "error: bad network document: clusters[0]: missing 'pre'\n",
    "network-route-not-an-object": "error: bad network document: routes[0]: expected a route object, got 3\n",
    "network-routes-not-a-list": "error: bad network document: routes: expected a list of route objects, got 3\n",
    "placement-cluster-not-an-object": "error: bad placement document: cluster: expected a cluster object, got [3]\n",
    "network-clusters-empty": "error: bad network document: clusters: a network document needs at least one cluster\n",
    "placement-crossbars-empty":
        "error: bad placement document: crossbars: a placement document needs at least one crossbar\n",
    "simulate-node-c-sense-overflow": "error: technology '16nm' gives a non-finite latency: its values overflow\n",
    "dse-node-c-sense-overflow": "error: technology '16nm': 'net' at P = Q = N has energy inf, mean latency inf "
                                 "and variation 0.0; the sweep needs them finite and non-zero\n",
    # the partitioned points' paths cross an isolation transistor whose delay overflows their sums
    "dse-node-t-iso-overflow": "error: technology '16nm' gives a non-finite sweep value for 'net': its values "
                               "overflow\n",
}


@pytest.mark.parametrize("name", MALFORMED_INPUTS)
def test_malformed_input_is_usage_error(tmp_path, monkeypatch, capsys, name):
    """A bad file or flag exits 2 with an error line, no traceback and no output."""
    monkeypatch.chdir(tmp_path)
    write_boundary_files(tmp_path)
    assert _exit_code(MALFORMED_INPUTS[name]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not re.search(r"\d{41}", err)  # a refused value is cut short (node-energy-huge's has 332 digits)
    assert not (tmp_path / "out").exists()
    if name in MALFORMED_ERRORS:
        assert err == MALFORMED_ERRORS[name]


def test_simulate_overflowing_isolation_delay_is_usage_error(tmp_path, capsys):
    # t_iso_on = 1.7e308 is finite, but a path through a closed isolation transistor overflows.
    _, spk_path, _, place_path, _ = _pipeline(tmp_path)
    tech_path = tmp_path / "tech.json"
    tech_path.write_text(json.dumps({**preset("16nm").to_json(), "t_iso_on": 1.7e308}))
    out = tmp_path / "overflow"
    assert _exit_code(["simulate", "--placement", str(place_path), "--spikes", str(spk_path), "--duration", "0.2",
                       "--node", str(tech_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: technology '16nm' gives a non-finite latency: its values overflow\n"
    assert not out.exists()


def test_simulate_overflowing_sense_load_is_usage_error(tmp_path, monkeypatch, capsys):
    # c_sense = 1e305 is finite, but every sensing delay overflows, and the ISI distortions then take inf - inf.
    monkeypatch.chdir(tmp_path)
    _, spk_path, _, place_path, _ = _pipeline(tmp_path)
    tech_path = tmp_path / "tech.json"
    tech_path.write_text(json.dumps({**preset("16nm").to_json(), "c_sense": 1e305}))
    assert _exit_code(_simulate("--node", str(tech_path), placement=str(place_path), spikes=str(spk_path),
                                duration="0.2")) == 2
    assert capsys.readouterr().err == "error: technology '16nm' gives a non-finite latency: its values overflow\n"
    assert not (tmp_path / "out").exists()


def test_dse_full_grid_sweeps_every_pq_pair(tmp_path, capsys):
    for name in ("a", "b"):
        save_network(mapping_demo_network(), tmp_path / f"{name}.json")
    save_spec(CrossbarSpec(n=4), tmp_path / "spec.json")
    out = tmp_path / "sweep.csv"
    assert run(["dse", "--networks", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--spec",
                str(tmp_path / "spec.json"), "--grid", "2,4", "--full-grid", "--out", str(out)]) == 0
    assert [line.split(",")[:3] for line in out.read_text().splitlines()[1:]] == [
        [name, p, q] for name in ("a", "b") for p in ("2", "4") for q in ("2", "4")]
    assert re.fullmatch(r"sweep table -> \S+\nselected P=[24] Q=[24]\n", capsys.readouterr().out)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
