import hashlib
import json

import pytest

from xbarsim import save_network, save_spec, save_spikes
from xbarsim.cli import main, resolve_tech
from xbarsim.crossbar import CrossbarSpec
from xbarsim.fixtures import mapping_demo_network
from xbarsim.techmodel import preset, save_tech
from xbarsim.workload import SpikeTrain
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
    save_spikes([SpikeTrain(neuron=999, times=(1e-6,))], spk_bad)
    assert run(["simulate", "--placement", str(place_path), "--spikes", str(spk_bad),
                "--duration", "1.0", "--out", str(tmp_path / "r")]) == 3


def _simulate_one_unplaced_spike(tmp_path, capsys, neuron):
    """Exit code and stderr of simulate on the demo network with a spike from `neuron`."""
    net_path, spec_path, place_path = tmp_path / "net.json", tmp_path / "spec.json", tmp_path / "p.json"
    save_network(mapping_demo_network(), net_path)
    save_spec(CrossbarSpec(n=4), spec_path)
    assert run(["map", "--network", str(net_path), "--spec", str(spec_path), "--out", str(place_path)]) == 0
    spikes = tmp_path / "spikes.csv"
    save_spikes([SpikeTrain(neuron=0, times=(1e-6, 2e-6)), SpikeTrain(neuron=neuron, times=(1e-6,))], spikes)
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
    "net.json": "b8499b82c40e265c302ee822ecee35186a5055fd20d0c89eed5d18393fc49dcc",
    "placement.json": "5c99a3128c49f6fb368262332fc156368054db292dd4bc6c639fbaa51d3b25bc",
    "reports/energy.csv": "d127cec1c2f37e7870eb2940340c235015600f83fb5497eda5aa71d1f61d6fbb",
    "reports/isi.csv": "e3d2e13c2f3b4ab1f37454dbbe0f0e81bd595c2d1639495cac0f2ad3aca9770d",
    "reports/latency.csv": "7e696fa0f911d71ea57f0d65d58bc5098c20c64ef8aee87ec98fb5fe68e0fca6",
    "reports/report.json": "ba56345084e6c23008798e9bcfd55f1a4fbc0fc9e2a6cf7383bc0b3c9a8cd00b",
    "spec.json": "f1e7d4c2eafe96c9a1e2b3845453bef0cf02536b3c961dfa2d354a851246adac",
    "spk.csv": "de652fa7b06fc323fd05a3072acb308153d740aad288cc168a6bac3d614baaf3",
    "sweep.csv": "0f28c68690a588078d1f81785d723dca6a8276ddcc6fe7bfd7fcdd44d327873b",
}


def test_outputs_match_golden_digests(tmp_path):
    """The CLI writes the same bytes as when these digests were taken.

    A change that alters any output on purpose (a defect fix) updates the
    digests here and records the change and its reason in CHANGES.md.
    """
    assert _output_digests(tmp_path) == GOLDEN_DIGESTS


@pytest.mark.parametrize("option, value", [
    ("--mix", "HRS=abc"),
    ("--mix", "HRS"),
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


def _dse(*extra):
    return ["dse", "--networks", "net.json", "--spec", "spec.json", "--grid", "2,4", *extra, "--out", "out"]


# each command reads one malformed file or gets one bad numeric flag;
# files as written by conftest.write_boundary_files
MALFORMED_INPUTS = {
    "spec-invalid-json": _map(spec="bad.json"),
    "node-invalid-json": _map("--node", "bad.json"),
    "node-energy-huge": _map("--node", "tech-huge.json"),
    "node-energy-inf": _simulate("--node", "tech-inf.json"),
    "node-energy-nan": _simulate("--node", "tech-nan.json"),
    "placement-invalid-json": _simulate(placement="bad.json"),
    "network-not-utf8": _map(network="bad.bin"),
    "spikes-not-utf8": _simulate(spikes="bad.bin"),
    "spikes-time-inf": _simulate(spikes="spk-inf.csv"),
    "spikes-time-nan": _simulate(spikes="spk-nan.csv"),
    "spikes-neuron-huge": _simulate(spikes="spk-neuron-huge.csv"),
    "spec-n-inf": _map(spec="spec-n-inf.json"),
    "spec-p-fraction": _map(spec="spec-p-fraction.json"),
    **{f"network-{name}": _map(network=f"net-{name}.json") for name in BAD_NETWORKS},
    **{f"placement-{name}": _simulate(placement=f"placement-{name}.json") for name in BAD_PLACEMENTS},
    "simulate-duration-0": _simulate(duration="0"),
    "simulate-duration-nan": _simulate(duration="nan"),
    "simulate-duration-inf": _simulate(duration="inf"),
    "dse-networks-same-stem": ["dse", "--networks", "net.json", "other/net.json", "--spec", "spec.json",
                               "--grid", "2,4", "--out", "out"],
    "dse-duration-0": _dse("--duration", "0"),
    "dse-rate-negative": _dse("--rate", "-1"),
    "dse-rate-nan": _dse("--rate", "nan"),
    "map-crossbars-0": _map("--crossbars", "0"),
    "gen-rate-nan": ["gen", "--clusters", "2", "--rate", "nan", "--out-network", "out", "--out-spikes", "out"],
    "gen-seed-negative": ["gen", "--clusters", "2", "--seed", "-1", "--out-network", "out", "--out-spikes", "out"],
    "dse-seed-negative": _dse("--seed", "-1"),
    "dse-tolerance-nan": _dse("--tolerance", "nan"),
}


def _exit_code(argv):
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


@pytest.mark.parametrize("argv", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    """A bad file or flag exits 2 with an error line, no traceback and no output."""
    monkeypatch.chdir(tmp_path)
    write_boundary_files(tmp_path)
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
