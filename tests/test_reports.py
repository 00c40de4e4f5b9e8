import pytest

from xbarsim import (
    CrossbarSpec,
    GenParams,
    Hardware,
    SpikeTrace,
    SpikeTrain,
    activity_from_trains,
    energy_report,
    generate_synthetic,
    latency_stats,
    map_network,
    neuron_isi_distortion,
    preset,
    sweep_pq,
)
from xbarsim.fixtures import mapping_demo_network
from xbarsim.reports import (
    read_energy_csv,
    read_isi_csv,
    read_latency_csv,
    read_sweep_csv,
    write_energy_csv,
    write_isi_csv,
    write_latency_csv,
    write_sweep_csv,
)
from xbarsim.errors import ParseError

TECH = preset("16nm")


def _reports():
    net = mapping_demo_network()
    placement = map_network(net, Hardware(crossbar_count=3, spec=CrossbarSpec(n=4)))
    trace = SpikeTrace.from_trains([SpikeTrain(neuron=nid, times=(0.1, 0.2, 0.35)) for nid in range(4)])
    latency = latency_stats(placement, TECH)
    energy = energy_report(placement, activity_from_trains(trace, placement.routes, 1.0), TECH)
    distortions = neuron_isi_distortion(placement, trace, TECH)
    return latency, energy, distortions


def test_latency_csv_round_trip(tmp_path):
    latency, _, _ = _reports()
    path = tmp_path / "latency.csv"
    write_latency_csv(latency, path)
    rows = read_latency_csv(path)
    assert len(rows) == len(latency.per_crossbar)
    for row, xb in zip(rows, latency.per_crossbar):
        assert row["crossbar"] == xb.crossbar_id
        assert row["best"] == xb.placed.best
        assert row["extreme_ratio"] == xb.extremes.ratio


def test_energy_csv_round_trip(tmp_path):
    _, energy, _ = _reports()
    path = tmp_path / "energy.csv"
    write_energy_csv(energy, path)
    assert read_energy_csv(path) == energy


def test_isi_csv_round_trip(tmp_path):
    _, _, distortions = _reports()
    path = tmp_path / "isi.csv"
    write_isi_csv(distortions, path)
    assert read_isi_csv(path) == distortions


def test_sweep_csv_round_trip(tmp_path):
    params = GenParams(clusters=3, pre_range=(4, 30), post_range=(4, 30),
                       density=0.2, seed=0)
    net, _ = generate_synthetic(params)
    sweeps = sweep_pq([net], CrossbarSpec(n=128), TECH, [(96, 96), (128, 128)], seed=1)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(sweeps, path)
    assert read_sweep_csv(path) == sweeps


def test_readers_reject_wrong_tables(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError):
        read_energy_csv(path)
    with pytest.raises(ParseError):
        read_isi_csv(path)
    with pytest.raises(ParseError):
        read_latency_csv(path)
    with pytest.raises(ParseError):
        read_sweep_csv(path)
