"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import dataclasses
import time

import numpy as np
import pytest

from xbarsim import (
    CONFIG_11,
    CONFIGURATIONS,
    Activity,
    ControlMode,
    CrossbarPlacement,
    CrossbarSpec,
    GenParams,
    Granularity,
    Hardware,
    PlacedSynapse,
    Placement,
    ResistanceState,
    SpikeTrain,
    activity_from_trains,
    assign_cluster,
    average_latency_delta,
    config_dimensions,
    corner_extremes,
    cost_per_bit,
    die_area_overhead,
    energy_report,
    generate_synthetic,
    if_neuron_fire,
    isi_distortion,
    isolation_transistor_count,
    map_network,
    map_network_control,
    path_latency,
    permits,
    preset,
    save_spec,
    select_configuration,
    sense_latency,
    static_energy_weight,
    sweep_nhnl,
    sweep_pq,
    synapse_utilization,
    total_bits,
)
from xbarsim.cli import main as cli_main
from xbarsim.crossbar import legal_configurations
from xbarsim.fixtures import isi_demo

from conftest import planted_cluster, seated_cluster


def _ok(num, label):
    print(f"ACCEPTANCE {num:2d} ({label}): PASS")


def test_criterion_01_formula_exactness():
    t0 = time.perf_counter()
    assert cost_per_bit(128, 16) == 566.0
    assert total_bits(128) == 32768
    assert isolation_transistor_count(4, Granularity.FINE) == 24
    assert isolation_transistor_count(4, Granularity.COARSE) == 8
    assert isolation_transistor_count(128, Granularity.COARSE) == 256
    assert synapse_utilization(4, 4) == 0.25
    assert synapse_utilization(3, 4) == 0.1875
    assert synapse_utilization(128, 128) == 0.0078125
    assert time.perf_counter() - t0 < 1.0
    _ok(1, "formula exactness")


def test_criterion_02_configuration_table():
    t0 = time.perf_counter()
    tech = preset("16nm")
    spec = CrossbarSpec(n=4, p=3, q=2)
    base = CrossbarSpec(n=4)
    dims = [config_dimensions(c, spec) for c in CONFIGURATIONS]
    assert dims == [(3, 2), (4, 2), (3, 4), (4, 4)]
    weights = [static_energy_weight(c, spec) for c in CONFIGURATIONS]
    assert weights == [6, 8, 12, 16]
    state = tech.state("HRS")
    worst = {}
    for config in CONFIGURATIONS:
        rows, cols = config_dimensions(config, spec)
        worst[config.name] = path_latency(rows - 1, cols - 1, state, config, spec, tech)
    assert worst["00"].iso_component == 0.0
    assert worst["01"].iso_component == tech.t_iso_on
    assert worst["10"].iso_component == tech.t_iso_on
    assert worst["11"].iso_component == 2 * tech.t_iso_on
    baseline_worst = path_latency(3, 3, state, CONFIG_11, base, tech)
    assert worst["11"].parasitic_component == baseline_worst.parasitic_component
    assert worst["11"].sense_component == baseline_worst.sense_component
    assert worst["11"].total == baseline_worst.total + 2 * tech.t_iso_on
    assert time.perf_counter() - t0 < 1.0
    _ok(2, "configuration table for <4,.,.,3,2>")


def test_criterion_03_two_path_theorem():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    spec = CrossbarSpec(n=16)
    base = preset("45nm")
    for _ in range(1000):
        tech = dataclasses.replace(
            base,
            r_wordline_unit=float(rng.uniform(0.5, 20)),
            r_bitline_unit=float(rng.uniform(0.5, 20)),
            c_wordline_unit=float(rng.uniform(0.05, 5)),
            c_bitline_unit=float(rng.uniform(0.05, 5)),
            c_sense=float(rng.uniform(0.001, 1)),
            t_iso_on=float(rng.uniform(0, 100)),
            states=(ResistanceState("LRS1", float(rng.uniform(100, 2000))),
                    ResistanceState("LRS2", float(rng.uniform(3000, 8000))),
                    ResistanceState("LRS3", float(rng.uniform(9000, 20000))),
                    ResistanceState("HRS", float(rng.uniform(30000, 99000)))),
        )
        lrs1, hrs = tech.state("LRS1"), tech.state("HRS")
        near = path_latency(0, 0, lrs1, CONFIG_11, spec, tech)
        far = path_latency(15, 15, lrs1, CONFIG_11, spec, tech)
        big_delta = far.parasitic_component - near.parasitic_component
        small_delta = sense_latency(hrs, tech) - sense_latency(lrs1, tech)

        adverse = (path_latency(0, 0, lrs1, CONFIG_11, spec, tech).total,
                   path_latency(15, 15, hrs, CONFIG_11, spec, tech).total)
        assert max(adverse) - min(adverse) == pytest.approx(big_delta + small_delta, rel=1e-12)
        balanced = (path_latency(0, 0, hrs, CONFIG_11, spec, tech).total,
                    path_latency(15, 15, lrs1, CONFIG_11, spec, tech).total)
        assert max(balanced) - min(balanced) == pytest.approx(abs(big_delta - small_delta), rel=1e-12)
    assert time.perf_counter() - t0 < 1.0
    _ok(3, "two-path theorem, 1000 random draws")


def test_criterion_04_average_latency_formula():
    rng = np.random.default_rng(99)
    tech = preset("22nm")
    spec = CrossbarSpec(n=64)
    lrs1, hrs = tech.state("LRS1"), tech.state("HRS")
    for _ in range(100):
        m = int(rng.integers(1, 60))
        n_count = int(rng.integers(1, 60))
        long_cell = (int(rng.integers(1, 64)), int(rng.integers(1, 64)))
        short = path_latency(0, 0, lrs1, CONFIG_11, spec, tech)
        long = path_latency(*long_cell, lrs1, CONFIG_11, spec, tech)
        delta = long.parasitic_component - short.parasitic_component
        adverse_mean = (m * short.total
                        + n_count * path_latency(*long_cell, hrs, CONFIG_11, spec, tech).total) / (m + n_count)
        balanced_mean = (n_count * path_latency(0, 0, hrs, CONFIG_11, spec, tech).total
                         + m * long.total) / (m + n_count)
        expected = average_latency_delta(m, n_count, delta)
        # rel 1e-9 of the latency scale; the m == n case has expected == 0
        scale = max(abs(expected), short.total)
        assert adverse_mean - balanced_mean == pytest.approx(expected, abs=1e-9 * scale)
    _ok(4, "average-latency formula vs paired means")


def test_criterion_05_mapper_soundness():
    spec = CrossbarSpec(n=128, n_h=64, n_l=64, p=96, q=96)
    rng = np.random.default_rng(777)
    clusters = [planted_cluster(rng, k, spec, size_hi=128, lo_d=0.02, hi_d=0.15)
                for k in range(1000)]
    t0 = time.perf_counter()
    for cluster in clusters:
        assignment = assign_cluster(cluster, spec)
        config = select_configuration(assignment, spec)
        rows_dim, cols_dim = config_dimensions(config, spec)
        cells = set()
        for s, (row, col) in zip(cluster.synapses, assignment.cells):
            assert permits(row, col, s.state, spec), "region violation"
            assert row < rows_dim and col < cols_dim, "containment violation"
            cells.add((row, col))
        assert len(cells) == len(cluster.synapses)
        # configuration minimality by brute force over the four shapes
        max_r = max(r for r, _ in assignment.cells)
        max_c = max(c for _, c in assignment.cells)
        w = static_energy_weight(config, spec)
        for other in legal_configurations(spec):
            rows_o, cols_o = config_dimensions(other, spec)
            if max_r < rows_o and max_c < cols_o:
                assert static_energy_weight(other, spec) >= w, "not minimal"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(5, f"mapper soundness, 1000 clusters in {elapsed:.2f}s")


def test_criterion_06_expanded_config_minimization():
    spec = CrossbarSpec(n=128, p=96, q=96)
    for seed in range(100):
        params = GenParams(clusters=5, pre_range=(8, 110), post_range=(8, 110),
                           density=0.08, seed=seed)
        net, _ = generate_synthetic(params)
        hw = Hardware(crossbar_count=5, spec=spec)
        n_opt = sum(1 for xb in map_network(net, hw).crossbars if xb.config is CONFIG_11)
        n_ctl = sum(1 for xb in map_network_control(net, hw, seed=seed).crossbars
                    if xb.config is CONFIG_11)
        assert n_opt <= n_ctl, f"seed {seed}: optimized {n_opt} > control {n_ctl}"
    _ok(6, "'11' count <= control mapper on 100 networks")


def test_criterion_07_energy_ordering():
    tech = preset("16nm")
    spec = CrossbarSpec(n=4, p=3, q=2)
    placed = [(0, 100, "LRS1", 0, 0), (1, 101, "HRS", 2, 1)]
    activity = Activity(spike_counts={0: 7, 1: 2}, routed_spike_hops=3.0, duration=1.0)

    def energy(config):
        xb = CrossbarPlacement(0, spec=spec, config=config, **seated_cluster([PlacedSynapse(*t) for t in placed]))
        return energy_report(Placement((xb,), 1), activity, tech)

    reports = {c.name: energy(c) for c in CONFIGURATIONS}
    totals = {k: r.total_j for k, r in reports.items()}
    assert totals["00"] < totals["01"] < totals["11"]
    assert totals["00"] < totals["10"] < totals["11"]
    statics = {k: r.static_j for k, r in reports.items()}
    assert [statics[k] / statics["00"] * 6 for k in ("00", "01", "10", "11")] == \
        pytest.approx([6.0, 8.0, 12.0, 16.0])

    # double control never loses to single control
    for seed in range(10):
        params = GenParams(clusters=5, pre_range=(4, 100), post_range=(4, 100),
                           density=0.1, seed=seed)
        net, trains = generate_synthetic(params)
        act = activity_from_trains(trains, net.routes, duration=1.0)
        double = CrossbarSpec(n=128, p=96, q=96)
        single = CrossbarSpec(n=128, p=96, q=96, control=ControlMode.SINGLE)
        e_double = energy_report(
            map_network(net, Hardware(5, double)), act, tech).total_j
        e_single = energy_report(
            map_network(net, Hardware(5, single)), act, tech).total_j
        assert e_double <= e_single
    _ok(7, "energy ordering and double vs single control")


def test_criterion_08_technology_optimization_direction():
    for node in ("45nm", "32nm", "22nm", "16nm"):
        tech = preset(node)
        base = corner_extremes(CrossbarSpec(n=128), tech)
        opt = corner_extremes(CrossbarSpec(n=128, n_h=64, n_l=64), tech)
        assert opt.ratio > base.ratio, node  # strictly closer to 1
    tech = preset("16nm")
    table = sweep_nhnl(CrossbarSpec(n=128), tech,
                       nh_grid=[0, 2, 4, 8, 16, 32, 64], nl_grid=[0, 16, 32, 64])
    for nl in (0, 16, 32, 64):
        column = [table[(nh, nl)] for nh in (0, 2, 4, 8, 16, 32, 64)]
        assert all(a >= b for a, b in zip(column, column[1:]))
    _ok(8, "region optimization direction on all presets")


def test_criterion_09_dse_shape():
    t0 = time.perf_counter()
    tech = preset("16nm")
    params = GenParams(clusters=5, pre_range=(81, 96), post_range=(81, 96),
                       density=0.05, seed=42)
    net, _ = generate_synthetic(params)
    values = (64, 72, 80, 96, 112, 128)
    grid = [(p, q) for p in values for q in values]
    (points,) = sweep_pq([net], CrossbarSpec(n=128), tech, grid, seed=42)

    # Clusters top out at 96x96: every point with both partitions >= 96 runs
    # fully collapsed, and over those points energy is monotone in P*Q.
    # ('01'/'10' points also report expanded_fraction 0: single-side
    # expansion is still a collapsed mode.)
    collapsed = [pt for pt in points if min(pt.p, pt.q) >= 96]
    assert collapsed and all(pt.expanded_fraction == 0.0 for pt in collapsed)
    by_product = {}
    for pt in collapsed:
        by_product.setdefault(pt.p * pt.q, []).append(pt.norm_energy)
    products = sorted(by_product)
    for small, large in zip(products, products[1:]):
        assert max(by_product[small]) <= min(by_product[large]), \
            f"energy not monotone between {small} and {large}"

    ordered = sorted(points, key=lambda pt: (-pt.p * pt.q, -pt.p, -pt.q))
    first_expanded = next(i for i, pt in enumerate(ordered) if pt.expanded_fraction > 0)
    assert first_expanded > 0
    assert ordered[first_expanded].norm_latency > ordered[first_expanded - 1].norm_latency
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(9, f"P/Q sweep shape, 36 points in {elapsed:.1f}s")


def test_criterion_10_if_neuron_and_isi_distortion():
    neuron, on_time, delayed = isi_demo()
    assert if_neuron_fire(neuron, on_time).times == (22e-6,)
    assert if_neuron_fire(neuron, delayed).times == ()

    # y - x with binary-exact spike times and delays: equality is exact
    t1, t2, x, y = 1.0, 2.0, 0.25, 0.75
    inp = SpikeTrain(0, (t1, t2))
    out = SpikeTrain(0, (t1 + x, t2 + y))
    assert isi_distortion(inp, out) == y - x

    # deeper region-A mapping adds delta to the first spike's delay
    delta = 0.125
    deeper = SpikeTrain(0, (t1 + x + delta, t2 + y))
    assert isi_distortion(inp, deeper) == y - x - delta

    # and the same relations through the path model (spike times in the
    # same unit as the preset's latencies, far enough apart to keep order)
    tech = preset("16nm")
    spec = CrossbarSpec(n=4, n_h=2, n_l=0)
    hrs, lrs1 = tech.state("HRS"), tech.state("LRS1")
    x0 = path_latency(0, 0, hrs, CONFIG_11, spec, tech).total
    x1 = path_latency(1, 1, hrs, CONFIG_11, spec, tech).total
    y0 = path_latency(3, 3, lrs1, CONFIG_11, spec, tech).total
    t1, t2 = 0.0, 2e5
    base = isi_distortion(SpikeTrain(0, (t1, t2)), SpikeTrain(0, (t1 + x0, t2 + y0)))
    assert base == pytest.approx(abs(y0 - x0), rel=1e-12)
    moved = isi_distortion(SpikeTrain(0, (t1, t2)), SpikeTrain(0, (t1 + x1, t2 + y0)))
    assert moved == pytest.approx(abs(y0 - x0 - (x1 - x0)), rel=1e-9)
    _ok(10, "IF-neuron demo and ISI distortion relations")


def test_criterion_11_die_area():
    overhead = die_area_overhead(128)
    assert overhead["height_pct"] == pytest.approx(1.875)
    assert overhead["width_pct"] == pytest.approx(1.015625)
    assert abs(overhead["height_pct"] - 1.83) <= 0.05
    assert abs(overhead["width_pct"] - 1.01) <= 0.05
    _ok(11, "die-area overheads at n=128")


def test_criterion_12_cli_determinism(tmp_path):
    def one_run(tag):
        d = tmp_path / tag
        d.mkdir()
        net, spk = d / "net.json", d / "spk.csv"
        assert cli_main(["gen", "--clusters", "4", "--pre", "8:60", "--post", "8:60",
                         "--density", "0.12", "--seed", "5", "--duration", "0.2",
                         "--out-network", str(net), "--out-spikes", str(spk)]) == 0
        spec_path = d / "spec.json"
        save_spec(CrossbarSpec(n=128, n_h=64, n_l=64, p=96, q=96), spec_path)
        place = d / "placement.json"
        assert cli_main(["map", "--network", str(net), "--spec", str(spec_path),
                         "--out", str(place)]) == 0
        reports = d / "reports"
        assert cli_main(["simulate", "--placement", str(place), "--spikes", str(spk),
                         "--duration", "0.2", "--node", "16nm", "--out", str(reports)]) == 0
        base_spec = d / "base_spec.json"
        save_spec(CrossbarSpec(n=128), base_spec)
        sweep = d / "sweep.csv"
        assert cli_main(["dse", "--networks", str(net), "--spec", str(base_spec),
                         "--grid", "96,112,128", "--seed", "5",
                         "--out", str(sweep)]) == 0
        files = [place, sweep, reports / "latency.csv", reports / "energy.csv",
                 reports / "isi.csv", reports / "report.json"]
        return [f.read_bytes() for f in files]

    assert one_run("a") == one_run("b")
    _ok(12, "map+simulate+dse byte-identical across runs")
