import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xbarsim.dse as dse_mod
import xbarsim.simulate as simulate_mod
from xbarsim import (
    CONFIG_11,
    Cluster,
    ControlMode,
    CrossbarSpec,
    GenParams,
    Hardware,
    SweepPoint,
    Synapse,
    generate_synthetic,
    Network,
    energy_report,
    latency_stats,
    map_network,
    preset,
    select_tradeoff,
    sweep_nhnl,
    sweep_pq,
)
from xbarsim.errors import Infeasible, InvalidGrid, NoFeasibleKnee, ValidationError
from xbarsim.fixtures import mapping_demo_network
from xbarsim.crossbar import _cheapest_config
from xbarsim.simulate import _setups, _SynapseTable

from conftest import planted_cluster

TECH = preset("16nm")


def fitting_network(seed=0, hi=60):
    params = GenParams(clusters=6, pre_range=(8, hi), post_range=(8, hi),
                       density=0.15, seed=seed)
    net, _ = generate_synthetic(params)
    return net


def test_sweep_single_point_is_exactly_baseline():
    net = fitting_network()
    base = CrossbarSpec(n=128)
    sweeps = sweep_pq([net], base, TECH, [(128, 128)], seed=3)
    (pt,) = sweeps[0]
    assert pt.norm_energy == 1.0
    assert pt.norm_latency == 1.0
    assert pt.norm_variation == 1.0
    assert pt.feasible


def test_sweep_energy_monotone_while_fitting():
    net = fitting_network(hi=60)  # all clusters fit 64x64
    base = CrossbarSpec(n=128)
    grid = [(128, 128), (112, 112), (96, 96), (80, 80), (64, 64)]
    (points,) = sweep_pq([net], base, TECH, grid, seed=1)
    assert all(pt.expanded_fraction == 0.0 for pt in points[1:])
    energies = [pt.norm_energy for pt in points]
    assert all(a >= b for a, b in zip(energies, energies[1:]))
    assert energies[-1] < 1.0


def test_sweep_knee_shape():
    # Clusters sized 81..96: they fit the 96x96 collapsed region but not
    # 80x80, so the expanded fraction jumps and latency regresses there.
    params = GenParams(clusters=5, pre_range=(81, 96), post_range=(81, 96),
                       density=0.05, seed=2)
    net, _ = generate_synthetic(params)
    base = CrossbarSpec(n=128)
    grid = [(v, v) for v in (128, 112, 96, 80, 72, 64)]
    (points,) = sweep_pq([net], base, TECH, grid, seed=2)
    by_p = {pt.p: pt for pt in points}
    for p in (128, 112, 96):
        assert by_p[p].expanded_fraction == 0.0
    for p in (80, 72, 64):
        assert by_p[p].expanded_fraction > 0.0
    assert by_p[80].norm_latency > by_p[96].norm_latency
    # energy still improves while fitting
    assert by_p[96].norm_energy < by_p[112].norm_energy < by_p[128].norm_energy


def test_sweep_grid_validation():
    net = fitting_network()
    with pytest.raises(InvalidGrid):
        sweep_pq([net], CrossbarSpec(n=128), TECH, [])
    with pytest.raises(InvalidGrid):
        sweep_pq([net], CrossbarSpec(n=128), TECH, [(0, 4)])
    with pytest.raises(InvalidGrid):
        sweep_pq([net], CrossbarSpec(n=128), TECH, [(4, 200)])


@pytest.mark.parametrize("names", [["a"], ["a", "b", "c"], ["a", "a"]])
def test_sweep_names_one_distinct_name_per_network(names):
    # A short list would drop networks and a repeat would merge two in the sweep CSV.
    net = mapping_demo_network()
    with pytest.raises(ValidationError, match="one distinct name per network"):
        sweep_pq([net, net], CrossbarSpec(n=8), TECH, [(8, 8)], names=names)


def test_sweep_deterministic():
    net = fitting_network(seed=4)
    base = CrossbarSpec(n=128)
    grid = [(v, v) for v in (96, 128)]
    a = sweep_pq([net], base, TECH, grid, seed=9)
    b = sweep_pq([net], base, TECH, grid, seed=9)
    assert a == b


def test_sweep_unmappable_network_raises():
    # The sweep maps each network once; a cluster no crossbar can hold is
    # fatal for the whole sweep, not a flagged grid point.
    net = mapping_demo_network()
    with pytest.raises(Infeasible):
        sweep_pq([net], CrossbarSpec(n=2), TECH, [(2, 2), (1, 1)])


def test_sweep_maps_each_network_once(monkeypatch):
    net = fitting_network()
    calls = []
    real_map = dse_mod.map_network

    def counting_map(network, hardware):
        calls.append(hardware.spec)
        return real_map(network, hardware)

    monkeypatch.setattr(dse_mod, "map_network", counting_map)
    grid = [(128, 128), (96, 96), (64, 112)]
    (points,) = sweep_pq([net], CrossbarSpec(n=128), TECH, grid, seed=0)
    assert calls == [CrossbarSpec(n=128)]
    assert [(pt.p, pt.q) for pt in points] == grid


def test_sweep_work_per_point_scales_with_configurations(monkeypatch):
    # Per network and grid point, sweep_pq picks each crossbar's configuration
    # by one O(1) call, and gathers tap delays and corner extremes once per
    # distinct configuration, however many crossbars share it.
    nets = [fitting_network(seed=5, hi=100), fitting_network(seed=6, hi=120)]
    base = CrossbarSpec(n=128, n_h=16, n_l=16)
    grid = [(128, 128), (64, 64), (96, 80), (64, 128), (128, 72), (100, 100)]
    sweep_pq(nets, base, TECH, grid, seed=0)  # warms corner_extremes, whose cache misses call tap_delays
    log = []

    def logged(name, fn):
        def wrapper(*args):
            log.append((name, args))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dse_mod, "_cheapest_config", logged("cheapest", _cheapest_config))
    monkeypatch.setattr(simulate_mod, "tap_delays", logged("taps", simulate_mod.tap_delays))
    monkeypatch.setattr(dse_mod, "corner_extremes", logged("extremes", dse_mod.corner_extremes))
    real_evaluate = dse_mod._evaluate_setups

    def evaluate(table, charge, spec, *rest):
        out = real_evaluate(table, charge, spec, *rest)
        log.append(("point", spec))
        return out

    monkeypatch.setattr(dse_mod, "_evaluate_setups", evaluate)
    sweep_pq(nets, base, TECH, grid, seed=0)

    points, events = [], []
    for name, args in log:
        if name == "point":
            points.append((args, events))
            events = []
        else:
            events.append((name, args))
    specs = [dataclasses.replace(base, p=p, q=q) for p, q in [(128, 128)] + grid]
    assert [spec for spec, _ in points] == specs * len(nets)
    most = 0
    for net, at_net in zip(nets, (points[:len(specs)], points[len(specs):])):
        mapped = map_network(net, Hardware(crossbar_count=len(net.clusters), spec=specs[0]))
        for spec, events in at_net:
            configs = sorted({_cheapest_config(*(int(c.max()) for c in xb.cells()), spec).name
                              for xb in mapped.crossbars})
            most = max(most, len(configs))
            assert sum(name == "cheapest" for name, _ in events) == len(mapped.crossbars)
            assert sorted(args[1].name for name, args in events if name == "taps") == configs
            assert sorted(args[2].name for name, args in events if name == "extremes") == configs
    assert most == 4  # some point mixes all four configurations


@pytest.mark.parametrize("field, value", [("c_sense", 1e305), ("t_iso_on", 1.7e308)])
def test_sweep_refuses_a_technology_whose_values_overflow(field, value):
    # Every value is finite, but the latencies (c_sense) or the partitioned
    # points' latencies through an isolation transistor (t_iso_on) are not.
    tech = dataclasses.replace(TECH, **{field: value})
    with pytest.raises(ValidationError, match="^technology '16nm'"):
        sweep_pq([fitting_network(seed=1)], CrossbarSpec(n=128), tech, [(16, 16), (128, 128)])


def _evaluate(placement, spec, tech, activity):
    """(energy, mean path latency, corner-extremes variation, expanded fraction) of a placement on `spec`."""
    table = _SynapseTable(placement.crossbars, tech)
    setups, at = _setups((xb.spec, xb.config) for xb in placement.crossbars)
    return dse_mod._evaluate_setups(table, table.charge(activity), spec, setups, at, activity)


def test_seeded_activity_equals_per_neuron_scalar_draws():
    # One vector draw gives each pre-neuron, in cluster order, the count a
    # scalar draw per neuron from a fresh generator would.
    net = fitting_network(seed=3)
    for seed, rate, duration in ((0, 30.0, 1.0), (7, 5.0, 0.2), (11, 400.0, 2.5)):
        rng = np.random.default_rng(seed)
        expected = {nid: int(rng.poisson(rate * duration)) for c in net.clusters for nid in c.pre_neurons}
        activity = dse_mod._seeded_activity(net, rate, duration, seed)
        assert list(activity.spike_counts.items()) == list(expected.items())
        assert {type(count) for count in activity.spike_counts.values()} == {int}


def test_sweep_matches_mapping_at_each_point():
    # Re-selecting configurations on the one mapping gives what mapping the
    # network afresh at every grid point would.
    net = fitting_network(seed=5, hi=100)
    base = CrossbarSpec(n=128, n_h=16, n_l=16)
    grid = [(64, 64), (96, 80), (128, 128)]
    (points,) = sweep_pq([net], base, TECH, grid, seed=2)
    activity = dse_mod._seeded_activity(net, 30.0, 1.0, 2)
    ref = dataclasses.replace(base, p=128, q=128)
    e0, l0, v0, _ = _evaluate(
        map_network(net, Hardware(crossbar_count=6, spec=ref)), ref, TECH, activity)
    for pt in points:
        spec = dataclasses.replace(base, p=pt.p, q=pt.q)
        placement = map_network(net, Hardware(crossbar_count=6, spec=spec))
        e, l, v, frac = _evaluate(placement, spec, TECH, activity)
        assert (pt.norm_energy, pt.norm_latency, pt.norm_variation, pt.expanded_fraction) \
            == (e / e0, l / l0, v / v0, frac)


def sweep_pq_reference(networks, base_spec, tech, grid, *, spike_rate=30.0, duration=1.0, seed=0):
    """sweep_pq as a loop over crossbars: at each grid point, replace every
    crossbar's spec and configuration, then call energy_report and latency_stats."""
    sweeps = []
    for i, network in enumerate(networks):
        activity = dse_mod._seeded_activity(network, spike_rate, duration, seed)
        base = dataclasses.replace(base_spec, p=base_spec.n, q=base_spec.n)
        mapped = map_network(network, Hardware(crossbar_count=len(network.clusters), spec=base))

        def evaluate(placement, spec):
            report = latency_stats(placement, tech)
            partitioned = spec.p < spec.n or spec.q < spec.n
            expanded = sum(1 for xb in placement.crossbars if xb.config == CONFIG_11 and partitioned)
            return (float(energy_report(placement, activity, tech).total_j), report.aggregate.mean,
                    report.extremes.ratio, expanded / len(placement.crossbars))

        e0, l0, v0, _ = evaluate(mapped, base)
        points = []
        for p, q in grid:
            spec = dataclasses.replace(base_spec, p=p, q=q)
            crossbars = tuple(
                dataclasses.replace(xb, spec=spec, config=_cheapest_config(*(int(c.max()) for c in xb.cells()), spec))
                for xb in mapped.crossbars)
            e, l, v, frac = evaluate(dataclasses.replace(mapped, crossbars=crossbars), spec)
            points.append(SweepPoint(network=f"net{i}", p=p, q=q, norm_energy=e / e0, norm_latency=l / l0,
                                     norm_variation=v / v0, expanded_fraction=frac))
        sweeps.append(points)
    return sweeps


def with_idle_neurons(cluster, count):
    """The cluster plus `count` pre-neurons that no synapse uses, ids past its others."""
    top = max(cluster.pre_neurons + cluster.post_neurons) + 1
    return Cluster.from_columns(cluster.id, cluster.pre_neurons + tuple(range(top, top + count)),
                                cluster.post_neurons, cluster.pre, cluster.post, cluster.state)


@st.composite
def sweep_cases(draw):
    """(networks, base spec, grid, activity seed): planted clusters on a spec
    of N = 4..24 with any regions and control mode, each network's first
    cluster padded with synapse-less pre-neurons; the grid always holds a
    point with only P = N and one with only Q = N."""
    n = draw(st.integers(4, 24))
    n_h = draw(st.integers(0, n))
    n_l = draw(st.integers(0, n - n_h))
    control = draw(st.sampled_from(ControlMode))
    spec = CrossbarSpec(n=n, n_h=n_h, n_l=n_l, control=control)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    networks = []
    for _ in range(draw(st.integers(1, 2))):
        clusters = [planted_cluster(rng, c, spec, size_hi=n - 1, id_base=1000 * c)
                    for c in range(draw(st.integers(1, 4)))]
        clusters[0] = with_idle_neurons(clusters[0], n - len(clusters[0].pre_neurons))
        networks.append(Network(clusters=tuple(clusters)))
    point = st.tuples(st.integers(1, n), st.integers(1, n))
    grid = [(n, draw(st.integers(1, n - 1))), (draw(st.integers(1, n - 1)), n)] + draw(st.lists(point, max_size=4))
    return networks, spec, grid, draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(sweep_cases())
@example((  # no regions, single control, with synapse-less neurons
    [Network(clusters=(with_idle_neurons(
        Cluster(0, (0, 1), (2, 3), [Synapse(0, 0, "HRS"), Synapse(1, 1, "LRS1")]), 3),))],
    CrossbarSpec(n=8, control=ControlMode.SINGLE), [(8, 8), (8, 3), (3, 8), (2, 2)], 5))
def test_sweep_matches_per_crossbar_reference(case):
    """Every point of sweep_pq equals, bit for bit, the sweep that builds a
    placement at every grid point and evaluates it with energy_report and
    latency_stats."""
    networks, spec, grid, seed = case
    try:
        expected = sweep_pq_reference(networks, spec, TECH, grid, seed=seed)
    except Infeasible:  # the mapper's known false rejections; sweep_pq refuses alike
        with pytest.raises(Infeasible):
            sweep_pq(networks, spec, TECH, grid, seed=seed)
        return
    assert sweep_pq(networks, spec, TECH, grid, seed=seed) == expected


def test_sweep_nhnl_baseline_and_monotonicity():
    spec = CrossbarSpec(n=128)
    nh_grid = [0, 2, 4, 8, 16, 32, 64]
    nl_grid = [0, 16, 32, 64]
    table = sweep_nhnl(spec, TECH, nh_grid, nl_grid)
    assert table[(0, 0)] == pytest.approx(1.0)
    for nl in nl_grid:
        column = [table[(nh, nl)] for nh in nh_grid if nh + nl <= 128]
        assert all(a >= b for a, b in zip(column, column[1:]))
    # some region setting strictly improves on baseline
    assert table[(64, 64)] < 1.0


def test_sweep_nhnl_region_b_weaker_than_region_a():
    # Growing the fast-sense region (N_l) 16->32 buys less than growing the
    # slow-sense region (N_h) by the same step.
    spec = CrossbarSpec(n=128)
    table = sweep_nhnl(spec, TECH, [16, 32], [16, 32])
    improvement_nl = table[(16, 16)] - table[(16, 32)]
    improvement_nh = table[(16, 16)] - table[(32, 16)]
    assert improvement_nl < improvement_nh


def test_sweep_nhnl_grid_validation():
    with pytest.raises(InvalidGrid):
        sweep_nhnl(CrossbarSpec(n=16), TECH, [], [0])
    with pytest.raises(InvalidGrid):
        sweep_nhnl(CrossbarSpec(n=16), TECH, [12], [8])


def _points(name, values):
    return [SweepPoint(network=name, p=p, q=q, norm_energy=e, norm_latency=l,
                       norm_variation=1.0, expanded_fraction=0.0)
            for (p, q, e, l) in values]


def test_select_tradeoff_single_network():
    points = _points("a", [(128, 128, 1.0, 1.0), (96, 96, 0.8, 0.97),
                           (80, 80, 0.7, 0.95), (64, 64, 0.6, 1.2)])
    assert select_tradeoff([points]) == (80, 80)


def test_select_tradeoff_elementwise_max():
    grid = [(128, 128, 1.0, 1.0), (96, 96, 0.8, 0.9), (80, 80, 0.7, 0.9)]
    a = _points("a", grid)                      # knee (80,80)
    b = _points("b", [(128, 128, 1.0, 1.0), (96, 96, 0.8, 0.9),
                      (80, 80, 0.7, 1.5)])      # knee (96,96)
    assert select_tradeoff([a, b]) == (96, 96)


def test_select_tradeoff_tie_prefers_larger_p():
    points = _points("a", [(128, 128, 1.0, 1.0), (64, 96, 0.7, 0.9),
                           (96, 64, 0.7, 0.9)])
    assert select_tradeoff([points]) == (96, 64)


def test_select_tradeoff_no_feasible_knee():
    points = _points("a", [(96, 96, 0.8, 1.1), (80, 80, 0.7, 1.2)])
    with pytest.raises(NoFeasibleKnee):
        select_tradeoff([points])


def test_select_tradeoff_latency_tolerance():
    points = _points("a", [(96, 96, 0.8, 1.05), (128, 128, 1.0, 1.0)])
    assert select_tradeoff([points]) == (128, 128)
    assert select_tradeoff([points], latency_tolerance=0.1) == (96, 96)
    for tolerance in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            select_tradeoff([points], latency_tolerance=tolerance)


def test_select_tradeoff_grid_mismatch():
    a = _points("a", [(128, 128, 1.0, 1.0)])
    b = _points("b", [(96, 96, 1.0, 1.0)])
    with pytest.raises(InvalidGrid):
        select_tradeoff([a, b])
    with pytest.raises(InvalidGrid):
        select_tradeoff([])
