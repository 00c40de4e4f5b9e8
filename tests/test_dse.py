import dataclasses

import pytest

import xbarsim.dse as dse_mod
from xbarsim import (
    CrossbarSpec,
    GenParams,
    Hardware,
    SweepPoint,
    generate_synthetic,
    map_network,
    preset,
    select_tradeoff,
    sweep_nhnl,
    sweep_pq,
)
from xbarsim.errors import Infeasible, InvalidGrid, NoFeasibleKnee, ValidationError
from xbarsim.fixtures import mapping_demo_network

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


def test_sweep_matches_mapping_at_each_point():
    # Re-selecting configurations on the one mapping gives what mapping the
    # network afresh at every grid point would.
    net = fitting_network(seed=5, hi=100)
    base = CrossbarSpec(n=128, n_h=16, n_l=16)
    grid = [(64, 64), (96, 80), (128, 128)]
    (points,) = sweep_pq([net], base, TECH, grid, seed=2)
    activity = dse_mod._seeded_activity(net, 30.0, 1.0, 2)
    ref = dataclasses.replace(base, p=128, q=128)
    e0, l0, v0, _ = dse_mod._evaluate(
        map_network(net, Hardware(crossbar_count=6, spec=ref, tech=TECH)), ref, TECH, activity)
    for pt in points:
        spec = dataclasses.replace(base, p=pt.p, q=pt.q)
        placement = map_network(net, Hardware(crossbar_count=6, spec=spec, tech=TECH))
        e, l, v, frac = dse_mod._evaluate(placement, spec, TECH, activity)
        assert (pt.norm_energy, pt.norm_latency, pt.norm_variation, pt.expanded_fraction) \
            == (e / e0, l / l0, v / v0, frac)


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
