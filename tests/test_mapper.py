import dataclasses

import numpy as np
import pytest

from xbarsim import (
    CONFIG_00,
    CONFIG_01,
    CONFIG_11,
    Assignment,
    Cluster,
    ControlMode,
    CrossbarSpec,
    GenParams,
    Hardware,
    Synapse,
    assign_cluster,
    check_placement,
    config_dimensions,
    generate_synthetic,
    map_network,
    map_network_control,
    permits,
    preset,
    save_placement,
    select_configuration,
    static_energy_weight,
    synapse_utilization,
)
from xbarsim.crossbar import legal_configurations
from xbarsim.fixtures import mapping_demo_network
from xbarsim.mapper import _SynapseArrays, _swap_repair, _violations, load_placement
from xbarsim.errors import CapacityExceeded, Infeasible, ValidationError

from conftest import planted_cluster, random_cluster

TECH = preset("16nm")


def test_single_hrs_synapse_lands_in_region_a():
    spec = CrossbarSpec(n=128, n_h=64, n_l=64, p=96, q=96)
    cluster = Cluster(id=0, pre_neurons=(10,), post_neurons=(20,),
                      synapses=(Synapse(0, 0, "HRS"),))
    a = assign_cluster(cluster, spec)
    assert a.cells == ((0, 0),)


def test_single_lrs_synapse_avoids_region_a():
    # Mirrors the two alternative implementations around the HRS-only corner:
    # the LRS1 cell may not sit in rows {0,1} x cols {0,1}.
    spec = CrossbarSpec(n=4, n_h=2, n_l=0)
    cluster = Cluster(id=0, pre_neurons=(1,), post_neurons=(2,),
                      synapses=(Synapse(0, 0, "LRS1"),))
    a = assign_cluster(cluster, spec)
    (row, col), = a.cells
    assert not (row < 2 and col < 2)
    assert permits(row, col, "LRS1", spec)


def test_random_feasible_clusters_have_zero_violations(rng):
    spec = CrossbarSpec(n=128, n_h=64, n_l=64, p=96, q=96)
    for k in range(100):
        cluster = planted_cluster(rng, k, spec)
        a = assign_cluster(cluster, spec)
        for s, (row, col) in zip(cluster.synapses, a.cells):
            assert permits(row, col, s.state, spec)
        # cells follow the neuron maps and stay injective
        cells = set()
        for s, cell in zip(cluster.synapses, a.cells):
            assert cell == (a.row_of_pre[cluster.pre_neurons[s.pre]],
                            a.col_of_post[cluster.post_neurons[s.post]])
            cells.add(cell)
        assert len(cells) == len(cluster.synapses)


BAND_SPECS = [
    CrossbarSpec(n=16, n_h=0, n_l=6),
    CrossbarSpec(n=16, n_h=6, n_l=0),
    CrossbarSpec(n=16, n_h=7, n_l=9),
    CrossbarSpec(n=16, n_h=5, n_l=4),
]


@pytest.mark.parametrize("spec", BAND_SPECS)
def test_violations_match_permits_brute_force(rng, spec):
    # _violations decides accept or Infeasible; check it cell by cell
    # against the region table on random seats.
    for cid in range(40):
        cluster = random_cluster(rng, cid, int(rng.integers(1, 17)), int(rng.integers(1, 17)), 0.4)
        rows = rng.permutation(spec.n)[:len(cluster.pre_neurons)]
        cols = rng.permutation(spec.n)[:len(cluster.post_neurons)]
        expected = [k for k, s in enumerate(cluster.synapses)
                    if not permits(int(rows[s.pre]), int(cols[s.post]), s.state, spec)]
        got = _violations(_SynapseArrays(cluster), rows, cols, spec)
        assert got.tolist() == expected


def _swap_repair_full_matrix(spec, occupants, cost_a, cost_b):
    # Reference: scores every slot pair on the full N x N delta matrix and
    # keeps the upper triangle, then applies disjoint swaps as _swap_repair.
    n, n_h, n_l = spec.n, spec.n_h, spec.n_l
    slots = np.arange(n)
    in_a = slots < n_h
    in_b = slots >= n - n_l
    while True:
        ca = np.where(occupants >= 0, cost_a[np.maximum(occupants, 0)], 0)
        cb = np.where(occupants >= 0, cost_b[np.maximum(occupants, 0)], 0)
        cost_at = ca[:, None] * in_a[None, :] + cb[:, None] * in_b[None, :]
        cur = np.diagonal(cost_at).copy()
        delta = cost_at + cost_at.T - cur[:, None] - cur[None, :]
        ii, jj = np.nonzero(delta < 0)
        upper = ii < jj
        ii, jj = ii[upper], jj[upper]
        if ii.size == 0:
            return
        touched = np.zeros(n, dtype=bool)
        for k in np.argsort(delta[ii, jj], kind="stable"):
            i, j = int(ii[k]), int(jj[k])
            if touched[i] or touched[j]:
                continue
            occupants[i], occupants[j] = occupants[j], occupants[i]
            touched[i] = touched[j] = True


@pytest.mark.parametrize("spec", BAND_SPECS)
def test_swap_repair_matches_full_matrix_pass(rng, spec):
    # Only slot pairs in different bands are scored; the swaps must be the
    # ones the full pairwise scan makes, in the same order.
    for _ in range(200):
        k = int(rng.integers(1, spec.n + 1))
        occupants = np.full(spec.n, -1, dtype=int)
        occupants[rng.permutation(spec.n)[:k]] = rng.permutation(k)
        cost_a = rng.integers(0, 4, size=k)
        cost_b = rng.integers(0, 4, size=k)
        expected = occupants.copy()
        _swap_repair_full_matrix(spec, expected, cost_a, cost_b)
        _swap_repair(spec, occupants, cost_a, cost_b)
        assert occupants.tolist() == expected.tolist()


def test_infeasible_cluster_reported():
    # 3 pre-neurons forced out of a 2-row region C on a tiny crossbar: more
    # LRS1 rows needed than exist outside region A.
    spec = CrossbarSpec(n=2, n_h=2, n_l=0)
    cluster = Cluster(id=7, pre_neurons=(0, 1), post_neurons=(2, 3),
                      synapses=(Synapse(0, 0, "LRS1"), Synapse(1, 1, "LRS1")))
    with pytest.raises(Infeasible) as exc:
        assign_cluster(cluster, spec)
    assert exc.value.cluster_id == 7
    assert exc.value.violations


def test_oversized_cluster_infeasible():
    spec = CrossbarSpec(n=4)
    cluster = Cluster(id=1, pre_neurons=tuple(range(5)), post_neurons=(100,),
                      synapses=tuple(Synapse(i, 0, "HRS") for i in range(5)))
    with pytest.raises(Infeasible):
        assign_cluster(cluster, spec)


def _assignment(cells):
    rows = {i: r for i, (r, _) in enumerate(cells)}
    cols = {i: c for i, (_, c) in enumerate(cells)}
    return Assignment(row_of_pre=rows, col_of_post=cols, cells=tuple(cells))


def test_select_configuration_cases():
    spec = CrossbarSpec(n=4, p=3, q=2)
    assert select_configuration(_assignment([(0, 0), (2, 1)]), spec) is CONFIG_00
    # a cell at row P (0-based) with all columns < Q needs the row expansion
    assert select_configuration(_assignment([(3, 0)]), spec) is CONFIG_01
    single = CrossbarSpec(n=4, p=3, q=2, control=ControlMode.SINGLE)
    assert select_configuration(_assignment([(3, 0)]), single) is CONFIG_11
    assert select_configuration(_assignment([(3, 3)]), spec) is CONFIG_11


def test_select_configuration_baseline_reports_expanded():
    spec = CrossbarSpec(n=8)
    assert select_configuration(_assignment([(0, 0)]), spec) is CONFIG_11


def test_select_configuration_degenerate_axis_stays_collapsed():
    # P = N leaves no row transistors; the (N,Q)-dim tie goes to '00'
    spec = CrossbarSpec(n=8, p=8, q=4)
    assert select_configuration(_assignment([(7, 0)]), spec) is CONFIG_00


def test_fixture_all_collapsed_when_partition_contains():
    net = mapping_demo_network()
    spec = CrossbarSpec(n=8, p=4, q=4)
    placement = map_network(net, Hardware(crossbar_count=3, spec=spec, tech=TECH))
    assert all(xb.config is CONFIG_00 for xb in placement.crossbars)


def test_select_configuration_minimality_brute_force(rng):
    spec = CrossbarSpec(n=16, p=9, q=5)
    for _ in range(200):
        count = int(rng.integers(1, 12))
        cells = {(int(rng.integers(16)), int(rng.integers(16))) for _ in range(count)}
        chosen = select_configuration(_assignment(sorted(cells)), spec)
        w_chosen = static_energy_weight(chosen, spec)
        max_r = max(r for r, _ in cells)
        max_c = max(c for _, c in cells)
        for cfg in legal_configurations(spec):
            rows, cols = config_dimensions(cfg, spec)
            if max_r < rows and max_c < cols:
                assert static_energy_weight(cfg, spec) >= w_chosen


def test_map_network_fixture_utilizations():
    net = mapping_demo_network()
    spec = CrossbarSpec(n=4)
    placement = map_network(net, Hardware(crossbar_count=3, spec=spec, tech=TECH))
    utils = {xb.cluster_id: synapse_utilization(len(xb.synapses), 4)
             for xb in placement.crossbars}
    assert utils[0] == pytest.approx(0.25)
    assert utils[1] == pytest.approx(0.1875)
    assert utils[2] == pytest.approx(0.25)
    assert all(xb.config is CONFIG_11 for xb in placement.crossbars)
    assert check_placement(placement) == []


def test_map_network_capacity():
    net = mapping_demo_network()
    with pytest.raises(CapacityExceeded):
        map_network(net, Hardware(crossbar_count=2, spec=CrossbarSpec(n=4), tech=TECH))


def test_map_network_stats():
    net = mapping_demo_network()
    placement = map_network(net, Hardware(crossbar_count=3, spec=CrossbarSpec(n=4), tech=TECH))
    by_cluster = {xb.cluster_id: xb for xb in placement.crossbars}
    assert by_cluster[0].m == 3 and by_cluster[0].n_hrs == 1
    assert by_cluster[2].m == 2 and by_cluster[2].n_hrs == 2


def test_optimized_beats_control_on_expanded_count(rng):
    spec = CrossbarSpec(n=128, p=96, q=96)  # regions off for the control mapper
    for seed in range(10):
        params = GenParams(clusters=8, pre_range=(8, 110), post_range=(8, 110),
                           density=0.1, seed=seed)
        net, _ = generate_synthetic(params)
        hw = Hardware(crossbar_count=8, spec=spec, tech=TECH)
        optimized = map_network(net, hw)
        control = map_network_control(net, hw, seed=seed)
        n_opt = sum(1 for xb in optimized.crossbars if xb.config is CONFIG_11)
        n_ctl = sum(1 for xb in control.crossbars if xb.config is CONFIG_11)
        assert n_opt <= n_ctl
        assert check_placement(optimized) == []
        assert check_placement(control) == []


def test_control_mapper_rejects_region_specs():
    net = mapping_demo_network()
    spec = CrossbarSpec(n=8, n_h=2, n_l=2)
    with pytest.raises(ValidationError):
        map_network_control(net, Hardware(crossbar_count=3, spec=spec, tech=TECH))


def test_map_network_deterministic(rng):
    from xbarsim import Network
    spec = CrossbarSpec(n=128, n_h=64, n_l=64, p=96, q=96)
    clusters = [planted_cluster(rng, k, spec, size_hi=100, id_base=1000 * k)
                for k in range(5)]
    net = Network(clusters=tuple(clusters))
    hw = Hardware(crossbar_count=5, spec=spec, tech=TECH)
    assert map_network(net, hw) == map_network(net, hw)


def test_placement_round_trip(tmp_path):
    net = mapping_demo_network()
    placement = map_network(net, Hardware(crossbar_count=3, spec=CrossbarSpec(n=4), tech=TECH))
    path = tmp_path / "placement.json"
    save_placement(placement, path)
    assert load_placement(path) == placement


def test_check_placement_detects_corruption():
    net = mapping_demo_network()
    spec = CrossbarSpec(n=4, n_h=2, n_l=0)
    placement = map_network(net, Hardware(crossbar_count=3, spec=spec, tech=TECH))
    assert check_placement(placement) == []
    # break the cell/neuron-map consistency of one synapse
    xb = placement.crossbars[0]
    bad_syn = dataclasses.replace(xb.synapses[0], row=(xb.synapses[0].row + 1) % 4)
    corrupted = dataclasses.replace(
        placement,
        crossbars=(dataclasses.replace(xb, synapses=(bad_syn,) + xb.synapses[1:]),)
        + placement.crossbars[1:])
    assert check_placement(corrupted) != []


def _replace_first_crossbar(placement, xb):
    return dataclasses.replace(placement, crossbars=(xb,) + placement.crossbars[1:])


@pytest.mark.parametrize("row", [-1, 500])
def test_check_placement_reports_cells_outside_crossbar(row):
    placement = map_network(mapping_demo_network(), Hardware(crossbar_count=3, spec=CrossbarSpec(n=4), tech=TECH))
    xb = placement.crossbars[0]
    s = xb.synapses[0]
    moved = dataclasses.replace(xb, row_of_pre={**xb.row_of_pre, s.pre: row},
                                synapses=(dataclasses.replace(s, row=row),) + xb.synapses[1:])
    problems = check_placement(_replace_first_crossbar(placement, moved))
    assert problems == [f"crossbar {xb.crossbar_id}: cell ({row},{s.col}) outside config '{xb.config.name}'"]


def test_check_placement_reports_illegal_configuration():
    spec = CrossbarSpec(n=4, p=2, q=2, control=ControlMode.SINGLE)
    placement = map_network(mapping_demo_network(), Hardware(crossbar_count=3, spec=spec, tech=TECH))
    assert check_placement(placement) == []
    xb = dataclasses.replace(placement.crossbars[0], config=CONFIG_01)
    problems = check_placement(_replace_first_crossbar(placement, xb))
    assert problems[0] == f"crossbar {xb.crossbar_id}: configuration '01' illegal under single control"


def test_region_constrained_states_still_respected_with_random_states(rng):
    # Clusters whose states ignore the planted-cell trick must either map
    # cleanly or raise Infeasible; emitted placements are always sound.
    spec = CrossbarSpec(n=32, n_h=8, n_l=8)
    mapped = 0
    for k in range(60):
        cluster = random_cluster(rng, k, int(rng.integers(2, 28)),
                                 int(rng.integers(2, 28)), 0.15)
        try:
            a = assign_cluster(cluster, spec)
        except Infeasible:
            continue
        mapped += 1
        for s, (row, col) in zip(cluster.synapses, a.cells):
            assert permits(row, col, s.state, spec)
    assert mapped > 0
