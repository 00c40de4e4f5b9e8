import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xbarsim import (
    CONFIG_00,
    CONFIG_01,
    CONFIG_11,
    Assignment,
    Cluster,
    ControlMode,
    CrossbarPlacement,
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
    Network,
    permits,
    PlacedSynapse,
    Placement,
    preset,
    save_placement,
    select_configuration,
    static_energy_weight,
    synapse_utilization,
)
from xbarsim.crossbar import HRS, LRS1, STATE_LABELS, _STATE_CODE, _cheapest_config, legal_configurations
from xbarsim.fixtures import mapping_demo_network
from xbarsim import mapper
from xbarsim.mapper import _swap_repair, _violations, load_placement
from xbarsim.workload import _sorted_pairs, network_from_json, network_to_json
from xbarsim.errors import CapacityExceeded, Infeasible, ValidationError

from conftest import (MEMO_SPECS, feasible_by_bands, feasible_by_enumeration, planted_cluster, random_cluster,
                      seated_cluster)

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
        got = _violations(cluster, rows, cols, spec)
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


def _band_matrix_delta(spec, occupants, cost_a, cost_b):
    """delta[i, j - N_h]: the change in violations if slots i < N - N_l and
    j >= N_h swap, scored on the whole (N - N_l) x (N - N_h) matrix."""
    n, n_h, n_l = spec.n, spec.n_h, spec.n_l
    slots = np.arange(n)
    in_a = slots < n_h
    in_b = slots >= n - n_l
    lo, hi = slice(0, n - n_l), slice(n_h, n)
    ca = np.where(occupants >= 0, cost_a[np.maximum(occupants, 0)], 0)
    cb = np.where(occupants >= 0, cost_b[np.maximum(occupants, 0)], 0)
    return ((ca[None, hi] - ca[lo, None]) * in_a[lo, None]
            + (cb[lo, None] - cb[None, hi]) * in_b[None, hi])


def _swap_repair_band_matrix(spec, occupants, cost_a, cost_b):
    # Reference: every pass scores the whole band matrix, middle x middle
    # block included, and stops on the pass that finds no improving pair.
    while True:
        delta = _band_matrix_delta(spec, occupants, cost_a, cost_b)
        ii, jj = np.nonzero(delta < 0)
        if ii.size == 0:
            return
        order = np.argsort(delta[ii, jj], kind="stable")
        occ = occupants.tolist()
        touched = bytearray(spec.n)
        for i, j in zip(ii[order].tolist(), (jj[order] + spec.n_h).tolist()):
            if touched[i] or touched[j]:
                continue
            occ[i], occ[j] = occ[j], occ[i]
            touched[i] = touched[j] = 1
        occupants[:] = occ


@st.composite
def swap_cases(draw):
    """(spec, occupants, cost_a, cost_b): N = 1..16 with any N_h/N_l, so any of
    the near, middle and far bands may be empty, and occupants with empty slots."""
    n = draw(st.integers(1, 16))
    n_h = draw(st.integers(0, n))
    n_l = draw(st.integers(0, n - n_h))
    k = draw(st.integers(1, n))
    slots = draw(st.permutations(range(n)))
    occupants = np.full(n, -1, dtype=int)
    occupants[slots[:k]] = draw(st.permutations(range(k)))
    costs = st.lists(st.integers(0, 5), min_size=k, max_size=k).map(lambda c: np.array(c, dtype=np.int64))
    return CrossbarSpec(n=n, n_h=n_h, n_l=n_l), occupants, draw(costs), draw(costs)


@settings(max_examples=300, deadline=None)
@given(swap_cases())
@example((CrossbarSpec(n=6, n_h=2, n_l=2), np.array([0, 1, 2, 3, 4, 5]),
          np.array([0, 0, 3, 3, 1, 0]), np.array([2, 2, 0, 0, 0, 1])))
@example((CrossbarSpec(n=4, n_h=2, n_l=2), np.array([0, -1, 1, -1]), np.array([1, 0]), np.array([0, 1])))
# Tie order of the head merge. Near x middle (0, 1) and near x far (0, 2)
# both save 2 and share near slot 0: the earlier block's (0, 1) wins.
@example((CrossbarSpec(n=3, n_h=1, n_l=1), np.array([0, 1, 2]), np.array([2, 0, 0]), np.array([0, 0, 0])))
# Near x far (0, 2) and middle x far (1, 2) both save 2 and share far slot 2:
# the earlier block's (0, 2) wins.
@example((CrossbarSpec(n=3, n_h=1, n_l=1), np.array([0, 1, 2]), np.array([0, 0, 0]), np.array([0, 0, 2])))
# Near slots 0 and 1 hold near x far's largest y: the lower slot, 0, wins.
@example((CrossbarSpec(n=3, n_h=2, n_l=1), np.array([0, 1, 2]), np.array([1, 1, 0]), np.array([0, 0, 1])))
def test_swap_repair_matches_band_matrix_reference(case):
    # The head merge leaves the occupants the whole-matrix pass does, and
    # its closed-form stop test reads "some pair improves" exactly when the
    # matrix holds a negative delta, before repair and after it.
    spec, occupants, cost_a, cost_b = case
    repaired, expected = occupants.copy(), occupants.copy()
    _swap_repair(spec, repaired, cost_a, cost_b)
    _swap_repair_band_matrix(spec, expected, cost_a, cost_b)
    assert repaired.tolist() == expected.tolist()
    for seated in (occupants, repaired):
        placed = seated >= 0
        ca = np.where(placed, cost_a[np.maximum(seated, 0)], 0)
        cb = np.where(placed, cost_b[np.maximum(seated, 0)], 0)
        improves = bool((_band_matrix_delta(spec, seated, cost_a, cost_b) < 0).any())
        assert bool(mapper._improving_blocks(spec, ca, cb)) == improves


def _band_stage_reference(cluster, not_hrs, not_lrs1, spec, hrs_pre, hrs_post, rows, cols) -> None:
    """Reference: mapper._band_stage as it ran with a per-partner `remove`
    closure called through all(), and adjacency lists built by appends."""
    n, n_h, n_l = spec.n, spec.n_h, spec.n_l
    NEAR, MIDDLE, FAR = 0, 1, 2
    caps = (n_h, n - n_h - n_l, n_l)
    n_pre, n_vars = len(rows), len(rows) + len(cols)

    def adjacency(barred):
        adj = [[] for _ in range(n_vars)]
        for u, v in zip(cluster.pre[barred].tolist(), (n_pre + cluster.post[barred]).tolist()):
            adj[u].append(v)
            adj[v].append(u)
        return adj

    adj_near = adjacency(not_hrs & (n_h > 0))
    adj_far = adjacency(not_lrs1 & (n_l > 0))
    budget_near = n_h + caps[MIDDLE]
    budget_far = n_l + caps[MIDDLE]
    domain = [sum(1 << band for band, budget in ((NEAR, budget_near), (MIDDLE, caps[MIDDLE]), (FAR, budget_far))
                  if budget > 0)] * n_vars
    committed = [-1] * n_vars
    used = [[0, 0, 0], [0, 0, 0]]
    axis_vars = (range(n_pre), range(n_pre, n_vars))

    def rollback(undo):
        for v, old in reversed(undo):
            if old == -1:
                used[int(v >= n_pre)][committed[v]] -= 1
                committed[v] = -1
            else:
                domain[v] = old

    def propagate(var, band):
        undo = []
        queue = [(var, band)]
        qi = 0

        def remove(v, b):
            if committed[v] == b:
                return False
            if committed[v] != -1 or not domain[v] & (1 << b):
                return True
            undo.append((v, domain[v]))
            domain[v] &= ~(1 << b)
            if domain[v] == 0:
                return False
            if domain[v] & (domain[v] - 1) == 0:
                queue.append((v, domain[v].bit_length() - 1))
            return True

        ok = True
        while ok and qi < len(queue):
            v, b = queue[qi]
            qi += 1
            if committed[v] == b:
                continue
            axis = int(v >= n_pre)
            if committed[v] != -1 or not domain[v] & (1 << b):
                ok = False
                break
            undo.append((v, -1))
            committed[v] = b
            used[axis][b] += 1
            if b == NEAR:
                ok = all(remove(w, NEAR) for w in adj_near[v])
            elif b == FAR:
                ok = all(remove(w, FAR) for w in adj_far[v])
            barred = 0
            if b != FAR and used[axis][NEAR] + used[axis][MIDDLE] == budget_near:
                barred |= 1 << NEAR | 1 << MIDDLE
            if b != NEAR and used[axis][FAR] + used[axis][MIDDLE] == budget_far:
                barred |= 1 << FAR | 1 << MIDDLE
            if b == MIDDLE and used[axis][MIDDLE] == caps[MIDDLE]:
                barred |= 1 << MIDDLE
            if ok and barred:
                ok = all(remove(w, bb) for w in axis_vars[axis] if committed[w] == -1
                         for bb in (NEAR, MIDDLE, FAR) if barred & (1 << bb))
        if not ok:
            rollback(undo)
        return ok

    for var in range(n_vars):
        if committed[var] != -1:
            continue
        current = rows[var] if var < n_pre else cols[var - n_pre]
        if current >= n - n_l:
            preference = (FAR, MIDDLE, NEAR)
        elif current >= n_h:
            preference = (MIDDLE, NEAR, FAR)
        else:
            preference = (NEAR, MIDDLE, FAR)
        if not any(propagate(var, band) for band in preference if domain[var] & (1 << band)):
            return

    def seat(bands, hrs_counts, seats):
        bands = np.array(bands)
        order = np.lexsort((-hrs_counts, bands))
        n_near = np.count_nonzero(bands == NEAR)
        pos = np.arange(len(order))
        seats[order] = pos + (pos >= n_near) * max(n_h - n_near, 0)

    seat(committed[:n_pre], hrs_pre, rows)
    seat(committed[n_pre:], hrs_post, cols)


@st.composite
def band_cases(draw):
    """(cluster, spec, rows, cols): N = 1..16 with any N_h/N_l, so any band
    may be empty; 1..N neurons per axis on distinct seats; each pair of
    neurons a synapse of any state, or none."""
    n = draw(st.integers(1, 16))
    n_h = draw(st.integers(0, n))
    n_l = draw(st.integers(0, n - n_h))
    n_pre, n_post = draw(st.integers(1, n)), draw(st.integers(1, n))
    cells = draw(st.lists(st.sampled_from((None, *range(len(STATE_LABELS)))), min_size=n_pre * n_post,
                          max_size=n_pre * n_post).filter(lambda cells: any(c is not None for c in cells)))
    synapses = [(k // n_post, k % n_post, state) for k, state in enumerate(cells) if state is not None]
    cluster = Cluster.from_columns(0, range(n_pre), range(n_pre, n_pre + n_post), *zip(*synapses))
    rows = np.array(draw(st.permutations(range(n)))[:n_pre], dtype=np.intp)
    cols = np.array(draw(st.permutations(range(n)))[:n_post], dtype=np.intp)
    return cluster, CrossbarSpec(n=n, n_h=n_h, n_l=n_l), rows, cols


def _band_stage_args(cluster, spec):
    """_band_stage's arguments before the seats, derived as _seats derives them."""
    is_hrs = cluster.state == _STATE_CODE[HRS]
    return (cluster, ~is_hrs, cluster.state != _STATE_CODE[LRS1], spec,
            np.bincount(cluster.pre[is_hrs], minlength=len(cluster.pre_neurons)),
            np.bincount(cluster.post[is_hrs], minlength=len(cluster.post_neurons)))


# Every neuron pair is an LRS2 synapse and the bands are near and far only, so
# the first near commit forbids near to every post-neuron, and the far budget
# of one seat cannot take them all: the stage gives up and leaves the seats.
GIVE_UP_CASE = (Cluster.from_columns(0, range(2), range(2, 4), [0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1]),
                CrossbarSpec(n=2, n_h=1, n_l=1), np.array([0, 1], dtype=np.intp), np.array([1, 0], dtype=np.intp))


@settings(max_examples=300, deadline=None)
@given(band_cases())
@example(GIVE_UP_CASE)
def test_band_stage_matches_reference(case):
    # The flat propagation loops leave the seats the closure form does, on
    # success and when the stage gives up and leaves every seat as it was.
    cluster, spec, rows, cols = case
    args = _band_stage_args(cluster, spec)
    got, expected = (rows.copy(), cols.copy()), (rows.copy(), cols.copy())
    mapper._band_stage(*args, *got)
    _band_stage_reference(*args, *expected)
    assert [seats.tolist() for seats in got] == [seats.tolist() for seats in expected]


def test_band_stage_gives_up_on_give_up_case():
    # No band assignment exists, so the stage must leave the seats as they are.
    cluster, spec, rows, cols = GIVE_UP_CASE
    seats = rows.copy(), cols.copy()
    mapper._band_stage(*_band_stage_args(cluster, spec), *seats)
    assert [s.tolist() for s in seats] == [rows.tolist(), cols.tolist()]


# The benchmark's specs: planted clusters on the first, random ones on the second.
PLANTED_SPEC = CrossbarSpec(n=128, n_h=64, n_l=64, p=96, q=96)
RANDOM_SPEC = CrossbarSpec(n=128, n_h=32, n_l=32, p=96, q=96)


@pytest.mark.parametrize("spec", [PLANTED_SPEC, RANDOM_SPEC], ids=["n_h64", "n_h32"])
def test_swap_repair_matches_full_matrix_pass_at_benchmark_size(rng, spec):
    # 0-1 costs on a nearly full axis give hundreds of equal-delta
    # candidates per pass, so the stable tie order picks the swaps.
    for _ in range(12):
        k = int(rng.integers(spec.n - 8, spec.n + 1))
        occupants = np.full(spec.n, -1, dtype=int)
        occupants[rng.permutation(spec.n)[:k]] = rng.permutation(k)
        cost_a = rng.integers(0, 2, size=k)
        cost_b = rng.integers(0, 2, size=k)
        expected = occupants.copy()
        _swap_repair_full_matrix(spec, expected, cost_a, cost_b)
        _swap_repair(spec, occupants, cost_a, cost_b)
        assert occupants.tolist() == expected.tolist()


# sha256 of the JSON of _mapping_record over _mapper_corpus (planted part, random part),
# then over _edge_corpus.
GOLDEN_MAPPER_DIGESTS = ["a24d2ea7ef55d4690504fae4bf14ca1d0a3788df2b46e3710cc20b4c56748974",
                         "1804ea0a690bfeeb2dfdb12433697c80ee43645e60e6299aa4deb463f35dfc52",
                         "ba5c378da72b8f8679fc47b70c6df11bd40fdc1f23e9270072e2de286797317c"]

# A zero band budget (N_h = N, then N_l = N), and no middle band (N_h + N_l = N).
EDGE_SPECS = (CrossbarSpec(n=8, n_h=8), CrossbarSpec(n=8, n_l=8), CrossbarSpec(n=8, n_h=3, n_l=5))


def _mapper_corpus():
    """Small seeded corpus: planted clusters, then random clusters of two networks."""
    rng = np.random.default_rng(2024)
    planted = [(planted_cluster(rng, k, PLANTED_SPEC), PLANTED_SPEC) for k in range(16)]
    synthetic = [(c, RANDOM_SPEC) for seed in (9, 10)
                 for c in generate_synthetic(GenParams(clusters=8, pre_range=(8, 120), post_range=(8, 120),
                                                       density=0.12, duration=0.01, seed=seed))[0].clusters]
    return planted + synthetic


def _edge_corpus():
    """Small seeded corpus on EDGE_SPECS: per spec, random clusters of up to 8 x 8
    with only HRS, only LRS1, HRS and LRS1, or every state."""
    rng = np.random.default_rng(2025)
    mixes = ([0, 0, 0, 1], [1, 0, 0, 0], [0.5, 0, 0, 0.5], [0.25, 0.25, 0.25, 0.25])
    return [(random_cluster(rng, k, int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                            float(rng.uniform(0.1, 0.6)), mixes[k % len(mixes)]), spec)
            for spec in EDGE_SPECS for k in range(12)]


def _mapping_record(cluster, spec):
    try:
        a = assign_cluster(cluster, spec)
    except Infeasible as exc:
        return ["infeasible", exc.violations]
    return [list(a.row_of_pre.items()), list(a.col_of_post.items()), a.cells,
            select_configuration(a, spec).name]


def test_mapper_outputs_match_golden_digests(monkeypatch):
    # Pins seats, cells, configurations and violation lists; the corpus
    # reaches both repair stages and has a cluster the mapper rejects.
    calls = {"_swap_repair": 0, "_band_stage": 0}
    for name in calls:
        def counted(*args, _name=name, _stage=getattr(mapper, name)):
            calls[_name] += 1
            return _stage(*args)
        monkeypatch.setattr(mapper, name, counted)
    records = [_mapping_record(cluster, spec) for cluster, spec in _mapper_corpus()]
    band_calls = calls["_band_stage"]
    # The edge corpus reaches the band stage, and maps some clusters and rejects others.
    edge = [_mapping_record(cluster, spec) for cluster, spec in _edge_corpus()]
    digests = [hashlib.sha256(json.dumps(part).encode()).hexdigest()
               for part in (records[:16], records[16:], edge)]
    assert calls["_swap_repair"] > 0 and calls["_band_stage"] > 0
    assert sum(r[0] == "infeasible" for r in records) == 1
    assert calls["_band_stage"] - band_calls >= len(EDGE_SPECS)
    assert 0 < sum(r[0] == "infeasible" for r in edge) < len(edge)
    assert digests == GOLDEN_MAPPER_DIGESTS


def test_map_network_cells_equal_assign_cluster_cells():
    """On every cluster of the golden corpora, map_network's seats and derived
    cells and its configuration are those of assign_cluster and select_configuration."""
    mapped = 0
    for cluster, spec in [*_mapper_corpus(), *_edge_corpus()]:
        try:
            a = assign_cluster(cluster, spec)
        except Infeasible:
            continue
        xb, = map_network(Network(clusters=(cluster,)), Hardware(crossbar_count=1, spec=spec)).crossbars
        assert xb.cluster is cluster
        assert a.cluster is cluster
        assert np.array_equal(a.rows, xb.rows) and np.array_equal(a.cols, xb.cols)
        assert all(seats.dtype == np.intp and not seats.flags.writeable for seats in (a.rows, a.cols))
        assert dict(zip(cluster.pre_neurons, xb.rows.tolist())) == a.row_of_pre
        assert dict(zip(cluster.post_neurons, xb.cols.tolist())) == a.col_of_post
        assert tuple(zip(*(cell.tolist() for cell in xb.cells()))) == a.cells
        assert xb.config is select_configuration(a, spec)
        mapped += 1
    assert mapped > 0


def test_assignment_values_are_python_ints_in_neuron_order(rng):
    for cluster, spec in [(planted_cluster(rng, 0, PLANTED_SPEC), PLANTED_SPEC),
                          (random_cluster(rng, 1, 90, 70, 0.12, id_base=500), RANDOM_SPEC)]:
        a = assign_cluster(cluster, spec)
        assert list(a.row_of_pre) == list(cluster.pre_neurons)
        assert list(a.col_of_post) == list(cluster.post_neurons)
        assert type(a.cells) is tuple and all(type(cell) is tuple for cell in a.cells)
        values = [*a.row_of_pre.values(), *a.col_of_post.values(), *(x for cell in a.cells for x in cell)]
        assert {type(v) for v in values} == {int}


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


def test_both_mappers_refuse_an_oversized_cluster_alike():
    # One size check serves map_network and the control mapper: one message and one dimension violation.
    cluster = Cluster(id=1, pre_neurons=tuple(range(5)), post_neurons=(100,),
                      synapses=tuple(Synapse(i, 0, "HRS") for i in range(5)))
    hardware = Hardware(crossbar_count=1, spec=CrossbarSpec(n=4))
    for place in (map_network, map_network_control):
        with pytest.raises(Infeasible) as exc:
            place(Network(clusters=(cluster,)), hardware)
        assert str(exc.value) == "cluster 1 (5x1) exceeds 4x4 crossbar" and exc.value.cluster_id == 1
        assert exc.value.violations == ["cluster dimensions 5x1"]


def _rejects_feasible(cluster, spec) -> bool:
    """Whether assign_cluster rejects a cluster that enumeration finds feasible. A cluster it accepts must be
    feasible, its neurons on distinct slots inside the crossbar and each synapse where crossbar.permits its state."""
    feasible = feasible_by_enumeration(cluster, spec)
    try:
        a = assign_cluster(cluster, spec)
    except Infeasible:
        return feasible
    assert feasible, cluster.id
    for seats in (a.rows.tolist(), a.cols.tolist()):
        assert len(set(seats)) == len(seats) and all(0 <= seat < spec.n for seat in seats)
    assert all(permits(row, col, STATE_LABELS[state], spec)
               for (row, col), state in zip(a.cells, cluster.state.tolist())), cluster.id
    return False


def oracle_corpus():
    """2,000 (cluster, spec) pairs drawn at seed 0, cluster k with id k: N in 2..6 with any legal N_h and
    N_l, 1..N neurons per axis with at most 10 in all, density uniform in 0.2..1 and uniform states."""
    rng = np.random.default_rng(0)
    corpus = []
    for k in range(2000):
        n = int(rng.integers(2, 7))
        n_h = int(rng.integers(0, n + 1))
        n_l = int(rng.integers(0, n - n_h + 1))
        n_pre = int(rng.integers(1, n + 1))
        n_post = int(rng.integers(1, min(n, 10 - n_pre) + 1))
        corpus.append((random_cluster(rng, k, n_pre, n_post, float(rng.uniform(0.2, 1.0))),
                       CrossbarSpec(n=n, n_h=n_h, n_l=n_l)))
    return corpus


def _shape(cluster, spec):
    return (f"N={spec.n} N_h={spec.n_h} N_l={spec.n_l}, {len(cluster.pre_neurons)}x{len(cluster.post_neurons)} "
            f"neurons, {len(cluster.state)} synapses")


# The feasible clusters of oracle_corpus() that assign_cluster rejects: its band stage searches greedily,
# without backtracking. Mending the mapper shrinks this list.
KNOWN_FALSE_REJECTIONS = {
    31: "N=3 N_h=0 N_l=2, 2x2 neurons, 3 synapses",
    192: "N=3 N_h=2 N_l=0, 3x2 neurons, 4 synapses",
    231: "N=5 N_h=3 N_l=1, 2x5 neurons, 8 synapses",
    260: "N=5 N_h=2 N_l=2, 4x5 neurons, 12 synapses",
    302: "N=4 N_h=2 N_l=1, 3x3 neurons, 8 synapses",
    469: "N=4 N_h=2 N_l=0, 4x4 neurons, 7 synapses",
    472: "N=6 N_h=1 N_l=3, 5x4 neurons, 17 synapses",
    592: "N=6 N_h=0 N_l=4, 6x4 neurons, 12 synapses",
    683: "N=6 N_h=3 N_l=2, 4x6 neurons, 17 synapses",
    707: "N=5 N_h=3 N_l=0, 4x3 neurons, 10 synapses",
    1121: "N=2 N_h=1 N_l=0, 2x2 neurons, 3 synapses",
    1229: "N=4 N_h=2 N_l=1, 3x4 neurons, 9 synapses",
    1235: "N=4 N_h=2 N_l=1, 4x3 neurons, 12 synapses",
    1356: "N=5 N_h=0 N_l=2, 5x5 neurons, 22 synapses",
    1538: "N=4 N_h=3 N_l=0, 3x2 neurons, 6 synapses",
    1823: "N=4 N_h=3 N_l=1, 4x1 neurons, 3 synapses",
    1841: "N=2 N_h=1 N_l=0, 2x2 neurons, 3 synapses",
    1991: "N=6 N_h=4 N_l=1, 5x5 neurons, 9 synapses",
    1996: "N=6 N_h=4 N_l=2, 6x2 neurons, 7 synapses",
}


def test_mapper_verdicts_match_enumeration_on_the_seeded_corpus():
    # Every accepted cluster is seated legally; every rejected one is infeasible, except the known defects.
    assert {cluster.id: _shape(cluster, spec) for cluster, spec in oracle_corpus()
            if _rejects_feasible(cluster, spec)} == KNOWN_FALSE_REJECTIONS


@st.composite
def small_clusters(draw):
    """(cluster, spec) of the seeded corpus' sizes: N in 2..6 with any legal N_h and N_l, 1..N neurons per
    axis with at most 10 in all, and each neuron pair a synapse of any state, or none."""
    n = draw(st.integers(2, 6))
    n_h = draw(st.integers(0, n))
    n_l = draw(st.integers(0, n - n_h))
    n_pre = draw(st.integers(1, n))
    n_post = draw(st.integers(1, min(n, 10 - n_pre)))
    cells = draw(st.lists(st.sampled_from((None, *range(len(STATE_LABELS)))), min_size=n_pre * n_post,
                          max_size=n_pre * n_post).filter(lambda cells: any(c is not None for c in cells)))
    synapses = [(k // n_post, k % n_post, state) for k, state in enumerate(cells) if state is not None]
    return (Cluster.from_columns(0, range(n_pre), range(n_pre, n_pre + n_post), *zip(*synapses)),
            CrossbarSpec(n=n, n_h=n_h, n_l=n_l))


@settings(max_examples=200, deadline=None)
@given(small_clusters())
def test_accepted_clusters_are_feasible_by_enumeration(case):
    # Fresh draws check the accepted direction. A rejection is not judged here: about one random cluster in
    # a hundred is a false rejection, so only the seeded corpus, with its named list, can assert that one.
    cluster, spec = case
    if spec.n <= 4:  # the band reduction that larger specs rely on
        assert feasible_by_bands(cluster, spec) == feasible_by_enumeration(cluster, spec)
    _rejects_feasible(cluster, spec)


def _assignment(cells):
    # Synapse i joins pre-neuron i on row cells[i][0] to post-neuron i on column cells[i][1].
    k = len(cells)
    cluster = Cluster(id=0, pre_neurons=tuple(range(k)), post_neurons=tuple(range(k, 2 * k)),
                      synapses=tuple(Synapse(i, i, "HRS") for i in range(k)))
    rows, cols = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    return Assignment(cluster=cluster, rows=rows, cols=cols)


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
    placement = map_network(net, Hardware(crossbar_count=3, spec=spec))
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


def cheapest_config_reference(max_row, max_col, spec):
    """Cheapest containing configuration, searched afresh per call: lowest
    static energy weight, ties to fewer control bits, '11' when P = Q = N."""
    if spec.p == spec.n and spec.q == spec.n:
        return CONFIG_11
    candidates = []
    for config in legal_configurations(spec):
        rows, cols = config_dimensions(config, spec)
        if max_row < rows and max_col < cols:
            weight = static_energy_weight(config, spec)
            candidates.append((weight, config.wl_iso_ctrl + config.bl_iso_ctrl, config))
    candidates.sort(key=lambda t: t[:2])
    return candidates[0][2]


@pytest.mark.parametrize("spec", MEMO_SPECS + (
    CrossbarSpec(n=8, p=8, q=4), CrossbarSpec(n=8, p=3, q=8),                   # degenerate P or Q: ties
    CrossbarSpec(n=10, n_h=2, n_l=2, p=6, q=4, control=ControlMode.SINGLE)))
def test_cheapest_config_matches_reference(spec):
    for max_row in range(spec.n):
        for max_col in range(spec.n):
            assert _cheapest_config(max_row, max_col, spec) is cheapest_config_reference(max_row, max_col, spec)


def test_cheapest_config_matches_reference_on_every_small_spec():
    # Every spec with N 1-8: every P and Q, both control modes, every extent
    # (17,544 cases). The rule reads neither N_h nor N_l.
    for n in range(1, 9):
        for p, q, control in itertools.product(range(1, n + 1), range(1, n + 1), ControlMode):
            test_cheapest_config_matches_reference(CrossbarSpec(n=n, p=p, q=q, control=control))


def test_empty_documents_are_refused_but_the_empty_network_maps():
    # Network(()) maps to a placement of no crossbars (which the evaluators
    # refuse as EmptyPlacement), but neither document may be empty.
    placement = map_network(Network(()), Hardware(crossbar_count=1, spec=CrossbarSpec(n=4)))
    assert placement.crossbars == ()
    with pytest.raises(ValidationError, match="^bad placement document: crossbars: .* at least one crossbar$"):
        mapper.placement_from_json(mapper.placement_to_json(placement))
    with pytest.raises(ValidationError, match="^bad network document: clusters: .* at least one cluster$"):
        network_from_json(network_to_json(Network(())))


def test_map_network_fixture_utilizations():
    net = mapping_demo_network()
    spec = CrossbarSpec(n=4)
    placement = map_network(net, Hardware(crossbar_count=3, spec=spec))
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
        map_network(net, Hardware(crossbar_count=2, spec=CrossbarSpec(n=4)))


def test_map_network_stats():
    net = mapping_demo_network()
    placement = map_network(net, Hardware(crossbar_count=3, spec=CrossbarSpec(n=4)))
    by_cluster = {xb.cluster_id: xb for xb in placement.crossbars}
    assert by_cluster[0].m == 3 and by_cluster[0].n_hrs == 1
    assert by_cluster[2].m == 2 and by_cluster[2].n_hrs == 2


def test_optimized_beats_control_on_expanded_count(rng):
    spec = CrossbarSpec(n=128, p=96, q=96)  # regions off for the control mapper
    for seed in range(10):
        params = GenParams(clusters=8, pre_range=(8, 110), post_range=(8, 110),
                           density=0.1, seed=seed)
        net, _ = generate_synthetic(params)
        hw = Hardware(crossbar_count=8, spec=spec)
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
        map_network_control(net, Hardware(crossbar_count=3, spec=spec))


def test_map_network_deterministic(rng):
    from xbarsim import Network
    spec = CrossbarSpec(n=128, n_h=64, n_l=64, p=96, q=96)
    clusters = [planted_cluster(rng, k, spec, size_hi=100, id_base=1000 * k)
                for k in range(5)]
    net = Network(clusters=tuple(clusters))
    hw = Hardware(crossbar_count=5, spec=spec)
    assert map_network(net, hw) == map_network(net, hw)


def test_placement_round_trip(tmp_path):
    net = mapping_demo_network()
    placement = map_network(net, Hardware(crossbar_count=3, spec=CrossbarSpec(n=4)))
    path = tmp_path / "placement.json"
    save_placement(placement, path)
    assert load_placement(path) == placement


def test_crossbar_columns_are_read_only_shared_and_compared_by_value():
    placement = map_network(mapping_demo_network(), Hardware(crossbar_count=3, spec=CrossbarSpec(n=4)))
    xb = placement.crossbars[0]
    columns = ((xb.cluster, "pre"), (xb.cluster, "post"), (xb.cluster, "state"), (xb, "rows"), (xb, "cols"))
    assert not any(getattr(holder, name).flags.writeable for holder, name in columns)
    reconfigured = dataclasses.replace(xb, config=CONFIG_11)
    assert reconfigured.cluster is xb.cluster
    assert all(getattr(reconfigured, name) is getattr(xb, name) for name in ("rows", "cols"))
    assert dataclasses.replace(xb, **seated_cluster(xb.synapses)) == xb
    assert dataclasses.replace(xb, **seated_cluster(xb.synapses[1:])) != xb


def test_check_placement_detects_corruption():
    net = mapping_demo_network()
    spec = CrossbarSpec(n=4, n_h=2, n_l=0)
    placement = map_network(net, Hardware(crossbar_count=3, spec=spec))
    assert check_placement(placement) == []
    # move one synapse's pre-neuron onto the row of another
    xb = placement.crossbars[0]
    bad_syn = dataclasses.replace(xb.synapses[0], row=(xb.synapses[0].row + 1) % 4)
    corrupted = dataclasses.replace(
        placement,
        crossbars=(dataclasses.replace(xb, **seated_cluster((bad_syn,) + xb.synapses[1:])),)
        + placement.crossbars[1:])
    assert check_placement(corrupted) != []


def _replace_first_crossbar(placement, xb):
    return dataclasses.replace(placement, crossbars=(xb,) + placement.crossbars[1:])


@pytest.mark.parametrize("row", [-1, 500])
def test_check_placement_reports_cells_outside_crossbar(row):
    placement = map_network(mapping_demo_network(), Hardware(crossbar_count=3, spec=CrossbarSpec(n=4)))
    xb = placement.crossbars[0]
    s = xb.synapses[0]
    moved = dataclasses.replace(xb, **seated_cluster((dataclasses.replace(s, row=row),) + xb.synapses[1:]))
    problems = check_placement(_replace_first_crossbar(placement, moved))
    assert problems == [f"crossbar {xb.crossbar_id}: cell ({row},{s.col}) outside config '{xb.config.name}'"]


def test_pair_checks_match_brute_force(rng):
    """The sorted-pair check that Cluster refuses repeated synapses with, against
    one Python set of the pairs, on repeated and out-of-range pairs."""
    for _ in range(200):
        size = int(rng.integers(0, 40))
        keys = rng.integers(-2, 6, size=size).astype(np.intp)
        values = rng.choice(np.array([-1, 0, 1, 2, 3, 500], dtype=np.intp), size=size)
        injective = len(set(zip(keys.tolist(), values.tolist()))) == size
        assert bool(_sorted_pairs(keys, values)[1].all()) == injective


def test_check_placement_reports_illegal_configuration():
    spec = CrossbarSpec(n=4, p=2, q=2, control=ControlMode.SINGLE)
    placement = map_network(mapping_demo_network(), Hardware(crossbar_count=3, spec=spec))
    assert check_placement(placement) == []
    xb = dataclasses.replace(placement.crossbars[0], config=CONFIG_01)
    problems = check_placement(_replace_first_crossbar(placement, xb))
    assert problems[0] == f"crossbar {xb.crossbar_id}: configuration '01' illegal under single control"


@pytest.mark.parametrize("spec", BAND_SPECS)
def test_check_placement_region_verdicts_match_permits(spec):
    # One synapse on every cell in one state: check_placement flags exactly
    # the cells where the checked per-cell rule refuses that state.
    cells = [(r, c) for r in range(spec.n) for c in range(spec.n)]
    for label in STATE_LABELS:
        xb = CrossbarPlacement(crossbar_id=0, spec=spec, config=CONFIG_11,
                               **seated_cluster([PlacedSynapse(r, spec.n + c, label, r, c) for r, c in cells]))
        expected = [f"crossbar 0: state {label} forbidden at ({r},{c})"
                    for r, c in cells if not permits(r, c, label, spec)]
        assert check_placement(Placement(crossbars=(xb,), crossbar_count=1)) == expected


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
