import dataclasses
import functools
import inspect
import tracemalloc
from math import inf

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xbarsim import (
    CONFIG_00,
    CONFIG_01,
    CONFIG_10,
    CONFIG_11,
    CONFIGURATIONS,
    Activity,
    Cluster,
    CrossbarPlacement,
    CrossbarSpec,
    GenParams,
    Hardware,
    IFNeuron,
    Network,
    PlacedSynapse,
    Placement,
    SpikeTrace,
    SpikeTrain,
    activity_from_trains,
    average_latency_delta,
    compute_isi,
    config_dimensions,
    corner_extremes,
    energy_report,
    generate_synthetic,
    if_neuron_fire,
    isi_distortion,
    latency_stats,
    map_network,
    path_latency,
    permits,
    preset,
    neuron_isi_distortion,
    region_of,
    sense_latency,
    sweep_pq,
    tap_delays,
)
from xbarsim import ControlMode
from xbarsim.fixtures import isi_demo, mapping_demo_network
from xbarsim import simulate, techmodel
from xbarsim.crossbar import _STATE_CODE, MAX_N, _barred, legal_configurations
from xbarsim.simulate import LatencyStats, synapse_latency_totals
from xbarsim.techmodel import PRESETS, TechnologyParams
from xbarsim.errors import (
    EmptyCounts,
    EmptyPlacement,
    NegativeActivity,
    TooFewSpikes,
    UnknownNeuron,
    ValidationError,
)

from conftest import MEMO_SPECS, planted_cluster, random_cluster, seated_cluster, trains_of

TECH = preset("16nm")


def zero_delay_tech(reference: TechnologyParams | None = None) -> TechnologyParams:
    """Degenerate tech where every path has (effectively) zero delay.

    Strict-positivity invariants keep true zeros out, so the smallest normal
    float stands in; useful for identity checks in event-level simulation.
    """
    base = reference or PRESETS["45nm"]
    tiny = 2.2250738585072014e-308
    return dataclasses.replace(base, c_wordline_unit=tiny, c_bitline_unit=tiny, c_sense=tiny, t_iso_on=0.0)


def default_if_neuron(tech: TechnologyParams) -> IFNeuron:
    """Default neuron: increments scale as 1/resistance, LRS1 -> 0.8."""
    lrs1 = tech.state("LRS1").resistance
    increments = {s.label: 0.8 * lrs1 / s.resistance for s in tech.states}
    return IFNeuron(v_threshold=1.0, v_increment_per_state=increments)


def one_crossbar(spec, config, placed):
    xb = CrossbarPlacement(crossbar_id=0, spec=spec, config=config,
                           **seated_cluster([PlacedSynapse(*t) for t in placed]))
    return Placement(crossbars=(xb,), crossbar_count=1)


def random_trace(rng, neurons, counts, horizon=10**6) -> SpikeTrace:
    """counts[i] distinct random ticks below `horizon` ns for neurons[i]."""
    ticks = [rng.choice(horizon, size=count, replace=False) for count in counts]
    return SpikeTrace(np.repeat(neurons, counts), np.concatenate(ticks) if ticks else ())


def mixed_placement(rng):
    """Twelve crossbars on two partitioned specs, covering every configuration."""
    sizes = [(10, 10), (28, 10), (10, 28), (28, 28), (12, 14), (26, 26)]
    clusters = [random_cluster(rng, k, n_pre, n_post, 0.5, id_base=100 * k)
                for k, (n_pre, n_post) in enumerate(sizes)]
    net = Network(clusters=tuple(clusters))
    crossbars = []
    for spec in (CrossbarSpec(n=32, p=20, q=20), CrossbarSpec(n=32, p=16, q=24)):
        crossbars += map_network(net, Hardware(crossbar_count=6, spec=spec)).crossbars
    crossbars = tuple(dataclasses.replace(xb, crossbar_id=i) for i, xb in enumerate(crossbars))
    assert {xb.config for xb in crossbars} == set(CONFIGURATIONS)
    return Placement(crossbars=crossbars, crossbar_count=len(crossbars))


# ---------------------------------------------------------------------------
# inter-spike intervals


def test_compute_isi_uniform():
    assert compute_isi(SpikeTrain(0, (0.0, 2.0, 4.0, 6.0))) == pytest.approx(2.0)


def test_compute_isi_by_hand():
    # gaps 2 and 4 average to 3
    assert compute_isi(SpikeTrain(0, (1.0, 3.0, 7.0))) == pytest.approx(3.0)


def test_compute_isi_too_few():
    with pytest.raises(TooFewSpikes):
        compute_isi(SpikeTrain(0, (1.0,)))


def test_isi_distortion_two_spikes():
    t1, t2 = 10e-6, 18e-6
    x, y = 1e-6, 2.5e-6
    inp = SpikeTrain(0, (t1, t2))
    out = SpikeTrain(0, (t1 + x, t2 + y))
    assert isi_distortion(inp, out) == pytest.approx(y - x, rel=1e-12)


def test_isi_distortion_uniform_shift_is_zero():
    inp = SpikeTrain(0, (1.0, 2.0, 4.0))
    out = SpikeTrain(0, (1.5, 2.5, 4.5))
    assert isi_distortion(inp, out) == 0.0


def test_isi_distortion_shift_invariance(rng):
    for _ in range(30):
        times = np.cumsum(rng.uniform(0.1, 1.0, size=6))
        delays = rng.uniform(0.0, 0.5, size=6)
        shift = float(rng.uniform(0, 10))
        inp = SpikeTrain(0, tuple(times))
        out = SpikeTrain(0, tuple(times + np.sort(delays)))
        d0 = isi_distortion(inp, out)
        d1 = isi_distortion(SpikeTrain(0, tuple(times + shift)),
                            SpikeTrain(0, tuple(times + np.sort(delays) + shift)))
        assert d1 == pytest.approx(d0, rel=1e-9, abs=1e-15)


# ---------------------------------------------------------------------------
# propagation: the per-synapse arrival trains behind the sort-merge ISI oracle


@dataclasses.dataclass(frozen=True)
class ArrivalTrain:
    crossbar_id: int
    synapse_index: int
    pre: int
    post: int
    state: str
    times: tuple[float, ...]


def spike_times_reference(placement, trains) -> dict:
    """{pre-neuron id: spike times}; every train must belong to a placed pre-neuron."""
    known = {nid for xb in placement.crossbars for nid in xb.cluster.pre_neurons}
    by_neuron = {}
    for t in trains:
        if t.neuron not in known:
            raise UnknownNeuron(f"neuron {t.neuron} spikes but is not placed as a pre-synaptic neuron")
        by_neuron[t.neuron] = t.times
    return by_neuron


def propagate(placement, trains, tech):
    """Per-synapse arrival trains: spike time plus the cell's path latency."""
    by_neuron = spike_times_reference(placement, trains)
    arrivals = []
    for xb in placement.crossbars:
        for idx, (s, delay) in enumerate(zip(xb.synapses, synapse_latency_totals(xb, tech).tolist())):
            times = by_neuron.get(s.pre)
            if not times:
                continue
            arrivals.append(ArrivalTrain(
                crossbar_id=xb.crossbar_id, synapse_index=idx, pre=s.pre, post=s.post,
                state=s.state, times=tuple(t + delay for t in times)))
    return arrivals


def test_propagate_zero_delay_identity():
    net = mapping_demo_network()
    placement = map_network(net, Hardware(crossbar_count=3, spec=CrossbarSpec(n=4)))
    trains = [SpikeTrain(neuron=0, times=(1e-6, 2e-6)), SpikeTrain(neuron=5, times=(3e-6,))]
    arrivals = propagate(placement, trains, zero_delay_tech())
    for a in arrivals:
        source = next(t for t in trains if t.neuron == a.pre)
        assert a.times == source.times


def test_propagate_shifts_by_path_latency():
    spec = CrossbarSpec(n=8)
    placement = one_crossbar(spec, CONFIG_11, [(0, 100, "LRS2", 3, 5)])
    trains = [SpikeTrain(neuron=0, times=(0.5, 1.5))]
    arrivals = propagate(placement, trains, TECH)
    expected = path_latency(3, 5, TECH.state("LRS2"), CONFIG_11, spec, TECH).total
    assert arrivals[0].times == pytest.approx((0.5 + expected, 1.5 + expected), rel=1e-12)


def test_propagate_conserves_spike_counts(rng):
    spec = CrossbarSpec(n=16, n_h=4, n_l=4)
    cluster = planted_cluster(rng, 0, spec, size_hi=12)
    net = Network(clusters=(cluster,))
    placement = map_network(net, Hardware(crossbar_count=1, spec=spec))
    trains = [SpikeTrain(neuron=nid, times=tuple(np.sort(rng.uniform(0, 1, size=3))))
              for nid in cluster.pre_neurons]
    arrivals = propagate(placement, trains, TECH)
    per_syn = {(a.crossbar_id, a.synapse_index): len(a.times) for a in arrivals}
    for xb in placement.crossbars:
        for idx, s in enumerate(xb.synapses):
            assert per_syn.get((xb.crossbar_id, idx), 0) == 3


def test_propagate_unknown_neuron():
    net = mapping_demo_network()
    placement = map_network(net, Hardware(crossbar_count=3, spec=CrossbarSpec(n=4)))
    with pytest.raises(UnknownNeuron):
        propagate(placement, [SpikeTrain(neuron=777, times=(0.1,))], TECH)


def test_balanced_placement_shrinks_arrival_spread():
    # One spike through an HRS and an LRS1 synapse: placing HRS on the short
    # path always beats the adverse arrangement.
    n = 32
    adverse_spec = CrossbarSpec(n=n)
    balanced_spec = CrossbarSpec(n=n, n_h=8, n_l=8)
    adverse = one_crossbar(adverse_spec, CONFIG_11,
                           [(0, 100, "LRS1", 0, 0), (1, 101, "HRS", n - 1, n - 1)])
    balanced = one_crossbar(balanced_spec, CONFIG_11,
                            [(0, 100, "HRS", 0, 0), (1, 101, "LRS1", n - 1, n - 1)])
    trains = [SpikeTrain(neuron=0, times=(0.0,)), SpikeTrain(neuron=1, times=(0.0,))]

    def spread(placement):
        times = [a.times[0] for a in propagate(placement, trains, TECH)]
        return max(times) - min(times)

    assert spread(balanced) < spread(adverse)


# ---------------------------------------------------------------------------
# integrate-and-fire


def test_if_neuron_coincident_sum_fires_once():
    eps = 0.01
    neuron = IFNeuron(v_threshold=1.0,
                      v_increment_per_state={"LRS1": (1 + eps) / 3})
    arrivals = [(5e-6, "LRS1")] * 3
    out = if_neuron_fire(neuron, arrivals, out_neuron=9)
    assert out.neuron == 9
    assert out.times == (5e-6,)


def test_if_neuron_demo_fixture():
    neuron, on_time, delayed = isi_demo()
    assert if_neuron_fire(neuron, on_time).times == (22e-6,)
    assert if_neuron_fire(neuron, delayed).times == ()


def test_if_neuron_below_threshold_never_fires():
    neuron = IFNeuron(v_threshold=1.0, v_increment_per_state={"LRS1": 0.33})
    arrivals = [(1e-6, "LRS1"), (2e-6, "LRS1"), (3e-6, "LRS1")]
    assert if_neuron_fire(neuron, arrivals).times == ()


def test_if_neuron_refractory_drops_arrivals():
    neuron = IFNeuron(v_threshold=1.0, v_increment_per_state={"LRS1": 1.0},
                      refractory=1e-6)
    arrivals = [(1e-6, "LRS1"), (1.5e-6, "LRS1"), (2.5e-6, "LRS1")]
    out = if_neuron_fire(neuron, arrivals)
    assert out.times == (1e-6, 2.5e-6)


def test_default_if_neuron_increments():
    neuron = default_if_neuron(TECH)
    inc = neuron.v_increment_per_state
    assert inc["LRS1"] == pytest.approx(0.8)
    assert inc["LRS2"] == pytest.approx(0.8 * 1500 / 5780)
    assert inc["HRS"] == pytest.approx(0.8 * 1500 / 73000)


def test_if_neuron_validation():
    with pytest.raises(ValidationError):
        IFNeuron(v_threshold=0.0)
    with pytest.raises(ValidationError):
        IFNeuron(v_increment_per_state={"LRS1": -0.1})


# ---------------------------------------------------------------------------
# latency statistics


def test_latency_stats_single_synapse():
    spec = CrossbarSpec(n=8)
    placement = one_crossbar(spec, CONFIG_11, [(0, 100, "LRS3", 2, 2)])
    report = latency_stats(placement, TECH)
    agg = report.aggregate
    assert agg.best == agg.worst == agg.mean
    assert agg.diff == 0.0
    assert agg.ratio == 1.0


def test_latency_stats_of_zero_latencies_has_ratio_one():
    stats = LatencyStats.from_values([0.0, 0.0])
    assert (stats.best, stats.worst, stats.diff, stats.ratio, stats.mean) == (0.0, 0.0, 0.0, 1.0, 0.0)


def test_latency_stats_two_path_spreads():
    n = 32
    spec = CrossbarSpec(n=n)
    lrs1, hrs = TECH.state("LRS1"), TECH.state("HRS")
    near = path_latency(0, 0, lrs1, CONFIG_11, spec, TECH)
    far = path_latency(n - 1, n - 1, lrs1, CONFIG_11, spec, TECH)
    big_delta = far.parasitic_component - near.parasitic_component
    small_delta = (hrs.resistance - lrs1.resistance) * TECH.c_sense

    adverse = one_crossbar(spec, CONFIG_11,
                           [(0, 100, "LRS1", 0, 0), (1, 101, "HRS", n - 1, n - 1)])
    assert latency_stats(adverse, TECH).aggregate.diff == pytest.approx(
        big_delta + small_delta, rel=1e-12)

    balanced = one_crossbar(spec, CONFIG_11,
                            [(0, 100, "HRS", 0, 0), (1, 101, "LRS1", n - 1, n - 1)])
    assert latency_stats(balanced, TECH).aggregate.diff == pytest.approx(
        abs(big_delta - small_delta), rel=1e-12)


def test_corner_extremes_regions_improve_every_preset():
    for node in ("45nm", "32nm", "22nm", "16nm"):
        tech = preset(node)
        base = corner_extremes(CrossbarSpec(n=128), tech)
        opt = corner_extremes(CrossbarSpec(n=128, n_h=64, n_l=64), tech)
        assert opt.ratio > base.ratio           # closer to 1
        assert opt.diff < base.diff             # smaller spread
        assert 0 < base.ratio <= 1 and 0 < opt.ratio <= 1


def test_corner_extremes_stats_invariants():
    stats = corner_extremes(CrossbarSpec(n=16, n_h=4, n_l=4), TECH)
    assert stats.best <= stats.mean <= stats.worst
    assert stats.diff == pytest.approx(stats.worst - stats.best)


def test_corner_extremes_match_brute_force_path_latency():
    # Every active cell in every state its region permits, through the
    # checked per-cell model, for each configuration of a small crossbar.
    spec = CrossbarSpec(n=12, n_h=3, n_l=3, p=8, q=7)
    for tech in (TECH, preset("45nm")):
        for config in CONFIGURATIONS:
            rows, cols = config_dimensions(config, spec)
            totals = [path_latency(r, c, state, config, spec, tech).total
                      for r in range(rows) for c in range(cols) for state in tech.states
                      if permits(r, c, state.label, spec)]
            stats = corner_extremes(spec, tech, config)
            assert stats.best == pytest.approx(min(totals), rel=1e-12)
            assert stats.worst == pytest.approx(max(totals), rel=1e-12)
            assert stats.mean == pytest.approx(sum(totals) / len(totals), rel=1e-12)


def corner_extremes_by_mask(spec, tech, config) -> LatencyStats:
    """Reference corner extremes: every active cell's row + col tap delay in
    one N x N array, gathered through one region mask per state."""
    row, col = tap_delays(spec, config, tech)
    base = row[:, None] + col[None, :]
    r_idx = np.arange(len(row))[:, None]
    c_idx = np.arange(len(col))[None, :]
    best, worst, total, count = inf, -inf, 0.0, 0
    for state in tech.states:
        mask = ~_barred(r_idx, c_idx, _STATE_CODE[state.label], spec)
        if not mask.any():
            continue
        totals = base[mask] + sense_latency(state, tech)
        best = min(best, float(totals.min()))
        worst = max(worst, float(totals.max()))
        total += float(totals.sum())
        count += totals.size
    return LatencyStats.of(best, worst, total / count)


@st.composite
def legal_specs(draw):
    """Any legal spec of N <= 48, in either control mode."""
    n = draw(st.integers(1, 48))
    n_h = draw(st.integers(0, n))
    n_l = draw(st.integers(0, n - n_h))
    return CrossbarSpec(n=n, n_h=n_h, n_l=n_l, p=draw(st.integers(1, n)), q=draw(st.integers(1, n)),
                        control=draw(st.sampled_from(ControlMode)))


@settings(max_examples=80, deadline=None)
@given(legal_specs())
@example(CrossbarSpec(n=12, n_h=6, n_l=3, p=4, q=9))                               # P < N_h
@example(CrossbarSpec(n=10, n_h=4, n_l=6, p=7, q=10, control=ControlMode.SINGLE))  # N_h + N_l = N
@example(CrossbarSpec(n=1, n_h=1))
def test_corner_extremes_equal_mask_oracle(spec):
    """The band kernel's best, worst, diff and ratio equal the per-cell mask
    kernel's bit for bit; only the mean's summation order differs."""
    for tech in PRESETS.values():
        for config in legal_configurations(spec):
            got = simulate._corner_extremes.__wrapped__(spec, tech, config)
            want = corner_extremes_by_mask(spec, tech, config)
            assert [v.hex() for v in (got.best, got.worst, got.diff, got.ratio)] == \
                [v.hex() for v in (want.best, want.worst, want.diff, want.ratio)]
            assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=0)


def test_corner_extremes_allocate_no_n_by_n_array():
    # One float N x N array at N = MAX_N is 134 MB; the kernel's state is O(N).
    spec = CrossbarSpec(n=MAX_N, n_h=64, n_l=64, p=3000, q=3000)
    tracemalloc.start()
    try:
        simulate._corner_extremes.__wrapped__(spec, TECH, CONFIG_11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_latency_stats_extremes_once_per_spec_and_config(rng, monkeypatch):
    placement = mixed_placement(rng)
    expected = [corner_extremes(xb.spec, TECH, xb.config) for xb in placement.crossbars]
    calls = []

    def counted(spec, tech, config=CONFIG_11):
        calls.append((spec, config))
        return corner_extremes(spec, tech, config)

    monkeypatch.setattr(simulate, "corner_extremes", counted)
    report = latency_stats(placement, TECH)
    assert [r.extremes for r in report.per_crossbar] == expected
    assert sorted(calls, key=repr) == sorted({(xb.spec, xb.config) for xb in placement.crossbars},
                                             key=repr)
    assert len(calls) < len(placement.crossbars)


def test_corner_extremes_memo_equals_uncached_kernel_bit_for_bit():
    uncached = simulate._corner_extremes.__wrapped__
    for tech in PRESETS.values():
        for config in CONFIGURATIONS:
            for spec in MEMO_SPECS:
                got = corner_extremes(spec, tech, config)
                want = uncached(spec, tech, config)
                assert [v.hex() for v in dataclasses.astuple(got)] == \
                    [v.hex() for v in dataclasses.astuple(want)]
                assert corner_extremes(spec, tech, config) is got  # the shared entry
    assert corner_extremes(MEMO_SPECS[0], TECH) is corner_extremes(MEMO_SPECS[0], TECH, CONFIG_11)
    maxsize = simulate._corner_extremes.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_corner_extremes_keys_on_every_field():
    spec = MEMO_SPECS[0]
    before = corner_extremes(spec, TECH, CONFIG_11)
    for other_spec, other_tech in ((spec, dataclasses.replace(TECH, t_iso_on=2 * TECH.t_iso_on)),
                                   (spec, dataclasses.replace(TECH, c_sense=2 * TECH.c_sense)),
                                   (dataclasses.replace(spec, n_h=4), TECH),
                                   (dataclasses.replace(spec, n_l=1), TECH)):
        got = corner_extremes(other_spec, other_tech, CONFIG_11)
        assert got == simulate._corner_extremes.__wrapped__(other_spec, other_tech, CONFIG_11)
        assert got != before


def test_memoized_kernels_stay_plain_functions():
    # perfbench's tracer wraps only plain functions of each module (inspect.isfunction)
    # would otherwise stop seeing them and read 0 calls.
    for module, fn in ((techmodel, techmodel.tap_delays), (simulate, simulate.corner_extremes)):
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_evaluators_index_columns_not_synapse_views(rng, monkeypatch):
    """No evaluator walks PlacedSynapse views: with them unavailable, every result is unchanged."""
    placement = mixed_placement(rng)
    pre = sorted({nid for xb in placement.crossbars for nid in xb.cluster.pre_neurons})
    trace = random_trace(rng, pre[::2], [3] * len(pre[::2]))
    activity = activity_from_trains(trace, (), 1.0)
    net = Network(clusters=(random_cluster(rng, 0, 10, 12, 0.5),
                            random_cluster(rng, 1, 14, 8, 0.5, id_base=100)))

    def evaluate():
        return (latency_stats(placement, TECH), energy_report(placement, activity, TECH),
                neuron_isi_distortion(placement, trace, TECH),
                sweep_pq([net], CrossbarSpec(n=32, n_h=4, n_l=4), TECH, [(32, 32), (24, 20), (16, 16)]))

    expected = evaluate()

    def walk(xb):
        raise AssertionError("an evaluator walked PlacedSynapse views")

    monkeypatch.setattr(CrossbarPlacement, "synapses", property(walk))
    assert evaluate() == expected


def test_latency_stats_empty():
    with pytest.raises(EmptyPlacement):
        latency_stats(Placement(crossbars=(), crossbar_count=1), TECH)


# ---------------------------------------------------------------------------
# average latency change


def test_average_latency_delta_formula():
    assert average_latency_delta(5, 5, 3.0) == 0.0
    assert average_latency_delta(0, 4, 2.5) == pytest.approx(2.5)
    assert average_latency_delta(3, 1, 8.0) == pytest.approx(-4.0)
    with pytest.raises(EmptyCounts):
        average_latency_delta(0, 0, 1.0)
    with pytest.raises(EmptyCounts):
        average_latency_delta(-1, 2, 1.0)


def test_average_latency_delta_matches_paired_means(rng):
    # Two cells on the baseline crossbar; m LRS1 + n HRS synapses arranged
    # both ways. The mean-latency difference must equal ((n-m)/(n+m)) * delta
    # where delta is the parasitic gap between the cells.
    spec = CrossbarSpec(n=64)
    lrs1, hrs = TECH.state("LRS1"), TECH.state("HRS")
    for _ in range(100):
        m = int(rng.integers(1, 50))
        n_count = int(rng.integers(1, 50))
        r = int(rng.integers(1, 64))
        short = (0, 0)
        long = (r, int(rng.integers(1, 64)))
        p_short_l = path_latency(*short, lrs1, CONFIG_11, spec, TECH).total
        p_long_h = path_latency(*long, hrs, CONFIG_11, spec, TECH).total
        p_short_h = path_latency(*short, hrs, CONFIG_11, spec, TECH).total
        p_long_l = path_latency(*long, lrs1, CONFIG_11, spec, TECH).total
        delta = (path_latency(*long, lrs1, CONFIG_11, spec, TECH).parasitic_component
                 - path_latency(*short, lrs1, CONFIG_11, spec, TECH).parasitic_component)
        adverse_mean = (m * p_short_l + n_count * p_long_h) / (m + n_count)
        balanced_mean = (n_count * p_short_h + m * p_long_l) / (m + n_count)
        assert adverse_mean - balanced_mean == pytest.approx(
            average_latency_delta(m, n_count, delta), rel=1e-9)


# ---------------------------------------------------------------------------
# vectorized latency equals the scalar path model


def _permitted_state(row, col, spec, pick):
    allowed = sorted(region_of(row, col, spec).permitted_states)
    return allowed[pick % len(allowed)]


def test_synapse_latency_totals_match_path_latency(rng):
    spec = CrossbarSpec(n=32, n_h=8, n_l=8, p=24, q=24)
    cluster = planted_cluster(rng, 0, spec, size_hi=30)
    net = Network(clusters=(cluster,))
    placement = map_network(net, Hardware(crossbar_count=1, spec=spec))
    mapped = placement.crossbars[0]
    for config in CONFIGURATIONS:
        # the mapped synapses, then one synapse on every active cell, so the
        # far rows and columns past the isolation transistors are covered too
        rows, cols = config_dimensions(config, spec)
        every_cell = tuple(PlacedSynapse(r, 1000 + c, _permitted_state(r, c, spec, r + c), r, c)
                           for r in range(rows) for c in range(cols))
        for synapses in (mapped.synapses, every_cell):
            xb = dataclasses.replace(mapped, config=config, **seated_cluster(
                [s for s in synapses if s.row < rows and s.col < cols]))
            assert xb.synapses
            vec = synapse_latency_totals(xb, TECH)
            assert len(vec) == len(xb.synapses)
            for s, total in zip(xb.synapses, vec):
                scalar = path_latency(s.row, s.col, TECH.state(s.state), xb.config, xb.spec, TECH)
                assert total == pytest.approx(scalar.total, rel=1e-12)


def test_latency_stats_per_crossbar_equals_its_own_totals(rng):
    # Each crossbar's placed stats come from its slice of the whole placement's
    # latencies; they equal the stats of that crossbar evaluated on its own.
    placement = mixed_placement(rng)
    report = latency_stats(placement, TECH)
    for xb, per in zip(placement.crossbars, report.per_crossbar):
        assert per.placed == LatencyStats.from_values(synapse_latency_totals(xb, TECH))


# ---------------------------------------------------------------------------
# energy


def test_energy_zero_activity_static_only():
    spec = CrossbarSpec(n=8)
    placement = one_crossbar(spec, CONFIG_00, [(0, 100, "LRS1", 0, 0)])
    activity = Activity(spike_counts={}, routed_spike_hops=0.0, duration=2.0)
    report = energy_report(placement, activity, TECH)
    assert report.spike_j == 0.0
    assert report.routing_j == 0.0
    assert report.access_overhead_j == 0.0
    assert report.static_j == pytest.approx(64 * TECH.leakage_per_cell * 2.0)
    assert report.total_j == report.static_j


def test_energy_configuration_ordering():
    spec = CrossbarSpec(n=4, p=3, q=2)
    placed = [(0, 100, "LRS1", 0, 0), (1, 101, "HRS", 2, 1)]  # inside the 3x2 core
    activity = Activity(spike_counts={0: 5, 1: 3}, routed_spike_hops=4.0, duration=1.0)

    totals = {}
    statics = {}
    for config in (CONFIG_00, CONFIG_01, CONFIG_10, CONFIG_11):
        report = energy_report(one_crossbar(spec, config, placed), activity, TECH)
        totals[config.name] = report.total_j
        statics[config.name] = report.static_j
    assert totals["00"] < totals["01"] < totals["11"]
    assert totals["00"] < totals["10"] < totals["11"]
    ratios = [statics[k] / statics["00"] for k in ("00", "01", "10", "11")]
    assert ratios == pytest.approx([1.0, 8 / 6, 12 / 6, 16 / 6])


def test_energy_access_multipliers():
    # Far-region access in '11' is 3x a wordline raise; in '01' it is 2x.
    spec = CrossbarSpec(n=4, p=3, q=2)
    far_cell = [(0, 100, "LRS1", 3, 0)]  # row beyond P, col within Q
    activity = Activity(spike_counts={0: 1}, routed_spike_hops=0.0, duration=1.0)
    r11 = energy_report(one_crossbar(spec, CONFIG_11, far_cell), activity, TECH)
    r01 = energy_report(one_crossbar(spec, CONFIG_01, far_cell), activity, TECH)
    t11 = path_latency(3, 0, TECH.state("LRS1"), CONFIG_11, spec, TECH).total
    t01 = path_latency(3, 0, TECH.state("LRS1"), CONFIG_01, spec, TECH).total
    assert r11.access_overhead_j == pytest.approx(3 * TECH.p_wordline_raise * t11)
    assert r01.access_overhead_j == pytest.approx(2 * TECH.p_wordline_raise * t01)

    near_cell = [(0, 100, "LRS1", 0, 0)]
    r00 = energy_report(one_crossbar(spec, CONFIG_00, near_cell), activity, TECH)
    t00 = path_latency(0, 0, TECH.state("LRS1"), CONFIG_00, spec, TECH).total
    assert r00.access_overhead_j == pytest.approx(1 * TECH.p_wordline_raise * t00)


def latencies_by_cell(xb, tech):
    """Path latency of each of the crossbar's synapses, gathered out of its
    tap_delays one cell at a time: row[r] + col[c] + sense latency."""
    row, col = tap_delays(xb.spec, xb.config, tech)
    return [float(row[s.row]) + float(col[s.col]) + sense_latency(tech.state(s.state), tech) for s in xb.synapses]


def access_overhead_by_synapse(placement, activity, tech):
    # Reference: the ledger's access term summed synapse by synapse, in
    # placement order, with the far-region multiplier decided per cell.
    access_j = 0.0
    for xb in placement.crossbars:
        for s, t_access in zip(xb.synapses, latencies_by_cell(xb, tech)):
            count = activity.spike_counts.get(s.pre, 0)
            if not count:
                continue
            far = s.row >= xb.spec.p or s.col >= xb.spec.q
            k = (3 if xb.config == CONFIG_11 else 2) if far else 1
            access_j += count * tech.p_wordline_raise * float(t_access) * k
    return access_j


def test_energy_access_overhead_matches_per_synapse_sum(rng):
    placement = mixed_placement(rng)
    pre = sorted({s.pre for xb in placement.crossbars for s in xb.synapses})
    # Zero counts, and pre-neurons missing from the activity, add nothing.
    counts = {nid: int(rng.integers(0, 4)) for nid in pre if rng.random() < 0.8}
    assert 0 in counts.values() and len(counts) < len(pre)
    activity = Activity(spike_counts=counts, routed_spike_hops=0.0, duration=1.0)
    for tech in (TECH, preset("45nm")):
        got = energy_report(placement, activity, tech).access_overhead_j
        assert got == access_overhead_by_synapse(placement, activity, tech)


@st.composite
def evaluation_cases(draw):
    """(placement, activity): 1..4 crossbars, each on a spec of N = 1..12 with
    any P and Q (often P = N or Q = N) and either control mode, some sharing
    an earlier crossbar's spec, under any legal configuration; 1..N neurons
    per axis seated inside that configuration's active array, and synapses
    of any state. Each pre-neuron's spike count may be zero or absent."""
    crossbars, specs, counts = [], [], {}
    for i in range(draw(st.integers(1, 4))):
        if specs and draw(st.booleans()):
            spec = draw(st.sampled_from(specs))
        else:
            n = draw(st.integers(1, 12))
            spec = CrossbarSpec(n=n, p=draw(st.one_of(st.just(n), st.integers(1, n))),
                                q=draw(st.one_of(st.just(n), st.integers(1, n))),
                                control=draw(st.sampled_from(ControlMode)))
            specs.append(spec)
        config = draw(st.sampled_from(legal_configurations(spec)))
        height, width = config_dimensions(config, spec)
        rows = draw(st.lists(st.integers(0, height - 1), min_size=1, unique=True))
        cols = draw(st.lists(st.integers(0, width - 1), min_size=1, unique=True))
        pairs = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(cols) - 1)),
                              min_size=1, unique=True))
        states = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
        pre = range(100 * i, 100 * i + len(rows))
        cluster = Cluster.from_columns(i, pre, range(100 * i + 50, 100 * i + 50 + len(cols)),
                                       [a for a, _ in pairs], [b for _, b in pairs], states)
        crossbars.append(CrossbarPlacement(i, cluster, spec, config, rows, cols))
        for nid in pre:
            count = draw(st.one_of(st.none(), st.integers(0, 4)))
            if count is not None:
                counts[nid] = count
    placement = Placement(crossbars=tuple(crossbars), crossbar_count=len(crossbars))
    return placement, Activity(spike_counts=counts, routed_spike_hops=0.0, duration=1.0)


@settings(max_examples=100, deadline=None)
@given(evaluation_cases(), st.sampled_from([TECH, preset("45nm")]))
def test_kernel_matches_cell_by_cell_oracle(case, tech):
    """The evaluation kernel's latencies equal tap_delays gathered cell by
    cell, and its access energy the per-synapse sum, bit for bit."""
    placement, activity = case
    table = simulate._SynapseTable(placement.crossbars, tech)
    setups, at = simulate._setups((xb.spec, xb.config) for xb in placement.crossbars)
    latencies, access_j = table.evaluate(setups, at, table.charge(activity))
    expected = [t for xb in placement.crossbars for t in latencies_by_cell(xb, tech)]
    assert np.array_equal(latencies, expected)
    assert access_j == access_overhead_by_synapse(placement, activity, tech)
    assert energy_report(placement, activity, tech).access_overhead_j == access_j


_INT64 = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(counts=st.dictionaries(st.one_of(_INT64, st.integers(-(2**70), 2**70), st.integers(-5, 5)),
                              st.integers(0, 10**6), max_size=20),
       extra=st.lists(st.one_of(_INT64, st.integers(-5, 5)), max_size=20),
       picks=st.lists(st.integers(0, 100), max_size=30))
@example(counts={}, extra=[0, -1, 2**63 - 1], picks=[])
def test_charge_equals_dict_lookups(counts, extra, picks):
    # Placed ids (intp) that the activity counts, some repeated, and ones it does not;
    # each seated on its own crossbar with two synapses.
    known = [nid for nid in counts if -(2**63) <= nid < 2**63]
    pre = extra + [known[i % len(known)] for i in picks if known]
    crossbars = [CrossbarPlacement(k, Cluster.from_columns(k, (nid,), (0, 1), [0, 0], [0, 1], [0, 0]),
                                   CrossbarSpec(n=4), CONFIG_11, [0], [0, 1]) for k, nid in enumerate(pre)]
    activity = Activity(spike_counts=counts, routed_spike_hops=0.0, duration=1.0)
    spiking, access = simulate._SynapseTable(crossbars, TECH).charge(activity)
    expected = np.array([float(counts.get(nid, 0)) for nid in pre for _ in range(2)])
    assert access.dtype == float
    assert access.tolist() == (expected * TECH.p_wordline_raise).tolist()
    assert spiking.tolist() == (expected > 0).tolist()


def test_energy_follows_edited_spike_counts():
    placement = map_network(mapping_demo_network(), Hardware(crossbar_count=3, spec=CrossbarSpec(n=4)))
    activity = Activity(spike_counts={0: 2}, routed_spike_hops=0.0, duration=1.0)
    energy_report(placement, activity, TECH)  # an earlier evaluation must not freeze the counts
    activity.spike_counts[1] = 7
    fresh = Activity(spike_counts={0: 2, 1: 7}, routed_spike_hops=0.0, duration=1.0)
    assert energy_report(placement, activity, TECH) == energy_report(placement, fresh, TECH)


def test_energy_routing_and_spikes():
    net = mapping_demo_network()
    placement = map_network(net, Hardware(crossbar_count=3, spec=CrossbarSpec(n=4)))
    trace = SpikeTrace.from_trains([SpikeTrain(neuron=nid, times=(0.1, 0.2)) for nid in (0, 1, 2, 3, 4)])
    activity = activity_from_trains(trace, placement.routes, duration=1.0)
    # neuron 4 feeds the single route with 2 hops
    assert activity.routed_spike_hops == 4.0
    assert activity.total_spikes == 10
    report = energy_report(placement, activity, TECH)
    assert report.spike_j == pytest.approx(10 * TECH.e_spike)
    assert report.routing_j == pytest.approx(4 * TECH.e_route_hop)


def test_optimized_spec_shrinks_placed_latency_spread(rng):
    # Paired runs of the same workload: region-guided placement on the
    # partitioned crossbar versus the state-blind control on the baseline.
    from xbarsim import map_network_control
    spec = CrossbarSpec(n=128, n_h=64, n_l=64, p=96, q=96)
    for seed in range(5):
        clusters = [planted_cluster(rng, k, spec, size_hi=100, id_base=1000 * k)
                    for k in range(5)]
        net = Network(clusters=tuple(clusters))
        optimized = map_network(net, Hardware(crossbar_count=5, spec=spec))
        control = map_network_control(net, Hardware(
            crossbar_count=5, spec=CrossbarSpec(n=128)), seed=seed)
        diff_opt = latency_stats(optimized, TECH).aggregate.diff
        diff_ctl = latency_stats(control, TECH).aggregate.diff
        assert diff_opt <= diff_ctl


def test_double_control_never_worse(rng):
    for seed in range(5):
        params = GenParams(clusters=6, pre_range=(4, 100), post_range=(4, 100),
                           density=0.1, seed=seed)
        net, trace = generate_synthetic(params)
        base = CrossbarSpec(n=128, p=96, q=96)
        single = CrossbarSpec(n=128, p=96, q=96, control=ControlMode.SINGLE)
        activity = activity_from_trains(trace, net.routes, duration=1.0)
        pl_double = map_network(net, Hardware(crossbar_count=6, spec=base))
        pl_single = map_network(net, Hardware(crossbar_count=6, spec=single))
        e_double = energy_report(pl_double, activity, TECH).total_j
        e_single = energy_report(pl_single, activity, TECH).total_j
        assert e_double <= e_single


def test_activity_validation():
    with pytest.raises(NegativeActivity):
        Activity(spike_counts={0: -1}, routed_spike_hops=0.0, duration=1.0)
    with pytest.raises(NegativeActivity):
        Activity(spike_counts={}, routed_spike_hops=0.0, duration=0.0)


def test_energy_total_is_sum():
    net = mapping_demo_network()
    placement = map_network(net, Hardware(crossbar_count=3, spec=CrossbarSpec(n=4)))
    trace = SpikeTrace.from_trains([SpikeTrain(neuron=0, times=(0.1,))])
    report = energy_report(placement, activity_from_trains(trace, (), 1.0), TECH)
    assert report.total_j == pytest.approx(
        report.static_j + report.spike_j + report.routing_j + report.access_overhead_j)


# ---------------------------------------------------------------------------
# neuron-level ISI distortion


def test_neuron_isi_distortion_matches_two_synapse_example():
    # Two pre-neurons feed one post; delays differ, ISI shifts by the delay gap.
    spec = CrossbarSpec(n=16)
    placed = [(0, 100, "LRS1", 0, 0), (1, 100, "HRS", 9, 0)]
    placement = one_crossbar(spec, CONFIG_11, placed)
    t1, t2 = 1.0, 2.0
    trace = SpikeTrace.from_trains([SpikeTrain(neuron=0, times=(t1,)), SpikeTrain(neuron=1, times=(t2,))])
    x = path_latency(0, 0, TECH.state("LRS1"), CONFIG_11, spec, TECH).total
    y = path_latency(9, 0, TECH.state("HRS"), CONFIG_11, spec, TECH).total
    distortions = neuron_isi_distortion(placement, trace, TECH)
    assert distortions[100] == pytest.approx(abs(y - x), rel=1e-9)


def test_neuron_isi_distortion_single_synapse_is_zero():
    spec = CrossbarSpec(n=8)
    placement = one_crossbar(spec, CONFIG_11, [(0, 100, "LRS2", 3, 4)])
    trace = SpikeTrace.from_trains([SpikeTrain(neuron=0, times=(0.5, 1.0, 2.0))])
    distortions = neuron_isi_distortion(placement, trace, TECH)
    assert distortions[100] == pytest.approx(0.0, abs=1e-9)


def _random_shared_placement(rng):
    """Three crossbars whose pre- and post-neurons are drawn from shared pools."""
    specs = [(CrossbarSpec(n=10, n_h=2, n_l=2, p=7, q=6), CONFIG_11),
             (CrossbarSpec(n=10, n_h=2, n_l=2, p=7, q=6), CONFIG_01),
             (CrossbarSpec(n=8), CONFIG_11)]
    crossbars = []
    for xid, (spec, config) in enumerate(specs):
        rows, cols = config_dimensions(config, spec)
        pres = rng.choice(12, size=min(rows, 6), replace=False)
        posts = 100 + rng.choice(6, size=min(cols, 4), replace=False)
        row_of_pre = {int(p): int(r) for p, r in zip(pres, rng.permutation(rows))}
        col_of_post = {int(q): int(c) for q, c in zip(posts, rng.permutation(cols))}
        synapses = []
        for pre, row in row_of_pre.items():
            for post, col in col_of_post.items():
                if rng.random() < 0.6:
                    state = _permitted_state(row, col, spec, int(rng.integers(4)))
                    synapses.append(PlacedSynapse(pre, post, state, row, col))
        crossbars.append(CrossbarPlacement(crossbar_id=xid, spec=spec, config=config,
                                           **seated_cluster(synapses, xid, row_of_pre, col_of_post)))
    return Placement(crossbars=tuple(crossbars), crossbar_count=len(crossbars))


def _sort_merge_isi(placement, trains, tech):
    """ISI distortion by definition: merge and sort every post-neuron's trains."""
    by_neuron = {t.neuron: t.times for t in trains}
    merged_in, merged_out = {}, {}
    for a in propagate(placement, trains, tech):
        merged_in.setdefault(a.post, []).extend(by_neuron[a.pre])
        merged_out.setdefault(a.post, []).extend(a.times)
    result = {}
    for post in merged_out:
        t_in, t_out = sorted(merged_in[post]), sorted(merged_out[post])
        if len(t_out) >= 2:
            result[post] = abs((t_out[-1] - t_out[0]) / (len(t_out) - 1)
                               - (t_in[-1] - t_in[0]) / (len(t_in) - 1))
    return result


def test_neuron_isi_distortion_matches_sort_merge(rng):
    seen_shared = seen_silent = 0
    for _ in range(20):
        placement = _random_shared_placement(rng)
        placed = sorted({nid for xb in placement.crossbars for nid in xb.cluster.pre_neurons})
        trains = []
        for nid in placed:
            draw = rng.random()
            if draw < 0.2:
                continue                                  # no train at all
            count = 0 if draw < 0.3 else int(rng.integers(1, 4))
            trains.append(SpikeTrain(nid, tuple(np.sort(rng.choice(10**6, size=count, replace=False)) / 1e9)))
        # exact: t + delay rounds monotonically in t, so a synapse's first and
        # last arrivals are its pre-neuron's first and last spikes shifted
        expected = _sort_merge_isi(placement, trains, TECH)
        assert neuron_isi_distortion(placement, SpikeTrace.from_trains(trains), TECH) == expected
        posts = [set(xb.cluster.post_neurons) for xb in placement.crossbars]
        seen_shared += sum(map(len, posts)) > len(set().union(*posts))
        seen_silent += len(placed) > sum(1 for t in trains if t.times)
    assert seen_shared and seen_silent


def test_neuron_isi_distortion_unknown_neuron():
    net = mapping_demo_network()
    placement = map_network(net, Hardware(crossbar_count=3, spec=CrossbarSpec(n=4)))
    trace = SpikeTrace.from_trains([SpikeTrain(neuron=999, times=(0.1,)), SpikeTrain(neuron=0, times=(0.1, 0.2)),
                                    SpikeTrain(neuron=777, times=(0.1, 0.2))])
    with pytest.raises(UnknownNeuron, match="^neuron 777 spikes but is not placed as a pre-synaptic neuron$"):
        neuron_isi_distortion(placement, trace, TECH)


# ---------------------------------------------------------------------------
# the trace evaluators against their per-train forms


def activity_reference(trains, routes, duration: float) -> Activity:
    """activity_from_trains as it read SpikeTrain records: a count per train that has times."""
    counts = {t.neuron: len(t.times) for t in trains if t.times}
    hops = sum(counts.get(r.src_neuron, 0) * r.hops for r in routes)
    return Activity(spike_counts=counts, routed_spike_hops=float(hops), duration=duration)


def isi_reference(placement, trains, tech) -> dict:
    """neuron_isi_distortion as it read SpikeTrain records: each placed
    pre-neuron's times looked up in a dict, its first and last time read
    from them."""
    by_neuron = spike_times_reference(placement, trains)
    posts = np.unique(np.array([nid for xb in placement.crossbars for nid in xb.cluster.post_neurons], np.intp))
    table = simulate._SynapseTable(placement.crossbars, tech)
    delay, _ = table.evaluate(*simulate._setups((xb.spec, xb.config) for xb in placement.crossbars))
    (pre_ids, of_pre), (post_ids, of_post) = table.pre, table.post
    times = [by_neuron.get(nid, ()) for nid in pre_ids.tolist()]
    spikes = np.array([len(t) for t in times], dtype=float)
    live = spikes[of_pre] > 0
    of_pre, delay = of_pre[live], delay[live]
    at = np.searchsorted(posts, post_ids)[of_post[live]]
    k = np.bincount(at, weights=spikes[of_pre], minlength=len(posts))
    first_in, first_out = np.full(len(posts), np.inf), np.full(len(posts), np.inf)
    last_in, last_out = np.full(len(posts), -np.inf), np.full(len(posts), -np.inf)
    first = np.array([t[0] if t else 0.0 for t in times])[of_pre]
    last = np.array([t[-1] if t else 0.0 for t in times])[of_pre]
    np.minimum.at(first_in, at, first)
    np.maximum.at(last_in, at, last)
    first += delay
    last += delay
    np.minimum.at(first_out, at, first)
    np.maximum.at(last_out, at, last)
    keep = k >= 2
    gaps = k[keep] - 1
    distortion = np.abs((last_out[keep] - first_out[keep]) / gaps - (last_in[keep] - first_in[keep]) / gaps)
    return dict(zip(posts[keep].tolist(), distortion.tolist()))


@functools.cache
def _oracle_placements() -> dict:
    """{name: (placement, a trace generated with it)}: the demo network on 4x4
    crossbars, and a small synthetic network on a partitioned 8x8 crossbar."""
    net, trace = generate_synthetic(GenParams(clusters=3, pre_range=(2, 8), post_range=(2, 8), density=0.4,
                                              spike_rate=200.0, duration=0.05, seed=3))
    demo = mapping_demo_network()
    return {"demo": (map_network(demo, Hardware(3, CrossbarSpec(n=4))),
                     SpikeTrace.from_trains([SpikeTrain(nid, (0.1, 0.2)) for nid in range(4)])),
            "synthetic": (map_network(net, Hardware(3, CrossbarSpec(n=8, n_h=2, n_l=2, p=5, q=6))), trace)}


def _outcome(evaluate):
    """The distortions as float.hex, or the exception's type and message."""
    try:
        return {post: value.hex() for post, value in evaluate().items()}
    except UnknownNeuron as exc:
        return type(exc), str(exc)


# Ticks near each other, so that neurons share first and last times, and anywhere below 2**51 ns.
_ORACLE_TICKS = st.integers(0, 50) | st.integers(0, 2**51)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(["demo", "synthetic"]), generated=st.booleans())
def test_trace_evaluators_match_per_train_reference(data, name, generated):
    """activity_from_trains and neuron_isi_distortion read the trace's columns
    and give what the per-train forms give: the same Activity, the same
    distortions bit for bit, and the same UnknownNeuron for a spike from a
    neuron placed as no pre-neuron (a post-neuron, or one of no cluster)."""
    placement, trace = _oracle_placements()[name]
    if not generated:
        placed = sorted({nid for xb in placement.crossbars for nid in xb.cluster.pre_neurons})
        others = sorted({nid for xb in placement.crossbars for nid in xb.cluster.post_neurons}) + [-1, 10**6]
        neurons = placed + data.draw(st.lists(st.sampled_from(others), max_size=2))
        ticks = data.draw(st.dictionaries(st.sampled_from(neurons), st.sets(_ORACLE_TICKS, min_size=1, max_size=6),
                                          max_size=8))
        rows = data.draw(st.permutations([(nid, tick) for nid, ts in ticks.items() for tick in ts]))
        trace = SpikeTrace([nid for nid, _ in rows], [tick for _, tick in rows])
    trains = trains_of(trace)
    assert activity_from_trains(trace, placement.routes, 1.0) == activity_reference(trains, placement.routes, 1.0)
    assert _outcome(lambda: neuron_isi_distortion(placement, trace, TECH)) == \
        _outcome(lambda: isi_reference(placement, trains, TECH))
