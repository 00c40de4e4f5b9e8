import json
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xbarsim import (
    Cluster,
    CrossbarSpec,
    GenParams,
    Hardware,
    Network,
    Route,
    SpikeTrace,
    SpikeTrain,
    Synapse,
    assign_cluster,
    cli,
    generate_synthetic,
    load_network,
    load_spikes,
    map_network,
    map_network_control,
    preset,
    save_network,
    save_spec,
    save_spikes,
    sweep_pq,
    workload,
)
from xbarsim.crossbar import STATE_LABELS
from xbarsim.fixtures import mapping_demo_network
from xbarsim.errors import Infeasible, InvalidParams, ParseError, ValidationError
from xbarsim import files
from xbarsim.files import read_table
from xbarsim.workload import network_from_json, network_to_json

from conftest import trains_of


def cluster_error_reference(cid, pre_neurons, post_neurons, triples):
    """The message Cluster(...) built from Synapse(*triple) records raises, or
    None: the per-synapse checks in their original order."""
    for _, _, label in triples:
        if label not in STATE_LABELS:
            return f"unknown resistance state {label!r}"
    if len(set(pre_neurons)) != len(pre_neurons):
        return f"cluster {cid}: duplicate pre-neuron ids"
    if len(set(post_neurons)) != len(post_neurons):
        return f"cluster {cid}: duplicate post-neuron ids"
    if not triples:
        return f"cluster {cid}: at least one synapse required"
    seen = set()
    for pre, post, _ in triples:
        if not (0 <= pre < len(pre_neurons) and 0 <= post < len(post_neurons)):
            return f"cluster {cid}: synapse ({pre},{post}) index out of range"
        if (pre, post) in seen:
            return f"cluster {cid}: duplicate synapse ({pre},{post})"
        seen.add((pre, post))
    return None


def poisson_trains_reference(rng, neurons, rate, duration):
    """Poisson trains drawn one scalar gap at a time until the running time reaches duration,
    each time t then put on the nanosecond grid one at a time: tick floor(t * 1e9), moved to
    the train's previous tick plus 1 if at or below it."""
    rows = []
    for nid in neurons:
        times = []
        t = 0.0
        if rate > 0:
            while True:
                t += rng.exponential(1.0 / rate)
                if t >= duration:
                    break
                times.append(t)
        ticks = []
        for t in times:
            tick = math.floor(t * 1e9)
            ticks.append(tick if not ticks or tick > ticks[-1] else ticks[-1] + 1)
        rows += [(nid, tick) for tick in ticks]
    return SpikeTrace([nid for nid, _ in rows], [tick for _, tick in rows])


def load_spikes_reference(path) -> list[SpikeTrain]:
    """load_spikes as it was before numpy read the trace: the stdlib csv reader, int() and
    float() per cell, and one list per neuron."""
    per_neuron: dict[int, list[float]] = {}
    for neuron, t_ns in read_table(path, {"neuron": int, "time_ns": int}, "spike"):
        per_neuron.setdefault(neuron, []).append(t_ns / 1e9)
    return [SpikeTrain(neuron=nid, times=tuple(sorted(ts))) for nid, ts in sorted(per_neuron.items())]


def test_network_round_trip(tmp_path):
    net = mapping_demo_network()
    path = tmp_path / "net.json"
    save_network(net, path)
    assert load_network(path) == net


def test_minimal_network_file(tmp_path):
    doc = {"clusters": [{"id": 0, "pre": [1], "post": [2],
                         "synapses": {"pre": [0], "post": [0], "state": ["HRS"]}}]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    net = load_network(path)
    assert len(net.clusters) == 1
    assert net.clusters[0].synapses[0].state == "HRS"


def test_duplicate_synapse_rejected(tmp_path):
    doc = {"clusters": [{"id": 0, "pre": [1, 2], "post": [3],
                         "synapses": {"pre": [0, 0], "post": [0, 0], "state": ["HRS", "LRS1"]}}]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_network(path)


def test_parse_error(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_network(path)


def test_cluster_invariants():
    with pytest.raises(ValidationError):
        Cluster(id=0, pre_neurons=(1,), post_neurons=(2,), synapses=())
    with pytest.raises(ValidationError):
        Cluster(id=0, pre_neurons=(1, 1), post_neurons=(2,),
                synapses=(Synapse(0, 0, "HRS"),))
    with pytest.raises(ValidationError):
        Cluster(id=0, pre_neurons=(1,), post_neurons=(2,),
                synapses=(Synapse(1, 0, "HRS"),))
    with pytest.raises(ValidationError):
        Synapse(0, 0, "LRS9")


def test_route_validation():
    cluster = Cluster(id=0, pre_neurons=(1,), post_neurons=(2,),
                      synapses=(Synapse(0, 0, "HRS"),))
    with pytest.raises(ValidationError):
        Network(clusters=(cluster,), routes=(Route(0, 99, 0, 1, 1),))
    with pytest.raises(ValidationError):
        Network(clusters=(cluster,), routes=(Route(5, 2, 0, 1, 1),))
    with pytest.raises(ValidationError):
        Route(0, 2, 0, 1, 0)


def test_spike_train_invariants():
    with pytest.raises(ValidationError, match="strictly increase"):
        SpikeTrain(neuron=0, times=(1.0, 1.0))
    with pytest.raises(ValidationError, match=">= 0"):
        SpikeTrain(neuron=0, times=(-0.5, 1.0))
    with pytest.raises(ValidationError, match=">= 0"):
        SpikeTrain(neuron=0, times=(0.5, -1.0))
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValidationError, match="finite"):
            SpikeTrain(neuron=0, times=(0.5, bad))
    SpikeTrain(neuron=0, times=())


def test_load_spikes_groups_by_neuron_and_sorts(tmp_path):
    """Rows in any order, 9,000 of them: one train per neuron, ascending ids, times sorted."""
    rng = np.random.default_rng(3)
    rows = [(int(n), int(t)) for n, t in zip(rng.integers(0, 50, 9000), rng.integers(0, 10**15, 9000))]
    path = tmp_path / "spikes.csv"
    path.write_text("neuron,time_ns\n" + "".join(f"{n},{t}\n" for n, t in rows))
    per_neuron = {}
    for n, t in rows:
        per_neuron.setdefault(n, []).append(t / 1e9)
    trains = [SpikeTrain(n, tuple(sorted(ts))) for n, ts in sorted(per_neuron.items())]
    assert load_spikes(path) == SpikeTrace.from_trains(trains)


def test_generate_deterministic():
    params = GenParams(clusters=4, pre_range=(2, 10), post_range=(2, 10),
                       density=0.3, seed=7)
    net_a, trains_a = generate_synthetic(params)
    net_b, trains_b = generate_synthetic(params)
    assert net_a == net_b
    assert trains_a == trains_b


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rate=st.sampled_from([0.0]) | st.floats(0.5, 400.0),
       duration=st.floats(1e-4, 3.0), clusters=st.integers(1, 3))
@example(seed=0, rate=0.0, duration=1.0, clusters=2)      # no draws at all
@example(seed=1, rate=0.5, duration=1e-4, clusters=3)     # duration shorter than the first gaps
@example(seed=2, rate=3000.0, duration=2.5, clusters=2)   # several 4,096-gap blocks
def test_generated_trains_match_scalar_draws(seed, rate, duration, clusters):
    params = GenParams(clusters=clusters, pre_range=(1, 4), post_range=(1, 2), density=0.5,
                       spike_rate=rate, duration=duration, seed=seed)
    trace, want = _generated_and_reference_trains(params)
    assert trace == want


def _generated_and_reference_trains(params):
    """generate_synthetic's trace, and poisson_trains_reference's from the same rng state."""
    states = []
    real = workload._poisson_trains

    def spy(rng, *args):
        states.append(rng.bit_generator.state)
        return real(rng, *args)

    with mock.patch.object(workload, "_poisson_trains", spy):
        network, trace = generate_synthetic(params)
    rng = np.random.default_rng()
    rng.bit_generator.state = states[0]
    neurons = [nid for c in network.clusters for nid in c.pre_neurons]
    return trace, poisson_trains_reference(rng, neurons, params.spike_rate, params.duration)


def _hex_trains(trains):
    return [(t.neuron, [x.hex() for x in t.times]) for t in trains]


def test_generated_ticks_that_clash_move_past_the_tick_before(tmp_path):
    """At 2e9 Hz for 200 ns a train draws about 400 times onto 200 ticks, so many
    floor to a tick already taken: each moves to the tick before it plus 1, as
    in the scalar reference, and the train runs past the duration."""
    params = GenParams(clusters=1, pre_range=(3, 3), post_range=(1, 1), density=1.0,
                       spike_rate=2e9, duration=2e-7, seed=4)
    trace, want = _generated_and_reference_trains(params)
    assert trace == want
    trains = trains_of(trace)
    assert len(trains) == 3 and all(len(t.times) > 200 and t.times[-1] > 2e-7 for t in trains)
    save_spikes(trace, tmp_path / "spikes.csv")
    assert load_spikes(tmp_path / "spikes.csv") == trace


def test_trains_generated_up_to_the_longest_duration_save_and_read_back(tmp_path):
    """Up to MAX_DURATION (2**51 ns) every generated tick converts to seconds and back exactly."""
    params = GenParams(clusters=2, pre_range=(3, 3), post_range=(1, 1), density=1.0,
                       spike_rate=2e-5, duration=workload.MAX_DURATION, seed=1)
    _, trace = generate_synthetic(params)
    assert len(trace) > 100
    save_spikes(trace, tmp_path / "spikes.csv")
    assert load_spikes(tmp_path / "spikes.csv") == trace
    with pytest.raises(InvalidParams, match="duration"):
        GenParams(clusters=1, pre_range=(1, 1), post_range=(1, 1), density=1.0,
                  duration=workload.MAX_DURATION * (1 + 1e-15))


# Lists of spike ticks in ns, mostly below 2**51, where every tick and its seconds
# convert exactly, some up to the largest int64.
_TICKS = st.lists(st.integers(0, 2**51) | st.integers(0, 2**63 - 1), max_size=12)


@settings(max_examples=300, deadline=None)
@given(ticks=st.dictionaries(st.integers(-2**63, 2**63 - 1), _TICKS, max_size=4),
       floats=st.dictionaries(st.integers(0, 9), st.lists(st.floats(0, 1e10), max_size=4), max_size=2))
@example(ticks={0: [0, 1, 2**51], 5: [2**53 + 1, 2**62]}, floats={})
@example(ticks={1: [2**63 - 1]}, floats={})  # 2**63 ns once rounded to a float second: refused
@example(ticks={}, floats={3: [0.1, 5e-324]})  # 5e-324 s is off the grid: refused
def test_saved_traces_read_back_exactly(tmp_path_factory, ticks, floats):
    """load_spikes(save_spikes(x)) == x, bit for bit, for every x that save_spikes
    accepts; it accepts every train of ticks below 2**51 ns, as tick / 1e9 seconds."""
    trains = [SpikeTrain(nid, tuple(np.unique(np.array(ts, dtype=np.int64) / 1e9).tolist()))
              for nid, ts in ticks.items()]
    trains += [SpikeTrain(nid, tuple(sorted(set(ts)))) for nid, ts in floats.items() if nid not in ticks]
    path = tmp_path_factory.mktemp("trace") / "spikes.csv"
    try:
        save_spikes(SpikeTrace.from_trains(trains), path)
    except ValidationError:
        assert floats or max(t for ts in ticks.values() for t in ts) > 2**51
        assert not path.exists()
        return
    saved = sorted((t for t in trains if t.times), key=lambda t: t.neuron)
    assert _hex_trains(trains_of(load_spikes(path))) == _hex_trains(saved)


@settings(max_examples=300, deadline=None)
@given(tick=st.integers(0, 2**52 - 1) | st.integers(2**51, 2**52 - 1))
@example(tick=4357395723352757)  # rint(t * 1e9) of its t is the tick after it
def test_every_tick_below_2_52_ns_saves_and_reads_back(tmp_path_factory, tick):
    path = tmp_path_factory.mktemp("trace") / "spikes.csv"
    train = SpikeTrain(3, (tick / 1e9,))
    save_spikes(SpikeTrace.from_trains([train]), path)
    assert path.read_text() == f"neuron,time_ns\n3,{tick}\n"
    assert load_spikes(path) == SpikeTrace.from_trains([train]) == SpikeTrace([3], [tick])


@settings(max_examples=300, deadline=None)
@given(t=st.floats(0, 2**52 / 1e9) | st.integers(0, 2**52).map(lambda tick: tick / 1e9))
@example(t=4357395723352757 / 1e9)
@example(t=np.nextafter(4357395723352757 / 1e9, 0))
def test_save_spikes_accepts_exactly_the_times_on_a_tick(tmp_path_factory, t):
    """Below 2**52 ns a time on the grid is the float second of the tick
    nearest its exact value; any other time is refused."""
    tick = round(Fraction(t) * 10**9)
    path = tmp_path_factory.mktemp("trace") / "spikes.csv"
    if tick / 1e9 == t:
        save_spikes(SpikeTrace.from_trains([SpikeTrain(0, (t,))]), path)
        assert path.read_text() == f"neuron,time_ns\n0,{tick}\n"
    else:
        with pytest.raises(ValidationError, match="is not a whole number of nanoseconds"):
            save_spikes(SpikeTrace.from_trains([SpikeTrain(0, (t,))]), path)
        assert not path.exists()


@pytest.mark.parametrize("t, problem", [
    (1.5e-9, "is not a whole number of nanoseconds"),
    (0.1 + 2**-50, "is not a whole number of nanoseconds"),
    (2**63 / 1e9, "has more nanoseconds than an int64 holds"),
    (1e300, "has more nanoseconds than an int64 holds"),
])
def test_save_spikes_refuses_times_off_the_nanosecond_grid(tmp_path, t, problem):
    path = tmp_path / "spikes.csv"
    with pytest.raises(ValidationError) as exc:
        save_spikes(SpikeTrace.from_trains([SpikeTrain(4, (0.5,)), SpikeTrain(9, (0.0, t)), SpikeTrain(12, (t,))]),
                    path)
    assert str(exc.value) == f"neuron 9: spike time {t!r} s {problem}"
    assert not path.exists()


def test_spike_trace_sorts_its_rows_and_checks_each_neuron():
    trace = SpikeTrace([7, 3, 7, 3], [5, 9, 1, 2])
    assert trace.neuron.tolist() == [3, 3, 7, 7] and trace.tick.tolist() == [2, 9, 1, 5]
    assert trace.neuron.dtype == trace.tick.dtype == np.int64 and len(trace) == 4
    assert trace == SpikeTrace([3, 3, 7, 7], [2, 9, 1, 5])
    assert hash(trace) == hash(SpikeTrace([3, 7, 3, 7], [9, 5, 2, 1]))
    assert trace != SpikeTrace([3, 3, 7, 7], [2, 9, 1, 6])
    ids, bounds = trace.runs()
    assert ids.tolist() == [3, 7] and bounds.tolist() == [0, 2, 4]
    ids, bounds = SpikeTrace((), ()).runs()
    assert ids.tolist() == [] and bounds.tolist() == [0]
    with pytest.raises(ValueError):
        trace.tick[0] = 0
    for neuron, tick, message in (([1, 2, 2], [4, 0, -1], "neuron 2: spike times must be >= 0"),
                                  ([1, 2, 2], [4, 3, 3], "neuron 2: spike times must strictly increase"),
                                  ([5, 5], [2**62, 2**62 + 1], "neuron 5: spike times must strictly increase"),
                                  ([1, 2], [4], "spike trace: neuron and tick columns of shapes (2,) and (1,)")):
        with pytest.raises(ValidationError) as exc:
            SpikeTrace(neuron, tick)
        assert str(exc.value) == message


def test_spike_trace_from_trains_merges_trains_of_one_neuron():
    trace = SpikeTrace.from_trains([SpikeTrain(4, (0.5, 0.75)), SpikeTrain(1, ()), SpikeTrain(4, (0.25,))])
    assert trace == SpikeTrace([4, 4, 4], [250_000_000, 500_000_000, 750_000_000])
    with pytest.raises(ValidationError, match="^neuron 4: spike times must strictly increase$"):
        SpikeTrace.from_trains([SpikeTrain(4, (0.5,)), SpikeTrain(4, (0.5,))])
    with pytest.raises(ValidationError, match="^neuron 1180591620717411303424: id does not fit int64$"):
        SpikeTrace.from_trains([SpikeTrain(4, (0.5,)), SpikeTrain(2**70, (0.5,))])


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-2**63, 2**63 - 1) | st.integers(0, 5),
                               st.integers(0, 2**51) | st.integers(0, 2**63 - 1)), max_size=30))
@example(rows=[(0, 2**63 - 1), (0, 2**63 - 2)])  # 1 ns apart, the same float second
def test_every_spike_trace_saves_and_loads_back_tick_for_tick(tmp_path_factory, rows):
    """load_spikes(save_spikes(trace)) == trace for every trace the constructor accepts."""
    try:
        trace = SpikeTrace([nid for nid, _ in rows], [tick for _, tick in rows])
    except ValidationError as exc:  # only ticks of one neuron whose seconds tick / 1e9 coincide
        assert "strictly increase" in str(exc)
        return
    path = tmp_path_factory.mktemp("trace") / "spikes.csv"
    save_spikes(trace, path)
    assert load_spikes(path) == trace


# Faults injected into a valid cluster: an index out of range, a huge index, a
# repeated (pre, post) pair, an unknown state label, a
# repeated pre-neuron id and no synapses at all.
_CLUSTER_FAULTS = ("outside", "huge", "duplicate", "label", "pre-neuron", "empty")


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), faults=st.lists(st.sampled_from(_CLUSTER_FAULTS), max_size=3))
def test_cluster_validation_matches_reference(seed, faults):
    rng = np.random.default_rng(seed)
    n_pre, n_post = (int(k) for k in rng.integers(1, 7, size=2))
    pre_neurons, post_neurons = list(range(n_pre)), list(range(100, 100 + n_post))
    mask = rng.random((n_pre, n_post)) < 0.5
    mask[rng.integers(n_pre), rng.integers(n_post)] = True
    pairs = np.transpose(np.nonzero(mask))[rng.permutation(int(mask.sum()))].tolist()
    triples = [(p, q, STATE_LABELS[k]) for (p, q), k in zip(pairs, rng.integers(4, size=len(pairs)).tolist())]
    for fault in faults:
        at = int(rng.integers(len(triples) + 1))
        if fault == "outside":
            triples.insert(at, (int(rng.choice([-1, n_pre])), 0, "HRS") if rng.random() < 0.5
                           else (0, int(rng.choice([-1, n_post])), "HRS"))
        elif fault == "huge":
            # 2**62 + 1 fits an int64, but its pair key wraps onto in-range keys
            triples.insert(at, ([2**70, -(2**70), 2**62 + 1][int(rng.integers(3))], 0, "LRS2"))
        elif fault == "duplicate" and triples:
            p, q, _ = triples[int(rng.integers(len(triples)))]
            triples.insert(at, (p, q, STATE_LABELS[int(rng.integers(4))]))
        elif fault == "label" and triples:
            p, q, _ = triples[at % len(triples)]
            triples[at % len(triples)] = (p, q, "LRS9")
        elif fault == "pre-neuron":
            pre_neurons.append(pre_neurons[0])
        elif fault == "empty":
            triples.clear()
    message = cluster_error_reference(7, pre_neurons, post_neurons, triples)
    pre, post, labels = ([t[i] for t in triples] for i in range(3))
    doc = {"clusters": [{"id": 7, "pre": pre_neurons, "post": post_neurons,
                         "synapses": {"pre": pre, "post": post, "state": labels}}]}
    builders = (lambda: Cluster(id=7, pre_neurons=pre_neurons, post_neurons=post_neurons,
                                synapses=tuple(Synapse(*t) for t in triples)),
                lambda: network_from_json(json.loads(json.dumps(doc))).clusters[0])
    # The document decoder names the state column and the first unknown label's index.
    doc_message = f"synapses.state[{labels.index('LRS9')}]: {message}" if "LRS9" in labels else message
    # The column form takes state codes; an unknown label stands for a code out of range.
    codes = [STATE_LABELS.index(lab) if lab in STATE_LABELS else len(STATE_LABELS) for lab in labels]
    columns_message = cluster_error_reference(7, pre_neurons, post_neurons, [(p, q, "HRS") for p, q in zip(pre, post)])
    if columns_message is None and "LRS9" in labels:
        columns_message = f"cluster 7: unknown resistance state code {len(STATE_LABELS)}"
    for build, expected in ((builders[0], message), (builders[1], doc_message),
                            (lambda: Cluster.from_columns(7, pre_neurons, post_neurons, pre, post, codes),
                             columns_message)):
        if expected is None:
            continue
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value) == expected
    if message is not None:
        return
    cluster = Cluster.from_columns(7, pre_neurons, post_neurons, np.array(pre), np.array(post), codes)
    for other in (builders[0](), builders[1]()):
        assert other == cluster and hash(other) == hash(cluster)
    assert [(s.pre, s.post, s.state) for s in cluster.synapses] == triples
    assert Cluster(7, cluster.pre_neurons, cluster.post_neurons, cluster.synapses) == cluster
    assert (cluster.pre.dtype, cluster.post.dtype, cluster.state.dtype) == (np.intp, np.intp, np.int8)
    for name in ("pre", "post", "state"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(cluster, name)[0] = 0


def test_cluster_columns_are_copied_and_compared_by_value():
    pre, post, state = np.array([0, 1]), np.array([0, 0]), np.array([3, 0])
    cluster = Cluster.from_columns(0, (5, 6), (7,), pre, post, state)
    pre[0] = 1
    assert cluster.pre.tolist() == [0, 1] and cluster.state.tolist() == [3, 0]
    assert cluster.synapses == (Synapse(0, 0, "HRS"), Synapse(1, 0, "LRS1"))
    assert cluster != Cluster.from_columns(0, (5, 6), (7,), [0, 1], [0, 0], [3, 1])
    assert cluster != Cluster.from_columns(1, (5, 6), (7,), [0, 1], [0, 0], [3, 0])
    with pytest.raises(ValidationError, match="synapse columns differ in length"):
        Cluster.from_columns(0, (5, 6), (7,), [0, 1], [0], [3, 0])


def test_flow_never_builds_the_synapse_view(monkeypatch, tmp_path):
    """Mapping, sweeping, saving and generating read the columns, never Cluster.synapses."""
    network = mapping_demo_network()
    infeasible = Cluster(id=9, pre_neurons=(0, 1), post_neurons=(2, 3),
                         synapses=(Synapse(0, 0, "LRS1"), Synapse(1, 1, "LRS1")))

    def refuse(self):
        raise AssertionError("Cluster.synapses built")

    monkeypatch.setattr(Cluster, "synapses", property(refuse))
    tech = preset("16nm")
    map_network(network, Hardware(crossbar_count=3, spec=CrossbarSpec(n=4, n_h=1, n_l=1)))
    map_network_control(network, Hardware(crossbar_count=3, spec=CrossbarSpec(n=4)))
    sweep_pq([network], CrossbarSpec(n=4, n_h=1, n_l=1), tech, [(2, 2), (3, 4), (4, 4)])
    network_to_json(network)
    with pytest.raises(Infeasible) as exc:
        assign_cluster(infeasible, CrossbarSpec(n=2, n_h=2, n_l=0))
    assert exc.value.violations == ["synapse 0 (LRS1) at (0,0)", "synapse 1 (LRS1) at (1,1)"]
    assert cli.main(["gen", "--clusters", "2", "--out-network", str(tmp_path / "n.json"),
                     "--out-spikes", str(tmp_path / "s.csv")]) == 0


def test_gen_and_simulate_build_no_spike_train(monkeypatch, tmp_path):
    """gen, map and simulate hold the trace as columns, and construct no SpikeTrain."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("SpikeTrain constructed")

    monkeypatch.setattr(SpikeTrain, "__init__", refuse)
    net, spikes, spec, place = (tmp_path / name for name in ("n.json", "s.csv", "spec.json", "p.json"))
    save_spec(CrossbarSpec(n=128, n_h=16, n_l=16, p=96, q=96), spec)
    assert cli.main(["gen", "--clusters", "3", "--pre", "8:40", "--post", "8:40", "--out-network", str(net),
                     "--out-spikes", str(spikes)]) == 0
    assert cli.main(["map", "--network", str(net), "--spec", str(spec), "--out", str(place)]) == 0
    assert cli.main(["simulate", "--placement", str(place), "--spikes", str(spikes), "--duration", "1.0",
                     "--out", str(tmp_path / "reports")]) == 0


def test_generate_density_one_complete_bipartite():
    params = GenParams(clusters=2, pre_range=(3, 3), post_range=(4, 4),
                       density=1.0, seed=0)
    net, _ = generate_synthetic(params)
    for cluster in net.clusters:
        assert len(cluster.synapses) == 12


def test_generate_state_mix_pure_hrs():
    params = GenParams(clusters=3, pre_range=(2, 6), post_range=(2, 6),
                       density=0.5, state_mix={"HRS": 1.0}, seed=1)
    net, _ = generate_synthetic(params)
    for cluster in net.clusters:
        assert all(s.state == "HRS" for s in cluster.synapses)


def test_generate_invalid_params():
    with pytest.raises(InvalidParams):
        GenParams(clusters=0, pre_range=(1, 2), post_range=(1, 2), density=0.5)
    with pytest.raises(InvalidParams):
        GenParams(clusters=1, pre_range=(3, 2), post_range=(1, 2), density=0.5)
    with pytest.raises(InvalidParams):
        GenParams(clusters=1, pre_range=(1, 2), post_range=(1, 2), density=0.0)
    with pytest.raises(InvalidParams):
        GenParams(clusters=1, pre_range=(1, 2), post_range=(1, 2), density=0.5,
                  state_mix={"HRS": 0.6, "LRS1": 0.6})
    with pytest.raises(InvalidParams):
        GenParams(clusters=1, pre_range=(1, 2), post_range=(1, 2), density=0.5,
                  duration=0.0)
    # Every comparison with NaN is False, so a NaN fraction passes a sign check
    # and a sum check; it would fail only in generate_synthetic's draw.
    with pytest.raises(InvalidParams, match="state_mix"):
        GenParams(clusters=1, pre_range=(1, 2), post_range=(1, 2), density=0.5,
                  state_mix={"HRS": float("nan"), "LRS1": 1.0})
    # Rejected on construction, so generate_synthetic (which would never
    # return for an infinite duration) is not reached.
    for bad in ({"duration": float("inf")}, {"duration": float("nan")},
                {"spike_rate": float("inf")}, {"spike_rate": float("nan")}):
        with pytest.raises(InvalidParams):
            GenParams(clusters=1, pre_range=(1, 1), post_range=(1, 1), density=1.0, **bad)


def test_generate_spike_trains_poisson_like():
    params = GenParams(clusters=1, pre_range=(50, 50), post_range=(2, 2),
                       density=0.2, spike_rate=100.0, duration=2.0, seed=3)
    _, trace = generate_synthetic(params)
    trains = trains_of(trace)
    counts = [len(t.times) for t in trains]
    mean_rate = sum(counts) / (50 * 2.0)
    assert 80 < mean_rate < 120
    for train in trains:
        assert all(b > a for a, b in zip(train.times, train.times[1:]))
        assert all(0 <= t < 2.0 for t in train.times)


def test_spike_csv_round_trip(tmp_path):
    trains = [SpikeTrain(neuron=3, times=(0.001, 0.0025, 0.004)),
              SpikeTrain(neuron=7, times=(0.0001,))]
    path = tmp_path / "spikes.csv"
    save_spikes(SpikeTrace.from_trains(trains), path)
    assert path.read_text() == "neuron,time_ns\n3,1000000\n3,2500000\n3,4000000\n7,100000\n"
    assert load_spikes(path) == SpikeTrace.from_trains(trains)


def test_spike_csv_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("who,when\n1,2\n")
    with pytest.raises(ParseError):
        load_spikes(path)


# --- load_spikes against the csv-and-dict loader it replaced


def _spike_outcome(loader, path):
    """The trains as (neuron, times as float.hex) pairs, or the exception's type and message."""
    try:
        return [(train.neuron, tuple(map(float.hex, train.times))) for train in loader(path)]
    except Exception as exc:  # every error is compared with the reference loader's
        return type(exc), str(exc)


def _with_underscore(text: str) -> str:
    """`text` with "_" between its first two adjacent digits (10 -> 1_0), as int() and float() accept."""
    for i in range(len(text) - 1):
        if text[i].isdigit() and text[i + 1].isdigit():
            return text[:i + 1] + "_" + text[i + 1:]
    return text


_CELL_FORMS = st.sampled_from(["{}", " {} ", "\t{}", '"{}"', '" {}"', '"{}\n"', "_"])
_GOOD_TIMES_NS = st.integers(0, 2**63 - 1).map(str) | st.sampled_from(["+7", "1_0", "-0", "00"])
_BAD_TIMES_NS = st.sampled_from(["-1", "1.0", "1e3", "1.5", "nan", "inf", "-inf", "1e400"])
_BLANK_ROWS = st.sampled_from(["", " ", "\t"])
# Rows that are no spike to int() and float(), rows only Python reads (digits outside ASCII),
# and rows that numpy's number parser reads differently (U+01FE as the digits 462, U+001C as
# white space).
_ODD_ROWS = st.sampled_from(["x,1", "1", "1,2,3", "1.0,5", "1e3,5", ",", "1,", '"1,2"', "0x1,2", "#1,2",
                             "1,2#", "1,0x1p3", f"{2**63 - 1},1", f"{-2**63},4",
                             "\u0661,5", "1,\u0662", "\u01fe,5", "1\x1c,5", "1,2\x1d"])


@st.composite
def spike_traces(draw) -> str:
    """The text of a spike trace: neurons interleaved and repeated, in save_spikes' order or
    not; duplicate, negative and non-finite times; cells quoted, padded or with "_"; blank and
    blank-looking lines, any of the three line ends, and odd rows at the start, the middle or
    the end. About half the traces hold only well-formed spikes and blank lines."""
    clean = draw(st.booleans())
    times = _GOOD_TIMES_NS if clean else _GOOD_TIMES_NS | _BAD_TIMES_NS
    rows = [(n, draw(times)) for n in draw(st.lists(st.sampled_from([0, 1, 2, 5, 17, 130, -3]), max_size=25))]
    if draw(st.booleans()):
        rows.sort(key=lambda row: (row[0], float(row[1].replace("_", ""))))

    def cell(value):
        form = draw(_CELL_FORMS)
        return _with_underscore(str(value)) if form == "_" else form.format(value)

    lines = [f"{cell(n)},{cell(t)}" for n, t in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.sampled_from([0, len(lines) // 2, len(lines)])),
                     draw(st.just("") if clean else _BLANK_ROWS | _ODD_ROWS))
    header = draw(st.sampled_from(["neuron,time_ns", " neuron , time_ns", '"neuron","time_ns"']
                                  + ([] if clean else ["neuron,time"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join([header, *lines]) + draw(st.sampled_from([end, ""]))


@settings(max_examples=400, deadline=None)
@given(text=spike_traces())
@example(text="neuron,time_ns\n5,3\n5,1\n2,-0\n2,2\n")
@example(text="neuron,time_ns\r\n1,1\r\n1,-0\r\n1,0\r\n")
@example(text="neuron,time_ns\r3,nan\r1,2\r1,1\r")
@example(text=f"neuron,time_ns\n1,{2**63 - 1}\n1,{2**63 - 2}\n")  # both read as the same float second
def test_load_spikes_matches_reference_loader(tmp_path_factory, text):
    """Same trains, bit for bit, or the same exception and message, on any trace."""
    path = tmp_path_factory.mktemp("trace") / "spikes.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _spike_outcome(lambda path: trains_of(load_spikes(path)), path) == \
        _spike_outcome(load_spikes_reference, path)


@pytest.mark.parametrize("text", ["neuron,time_ns\n", "neuron,time_ns", "neuron,time_ns\r\n\r\n\n\r"])
def test_load_spikes_reads_a_trace_without_rows_as_empty(tmp_path, text):
    """numpy warns that such a file holds no data; the warning does not reach the caller."""
    path = tmp_path / "spikes.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert load_spikes(path) == SpikeTrace((), ())
    assert caught == []


@pytest.mark.parametrize("cell", ["1.0", "1e3", "\u01fe", "1\x1c"])
def test_load_spikes_names_the_line_of_a_neuron_cell_int_refuses(tmp_path, cell):
    """numpy < 2 reads 1.0 as a neuron id with only a DeprecationWarning, and reads U+01FE as
    462 and U+001C as white space; each is still the line's ParseError."""
    path = tmp_path / "spikes.csv"
    path.write_text(f"neuron,time_ns\n1,5\n{cell},7\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"spikes\.csv:3: invalid literal for int\(\)"):
        load_spikes(path)


def test_load_spikes_parses_written_traces_in_numpy(tmp_path, monkeypatch):
    """A trace as save_spikes writes it never reaches the checked csv reader."""
    _, trace = generate_synthetic(GenParams(clusters=3, pre_range=(4, 9), post_range=(4, 9), density=0.3, seed=5))
    path = tmp_path / "spikes.csv"
    save_spikes(trace, path)
    expected = load_spikes_reference(path)

    def refuse(*args):
        raise AssertionError("the checked reader read a well-formed trace")

    monkeypatch.setattr(files, "read_table", refuse)
    assert trains_of(load_spikes(path)) == expected
