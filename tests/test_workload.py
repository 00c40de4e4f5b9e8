import json

import numpy as np
import pytest

from xbarsim import (
    Cluster,
    GenParams,
    Network,
    Route,
    SpikeTrain,
    Synapse,
    generate_synthetic,
    load_network,
    load_spikes,
    partition_simple,
    quantize_weights,
    save_network,
    save_spikes,
)
from xbarsim.fixtures import mapping_demo_network
from xbarsim.errors import InvalidParams, NonPositiveWeight, ParseError, ValidationError


def test_network_round_trip(tmp_path):
    net = mapping_demo_network()
    path = tmp_path / "net.json"
    save_network(net, path)
    assert load_network(path) == net


def test_minimal_network_file(tmp_path):
    doc = {"clusters": [{"id": 0, "pre": [1], "post": [2],
                         "synapses": [{"pre": 0, "post": 0, "state": "HRS"}]}]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    net = load_network(path)
    assert len(net.clusters) == 1
    assert net.clusters[0].synapses[0].state == "HRS"


def test_duplicate_synapse_rejected(tmp_path):
    doc = {"clusters": [{"id": 0, "pre": [1, 2], "post": [3],
                         "synapses": [{"pre": 0, "post": 0, "state": "HRS"},
                                      {"pre": 0, "post": 0, "state": "LRS1"}]}]}
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
    """Rows in any order, over several read chunks: one train per neuron, ascending ids, times sorted."""
    rng = np.random.default_rng(3)
    rows = [(int(n), float(t)) for n, t in zip(rng.integers(0, 50, 9000), rng.uniform(0, 1e6, 9000))]
    path = tmp_path / "spikes.csv"
    path.write_text("neuron,time_us\n" + "".join(f"{n},{t!r}\n" for n, t in rows))
    per_neuron = {}
    for n, t in rows:
        per_neuron.setdefault(n, []).append(t / 1e6)
    assert load_spikes(path) == [SpikeTrain(n, tuple(sorted(ts))) for n, ts in sorted(per_neuron.items())]


def test_quantize_exact_and_ties():
    labels = quantize_weights([1 / 73000, 1 / 1500])
    assert labels == ["HRS", "LRS1"]
    # Power-of-two conductances make the midpoint an exact float tie; the
    # rule sends it to the lower-resistance state.
    from xbarsim import ResistanceState
    states = (ResistanceState("LRS1", 2.0), ResistanceState("LRS2", 4.0),
              ResistanceState("LRS3", 8.0), ResistanceState("HRS", 16.0))
    midpoint = (0.25 + 0.125) / 2
    assert abs(midpoint - 0.25) == abs(midpoint - 0.125)
    assert quantize_weights([midpoint], states) == ["LRS2"]
    # The default-state midpoint is not an exact float tie; nearest wins.
    near_lrs2 = 1 / 5780 - 1e-9
    assert quantize_weights([near_lrs2]) == ["LRS2"]


def test_quantize_idempotent():
    conductances = [1 / 1500, 1 / 5780, 1 / 13600, 1 / 73000]
    once = quantize_weights(conductances)
    again = quantize_weights([{"LRS1": 1 / 1500, "LRS2": 1 / 5780,
                               "LRS3": 1 / 13600, "HRS": 1 / 73000}[lab] for lab in once])
    assert once == again == ["LRS1", "LRS2", "LRS3", "HRS"]


def test_quantize_rejects_nonpositive():
    with pytest.raises(NonPositiveWeight):
        quantize_weights([0.0])
    with pytest.raises(NonPositiveWeight):
        quantize_weights([-1e-4])


def test_generate_deterministic():
    params = GenParams(clusters=4, pre_range=(2, 10), post_range=(2, 10),
                       density=0.3, seed=7)
    net_a, trains_a = generate_synthetic(params)
    net_b, trains_b = generate_synthetic(params)
    assert net_a == net_b
    assert trains_a == trains_b


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
    # Rejected on construction, so generate_synthetic (which would never
    # return for an infinite duration) is not reached.
    for bad in ({"duration": float("inf")}, {"duration": float("nan")},
                {"spike_rate": float("inf")}, {"spike_rate": float("nan")}):
        with pytest.raises(InvalidParams):
            GenParams(clusters=1, pre_range=(1, 1), post_range=(1, 1), density=1.0, **bad)


def test_generate_spike_trains_poisson_like():
    params = GenParams(clusters=1, pre_range=(50, 50), post_range=(2, 2),
                       density=0.2, spike_rate=100.0, duration=2.0, seed=3)
    _, trains = generate_synthetic(params)
    counts = [len(t.times) for t in trains]
    mean_rate = sum(counts) / (50 * 2.0)
    assert 80 < mean_rate < 120
    for train in trains:
        assert all(b > a for a, b in zip(train.times, train.times[1:]))
        assert all(0 <= t < 2.0 for t in train.times)


def test_partition_single_neuron():
    layer = {"pre_count": 4, "post_count": 1,
             "synapses": [{"pre": i, "post": 0, "state": "HRS"} for i in range(4)]}
    clusters = partition_simple(layer, 4)
    assert len(clusters) == 1
    assert len(clusters[0].synapses) == 4


def test_partition_wide_neuron():
    layer = {"pre_count": 130, "post_count": 1,
             "synapses": [{"pre": i, "post": 0, "state": "LRS1"} for i in range(130)]}
    clusters = partition_simple(layer, 128)
    assert len(clusters) == 2
    assert sum(len(c.pre_neurons) for c in clusters) >= 130
    for c in clusters:
        assert len(c.pre_neurons) <= 128
        assert len(c.post_neurons) <= 128


def test_partition_conserves_synapses(rng):
    pre_count, post_count = 40, 30
    synapses = []
    for _ in range(200):
        synapses.append({"pre": int(rng.integers(pre_count)),
                         "post": int(rng.integers(post_count)),
                         "state": "LRS2"})
    seen = {(s["pre"], s["post"]): s["state"] for s in synapses}
    layer = {"pre_count": pre_count, "post_count": post_count,
             "synapses": [{"pre": p, "post": q, "state": st} for (p, q), st in seen.items()]}
    clusters = partition_simple(layer, 16)
    out = set()
    for c in clusters:
        for s in c.synapses:
            out.add((c.pre_neurons[s.pre], c.post_neurons[s.post], s.state))
    assert out == {(p, q, st) for (p, q), st in seen.items()}


def test_partition_empty_rejected():
    with pytest.raises(ValidationError):
        partition_simple({"pre_count": 4, "post_count": 4, "synapses": []}, 4)


def test_spike_csv_round_trip(tmp_path):
    trains = [SpikeTrain(neuron=3, times=(0.001, 0.0025, 0.004)),
              SpikeTrain(neuron=7, times=(0.0001,))]
    path = tmp_path / "spikes.csv"
    save_spikes(trains, path)
    loaded = load_spikes(path)
    assert [t.neuron for t in loaded] == [3, 7]
    for orig, back in zip(trains, loaded):
        assert back.times == pytest.approx(orig.times, rel=1e-12)


def test_spike_csv_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("who,when\n1,2\n")
    with pytest.raises(ParseError):
        load_spikes(path)
