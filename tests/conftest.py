"""Shared helpers: independent oracles, workload builders and malformed input files."""

import copy
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import settings

from xbarsim import (
    CrossbarSpec,
    Cluster,
    Hardware,
    SpikeTrace,
    SpikeTrain,
    Synapse,
    map_network,
    permits,
    preset,
    region_of,
    save_network,
    save_placement,
    save_spec,
    save_spikes,
)
from xbarsim.crossbar import STATE_LABELS
from xbarsim.fixtures import mapping_demo_network

# CI passes --hypothesis-profile=ci: examples come from a fixed seed and no
# example has a deadline, so a failure there reproduces locally with the same flag.
settings.register_profile("ci", derandomize=True, deadline=None)

ALL_STATES = ("LRS1", "LRS2", "LRS3", "HRS")

# Specs for the memo checks: P < N, Q < N and non-empty resistance regions, plus a plain N = 9.
MEMO_SPECS = (CrossbarSpec(n=12, n_h=3, n_l=3, p=8, q=7), CrossbarSpec(n=16, n_h=4, n_l=2, p=16, q=9),
              CrossbarSpec(n=16, n_h=0, n_l=5, p=5, q=16), CrossbarSpec(n=9))


def elmore_tap_oracle(position, line_length, r_unit, c_unit):
    """Brute-force Elmore delay: sum over upstream resistors of r times the
    capacitance hanging downstream of that resistor, on a uniform line."""
    total = 0.0
    for i in range(1, position + 1):
        downstream_caps = line_length - i + 1
        total += r_unit * downstream_caps * c_unit
    return total


def trains_of(trace: SpikeTrace) -> list[SpikeTrain]:
    """The trace as one SpikeTrain per neuron that spikes, in neuron order, its times tick / 1e9 seconds."""
    per_neuron = {}
    for nid, tick in zip(trace.neuron.tolist(), trace.tick.tolist()):
        per_neuron.setdefault(nid, []).append(tick / 1e9)
    return [SpikeTrain(nid, tuple(times)) for nid, times in per_neuron.items()]


def random_cluster(rng, cid, n_pre, n_post, density, state_probs=None, id_base=0):
    """Random cluster with states drawn independently of any placement."""
    probs = state_probs or [0.25, 0.25, 0.25, 0.25]
    mask = rng.random((n_pre, n_post)) < density
    if not mask.any():
        mask[0, 0] = True
    pre_i, post_i = np.nonzero(mask)
    picks = rng.choice(len(ALL_STATES), size=len(pre_i), p=probs)
    synapses = tuple(Synapse(int(i), int(j), ALL_STATES[int(k)])
                     for i, j, k in zip(pre_i, post_i, picks))
    return Cluster(id=cid, pre_neurons=tuple(range(id_base, id_base + n_pre)),
                   post_neurons=tuple(range(id_base + n_pre, id_base + n_pre + n_post)),
                   synapses=synapses)


def planted_cluster(rng, cid, spec: CrossbarSpec, size_hi=128, lo_d=0.02, hi_d=0.25,
                    id_base=0):
    """Cluster guaranteed mappable: neurons get cells first, states follow.

    Every synapse's state is legal at its planted cell, so a region-respecting
    placement exists by construction (the planted one).
    """
    n = spec.n
    n_pre = int(rng.integers(1, size_hi + 1))
    n_post = int(rng.integers(1, size_hi + 1))
    rows = rng.permutation(n)[:n_pre]
    cols = rng.permutation(n)[:n_post]
    density = float(rng.uniform(lo_d, hi_d))
    mask = rng.random((n_pre, n_post)) < density
    if not mask.any():
        mask[0, 0] = True
    pre_i, post_i = np.nonzero(mask)
    synapses = []
    for i, j in zip(pre_i, post_i):
        allowed = sorted(region_of(int(rows[i]), int(cols[j]), spec).permitted_states)
        state = allowed[int(rng.integers(len(allowed)))]
        synapses.append(Synapse(int(i), int(j), state))
    return Cluster(id=cid,
                   pre_neurons=tuple(range(id_base, id_base + n_pre)),
                   post_neurons=tuple(range(id_base + n_pre, id_base + n_pre + n_post)),
                   synapses=tuple(synapses))


def feasible_by_enumeration(cluster, spec: CrossbarSpec) -> bool:
    """Whether some injective seating of the cluster puts each synapse on a cell whose region permits
    its state (crossbar.permits): every seating is tried for N <= 4, every band choice above that."""
    if spec.n > 4:
        return feasible_by_bands(cluster, spec)
    slots = range(spec.n)
    return _some_choice_permits(cluster, spec, slots, itertools.permutations(slots, len(cluster.pre_neurons)),
                                itertools.permutations(slots, len(cluster.post_neurons)))


def feasible_by_bands(cluster, spec: CrossbarSpec) -> bool:
    """The same verdict from every choice of band per neuron: near (slots < N_h), middle or far
    (slots >= N - N_l), each band taking at most its slot count per axis. A cell's region depends
    only on its row's band and its column's, so the band's first slot stands for it."""
    caps = (spec.n_h, spec.n - spec.n_h - spec.n_l, spec.n_l)
    # An empty band's stand-in slot is clipped into the crossbar; no choice takes that band.
    firsts = [min(slot, spec.n - 1) for slot in (0, spec.n_h, spec.n - spec.n_l)]

    def choices(k):
        return [bands for bands in itertools.product(range(3), repeat=k)
                if all(bands.count(band) <= cap for band, cap in enumerate(caps))]

    return _some_choice_permits(cluster, spec, firsts, choices(len(cluster.pre_neurons)),
                                choices(len(cluster.post_neurons)))


def _some_choice_permits(cluster, spec, slots, row_choices, col_choices) -> bool:
    """Whether some pair of a row choice and a column choice permits every synapse; a choice
    holds an index into `slots` per neuron."""
    allowed = np.array([[[permits(r, c, label, spec) for c in slots] for r in slots] for label in STATE_LABELS])
    rows = np.array(list(row_choices), dtype=np.intp).reshape(-1, len(cluster.pre_neurons))
    cols = np.array(list(col_choices), dtype=np.intp).reshape(-1, len(cluster.post_neurons))
    return bool(allowed[cluster.state, rows[:, None, cluster.pre], cols[None, :, cluster.post]].all(-1).any())


def seated_cluster(synapses, cluster_id=0, row_of_pre=None, col_of_post=None) -> dict:
    """CrossbarPlacement arguments cluster, rows and cols holding the given
    PlacedSynapse records. Each neuron sits where its records put it;
    row_of_pre and col_of_post ({neuron id: seat}) may seat more neurons,
    ones with no synapse. Neurons are in id order."""
    row_of = {s.pre: s.row for s in synapses} | (row_of_pre or {})
    col_of = {s.post: s.col for s in synapses} | (col_of_post or {})
    assert all((row_of[s.pre], col_of[s.post]) == (s.row, s.col) for s in synapses), "records disagree on a seat"
    pre, post = sorted(row_of), sorted(col_of)
    pre_index, post_index = {nid: i for i, nid in enumerate(pre)}, {nid: i for i, nid in enumerate(post)}
    cluster = Cluster.from_columns(cluster_id, pre, post, [pre_index[s.pre] for s in synapses],
                                   [post_index[s.post] for s in synapses],
                                   [STATE_LABELS.index(s.state) for s in synapses])
    return {"cluster": cluster, "rows": [row_of[nid] for nid in pre], "cols": [col_of[nid] for nid in post]}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _seat_first_synapse(xb, row):
    """Move the pre-neuron of the first synapse to `row`."""
    xb["rows"][xb["cluster"]["synapses"]["pre"][0]] = row


def _repeat_first_synapse(xb):
    """Append a copy of the first synapse, so that two synapses share its cell."""
    for column in xb["cluster"]["synapses"].values():
        column.append(column[0])


def _share_a_row(doc):
    """Seat a pre-neuron on the row of another that reaches none of its post-neurons, so that every cell stays
    distinct while two pre-neurons share a row."""
    for xb in doc["crossbars"]:
        synapses = xb["cluster"]["synapses"]
        posts = [{q for p, q in zip(synapses["pre"], synapses["post"]) if p == i} for i in range(len(xb["rows"]))]
        pair = next(((i, j) for j in range(len(posts)) for i in range(j) if not posts[i] & posts[j]), None)
        if pair:
            xb["rows"][pair[1]] = xb["rows"][pair[0]]
            return
    raise AssertionError("no crossbar has two pre-neurons without a common post-neuron")


def _seat_idle_neuron_outside(xb):
    """Add a pre-neuron with no synapse, seated at row 999, outside the crossbar."""
    xb["cluster"]["pre"].append(999)
    xb["rows"].append(999)


def _previous_layout(xb):
    """Store the crossbar as the layout before seat vectors did: a cluster id,
    seat maps keyed by neuron id, and per-synapse cells with global ids."""
    cluster = xb.pop("cluster")
    synapses = cluster["synapses"]
    xb.update(cluster=cluster["id"],
              rows={str(nid): row for nid, row in zip(cluster["pre"], xb["rows"])},
              cols={str(nid): col for nid, col in zip(cluster["post"], xb["cols"])},
              synapses={"pre": [cluster["pre"][i] for i in synapses["pre"]],
                        "post": [cluster["post"][j] for j in synapses["post"]], "state": synapses["state"],
                        "row": [xb["rows"][i] for i in synapses["pre"]],
                        "col": [xb["cols"][j] for j in synapses["post"]]})


def _set_first(column, value):
    """An edit setting entry 0, the first synapse's, of a synapse column."""
    return lambda holder: holder["synapses"][column].__setitem__(0, value)


def _as_records(holder):
    """Store the synapses in the layout before columns: one record per synapse."""
    synapses = holder["synapses"]
    holder["synapses"] = [dict(zip(synapses, values)) for values in zip(*synapses.values())]


# faults in the synapse columns of a cluster or crossbar; the network and
# placement documents share one synapse decoder, so both tables carry each one
SYNAPSE_FAULTS = {
    "synapse-pre-inf": _set_first("pre", math.inf),
    "synapse-pre-fraction": _set_first("pre", 0.9),
    "synapse-pre-true": _set_first("pre", True),
    "synapse-state-lrs9": _set_first("state", "LRS9"),
    "synapse-state-missing": lambda holder: holder["synapses"].pop("state"),
    "synapse-column-not-a-list": lambda holder: holder["synapses"].update(post=holder["synapses"]["post"][0]),
    "synapse-columns-unequal": lambda holder: holder["synapses"]["post"].append(0),
    "synapse-record-layout": _as_records,
}


def _first_crossbar(edit):
    return lambda doc: edit(doc["crossbars"][0])


def _first_placed_cluster(edit):
    return lambda doc: edit(doc["crossbars"][0]["cluster"])


def _second_crossbar_copies(key):
    """An edit giving the second crossbar the first one's `key`."""
    return lambda doc: doc["crossbars"][1].update({key: doc["crossbars"][0][key]})


# placement documents that parse as JSON but are malformed or unsound; each
# edits a valid placement of 3 crossbars and one route, most its first crossbar
BAD_PLACEMENTS = {
    "rows-not-a-list": _first_crossbar(lambda xb: xb.update(rows=dict(zip(map(str, xb["cluster"]["pre"]),
                                                                          xb["rows"])))),
    "config-zz": _first_crossbar(lambda xb: xb.update(config="zz")),
    "config-01-single": _first_crossbar(lambda xb: xb.update(config="01", spec={**xb["spec"], "control": "single"})),
    "row-minus-1": _first_crossbar(lambda xb: _seat_first_synapse(xb, -1)),
    "row-500": _first_crossbar(lambda xb: _seat_first_synapse(xb, 500)),
    "state-lrs9": _first_placed_cluster(SYNAPSE_FAULTS["synapse-state-lrs9"]),
    "pre-not-in-rows": _first_crossbar(lambda xb: xb["rows"].pop(xb["cluster"]["synapses"]["pre"][0])),
    "cell-shared": _first_crossbar(_repeat_first_synapse),
    "rows-shared": _share_a_row,
    "seat-outside": _first_crossbar(_seat_idle_neuron_outside),
    "rows-fraction": _first_crossbar(lambda xb: xb.update(rows=[row + 0.25 for row in xb["rows"]])),
    "previous-layout": _first_crossbar(_previous_layout),
    "cluster-not-an-object": _first_crossbar(lambda xb: xb.update(cluster=[3])),
    # state-lrs9 (above) is the synapse-state-lrs9 fault
    **{name: _first_placed_cluster(fault)
       for name, fault in SYNAPSE_FAULTS.items() if name != "synapse-state-lrs9"},
    "spec-n-huge": _first_crossbar(lambda xb: xb["spec"].update(n=2**70)),
    "crossbar-count-minus-1": lambda doc: doc.update(crossbar_count=-1),
    "crossbar-count-below-placed": lambda doc: doc.update(crossbar_count=1),
    "crossbar-id-repeated": _second_crossbar_copies("id"),
    "cluster-repeated": lambda doc: doc["crossbars"][1]["cluster"].update(id=doc["crossbars"][0]["cluster"]["id"]),
    "route-src-cluster-missing": lambda doc: doc["routes"][0].update(src_cluster=99),
    "route-dst-neuron-missing": lambda doc: doc["routes"][0].update(dst_neuron=99),
    "crossbars-empty": lambda doc: doc.update(crossbars=[]),
}


def _first_cluster(edit):
    return lambda doc: edit(doc["clusters"][0])


# network documents that parse as JSON (with its Infinity extension) but hold
# an id that is not an integer or that no intp holds, a fractional hop count
# or bad synapse columns; each edits a valid network
BAD_NETWORKS = {
    **{name: _first_cluster(fault) for name, fault in SYNAPSE_FAULTS.items()},
    "id-inf": _first_cluster(lambda cluster: cluster.update(id=math.inf)),
    "cluster-not-an-object": lambda doc: doc["clusters"].__setitem__(0, 3),
    "clusters-not-a-list": lambda doc: doc.update(clusters=3),
    "clusters-empty": lambda doc: doc.update(clusters=[]),
    "cluster-pre-missing": _first_cluster(lambda cluster: cluster.pop("pre")),
    "route-not-an-object": lambda doc: doc["routes"].__setitem__(0, 3),
    "routes-not-a-list": lambda doc: doc.update(routes=3),
    "pre-neuron-huge": _first_cluster(lambda cluster: cluster["pre"].__setitem__(0, 2**70)),
    # no route names the last cluster, and int() would read 2.5 as a fresh id
    "last-cluster-id-fraction": lambda doc: doc["clusters"][-1].update(id=2.5),
    "route-hops-fraction": lambda doc: doc["routes"][0].update(hops=2.5),
}


def write_boundary_files(directory):
    """Valid inputs for every command, plus malformed files, into `directory`.

    Valid: net.json and its copy other/net.json, spec.json (N = 4), spk.csv,
    placement.json. Malformed: bad.json (invalid JSON), bad.bin (not UTF-8),
    spk-inf.csv and spk-nan.csv (a non-finite spike time), spk-fraction.csv
    (100.5 ns), spk-huge.csv (2**70 ns), spk-neuron-huge.csv (a neuron id no
    intp holds), spk-time-us.csv (the earlier neuron,time_us layout), spec-n-inf.json
    (N = Infinity), spec-p-fraction.json (P = 2.5), spec-n-huge.json (N = 2**70),
    spec-n-huge-regions.json (N = 2**70, N_h = 4), spec-n-digits.json (N of
    5,000 nines, beyond Python's integer digit limit), spec-p-huge.json and
    spec-n-h-huge.json (N = 4 and P or N_h = 2**200), spec-list.json and
    spec-string.json (a spec document of [] and of "x"), tech-huge.json (an energy
    no float holds), tech-inf.json and tech-nan.json (a non-finite energy),
    tech-bool.json and tech-string.json (an energy of true and of "2.36e-11"),
    tech-ohms-bool.json (a state of true ohms), tech-node-int.json (node 5),
    tech-c-sense-overflow.json and tech-t-iso-overflow.json (finite values,
    c_sense 1e305 and t_iso_on 1.7e308, whose latencies overflow),
    net-<name>.json for each BAD_NETWORKS entry and placement-<name>.json for
    each BAD_PLACEMENTS entry.
    """
    network = mapping_demo_network()
    spec = CrossbarSpec(n=4)
    save_network(network, directory / "net.json")
    (directory / "other").mkdir()
    save_network(network, directory / "other" / "net.json")
    save_spec(spec, directory / "spec.json")
    pre = [nid for c in network.clusters for nid in c.pre_neurons]
    save_spikes(SpikeTrace.from_trains([SpikeTrain(neuron=nid, times=(0.1, (20 + nid) / 100)) for nid in pre]),
                directory / "spk.csv")
    placement = map_network(network, Hardware(crossbar_count=3, spec=spec))
    save_placement(placement, directory / "placement.json")
    (directory / "bad.json").write_text("{not json")
    (directory / "bad.bin").write_bytes(b"\xff\xfe\x00\x81neuron,time_ns\r\n")
    for name, value in (("inf", "inf"), ("nan", "nan"), ("fraction", "100.5"), ("huge", 2**70)):
        (directory / f"spk-{name}.csv").write_text(f"neuron,time_ns\n{pre[0]},100000\n{pre[0]},{value}\n")
    (directory / "spk-neuron-huge.csv").write_text(f"neuron,time_ns\n{pre[0]},100000\n{2**70},200000\n")
    (directory / "spk-time-us.csv").write_text(f"neuron,time_us\n{pre[0]},100.0\n{pre[0]},200.0\n")
    (directory / "spec-n-inf.json").write_text(json.dumps({**spec.to_json(), "n": math.inf}))
    (directory / "spec-p-fraction.json").write_text(json.dumps({**spec.to_json(), "p": 2.5}))
    (directory / "spec-n-huge.json").write_text(json.dumps({"n": 2**70}))
    (directory / "spec-n-huge-regions.json").write_text(json.dumps({"n": 2**70, "n_h": 4}))
    (directory / "spec-n-digits.json").write_text('{"n": ' + "9" * 5000 + "}")
    (directory / "spec-p-huge.json").write_text(json.dumps({"n": 4, "p": 2**200}))
    (directory / "spec-n-h-huge.json").write_text(json.dumps({"n": 4, "n_h": 2**200}))
    (directory / "spec-list.json").write_text("[]")
    (directory / "spec-string.json").write_text('"x"')
    tech = preset("16nm").to_json()
    for name, value in (("huge", 2**1100), ("inf", math.inf), ("nan", math.nan), ("bool", True),
                        ("string", "2.36e-11")):
        (directory / f"tech-{name}.json").write_text(json.dumps({**tech, "e_spike": value}))
    states = [dict(state) for state in tech["states"]]
    states[0]["ohms"] = True
    (directory / "tech-ohms-bool.json").write_text(json.dumps({**tech, "states": states}))
    (directory / "tech-node-int.json").write_text(json.dumps({**tech, "node": 5}))
    (directory / "tech-c-sense-overflow.json").write_text(json.dumps({**tech, "c_sense": 1e305}))
    (directory / "tech-t-iso-overflow.json").write_text(json.dumps({**tech, "t_iso_on": 1.7e308}))
    doc = json.loads((directory / "net.json").read_text())
    for name, edit in BAD_NETWORKS.items():
        bad = copy.deepcopy(doc)
        edit(bad)
        (directory / f"net-{name}.json").write_text(json.dumps(bad))
    doc = json.loads((directory / "placement.json").read_text())
    for name, edit in BAD_PLACEMENTS.items():
        bad = copy.deepcopy(doc)
        edit(bad)
        (directory / f"placement-{name}.json").write_text(json.dumps(bad))
