"""Shared helpers: independent oracles, workload builders and malformed input files."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import settings

from xbarsim import (
    CrossbarSpec,
    Cluster,
    Hardware,
    SpikeTrain,
    Synapse,
    map_network,
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


def synapse_columns(synapses) -> dict:
    """CrossbarPlacement column arguments holding the given PlacedSynapse records."""
    return {"pre": [s.pre for s in synapses], "post": [s.post for s in synapses],
            "state": [STATE_LABELS.index(s.state) for s in synapses],
            "row": [s.row for s in synapses], "col": [s.col for s in synapses]}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _seat_first_synapse(xb, row):
    """Move the first synapse, and its pre-neuron, to `row`."""
    syn = xb["synapses"][0]
    syn["row"] = row
    xb["rows"][str(syn["pre"])] = row


# faults in a document's first synapse record; the network and placement
# documents share one synapse record decoder, so both tables carry each one
SYNAPSE_FAULTS = {
    "synapse-pre-inf": lambda record: record.update(pre=math.inf),
    "synapse-pre-fraction": lambda record: record.update(pre=0.9),
    "synapse-pre-true": lambda record: record.update(pre=True),
    "synapse-state-lrs9": lambda record: record.update(state="LRS9"),
    "synapse-state-missing": lambda record: record.pop("state"),
}


def _first_synapse(fault):
    return lambda container: fault(container["synapses"][0])


# placement documents that parse as JSON but are malformed or unsound;
# each edits the first crossbar of a valid placement
BAD_PLACEMENTS = {
    "rows-not-a-map": lambda xb: xb.update(rows=[]),
    "config-zz": lambda xb: xb.update(config="zz"),
    "config-01-single": lambda xb: xb.update(config="01", spec={**xb["spec"], "control": "single"}),
    "row-minus-1": lambda xb: _seat_first_synapse(xb, -1),
    "row-500": lambda xb: _seat_first_synapse(xb, 500),
    "state-lrs9": _first_synapse(SYNAPSE_FAULTS["synapse-state-lrs9"]),
    "pre-not-in-rows": lambda xb: xb["rows"].pop(str(xb["synapses"][0]["pre"])),
    "cell-shared": lambda xb: xb["synapses"].append(dict(xb["synapses"][0])),
    "rows-fraction": lambda xb: xb["rows"].update({key: value + 0.25 for key, value in xb["rows"].items()}),
    # state-lrs9 (above) is the synapse-state-lrs9 fault
    **{name: _first_synapse(fault) for name, fault in SYNAPSE_FAULTS.items() if name != "synapse-state-lrs9"},
}


def _first_cluster(edit):
    return lambda doc: edit(doc["clusters"][0])


# network documents that parse as JSON (with its Infinity extension) but hold
# an id that is not an integer or that no intp holds, a fractional hop count
# or a bad synapse record; each edits a valid network
BAD_NETWORKS = {
    **{name: _first_cluster(_first_synapse(fault)) for name, fault in SYNAPSE_FAULTS.items()},
    "id-inf": _first_cluster(lambda cluster: cluster.update(id=math.inf)),
    "pre-neuron-huge": _first_cluster(lambda cluster: cluster["pre"].__setitem__(0, 2**70)),
    # no route names the last cluster, and int() would read 2.5 as a fresh id
    "last-cluster-id-fraction": lambda doc: doc["clusters"][-1].update(id=2.5),
    "route-hops-fraction": lambda doc: doc["routes"][0].update(hops=2.5),
}


def write_boundary_files(directory):
    """Valid inputs for every command, plus malformed files, into `directory`.

    Valid: net.json and its copy other/net.json, spec.json (N = 4), spk.csv,
    placement.json. Malformed: bad.json (invalid JSON), bad.bin (not UTF-8),
    spk-inf.csv and spk-nan.csv (a non-finite spike time),
    spk-neuron-huge.csv (a neuron id no intp holds), spec-n-inf.json
    (N = Infinity), spec-p-fraction.json (P = 2.5), tech-huge.json (an energy
    no float holds), tech-inf.json and tech-nan.json (a non-finite energy),
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
    save_spikes([SpikeTrain(neuron=nid, times=(0.1, 0.2 + 0.01 * nid)) for nid in pre], directory / "spk.csv")
    placement = map_network(network, Hardware(crossbar_count=3, spec=spec, tech=preset("16nm")))
    save_placement(placement, directory / "placement.json")
    (directory / "bad.json").write_text("{not json")
    (directory / "bad.bin").write_bytes(b"\xff\xfe\x00\x81neuron,time_us\r\n")
    for value in ("inf", "nan"):
        (directory / f"spk-{value}.csv").write_text(f"neuron,time_us\n{pre[0]},100.0\n{pre[0]},{value}\n")
    (directory / "spk-neuron-huge.csv").write_text(f"neuron,time_us\n{pre[0]},100.0\n{2**70},200.0\n")
    (directory / "spec-n-inf.json").write_text(json.dumps({**spec.to_json(), "n": math.inf}))
    (directory / "spec-p-fraction.json").write_text(json.dumps({**spec.to_json(), "p": 2.5}))
    for name, value in (("huge", 2**1100), ("inf", math.inf), ("nan", math.nan)):
        (directory / f"tech-{name}.json").write_text(json.dumps({**preset("16nm").to_json(), "e_spike": value}))
    doc = json.loads((directory / "net.json").read_text())
    for name, edit in BAD_NETWORKS.items():
        bad = copy.deepcopy(doc)
        edit(bad)
        (directory / f"net-{name}.json").write_text(json.dumps(bad))
    doc = json.loads((directory / "placement.json").read_text())
    for name, edit in BAD_PLACEMENTS.items():
        bad = copy.deepcopy(doc)
        edit(bad["crossbars"][0])
        (directory / f"placement-{name}.json").write_text(json.dumps(bad))
