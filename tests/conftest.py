"""Shared helpers: independent oracles, workload builders and malformed input files."""

import copy
import json

import numpy as np
import pytest

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
from xbarsim.fixtures import mapping_demo_network

ALL_STATES = ("LRS1", "LRS2", "LRS3", "HRS")


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _seat_first_synapse(xb, row):
    """Move the first synapse, and its pre-neuron, to `row`."""
    syn = xb["synapses"][0]
    syn["row"] = row
    xb["rows"][str(syn["pre"])] = row


# placement documents that parse as JSON but are malformed or unsound;
# each edits the first crossbar of a valid placement
BAD_PLACEMENTS = {
    "rows-not-a-map": lambda xb: xb.update(rows=[]),
    "config-zz": lambda xb: xb.update(config="zz"),
    "config-01-single": lambda xb: xb.update(config="01", spec={**xb["spec"], "control": "single"}),
    "row-minus-1": lambda xb: _seat_first_synapse(xb, -1),
    "row-500": lambda xb: _seat_first_synapse(xb, 500),
}


def write_boundary_files(directory):
    """Valid inputs for every command, plus malformed files, into `directory`.

    Valid: net.json, spec.json (N = 4), spk.csv, placement.json. Malformed:
    bad.json (invalid JSON), bad.bin (not UTF-8) and placement-<name>.json
    for each BAD_PLACEMENTS entry.
    """
    network = mapping_demo_network()
    spec = CrossbarSpec(n=4)
    save_network(network, directory / "net.json")
    save_spec(spec, directory / "spec.json")
    pre = [nid for c in network.clusters for nid in c.pre_neurons]
    save_spikes([SpikeTrain(neuron=nid, times=(0.1, 0.2 + 0.01 * nid)) for nid in pre], directory / "spk.csv")
    placement = map_network(network, Hardware(crossbar_count=3, spec=spec, tech=preset("16nm")))
    save_placement(placement, directory / "placement.json")
    (directory / "bad.json").write_text("{not json")
    (directory / "bad.bin").write_bytes(b"\xff\xfe\x00\x81neuron,time_us\r\n")
    doc = json.loads((directory / "placement.json").read_text())
    for name, edit in BAD_PLACEMENTS.items():
        bad = copy.deepcopy(doc)
        edit(bad["crossbars"][0])
        (directory / f"placement-{name}.json").write_text(json.dumps(bad))
