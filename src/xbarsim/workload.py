"""SNN workload handling: clusters, spike traces, synthesis, quantization.

A network arrives pre-partitioned into clusters, each small enough for one
crossbar: pre-synaptic neurons drive rows, post-synaptic neurons sink on
columns, and every synapse names a (pre index, post index, resistance state)
triple. Inter-cluster traffic is summarized as routes with a fixed hop count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .crossbar import HRS, LRS1, LRS2, LRS3, STATE_LABELS
from .errors import InvalidParams, NonPositiveWeight, ValidationError
from .files import read_json, read_table, write_json, write_table
from .techmodel import DEFAULT_STATES


@dataclass(frozen=True)
class Synapse:
    pre: int   # index into Cluster.pre_neurons
    post: int  # index into Cluster.post_neurons
    state: str

    def __post_init__(self):
        if self.state not in STATE_LABELS:
            raise ValidationError(f"unknown resistance state {self.state!r}")


@dataclass(frozen=True)
class Cluster:
    id: int
    pre_neurons: tuple[int, ...]
    post_neurons: tuple[int, ...]
    synapses: tuple[Synapse, ...]

    def __post_init__(self):
        object.__setattr__(self, "pre_neurons", tuple(self.pre_neurons))
        object.__setattr__(self, "post_neurons", tuple(self.post_neurons))
        object.__setattr__(self, "synapses", tuple(self.synapses))
        if len(set(self.pre_neurons)) != len(self.pre_neurons):
            raise ValidationError(f"cluster {self.id}: duplicate pre-neuron ids")
        if len(set(self.post_neurons)) != len(self.post_neurons):
            raise ValidationError(f"cluster {self.id}: duplicate post-neuron ids")
        if not self.synapses:
            raise ValidationError(f"cluster {self.id}: at least one synapse required")
        seen = set()
        for s in self.synapses:
            if not (0 <= s.pre < len(self.pre_neurons) and 0 <= s.post < len(self.post_neurons)):
                raise ValidationError(f"cluster {self.id}: synapse ({s.pre},{s.post}) index out of range")
            if (s.pre, s.post) in seen:
                raise ValidationError(f"cluster {self.id}: duplicate synapse ({s.pre},{s.post})")
            seen.add((s.pre, s.post))


@dataclass(frozen=True)
class Route:
    src_cluster: int
    src_neuron: int
    dst_cluster: int
    dst_neuron: int
    hops: int

    def __post_init__(self):
        if self.hops < 1:
            raise ValidationError(f"route hop count must be >= 1, got {self.hops}")


@dataclass(frozen=True)
class Network:
    clusters: tuple[Cluster, ...]
    routes: tuple[Route, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "clusters", tuple(self.clusters))
        object.__setattr__(self, "routes", tuple(self.routes))
        by_id = {c.id: c for c in self.clusters}
        if len(by_id) != len(self.clusters):
            raise ValidationError("duplicate cluster ids")
        for r in self.routes:
            for cid, nid, side in ((r.src_cluster, r.src_neuron, "src"), (r.dst_cluster, r.dst_neuron, "dst")):
                c = by_id.get(cid)
                if c is None:
                    raise ValidationError(f"route {side} references missing cluster {cid}")
                if nid not in c.pre_neurons and nid not in c.post_neurons:
                    raise ValidationError(f"route {side} neuron {nid} not in cluster {cid}")

    def cluster(self, cid: int) -> Cluster:
        for c in self.clusters:
            if c.id == cid:
                return c
        raise ValidationError(f"no cluster with id {cid}")


@dataclass(frozen=True)
class SpikeTrain:
    neuron: int
    times: tuple[float, ...]  # seconds, strictly increasing

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        if any(t < 0 for t in self.times):
            raise ValidationError(f"neuron {self.neuron}: spike times must be >= 0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValidationError(f"neuron {self.neuron}: spike times must strictly increase")


# ---------------------------------------------------------------------------
# file formats


def _routes_to_json(routes) -> list:
    """Route records shared by the network and placement documents."""
    return [{"src_cluster": r.src_cluster, "src_neuron": r.src_neuron,
             "dst_cluster": r.dst_cluster, "dst_neuron": r.dst_neuron, "hops": r.hops}
            for r in routes]


def _routes_from_json(docs) -> tuple[Route, ...]:
    return tuple(Route(int(r["src_cluster"]), int(r["src_neuron"]),
                       int(r["dst_cluster"]), int(r["dst_neuron"]), int(r["hops"]))
                 for r in docs)


def network_to_json(network: Network) -> dict:
    return {
        "clusters": [
            {
                "id": c.id,
                "pre": list(c.pre_neurons),
                "post": list(c.post_neurons),
                "synapses": [{"pre": s.pre, "post": s.post, "state": s.state} for s in c.synapses],
            }
            for c in network.clusters
        ],
        "routes": _routes_to_json(network.routes),
    }


def network_from_json(doc: dict) -> Network:
    try:
        clusters = tuple(
            Cluster(
                id=int(c["id"]),
                pre_neurons=tuple(int(x) for x in c["pre"]),
                post_neurons=tuple(int(x) for x in c["post"]),
                synapses=tuple(Synapse(int(s["pre"]), int(s["post"]), str(s["state"])) for s in c["synapses"]),
            )
            for c in doc["clusters"]
        )
        routes = _routes_from_json(doc.get("routes", ()))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad network document: {exc}") from exc
    return Network(clusters=clusters, routes=routes)


def load_network(path) -> Network:
    return network_from_json(read_json(path))


def save_network(network: Network, path) -> None:
    write_json(network_to_json(network), path)


_SPIKE_COLUMNS = {"neuron": int, "time_us": float}


def load_spikes(path) -> list[SpikeTrain]:
    """Read a spike trace CSV with header `neuron,time_us` (times in us)."""
    per_neuron: dict[int, list[float]] = {}
    for neuron, t_us in read_table(path, _SPIKE_COLUMNS, "spike"):
        per_neuron.setdefault(neuron, []).append(t_us / 1e6)
    return [SpikeTrain(neuron=nid, times=tuple(sorted(ts))) for nid, ts in sorted(per_neuron.items())]


def save_spikes(trains, path) -> None:
    write_table(path, _SPIKE_COLUMNS,
                ([train.neuron, repr(t * 1e6)] for train in trains for t in train.times))


# ---------------------------------------------------------------------------
# quantization


def quantize_weights(weights, states=DEFAULT_STATES) -> list[str]:
    """Map positive conductances to the nearest-state labels.

    Distance is measured in conductance; exact ties go to the lower-resistance
    (higher-conductance) state.
    """
    ordered = sorted(states, key=lambda s: s.resistance)
    labels = []
    for w in weights:
        if w <= 0:
            raise NonPositiveWeight(f"conductance must be positive, got {w}")
        best = min(ordered, key=lambda s: abs(w - s.conductance))  # min is stable: first = lowest resistance
        labels.append(best.label)
    return labels


# ---------------------------------------------------------------------------
# synthetic workloads


@dataclass(frozen=True)
class GenParams:
    clusters: int
    pre_range: tuple[int, int]
    post_range: tuple[int, int]
    density: float
    state_mix: dict = field(default_factory=lambda: {HRS: 0.25, LRS1: 0.25, LRS2: 0.25, LRS3: 0.25})
    spike_rate: float = 30.0  # Hz
    duration: float = 1.0     # seconds
    seed: int = 0

    def __post_init__(self):
        if self.clusters < 1:
            raise InvalidParams("need at least one cluster")
        for name, (lo, hi) in (("pre_range", self.pre_range), ("post_range", self.post_range)):
            if not (1 <= lo <= hi):
                raise InvalidParams(f"{name} must satisfy 1 <= lo <= hi, got ({lo},{hi})")
        if not (0 < self.density <= 1):
            raise InvalidParams(f"density must be in (0,1], got {self.density}")
        if set(self.state_mix) - set(STATE_LABELS):
            raise InvalidParams(f"unknown states in mix: {set(self.state_mix) - set(STATE_LABELS)}")
        if any(v < 0 for v in self.state_mix.values()) or abs(sum(self.state_mix.values()) - 1.0) > 1e-9:
            raise InvalidParams("state_mix fractions must be non-negative and sum to 1")
        if self.spike_rate < 0 or self.duration <= 0:
            raise InvalidParams("spike_rate must be >= 0 and duration > 0")


def generate_synthetic(params: GenParams) -> tuple[Network, list[SpikeTrain]]:
    """Deterministic random workload: clusters, routes, Poisson spike trains."""
    rng = np.random.default_rng(params.seed)
    mix_labels = sorted(params.state_mix)
    mix_probs = np.array([params.state_mix[k] for k in mix_labels])

    clusters = []
    next_id = 0
    for cid in range(params.clusters):
        n_pre = int(rng.integers(params.pre_range[0], params.pre_range[1] + 1))
        n_post = int(rng.integers(params.post_range[0], params.post_range[1] + 1))
        pre_ids = tuple(range(next_id, next_id + n_pre))
        next_id += n_pre
        post_ids = tuple(range(next_id, next_id + n_post))
        next_id += n_post
        if params.density >= 1.0:
            mask = np.ones((n_pre, n_post), dtype=bool)
        else:
            mask = rng.random((n_pre, n_post)) < params.density
            if not mask.any():
                mask[rng.integers(n_pre), rng.integers(n_post)] = True
        pre_idx, post_idx = np.nonzero(mask)
        picks = rng.choice(len(mix_labels), size=len(pre_idx), p=mix_probs)
        synapses = tuple(
            Synapse(int(i), int(j), mix_labels[int(k)]) for i, j, k in zip(pre_idx, post_idx, picks)
        )
        clusters.append(Cluster(id=cid, pre_neurons=pre_ids, post_neurons=post_ids, synapses=synapses))

    routes = tuple(
        Route(src_cluster=k, src_neuron=clusters[k].post_neurons[0],
              dst_cluster=k + 1, dst_neuron=clusters[k + 1].pre_neurons[0],
              hops=int(rng.integers(1, 5)))
        for k in range(params.clusters - 1)
    )
    network = Network(clusters=tuple(clusters), routes=routes)

    trains = []
    for c in network.clusters:
        for nid in c.pre_neurons:
            times = []
            t = 0.0
            if params.spike_rate > 0:
                while True:
                    t += rng.exponential(1.0 / params.spike_rate)
                    if t >= params.duration:
                        break
                    times.append(t)
            if times:
                trains.append(SpikeTrain(neuron=nid, times=tuple(times)))
    return network, trains


def partition_simple(layer: dict, n: int) -> list[Cluster]:
    """Greedy tiling of one monolithic layer into crossbar-sized clusters.

    The layer is {pre_count, post_count, synapses:[{pre,post,state}]} with
    indices in [0, pre_count) x [0, post_count). Pre and post index ranges
    are cut into chunks of n; each chunk pair holding at least one synapse
    becomes a cluster. The union of cluster synapses is the input set.
    """
    if n < 1:
        raise ValidationError(f"crossbar dimension must be >= 1, got {n}")
    synapses = layer.get("synapses", [])
    if not synapses:
        raise ValidationError("layer has no synapses")
    pre_count, post_count = int(layer["pre_count"]), int(layer["post_count"])
    tiles: dict[tuple[int, int], list[tuple[int, int, str]]] = {}
    for s in synapses:
        pre, post, state = int(s["pre"]), int(s["post"]), str(s["state"])
        if not (0 <= pre < pre_count and 0 <= post < post_count):
            raise ValidationError(f"synapse ({pre},{post}) outside layer bounds")
        tiles.setdefault((pre // n, post // n), []).append((pre, post, state))

    clusters = []
    for cid, key in enumerate(sorted(tiles)):
        members = tiles[key]
        pre_ids = tuple(sorted({p for p, _, _ in members}))
        post_ids = tuple(sorted({q for _, q, _ in members}))
        pre_index = {p: i for i, p in enumerate(pre_ids)}
        post_index = {q: i for i, q in enumerate(post_ids)}
        clusters.append(Cluster(
            id=cid,
            pre_neurons=pre_ids,
            post_neurons=post_ids,
            synapses=tuple(Synapse(pre_index[p], post_index[q], st) for p, q, st in sorted(members)),
        ))
    return clusters
