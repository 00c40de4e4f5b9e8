"""SNN workload handling: clusters, spike traces, synthesis, quantization.

A network arrives pre-partitioned into clusters, each small enough for one
crossbar: pre-synaptic neurons drive rows, post-synaptic neurons sink on
columns, and every synapse names a (pre index, post index, resistance state)
triple. Inter-cluster traffic is summarized as routes with a fixed hop count.

Cluster and mapper.CrossbarPlacement hold synapses alike, as read-only numpy
columns (the state an index into STATE_LABELS) through _SynapseColumns and one
JSON record decoder and encoder. The encoder hands the columns to the writer
as files.Records, so a document's synapse records are never built as dicts.
Synapse, PlacedSynapse and `.synapses` are read-only compatibility views that
the benchmark harness and the tests read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from itertools import accumulate, chain, takewhile
from math import inf, isfinite
from operator import gt, itemgetter, lt

import numpy as np

from .crossbar import HRS, LRS1, LRS2, LRS3, STATE_LABELS, _STATE_CODE
from .errors import InvalidParams, NonPositiveWeight, ValidationError
from .files import Records, json_ints, read_json, read_numeric_columns, write_grouped_table, write_json
from .techmodel import DEFAULT_STATES


@dataclass(frozen=True)
class Synapse:
    pre: int   # index into Cluster.pre_neurons
    post: int  # index into Cluster.post_neurons
    state: str

    def __post_init__(self):
        if self.state not in STATE_LABELS:
            raise ValidationError(f"unknown resistance state {self.state!r}")


def _state_codes(labels) -> list[int]:
    """Resistance state labels as indices into STATE_LABELS."""
    try:
        return list(map(_STATE_CODE.__getitem__, labels))
    except KeyError as exc:
        raise ValidationError(f"unknown resistance state {exc.args[0]!r}") from None


def _index_column(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.intp)
    except OverflowError:  # no intp holds the index, so it is out of range, as -1 is
        return np.array([v if -2**62 < v < 2**62 else -1 for v in values], dtype=np.intp)


class _SynapseColumns:
    """Base of a frozen dataclass whose synapses are read-only numpy columns,
    one entry each: _COLUMNS names them, in record order, with their dtypes,
    the `state` column indexes STATE_LABELS, and _RECORD is the view class."""

    def __post_init__(self) -> None:
        """Make each column a read-only array of its dtype, keeping one that
        already is, so that dataclasses.replace shares it in O(1)."""
        for name, dtype in self._COLUMNS.items():
            column = getattr(self, name)
            if not (isinstance(column, np.ndarray) and column.dtype == dtype and not column.flags.writeable):
                column = np.array(column, dtype=dtype)
                column.flags.writeable = False
                object.__setattr__(self, name, column)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) if f.name in self._COLUMNS
                   else getattr(self, f.name) == getattr(other, f.name) for f in fields(self))

    def _values(self) -> list[list]:
        """The columns as lists of Python values, each state as its label."""
        return [list(map(STATE_LABELS.__getitem__, getattr(self, name).tolist())) if name == "state"
                else getattr(self, name).tolist() for name in self._COLUMNS]

    @property
    def synapses(self) -> tuple:
        """One _RECORD view per synapse, built from the columns on each access."""
        return tuple(map(self._RECORD, *self._values()))


@dataclass(frozen=True, init=False, eq=False)
class Cluster(_SynapseColumns):
    """A crossbar-sized part of the network. Its synapses are read-only
    columns, one entry each: `pre` and `post` index pre_neurons and
    post_neurons (intp), and `state` indexes STATE_LABELS (int8).

    Cluster(id, pre_neurons, post_neurons, synapses) takes Synapse records
    and Cluster.from_columns the columns; both validate alike, and == and
    hash() compare values.
    """

    _COLUMNS = {"pre": np.intp, "post": np.intp, "state": np.int8}
    _RECORD = Synapse

    id: int
    pre_neurons: tuple[int, ...]
    post_neurons: tuple[int, ...]
    pre: np.ndarray
    post: np.ndarray
    state: np.ndarray

    def __init__(self, id, pre_neurons, post_neurons, synapses):
        synapses = tuple(synapses)
        self._fill(id, pre_neurons, post_neurons, [s.pre for s in synapses], [s.post for s in synapses],
                   _state_codes([s.state for s in synapses]))

    @classmethod
    def from_columns(cls, id, pre_neurons, post_neurons, pre, post, state) -> Cluster:
        """A cluster from its synapse columns: sequences or arrays of pre
        index, post index and state code, one entry per synapse."""
        cluster = cls.__new__(cls)
        cluster._fill(id, pre_neurons, post_neurons, pre, post, state)
        return cluster

    def _fill(self, id, pre_neurons, post_neurons, pre, post, state):
        pre_neurons, post_neurons = tuple(pre_neurons), tuple(post_neurons)
        if len(set(pre_neurons)) != len(pre_neurons):
            raise ValidationError(f"cluster {id}: duplicate pre-neuron ids")
        if len(set(post_neurons)) != len(post_neurons):
            raise ValidationError(f"cluster {id}: duplicate post-neuron ids")
        pre_column, post_column, state_column = _index_column(pre), _index_column(post), _index_column(state)
        count = len(pre_column)
        if len(post_column) != count or len(state_column) != count:
            raise ValidationError(f"cluster {id}: synapse columns differ in length")
        if not count:
            raise ValidationError(f"cluster {id}: at least one synapse required")
        # The first synapse, in order, that is out of range or repeats an earlier pair. The key
        # is one number per pair in range; a key an out-of-range synapse shares (it may wrap)
        # can flag a later synapse as a repeat, but never ahead of that out-of-range one.
        outside = ((pre_column < 0) | (pre_column >= len(pre_neurons))
                   | (post_column < 0) | (post_column >= len(post_neurons)))
        key = pre_column * len(post_neurons) + post_column
        order = np.argsort(key, kind="stable")
        repeated = np.zeros(count, dtype=bool)
        repeated[order[1:]] = key[order[1:]] == key[order[:-1]]
        bad = np.flatnonzero(outside | repeated)
        if bad.size:
            i = bad[0]
            problem = "synapse ({},{}) index out of range" if outside[i] else "duplicate synapse ({},{})"
            raise ValidationError(f"cluster {id}: " + problem.format(pre[i], post[i]))
        unknown = np.flatnonzero((state_column < 0) | (state_column >= len(STATE_LABELS)))
        if unknown.size:
            raise ValidationError(f"cluster {id}: unknown resistance state code {state[unknown[0]]}")
        for name, value in zip(("id", "pre_neurons", "post_neurons", *self._COLUMNS),
                               (id, pre_neurons, post_neurons, pre_column, post_column, state_column)):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __hash__(self):
        return hash((self.id, self.pre_neurons, self.post_neurons,
                     *(getattr(self, name).tobytes() for name in self._COLUMNS)))


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
        times = tuple(map(float, self.times))
        object.__setattr__(self, "times", times)
        if not all(map(isfinite, times)):
            raise ValidationError(f"neuron {self.neuron}: spike times must be finite")
        if times and min(times) < 0:
            raise ValidationError(f"neuron {self.neuron}: spike times must be >= 0")
        if not all(map(lt, times, times[1:])):
            raise ValidationError(f"neuron {self.neuron}: spike times must strictly increase")

    @classmethod
    def _prechecked(cls, neuron: int, times: tuple[float, ...]) -> SpikeTrain:
        """A train whose times the caller has checked as __post_init__ checks them:
        a tuple of floats, finite, >= 0 and strictly increasing."""
        train = object.__new__(cls)
        object.__setattr__(train, "neuron", neuron)
        object.__setattr__(train, "times", times)
        return train


# ---------------------------------------------------------------------------
# file formats


def _routes_to_json(routes) -> list:
    """Route records shared by the network and placement documents."""
    return [{"src_cluster": r.src_cluster, "src_neuron": r.src_neuron,
             "dst_cluster": r.dst_cluster, "dst_neuron": r.dst_neuron, "hops": r.hops}
            for r in routes]


def _routes_from_json(docs) -> tuple[Route, ...]:
    """Route records, each field through json_ints."""
    return tuple(Route(*(json_ints([r[f.name]], f.name)[0] for f in fields(Route))) for r in docs)


def _synapses_to_json(holder: _SynapseColumns) -> Records:
    """The JSON records of `holder`'s synapses as Records: its columns by name, each state as its label."""
    return Records(holder._COLUMNS, holder._values())


def _synapses_from_json(records, columns: dict) -> dict:
    """The columns named in `columns` of JSON synapse records, one list each:
    the state as state codes, every other field through json_ints. An error
    is the first bad record's."""
    def parse(records):
        values = tuple(zip(*map(itemgetter(*columns), records))) or ((),) * len(columns)
        return {name: _state_codes(map(str, column)) if name == "state" else json_ints(column, name)
                for name, column in zip(columns, values)}

    try:
        return parse(records)
    except (KeyError, TypeError, ValueError, ValidationError):
        for record in records:
            parse([record])
        raise


def network_to_json(network: Network) -> dict:
    """The network document; each cluster's "synapses" is a Records, which
    write_json writes, and json.dumps writes with default=list."""
    return {
        "clusters": [
            {
                "id": c.id,
                "pre": list(c.pre_neurons),
                "post": list(c.post_neurons),
                "synapses": _synapses_to_json(c),
            }
            for c in network.clusters
        ],
        "routes": _routes_to_json(network.routes),
    }


_INTP = np.iinfo(np.intp)


def _ids(values, name: str) -> list[int]:
    """Cluster or neuron ids through json_ints; an id that no intp holds is a ValueError."""
    ids = json_ints(values, name)
    if ids and not (_INTP.min <= min(ids) and max(ids) <= _INTP.max):
        bad = next(i for i in ids if not _INTP.min <= i <= _INTP.max)
        raise ValueError(f"id {bad} does not fit {_INTP.dtype}")
    return ids


def network_from_json(doc: dict) -> Network:
    try:
        clusters = tuple(
            Cluster.from_columns(*_ids([c["id"]], "cluster id"), _ids(c["pre"], "pre-neuron id"),
                                 _ids(c["post"], "post-neuron id"),
                                 **_synapses_from_json(c["synapses"], Cluster._COLUMNS))
            for c in doc["clusters"]
        )
        routes = _routes_from_json(doc.get("routes", ()))
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad network document: {exc}") from exc
    return Network(clusters=clusters, routes=routes)


def load_network(path) -> Network:
    return network_from_json(read_json(path))


def save_network(network: Network, path) -> None:
    write_json(network_to_json(network), path)


_SPIKE_COLUMNS = {"neuron": np.intp, "time_us": np.float64}


def load_spikes(path) -> list[SpikeTrain]:
    """Read a spike trace CSV with header `neuron,time_us` (times in us).

    One train per neuron, in neuron order, its times sorted; the first train
    in that order whose times are not finite, >= 0 and distinct raises the
    SpikeTrain constructor's ValidationError.
    """
    neuron, time_us = read_numeric_columns(path, _SPIKE_COLUMNS, "spike")
    if not neuron.size:
        return []
    t = time_us / 1e6
    if not np.all((neuron[1:] > neuron[:-1]) | ((neuron[1:] == neuron[:-1]) & (t[1:] > t[:-1]))):
        order = np.lexsort((t, neuron))  # rows not in save_spikes' order
        neuron, t = neuron[order], t[order]
    same = neuron[1:] == neuron[:-1]
    bounds = np.flatnonzero(np.concatenate(([True], ~same, [True])))
    # SpikeTrain's checks, on every train at once: a time that is not finite and >= 0, or
    # not above the time before it in its train.
    bad = ~(np.isfinite(t) & (t >= 0))
    bad[1:] |= same & ~(t[1:] > t[:-1])
    if bad.any():  # the constructor raises the error of the train that holds the first bad time
        k = np.searchsorted(bounds, np.argmax(bad), side="right") - 1
        SpikeTrain(neuron=int(neuron[bounds[k]]), times=t[bounds[k]:bounds[k + 1]].tolist())
        raise AssertionError("a spike train failed the array check but not SpikeTrain's")
    times, bounds = t.tolist(), bounds.tolist()
    return [SpikeTrain._prechecked(nid, tuple(times[start:end]))
            for nid, start, end in zip(neuron[bounds[:-1]].tolist(), bounds, bounds[1:])]


def save_spikes(trains, path) -> None:
    write_grouped_table(path, _SPIKE_COLUMNS,
                        ((train.neuron, [t * 1e6 for t in train.times]) for train in trains))


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
        if not (0 <= self.spike_rate < inf and 0 < self.duration < inf):
            raise InvalidParams("spike_rate must be finite and >= 0, duration finite and > 0")


def generate_synthetic(params: GenParams) -> tuple[Network, list[SpikeTrain]]:
    """Deterministic random workload: clusters, routes, Poisson spike trains."""
    rng = np.random.default_rng(params.seed)
    mix_labels = sorted(params.state_mix)
    mix_probs = np.array([params.state_mix[k] for k in mix_labels])
    mix_codes = np.array(_state_codes(mix_labels), dtype=np.int8)

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
        clusters.append(Cluster.from_columns(cid, pre_ids, post_ids, pre_idx, post_idx, mix_codes[picks]))

    routes = tuple(
        Route(src_cluster=k, src_neuron=clusters[k].post_neurons[0],
              dst_cluster=k + 1, dst_neuron=clusters[k + 1].pre_neurons[0],
              hops=int(rng.integers(1, 5)))
        for k in range(params.clusters - 1)
    )
    network = Network(clusters=tuple(clusters), routes=routes)
    neurons = (nid for c in network.clusters for nid in c.pre_neurons)
    return network, _poisson_trains(rng, neurons, params.spike_rate, params.duration)


_GAP_BLOCK = 4096  # Poisson gaps drawn per Generator call


def _poisson_trains(rng, neurons, rate: float, duration: float) -> list[SpikeTrain]:
    """Poisson spike times in [0, duration) per neuron, in order; a neuron
    that does not spike gets no train.

    The gaps come from rng in blocks: a block equals as many scalar draws,
    and each neuron's running sum adds its gaps in order, so the times are
    those of drawing one gap at a time until the sum reaches duration. The
    unused tail of the last block is drawn too, so rng is spent afterwards.
    """
    if rate == 0:
        return []

    scale = 1.0 / rate
    # Endless: iter() stops only when a block equals None.
    gaps = chain.from_iterable(iter(lambda: rng.exponential(scale, _GAP_BLOCK).tolist(), None))
    trains = []
    for nid in neurons:
        times = tuple(takewhile(partial(gt, duration), accumulate(gaps)))
        if times:
            trains.append(SpikeTrain(neuron=nid, times=times))
    return trains


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
    tiles: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for pre, post, state in zip(*_synapses_from_json(synapses, Cluster._COLUMNS).values()):
        if not (0 <= pre < pre_count and 0 <= post < post_count):
            raise ValidationError(f"synapse ({pre},{post}) outside layer bounds")
        tiles.setdefault((pre // n, post // n), []).append((pre, post, state))

    clusters = []
    for cid, key in enumerate(sorted(tiles)):
        pre, post, state = zip(*sorted(tiles[key]))
        pre_ids, post_ids = tuple(sorted(set(pre))), tuple(sorted(set(post)))
        clusters.append(Cluster.from_columns(cid, pre_ids, post_ids, np.searchsorted(pre_ids, pre),
                                             np.searchsorted(post_ids, post), state))
    return clusters
