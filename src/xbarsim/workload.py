"""SNN workload handling: clusters, routes, spike traces and their files, synthesis.

A network arrives pre-partitioned into clusters, each small enough for one
crossbar: pre-synaptic neurons drive rows, post-synaptic neurons sink on
columns, and every synapse names a (pre index, post index, resistance state)
triple. Inter-cluster traffic is summarized as routes with a fixed hop count.

Only a Cluster holds synapses, as read-only numpy columns (the state an index
into STATE_LABELS); a mapper.CrossbarPlacement holds its cluster. Both
documents store a cluster as one object, read by _cluster_from_json, whose
"synapses" holds one list per column. Synapse, PlacedSynapse and `.synapses`
are read-only compatibility views that the benchmark harness and the tests
read.

A spike trace is a SpikeTrace, also read-only columns: a neuron id and a
tick, the time in whole nanoseconds, per spike. The generator, the trace
file and the evaluator (simulate) all use it as it is; seconds are tick / 1e9
wherever a float time is needed. SpikeTrain, one neuron's times in seconds,
is the per-train form that SpikeTrace.from_trains converts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import accumulate, chain, takewhile
from math import inf, isfinite
from operator import gt, lt

import numpy as np

from .crossbar import HRS, LRS1, LRS2, LRS3, STATE_LABELS, _STATE_CODE
from .errors import InvalidParams, ValidationError
from .files import _brief, json_ints, read_json, read_numeric_columns, write_grouped_table, write_json


@dataclass(frozen=True)
class Synapse:
    pre: int   # index into Cluster.pre_neurons
    post: int  # index into Cluster.post_neurons
    state: str

    def __post_init__(self):
        if self.state not in STATE_LABELS:
            raise ValidationError(f"unknown resistance state {self.state!r}")


def _state_codes(labels, name: str) -> list[int]:
    """A sequence of resistance state labels as indices into STATE_LABELS. A
    label that is not one of them is a ValidationError naming `name`, the
    first such label and its index."""
    try:
        return list(map(_STATE_CODE.__getitem__, labels))
    except (KeyError, TypeError):
        i = next(i for i, label in enumerate(labels) if not (isinstance(label, str) and label in _STATE_CODE))
        raise ValidationError(f"{name}[{i}]: unknown resistance state {_brief(labels[i])}") from None


def _index_column(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.intp)
    except OverflowError:  # no intp holds the index, so it is out of range, as -1 is
        return np.array([v if -2**62 < v < 2**62 else -1 for v in values], dtype=np.intp)


def _sorted_pairs(a, b):
    """The order that sorts the (a, b) pairs, and along it whether each entry starts a new
    distinct pair: the sort is stable, so of equal pairs the first in input order starts."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return order, first


@dataclass(frozen=True, init=False, eq=False)
class Cluster:
    """A crossbar-sized part of the network. Its synapses are read-only
    columns, one entry each: `pre` and `post` index pre_neurons and
    post_neurons (intp), and `state` indexes STATE_LABELS (int8).

    Cluster(id, pre_neurons, post_neurons, synapses) takes Synapse records
    and Cluster.from_columns the columns; both validate alike, and == and
    hash() compare values.
    """

    _COLUMNS = ("pre", "post", "state")

    id: int
    pre_neurons: tuple[int, ...]
    post_neurons: tuple[int, ...]
    pre: np.ndarray
    post: np.ndarray
    state: np.ndarray

    def __init__(self, id, pre_neurons, post_neurons, synapses):
        synapses = tuple(synapses)
        self._fill(id, pre_neurons, post_neurons, [s.pre for s in synapses], [s.post for s in synapses],
                   _state_codes([s.state for s in synapses], "state"))

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
        # The first synapse, in order, that is out of range or repeats an earlier pair.
        outside = ((pre_column < 0) | (pre_column >= len(pre_neurons))
                   | (post_column < 0) | (post_column >= len(post_neurons)))
        order, first = _sorted_pairs(pre_column, post_column)
        repeated = np.empty(count, dtype=bool)
        repeated[order] = ~first
        bad = np.flatnonzero(outside | repeated)
        if bad.size:
            i = bad[0]
            problem = "synapse ({},{}) index out of range" if outside[i] else "duplicate synapse ({},{})"
            raise ValidationError(f"cluster {id}: " + problem.format(pre[i], post[i]))
        unknown = np.flatnonzero((state_column < 0) | (state_column >= len(STATE_LABELS)))
        if unknown.size:
            raise ValidationError(f"cluster {id}: unknown resistance state code {state[unknown[0]]}")
        vars(self).update(id=id, pre_neurons=pre_neurons, post_neurons=post_neurons)
        for name, column in zip(self._COLUMNS, (pre_column, post_column, state_column.astype(np.int8))):
            column.flags.writeable = False
            vars(self)[name] = column

    def _key(self) -> tuple:
        return (self.id, self.pre_neurons, self.post_neurons,
                *(getattr(self, name).tobytes() for name in self._COLUMNS))

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def _labels(self) -> list[str]:
        """The state label of each synapse."""
        return list(map(STATE_LABELS.__getitem__, self.state.tolist()))

    @property
    def synapses(self) -> tuple[Synapse, ...]:
        """One Synapse view per synapse, built from the columns on each access."""
        return tuple(map(Synapse, self.pre.tolist(), self.post.tolist(), self._labels()))


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


def _route_problems(routes, clusters):
    """Yield, in route order, a problem per route end that names no cluster of
    `clusters`, or a neuron that is not in the cluster it names."""
    neurons = {c.id: {*c.pre_neurons, *c.post_neurons} for c in clusters}
    for r in routes:
        for cid, nid, side in ((r.src_cluster, r.src_neuron, "src"), (r.dst_cluster, r.dst_neuron, "dst")):
            if cid not in neurons:
                yield f"route {side} references missing cluster {cid}"
            elif nid not in neurons[cid]:
                yield f"route {side} neuron {nid} not in cluster {cid}"


@dataclass(frozen=True)
class Network:
    clusters: tuple[Cluster, ...]
    routes: tuple[Route, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "clusters", tuple(self.clusters))
        object.__setattr__(self, "routes", tuple(self.routes))
        if len({c.id for c in self.clusters}) != len(self.clusters):
            raise ValidationError("duplicate cluster ids")
        problem = next(_route_problems(self.routes, self.clusters), None)
        if problem:
            raise ValidationError(problem)


@dataclass(frozen=True)
class SpikeTrain:
    """One neuron's spike times in seconds: the per-train form of compute_isi,
    isi_distortion and if_neuron_fire. A whole trace is a SpikeTrace."""

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


def _rises(neuron: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per row after the first: whether it comes after the row before it,
    in a higher neuron or at a later time t of the same neuron."""
    return (neuron[1:] > neuron[:-1]) | ((neuron[1:] == neuron[:-1]) & (t[1:] > t[:-1]))


@dataclass(frozen=True, init=False, eq=False)
class SpikeTrace:
    """A spike trace: one row per spike in two read-only int64 columns,
    `neuron` and `tick`, the spike's time in whole nanoseconds. Rows are
    sorted by neuron, then tick.

    SpikeTrace(neuron, tick) takes the columns in any row order and sorts
    them. It checks each neuron's times in seconds, tick / 1e9, as SpikeTrain
    checks a train's: the first neuron whose seconds are not >= 0 and
    distinct raises SpikeTrain's ValidationError. Every trace thus saves and
    loads back unchanged. SpikeTrace.from_trains converts SpikeTrain records.
    == and hash() compare values.
    """

    neuron: np.ndarray
    tick: np.ndarray

    def __init__(self, neuron, tick):
        neuron, tick = np.array(neuron, dtype=np.int64), np.array(tick, dtype=np.int64)
        if neuron.ndim != 1 or neuron.shape != tick.shape:
            raise ValidationError(f"spike trace: neuron and tick columns of shapes {neuron.shape} and {tick.shape}")
        t = tick / 1e9
        rises = _rises(neuron, t)
        if not rises.all():
            order = np.lexsort((tick, neuron))
            neuron, tick, t = neuron[order], tick[order], t[order]
            rises = _rises(neuron, t)
        bad = t < 0
        bad[1:] |= ~rises
        if bad.any():  # sorted, so a neuron with a time below 0 has one in its first row
            i = int(np.argmax(bad))
            problem = "be >= 0" if t[i] < 0 else "strictly increase"
            raise ValidationError(f"neuron {neuron[i]}: spike times must {problem}")
        neuron.flags.writeable = tick.flags.writeable = False
        vars(self).update(neuron=neuron, tick=tick)

    @classmethod
    def from_trains(cls, trains) -> SpikeTrace:
        """The trace of SpikeTrain records, each time t as the whole number
        of nanoseconds ns with ns / 1e9 == t: rint(t * 1e9) or, where that
        product rounded to a neighbouring tick, the tick beside it. Trains of
        one neuron merge.

        A time that is on no tick of that grid or whose ns no int64 holds,
        and a neuron id no int64 holds, is a ValidationError naming the
        train's neuron; so is a tick that two trains of one neuron share.
        """
        trains = list(trains)
        ends = list(accumulate(len(train.times) for train in trains))
        t = np.fromiter(chain.from_iterable(train.times for train in trains), dtype=np.float64,
                        count=ends[-1] if ends else 0)
        with np.errstate(over="ignore"):  # a time whose ns no float holds is refused with the others
            scaled = t * 1e9
        fits = scaled < 2.0**63
        ns = np.rint(np.where(fits, scaled, 0)).astype(np.int64)
        miss = np.flatnonzero(fits & (ns / 1e9 != t))
        for step in (-1, 1):  # from 2**51 ns on, t * 1e9 can round to a neighbour of t's tick
            near = ns[miss] + step
            hit = near / 1e9 == t[miss]
            ns[miss[hit]] = near[hit]
            miss = miss[~hit]
        bad = ~fits
        bad[miss] = True
        if bad.any():
            i = int(np.argmax(bad))
            problem = "is not a whole number of nanoseconds" if fits[i] else "has more nanoseconds than an int64 holds"
            neuron = trains[bisect_right(ends, i)].neuron
            raise ValidationError(f"neuron {neuron}: spike time {t[i].item()!r} s {problem}")
        try:
            ids = np.array([train.neuron for train in trains], dtype=np.int64)
        except OverflowError:
            outside = next(train.neuron for train in trains if not -2**63 <= train.neuron < 2**63)
            raise ValidationError(f"neuron {_brief(outside)}: id does not fit int64") from None
        return cls(np.repeat(ids, [len(train.times) for train in trains]), ns)

    def __len__(self) -> int:
        return len(self.tick)

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """(each neuron that spikes, in order; bounds, one entry longer: neuron
        k's spikes are rows bounds[k]:bounds[k + 1])."""
        start = np.ones(len(self), dtype=bool)
        start[1:] = self.neuron[1:] != self.neuron[:-1]
        bounds = np.append(np.flatnonzero(start), len(self))
        return self.neuron[bounds[:-1]], bounds

    def _key(self) -> tuple:
        return self.neuron.tobytes(), self.tick.tobytes()

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())


# ---------------------------------------------------------------------------
# file formats


def _routes_to_json(routes) -> list:
    """Route records shared by the network and placement documents."""
    return [{"src_cluster": r.src_cluster, "src_neuron": r.src_neuron,
             "dst_cluster": r.dst_cluster, "dst_neuron": r.dst_neuron, "hops": r.hops}
            for r in routes]


def _object(doc, name: str, kind: str, keys=()) -> dict:
    """doc, a JSON object that holds each of `keys`; a ValueError names `name` otherwise."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name}: expected a {kind} object, got {_brief(doc)}")
    missing = next((key for key in keys if key not in doc), None)
    if missing is not None:
        raise ValueError(f"{name}: missing {missing!r}")
    return doc


def _objects(docs, name: str, kind: str, keys=()) -> list:
    """docs, a list of _object entries, the first bad one named by its index."""
    if not isinstance(docs, list):
        raise ValueError(f"{name}: expected a list of {kind} objects, got {_brief(docs)}")
    return [_object(doc, f"{name}[{i}]", kind, keys) for i, doc in enumerate(docs)]


def _routes_from_json(docs) -> tuple[Route, ...]:
    """Route records from a list of route objects, each field through json_ints."""
    names = [f.name for f in fields(Route)]
    return tuple(Route(*(json_ints([r[name]], f"routes[{i}].{name}")[0] for name in names))
                 for i, r in enumerate(_objects(docs, "routes", "route", names)))


def _synapses_from_json(doc) -> dict:
    """The columns pre, post and state of a "synapses" object of column
    lists, one list each: the state as state codes, the others through
    json_ints. An error names the column, and for a bad value its index; a
    missing column, one that is not a list, columns of unequal length and a
    list of synapse records (the old record layout) are refused."""
    columns = Cluster._COLUMNS
    if not isinstance(doc, dict):
        got = "a list (the old record layout)" if isinstance(doc, list) else _brief(doc)
        raise ValueError(f"synapses: expected an object of column lists {'/'.join(columns)}, got {got}")
    values = {}
    for name in columns:
        column = doc.get(name)
        if not isinstance(column, list):
            raise ValueError(f"synapses.{name}: expected a list, got "
                             + (_brief(column) if name in doc else "no such column"))
        values[name] = (_state_codes(column, f"synapses.{name}") if name == "state"
                        else json_ints(column, f"synapses.{name}", indexed=True))
    if len(set(map(len, values.values()))) > 1:
        raise ValueError("synapses: columns of unequal length: "
                         + ", ".join(f"{name} {len(column)}" for name, column in values.items()))
    return values


_INTP = np.iinfo(np.intp)


def _ids(values, name: str) -> list[int]:
    """Cluster or neuron ids through json_ints; an id that no intp holds is a ValueError."""
    ids = json_ints(values, name)
    if ids and not (_INTP.min <= min(ids) and max(ids) <= _INTP.max):
        bad = next(i for i in ids if not _INTP.min <= i <= _INTP.max)
        raise ValueError(f"id {_brief(bad)} does not fit {_INTP.dtype}")
    return ids


def _cluster_to_json(c: Cluster) -> dict:
    """The cluster object of the network and placement documents: its ids, and
    in "synapses" its columns pre, post and state as lists, each state as its label."""
    return {"id": c.id, "pre": list(c.pre_neurons), "post": list(c.post_neurons),
            "synapses": {"pre": c.pre.tolist(), "post": c.post.tolist(), "state": c._labels()}}


def _cluster_from_json(doc, name: str) -> Cluster:
    """The one decoder of a cluster object, in either document; `name`, where
    the document holds it, names a value that is not a cluster object or lacks
    one of its keys."""
    _object(doc, name, "cluster", ("id", "pre", "post", "synapses"))
    return Cluster.from_columns(*_ids([doc["id"]], "cluster id"), _ids(doc["pre"], "pre-neuron id"),
                                _ids(doc["post"], "post-neuron id"), **_synapses_from_json(doc["synapses"]))


def network_to_json(network: Network) -> dict:
    return {"clusters": list(map(_cluster_to_json, network.clusters)), "routes": _routes_to_json(network.routes)}


def network_from_json(doc: dict) -> Network:
    try:
        _object(doc, "document", "network", ("clusters",))
        clusters = tuple(_cluster_from_json(c, f"clusters[{i}]")
                         for i, c in enumerate(_objects(doc["clusters"], "clusters", "cluster")))
        if not clusters:
            raise ValueError("clusters: a network document needs at least one cluster")
        routes = _routes_from_json(doc.get("routes", []))
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad network document: {exc}") from exc
    return Network(clusters=clusters, routes=routes)


def load_network(path) -> Network:
    return network_from_json(read_json(path))


def save_network(network: Network, path) -> None:
    write_json(network_to_json(network), path)


_SPIKE_COLUMNS = {"neuron": np.intp, "time_ns": np.int64}
# The trace's header before times were whole nanoseconds.
_EARLIER_SPIKE_HEADERS = {"neuron,time_us": "the earlier layout, with times in float microseconds"}


def load_spikes(path) -> SpikeTrace:
    """Read a spike trace CSV with header `neuron,time_ns` (times in whole
    nanoseconds), its rows in any order, as a SpikeTrace, which checks them.
    A trace with the earlier `neuron,time_us` header is a ParseError that
    names that layout.
    """
    return SpikeTrace(*read_numeric_columns(path, _SPIKE_COLUMNS, "spike", _EARLIER_SPIKE_HEADERS))


def save_spikes(trace: SpikeTrace, path) -> None:
    """Write a spike trace CSV with header `neuron,time_ns`: a row per spike,
    in the trace's order, each time as its tick."""
    ids, bounds = trace.runs()
    ticks, bounds = trace.tick.tolist(), bounds.tolist()
    write_grouped_table(path, _SPIKE_COLUMNS,
                        zip(ids.tolist(), (ticks[start:end] for start, end in zip(bounds, bounds[1:]))))


# ---------------------------------------------------------------------------
# synthetic workloads


# Generated spike times are whole nanoseconds below 2**51 (about 26 days): there
# every tick and its seconds, tick / 1e9, convert to each other exactly.
MAX_DURATION = 2**51 / 1e9


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
        if not all(0 <= v <= 1 for v in self.state_mix.values()) or abs(sum(self.state_mix.values()) - 1.0) > 1e-9:
            raise InvalidParams(f"state_mix fractions must be finite, in [0, 1] and sum to 1, got {self.state_mix}")
        if not (0 <= self.spike_rate < inf and 0 < self.duration <= MAX_DURATION):
            raise InvalidParams(f"spike_rate must be finite and >= 0, duration > 0 and at most {MAX_DURATION} s")


def generate_synthetic(params: GenParams) -> tuple[Network, SpikeTrace]:
    """Deterministic random workload: clusters, routes, and a Poisson spike trace of the pre-neurons."""
    rng = np.random.default_rng(params.seed)
    mix_labels = sorted(params.state_mix)
    mix_probs = np.array([params.state_mix[k] for k in mix_labels])
    mix_codes = np.array(_state_codes(mix_labels, "state_mix"), dtype=np.int8)

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


def _poisson_trains(rng, neurons, rate: float, duration: float) -> SpikeTrace:
    """Poisson spike times from [0, duration) per neuron, in order, on the
    nanosecond grid; a neuron that does not spike has no rows.

    The gaps come from rng in blocks: a block equals as many scalar draws,
    and each neuron's running sum adds its gaps in order, so the drawn times
    are those of drawing one gap at a time until the sum reaches duration.
    The unused tail of the last block is drawn too, so rng is spent afterwards.

    Each drawn time t becomes the tick floor(t * 1e9), all in one pass. A
    tick at or below the tick before it in the same train moves to that tick
    plus 1, so every train strictly increases (and a train with such moves
    may end past duration).
    """
    if rate == 0:
        return SpikeTrace((), ())

    scale = 1.0 / rate
    # Endless: iter() stops only when a block equals None.
    gaps = chain.from_iterable(iter(lambda: rng.exponential(scale, _GAP_BLOCK).tolist(), None))
    drawn, owners, bounds = array("d"), [], [0]  # the times as doubles, not float objects
    for nid in neurons:
        drawn.extend(takewhile(partial(gt, duration), accumulate(gaps)))
        if len(drawn) > bounds[-1]:
            owners.append(nid)
            bounds.append(len(drawn))
    ticks = np.floor(np.frombuffer(drawn) * 1e9).astype(np.int64)
    later = np.ones(len(ticks), dtype=bool)  # not the first tick of its train
    later[bounds[:-1]] = False
    clashes = np.flatnonzero(later[1:] & (ticks[1:] <= ticks[:-1])) + 1
    for k in np.unique(np.searchsorted(bounds, clashes, side="right") - 1).tolist():
        # Only a train that holds a clash: new[i] = max(ticks[i], new[i - 1] + 1), a running maximum.
        train = slice(bounds[k], bounds[k + 1])
        i = np.arange(train.stop - train.start)
        ticks[train] = np.maximum.accumulate(ticks[train] - i) + i
    return SpikeTrace(np.repeat(owners, np.diff(bounds)), ticks)
