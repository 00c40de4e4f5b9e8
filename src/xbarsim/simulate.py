"""Event-level evaluation of a placement.

A spike trace (workload.SpikeTrace) drives pre-synaptic neurons; every spike
reaches each of the neuron's synapses after that cell's path latency, so
cells with unequal latency skew the inter-spike intervals seen downstream
(ISI distortion). The trace is read as columns: a neuron's spike count and
its first and last tick are the bounds of its run, and a tick is tick / 1e9
seconds. SpikeTrain is the per-train form of compute_isi, isi_distortion
and if_neuron_fire.
The energy ledger charges leakage on the active array shape, per-spike and
per-hop constants, and the wordline-raise overhead of driving isolation
transistors when a far-region cell is accessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from math import inf

import numpy as np

from .crossbar import CONFIG_11, _STATE_CODE, Configuration, CrossbarSpec, _barred, static_energy_weight
from .errors import (
    EmptyCounts,
    EmptyPlacement,
    NegativeActivity,
    TooFewSpikes,
    UnknownNeuron,
    ValidationError,
)
from .mapper import CrossbarPlacement, Placement
from .techmodel import TechnologyParams, sense_latency, tap_delays
from .workload import SpikeTrace, SpikeTrain


@dataclass(frozen=True)
class IFNeuron:
    """Integrate-and-fire neuron with linear leak and reset-to-zero."""

    v_threshold: float = 1.0
    v_increment_per_state: dict = field(default_factory=dict)
    leak_per_second: float = 0.0
    refractory: float = 0.0

    def __post_init__(self):
        if self.v_threshold <= 0:
            raise ValidationError("threshold must be positive")
        if any(v <= 0 for v in self.v_increment_per_state.values()):
            raise ValidationError("increments must be positive")
        if self.leak_per_second < 0 or self.refractory < 0:
            raise ValidationError("leak and refractory must be >= 0")


@dataclass(frozen=True)
class LatencyStats:
    best: float
    worst: float
    diff: float
    ratio: float  # best / worst
    mean: float

    @classmethod
    def of(cls, best: float, worst: float, mean: float) -> "LatencyStats":
        """Stats of latencies from `best` to `worst`; all-zero latencies have ratio 1."""
        return cls(best=best, worst=worst, diff=worst - best, ratio=best / worst if worst > 0 else 1.0, mean=mean)

    @classmethod
    def from_values(cls, values) -> "LatencyStats":
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise EmptyPlacement("no latency samples")
        return cls.of(float(arr.min()), float(arr.max()), float(arr.mean()))


@dataclass(frozen=True)
class EnergyReport:
    static_j: float
    spike_j: float
    routing_j: float
    access_overhead_j: float

    @property
    def total_j(self) -> float:
        return self.static_j + self.spike_j + self.routing_j + self.access_overhead_j


@dataclass(frozen=True)
class Activity:
    """Aggregate activity over one observation window."""

    spike_counts: dict        # pre-neuron id -> spike count
    routed_spike_hops: float  # total routed spikes x hops
    duration: float

    def __post_init__(self):
        if self.duration <= 0:
            raise NegativeActivity(f"duration must be positive, got {self.duration}")
        if self.routed_spike_hops < 0 or any(v < 0 for v in self.spike_counts.values()):
            raise NegativeActivity("spike and hop counts must be >= 0")

    @property
    def total_spikes(self) -> int:
        return int(sum(self.spike_counts.values()))


def _activity(counts: dict, routes, duration: float) -> Activity:
    """Activity of per-neuron spike counts; each route carries its source's spikes."""
    hops = sum(counts.get(r.src_neuron, 0) * r.hops for r in routes)
    return Activity(spike_counts=counts, routed_spike_hops=float(hops), duration=duration)


def activity_from_trains(trace: SpikeTrace, routes, duration: float) -> Activity:
    """Activity of the trace: each spiking neuron's spike count, its run length in the trace."""
    ids, bounds = trace.runs()
    return _activity(dict(zip(ids.tolist(), np.diff(bounds).tolist())), routes, duration)


# ---------------------------------------------------------------------------
# inter-spike intervals


def compute_isi(train: SpikeTrain) -> float:
    """Average inter-spike interval of the train."""
    times = train.times
    if len(times) < 2:
        raise TooFewSpikes(f"neuron {train.neuron}: ISI needs >= 2 spikes, got {len(times)}")
    gaps = [b - a for a, b in zip(times, times[1:])]
    return sum(gaps) / (len(times) - 1)


def isi_distortion(input_train: SpikeTrain, output_train: SpikeTrain) -> float:
    """Absolute change of average ISI between input and output trains."""
    return abs(compute_isi(output_train) - compute_isi(input_train))


# ---------------------------------------------------------------------------
# path latency per synapse


def synapse_latency_totals(xb: CrossbarPlacement, tech: TechnologyParams) -> np.ndarray:
    """Total path latency per placed synapse, indexed out of tap_delays.

    Equivalent to path_latency(...).total per synapse minus the validity
    checks: the mapper emits only sound placements, and load_placement
    rejects any file that check_placement finds a problem in.
    """
    return _SynapseTable((xb,), tech).evaluate([(xb.spec, xb.config)], np.zeros(1, dtype=np.intp))[0]


class _SynapseTable:
    """The evaluation kernel: a placement's synapses as columns concatenated
    across its crossbars, crossbar by crossbar and each in cluster synapse
    order. Per synapse: `row` and `col` (its cell) and `sense` (its state's
    sense latency); `pre` and `post`, built when first read, index its
    neurons. Crossbar i holds sizes[i] synapses.

    None of these depend on how a crossbar is set up, so one table serves
    every (spec, config) its crossbars are evaluated under, and one charge
    serves every evaluation under the same activity. Callers pass the
    distinct setups plus each crossbar's index into them, so the per-setup
    work runs once per setup, not once per crossbar.
    """

    def __init__(self, crossbars, tech: TechnologyParams):
        self.tech = tech
        self.sizes = np.array([len(xb.cluster.state) for xb in crossbars], dtype=np.intp)
        cells = [xb.cells() for xb in crossbars]
        self.row = _joined([row for row, _ in cells])
        self.col = _joined([col for _, col in cells])
        sense = np.array([sense_latency(s, tech) for s in tech.states])  # by state code
        self.clusters = [xb.cluster for xb in crossbars]
        self.sense = sense[_joined([c.state for c in self.clusters])]

    @cached_property
    def pre(self) -> tuple[np.ndarray, np.ndarray]:
        """(every crossbar's pre-neuron ids end to end, each synapse's index into them)."""
        return _indexed([c.pre_neurons for c in self.clusters], [c.pre for c in self.clusters])

    @cached_property
    def post(self) -> tuple[np.ndarray, np.ndarray]:
        """(every crossbar's post-neuron ids end to end, each synapse's index into them)."""
        return _indexed([c.post_neurons for c in self.clusters], [c.post for c in self.clusters])

    def charge(self, activity: Activity) -> tuple[np.ndarray, np.ndarray]:
        """(a mask of the synapses whose pre-neuron spikes in the activity,
        each synapse's spike count times p_wordline_raise): the charge that
        evaluate turns into access energy."""
        ids, index = self.pre
        counts = np.array([activity.spike_counts.get(nid, 0) for nid in ids.tolist()], dtype=float)[index]
        return counts > 0, counts * self.tech.p_wordline_raise

    def evaluate(self, setups, at: np.ndarray, charge=None) -> tuple[np.ndarray, float | None]:
        """(path latency per synapse, access energy of the charge, or None
        without one), crossbar i set up as setups[at[i]]; setups holds
        distinct (spec, config) pairs.

        A synapse's latency is row[r] + col[c] + its sense latency, out of its
        setup's tap_delays. Each setup's tap delays are laid end to end in one
        flat array per axis, which every synapse indexes once. Each spike
        raises the synapse's wordline for that long: 3x a plain raise at a
        far-region cell (row >= P or column >= Q) under '11', 2x under a
        single-side expansion, 1x otherwise.
        """
        taps = [tap_delays(spec, config, self.tech) for spec, config in setups]
        width = max((len(delay) for tap in taps for delay in tap), default=0)
        r = np.repeat(at * width, self.sizes)
        c = r + self.col
        r += self.row
        latencies = _laid([row for row, _ in taps], width).take(r)
        latencies += _laid([col for _, col in taps], width).take(c)
        latencies += self.sense
        if charge is None:
            return latencies, None
        spiking, access = charge
        p = np.array([spec.p for spec, _ in setups], dtype=np.intp)[at]
        q = np.array([spec.q for spec, _ in setups], dtype=np.intp)[at]
        k = np.array([3.0 if config == CONFIG_11 else 2.0 for _, config in setups])[at]
        far = (self.row >= np.repeat(p, self.sizes)) | (self.col >= np.repeat(q, self.sizes))
        access = access * latencies
        access *= np.where(far, np.repeat(k, self.sizes), 1.0)
        # A left fold in table order (cumsum is sequential), as np.sum is
        # pairwise and sum() of floats is compensated from Python 3.12 on.
        return latencies, float(np.cumsum(np.concatenate(([0.0], access[spiking])))[-1])


def _joined(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)


def _indexed(neurons, index) -> tuple[np.ndarray, np.ndarray]:
    """(the neuron id tuples end to end, each index column shifted to index that)."""
    ids = np.array([nid for group in neurons for nid in group], dtype=np.intp)
    starts = np.cumsum([0] + [len(group) for group in neurons])[:-1]
    return ids, _joined(index) + np.repeat(starts, [len(column) for column in index])


def _laid(arrays, width: int) -> np.ndarray:
    """The arrays end to end in one flat array, each padded with NaN to `width`."""
    out = np.full(len(arrays) * width, np.nan)
    for i, arr in enumerate(arrays):
        out[i * width:i * width + len(arr)] = arr
    return out


def _setups(pairs) -> tuple[list, np.ndarray]:
    """(the distinct (spec, config) setups in first-use order, each
    crossbar's index into them), given one (spec, config) pair per crossbar."""
    index = {}
    at = [index.setdefault(pair, len(index)) for pair in pairs]
    return list(index), np.array(at, dtype=np.intp)


def if_neuron_fire(neuron: IFNeuron, arrivals, out_neuron: int = -1) -> SpikeTrain:
    """Event-driven integrate-and-fire over (time, state_label) arrivals.

    Potential leaks linearly toward zero between events, jumps by the
    state-keyed increment per arrival (coincident arrivals accumulate before
    the threshold test), and resets to zero on firing. Arrivals inside the
    refractory window are dropped.
    """
    events = sorted(arrivals, key=lambda e: e[0])
    v = 0.0
    t_prev = 0.0
    last_spike = None
    out = []
    i = 0
    while i < len(events):
        t = events[i][0]
        group = []
        while i < len(events) and events[i][0] == t:
            group.append(events[i][1])
            i += 1
        if last_spike is not None and t < last_spike + neuron.refractory:
            continue
        v = max(0.0, v - neuron.leak_per_second * (t - t_prev))
        t_prev = t
        for state in group:
            v += neuron.v_increment_per_state[state]
        if v >= neuron.v_threshold:
            out.append(t)
            v = 0.0
            last_spike = t
    return SpikeTrain(neuron=out_neuron, times=tuple(out))


# ---------------------------------------------------------------------------
# latency statistics


def corner_extremes(spec: CrossbarSpec, tech: TechnologyParams,
                    config: Configuration = CONFIG_11) -> LatencyStats:
    """Latency extremes over every active cell and permitted state.

    This is the geometry-only notion of latency variation: the fastest and
    slowest current path the crossbar could ever exercise given its region
    rules, independent of any particular workload. Results are memoized in a
    bounded cache keyed on (spec, config, tech) and shared by every caller.

    Each axis's tap delays are cut into bands at N_h and N - N_l. The region
    rule is constant on every (row band, column band) pair, so each pair is
    folded in whole from its bands' minima, maxima and sums, in O(N) memory.
    Rounded addition is monotone: best and worst are the per-cell extremes.
    """
    return _corner_extremes(spec, tech, config)


@lru_cache(maxsize=256)
def _corner_extremes(spec: CrossbarSpec, tech: TechnologyParams, config: Configuration) -> LatencyStats:
    row, col = tap_delays(spec, config, tech)
    cuts = (0, spec.n_h, spec.n - spec.n_l, spec.n)
    rows = [(a, row[a:b]) for a, b in zip(cuts, cuts[1:]) if row[a:b].size]
    cols = [(a, col[a:b]) for a, b in zip(cuts, cuts[1:]) if col[a:b].size]
    best, worst, total, count = inf, -inf, 0.0, 0
    for state in tech.states:
        sense = sense_latency(state, tech)
        for (i, r), (j, c) in product(rows, cols):
            if not _barred(i, j, _STATE_CODE[state.label], spec):
                best = min(best, float(r.min() + c.min() + sense))
                worst = max(worst, float(r.max() + c.max() + sense))
                total += len(c) * float(r.sum()) + len(r) * float(c.sum()) + len(r) * len(c) * sense
                count += len(r) * len(c)
    return LatencyStats.of(best, worst, total / count)


@dataclass(frozen=True)
class CrossbarLatencyReport:
    crossbar_id: int
    cluster_id: int
    placed: LatencyStats     # over the synapses actually mapped
    extremes: LatencyStats   # geometric extremes of this crossbar as configured


@dataclass(frozen=True)
class LatencyReport:
    per_crossbar: tuple[CrossbarLatencyReport, ...]
    aggregate: LatencyStats
    extremes: LatencyStats


def latency_stats(placement: Placement, tech: TechnologyParams) -> LatencyReport:
    if not placement.crossbars:
        raise EmptyPlacement("placement maps no crossbars")
    table = _SynapseTable(placement.crossbars, tech)
    setups, at = _setups((xb.spec, xb.config) for xb in placement.crossbars)
    totals, _ = table.evaluate(setups, at)
    extremes = [corner_extremes(spec, tech, config) for spec, config in setups]
    placed = np.split(totals, np.cumsum(table.sizes)[:-1])  # per crossbar
    per = tuple(CrossbarLatencyReport(crossbar_id=xb.crossbar_id, cluster_id=xb.cluster_id,
                                      placed=LatencyStats.from_values(values), extremes=extremes[i])
                for xb, values, i in zip(placement.crossbars, placed, at.tolist()))
    return LatencyReport(per_crossbar=per, aggregate=LatencyStats.from_values(totals),
                         extremes=_overall_extremes(extremes, at))


def _overall_extremes(extremes, at: np.ndarray) -> LatencyStats:
    """Extremes over crossbars, crossbar i's being extremes[at[i]]; every
    entry of extremes belongs to some crossbar. The mean is taken over the
    per-crossbar means, in crossbar order."""
    return LatencyStats.of(min(e.best for e in extremes), max(e.worst for e in extremes),
                           float(np.mean(np.array([e.mean for e in extremes])[at])))


def average_latency_delta(m: int, n: int, delta: float) -> float:
    """Mean-latency reduction from swapping HRS onto the short path.

    With m LRS synapses and n HRS synapses split over a short and a long path
    whose parasitic delays differ by `delta`, the balanced arrangement changes
    the mean latency by ((n - m) / (n + m)) * delta (positive = faster).
    """
    if m < 0 or n < 0:
        raise EmptyCounts(f"synapse counts must be >= 0, got m={m} n={n}")
    if m + n == 0:
        raise EmptyCounts("m + n must be positive")
    return ((n - m) / (n + m)) * delta


# ---------------------------------------------------------------------------
# ISI distortion at neuron granularity


def neuron_isi_distortion(placement: Placement, trace: SpikeTrace, tech: TechnologyParams) -> dict:
    """Per post-neuron |ISI(out) - ISI(in)| of the merged trains at its column.

    The average ISI of a merged train of k spikes is (last - first) / (k - 1),
    so only the spike count and the first and last input and arrival times
    are needed; a synapse's arrivals are its pre-neuron's spikes shifted by
    one path latency. Each neuron's count and first and last tick come from
    the bounds of its run in the trace, and its times in seconds are
    tick / 1e9. Post-neurons whose merged train has fewer than two spikes are
    omitted. A neuron of the trace that is placed as no pre-neuron is an
    UnknownNeuron, the first in neuron order.
    """
    table = _SynapseTable(placement.crossbars, tech)
    (pre_ids, of_pre), (post_ids, of_post) = table.pre, table.post
    ids, bounds = trace.runs()
    unplaced = np.flatnonzero(~np.isin(ids, pre_ids))
    if unplaced.size:
        raise UnknownNeuron(f"neuron {ids[unplaced[0]]} spikes but is not placed as a pre-synaptic neuron")
    posts = np.unique(post_ids)
    delay, _ = table.evaluate(*_setups((xb.spec, xb.config) for xb in placement.crossbars))
    # Each placed pre-neuron's run in the trace, where it has one.
    run = np.searchsorted(ids, pre_ids)
    has = run < len(ids)
    has[has] = ids[run[has]] == pre_ids[has]
    run = run[has]
    spikes, first, last = np.zeros(len(pre_ids)), np.zeros(len(pre_ids)), np.zeros(len(pre_ids))
    spikes[has] = bounds[run + 1] - bounds[run]
    first[has] = trace.tick[bounds[run]] / 1e9
    last[has] = trace.tick[bounds[run + 1] - 1] / 1e9
    live = spikes[of_pre] > 0
    of_pre, delay = of_pre[live], delay[live]
    at = np.searchsorted(posts, post_ids)[of_post[live]]
    k = np.bincount(at, weights=spikes[of_pre], minlength=len(posts))
    first_in, first_out = np.full(len(posts), inf), np.full(len(posts), inf)
    last_in, last_out = np.full(len(posts), -inf), np.full(len(posts), -inf)
    first, last = first[of_pre], last[of_pre]
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


# ---------------------------------------------------------------------------
# energy


def energy_report(placement: Placement, activity: Activity, tech: TechnologyParams) -> EnergyReport:
    """Energy ledger over the activity window.

    Idle crossbars (beyond the mapped ones) are fully power-gated and
    contribute nothing to the static term. Each spike reaching a synapse
    raises its wordline for the cell's path latency: a far-region cell (row
    >= P or column >= Q) drives two isolation transistors plus the access
    transistor under '11' (3x a plain raise) and one under a single-side
    expansion (2x); collapsed-region accesses stay at 1x.
    """
    table = _SynapseTable(placement.crossbars, tech)
    setups, at = _setups((xb.spec, xb.config) for xb in placement.crossbars)
    return _energy(setups, at, table.evaluate(setups, at, table.charge(activity))[1], activity, tech)


def _energy(setups, at: np.ndarray, access_j: float, activity: Activity, tech: TechnologyParams) -> EnergyReport:
    """The ledger of energy_report, crossbar i set up as setups[at[i]], with access energy access_j."""
    weight = [static_energy_weight(config, spec) for spec, config in setups]
    return EnergyReport(static_j=sum([weight[i] for i in at.tolist()]) * tech.leakage_per_cell * activity.duration,
                        spike_j=activity.total_spikes * tech.e_spike,
                        routing_j=activity.routed_spike_hops * tech.e_route_hop,
                        access_overhead_j=access_j)
