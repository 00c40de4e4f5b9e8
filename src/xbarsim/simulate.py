"""Event-level evaluation of a placement.

Spike trains drive pre-synaptic neurons; every spike reaches each of the
neuron's synapses after that cell's path latency, so cells with unequal
latency skew the inter-spike intervals seen downstream (ISI distortion).
The energy ledger charges leakage on the active array shape, per-spike and
per-hop constants, and the wordline-raise overhead of driving isolation
transistors when a far-region cell is accessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import inf
from operator import add

import numpy as np

from .crossbar import CONFIG_11, HRS, LRS1, Configuration, CrossbarSpec, static_energy_weight
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
from .workload import SpikeTrain


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


def default_if_neuron(tech: TechnologyParams) -> IFNeuron:
    """Default neuron: increments scale with state conductance, LRS1 -> 0.8."""
    lrs1 = tech.state(LRS1).resistance
    increments = {s.label: 0.8 * lrs1 / s.resistance for s in tech.states}
    return IFNeuron(v_threshold=1.0, v_increment_per_state=increments)


@dataclass(frozen=True)
class LatencyStats:
    best: float
    worst: float
    diff: float
    ratio: float  # best / worst
    mean: float

    @classmethod
    def from_values(cls, values) -> "LatencyStats":
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise EmptyPlacement("no latency samples")
        best, worst = float(arr.min()), float(arr.max())
        return cls(best=best, worst=worst, diff=worst - best,
                   ratio=best / worst if worst > 0 else 1.0, mean=float(arr.mean()))


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


def activity_from_trains(trains, routes, duration: float) -> Activity:
    return _activity({t.neuron: len(t.times) for t in trains if t.times}, routes, duration)


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
# propagation


@dataclass(frozen=True)
class ArrivalTrain:
    crossbar_id: int
    synapse_index: int
    pre: int
    post: int
    state: str
    times: tuple[float, ...]


def synapse_latency_totals(xb: CrossbarPlacement, tech: TechnologyParams) -> np.ndarray:
    """Total path latency per placed synapse, indexed out of tap_delays.

    Equivalent to path_latency(...).total per synapse minus the validity
    checks: the mapper emits only sound placements, and load_placement
    rejects any file that check_placement finds a problem in.
    """
    row, col = tap_delays(xb.spec, xb.config, tech)
    sense = {s.label: sense_latency(s, tech) for s in tech.states}
    return (row[np.array([s.row for s in xb.synapses], dtype=int)]
            + col[np.array([s.col for s in xb.synapses], dtype=int)]
            + np.array([sense[s.state] for s in xb.synapses], dtype=float))


def _spike_times(placement: Placement, trains) -> dict:
    """{pre-neuron id: spike times}; every train must belong to a placed pre-neuron."""
    known = set()
    for xb in placement.crossbars:
        known.update(xb.row_of_pre)
    by_neuron = {}
    for t in trains:
        if t.neuron not in known:
            raise UnknownNeuron(f"neuron {t.neuron} spikes but is not placed as a pre-synaptic neuron")
        by_neuron[t.neuron] = t.times
    return by_neuron


def propagate(placement: Placement, trains, tech: TechnologyParams) -> list[ArrivalTrain]:
    """Per-synapse arrival trains: spike time plus the cell's path latency."""
    by_neuron = _spike_times(placement, trains)
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
    rules, independent of any particular workload.
    """
    row, col = tap_delays(spec, config, tech)
    base = row[:, None] + col[None, :]
    r_idx = np.arange(len(row))[:, None]
    c_idx = np.arange(len(col))[None, :]
    in_a = (r_idx < spec.n_h) & (c_idx < spec.n_h)
    in_b = (r_idx >= spec.n - spec.n_l) & (c_idx >= spec.n - spec.n_l)
    barred = {HRS: in_b, LRS1: in_a}  # A admits only HRS, B only LRS1
    best, worst, total, count = inf, -inf, 0.0, 0
    for state in tech.states:
        mask = ~barred.get(state.label, in_a | in_b)
        if not mask.any():
            continue
        totals = base[mask] + sense_latency(state, tech)
        best = min(best, float(totals.min()))
        worst = max(worst, float(totals.max()))
        total += float(totals.sum())
        count += totals.size
    return LatencyStats(best=best, worst=worst, diff=worst - best,
                        ratio=best / worst, mean=total / count)


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
    per = []
    all_totals = []
    extremes_of = {}  # corner extremes depend only on (spec, config)
    for xb in placement.crossbars:
        totals = synapse_latency_totals(xb, tech)
        all_totals.extend(totals.tolist())
        key = (xb.spec, xb.config)
        if key not in extremes_of:
            extremes_of[key] = corner_extremes(xb.spec, tech, xb.config)
        per.append(CrossbarLatencyReport(crossbar_id=xb.crossbar_id, cluster_id=xb.cluster_id,
                                         placed=LatencyStats.from_values(totals),
                                         extremes=extremes_of[key]))
    best = min(r.extremes.best for r in per)
    worst = max(r.extremes.worst for r in per)
    extremes = LatencyStats(best=best, worst=worst, diff=worst - best, ratio=best / worst,
                            mean=float(np.mean([r.extremes.mean for r in per])))
    return LatencyReport(per_crossbar=tuple(per),
                         aggregate=LatencyStats.from_values(all_totals),
                         extremes=extremes)


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


def neuron_isi_distortion(placement: Placement, trains, tech: TechnologyParams) -> dict:
    """Per post-neuron |ISI(out) - ISI(in)| of the merged trains at its column.

    The average ISI of a merged train of k spikes is (last - first) / (k - 1),
    so only the spike count and the first and last input and arrival times
    are needed; a synapse's arrivals are its pre-neuron's spikes shifted by
    one path latency. Post-neurons whose merged train has fewer than two
    spikes are omitted.
    """
    by_neuron = _spike_times(placement, trains)
    merged = {}  # post -> (k, first_in, last_in, first_out, last_out)
    for xb in placement.crossbars:
        for s, delay in zip(xb.synapses, synapse_latency_totals(xb, tech).tolist()):
            times = by_neuron.get(s.pre)
            if not times:
                continue
            k, first_in, last_in, first_out, last_out = merged.get(s.post, (0, inf, -inf, inf, -inf))
            merged[s.post] = (k + len(times), min(first_in, times[0]), max(last_in, times[-1]),
                              min(first_out, times[0] + delay), max(last_out, times[-1] + delay))
    return {post: abs((last_out - first_out) / (k - 1) - (last_in - first_in) / (k - 1))
            for post, (k, first_in, last_in, first_out, last_out) in sorted(merged.items()) if k >= 2}


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
    static = sum(static_energy_weight(xb.config, xb.spec) for xb in placement.crossbars)
    static_j = static * tech.leakage_per_cell * activity.duration
    spike_j = activity.total_spikes * tech.e_spike
    routing_j = activity.routed_spike_hops * tech.e_route_hop
    access_j = 0.0
    for xb in placement.crossbars:
        counts = np.array([activity.spike_counts.get(s.pre, 0) for s in xb.synapses], dtype=float)
        far = np.array([s.row >= xb.spec.p or s.col >= xb.spec.q for s in xb.synapses])
        k = np.where(far, 3 if xb.config == CONFIG_11 else 2, 1)
        terms = counts * tech.p_wordline_raise * synapse_latency_totals(xb, tech) * k
        # A left fold, as sum() of floats is compensated from Python 3.12 on.
        access_j = reduce(add, terms[counts > 0].tolist(), access_j)
    return EnergyReport(static_j=static_j, spike_j=spike_j, routing_j=routing_j,
                        access_overhead_j=access_j)
