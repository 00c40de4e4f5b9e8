"""Design-space exploration over partition points and region sizes.

The P/Q sweep maps each workload once and builds its synapse table once
(the cells and states of every crossbar, and their wordline charge under
one seeded activity draw). At each candidate partition it picks each
crossbar's configuration from its extent (crossbar._cheapest_config),
re-evaluates once per distinct configuration what depends on it, then
normalizes energy, mean path latency, and corner-extremes variation against
the degenerate partition P = Q = N. The N_h/N_l sweep is pure geometry: how
far the region rules pull the fastest and slowest achievable paths together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite

import numpy as np

from .crossbar import CONFIG_11, CrossbarSpec, _cheapest_config
from .errors import InvalidGrid, NoFeasibleKnee, ValidationError
from .mapper import Hardware, map_network
from .simulate import (
    Activity,
    _activity,
    _energy,
    _overall_extremes,
    _setups,
    _SynapseTable,
    corner_extremes,
)
from .techmodel import TechnologyParams, _require_finite
from .workload import Network


@dataclass(frozen=True)
class SweepPoint:
    network: str
    p: int
    q: int
    norm_energy: float
    norm_latency: float
    norm_variation: float
    expanded_fraction: float
    feasible: bool = True


def _seeded_activity(network: Network, spike_rate: float, duration: float, seed: int) -> Activity:
    """One deterministic activity draw shared by every grid point: a Poisson
    count per pre-neuron, in cluster order, from one vector draw."""
    pre = [nid for cluster in network.clusters for nid in cluster.pre_neurons]
    counts = np.random.default_rng(seed).poisson(spike_rate * duration, size=len(pre))
    return _activity(dict(zip(pre, counts.tolist())), network.routes, duration)


def _evaluate_setups(table: _SynapseTable, charge, spec: CrossbarSpec, setups, at, activity: Activity):
    """(energy, mean path latency, corner-extremes variation, expanded
    fraction) of the table's placement on `spec`, crossbar i set up as
    setups[at[i]] (distinct setups) and its synapses' charge from
    table.charge(activity)."""
    latencies, access_j = table.evaluate(setups, at, charge)
    energy = _energy(setups, at, access_j, activity, table.tech).total_j
    extremes = [corner_extremes(spec, table.tech, config) for spec, config in setups]
    variation = _overall_extremes(extremes, at).ratio
    # A degenerate partition (P = Q = N) has no far region, so nothing is
    # genuinely expanded even though the reported configuration is '11'.
    expanded = 0
    if spec.p < spec.n or spec.q < spec.n:
        expanded = int(np.count_nonzero(np.array([config == CONFIG_11 for _, config in setups])[at]))
    return float(energy), float(latencies.mean()), variation, expanded / len(at)


def sweep_pq(networks, base_spec: CrossbarSpec, tech: TechnologyParams, grid,
             *, spike_rate: float = 30.0, duration: float = 1.0, seed: int = 0,
             names=None) -> list[list[SweepPoint]]:
    """Evaluate each (P, Q) grid point for each network.

    Returns one SweepPoint list per network, in grid order. Each network is
    mapped once, at P = Q = N: the mapper's cell assignment reads only N,
    N_h and N_l, so every grid point reuses it. Its synapse table (cells,
    states and wordline charge) and its crossbars' extents are built once
    too. A grid point picks each crossbar's configuration from its extent
    (crossbar._cheapest_config) and re-evaluates only what depends on them:
    the path latencies gathered from tap_delays, the far-cell multiplier, the
    static weight and the corner extremes, each looked up once per distinct
    configuration. A network that cannot be mapped raises Infeasible; a
    technology whose values overflow, or zero a P = Q = N value, ValidationError.
    """
    grid = list(grid)
    if not grid:
        raise InvalidGrid("empty (P,Q) grid")
    for p, q in grid:
        if not (1 <= p <= base_spec.n and 1 <= q <= base_spec.n):
            raise InvalidGrid(f"point ({p},{q}) outside 1..{base_spec.n}")
    names = [f"net{i}" for i in range(len(networks))] if names is None else list(names)
    if len(names) != len(networks) or len(set(names)) != len(names):
        raise ValidationError(f"need one distinct name per network: got {names} for {len(networks)} networks")

    sweeps = []
    for name, network in zip(names, networks):
        activity = _seeded_activity(network, spike_rate, duration, seed)
        base = replace(base_spec, p=base_spec.n, q=base_spec.n)
        hardware = Hardware(crossbar_count=len(network.clusters), spec=base)
        mapped = map_network(network, hardware)
        table = _SynapseTable(mapped.crossbars, tech)
        charge = table.charge(activity)
        extents = [(int(xb.rows[xb.cluster.pre].max()), int(xb.cols[xb.cluster.post].max()))
                   for xb in mapped.crossbars]
        scores = []
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing technology is refused below
            for spec in [base] + [replace(base_spec, p=p, q=q) for p, q in grid]:
                setups, at = _setups((spec, _cheapest_config(row, col, spec)) for row, col in extents)
                scores.append(_evaluate_setups(table, charge, spec, setups, at, activity))
        (e0, l0, v0, _), *scores = scores
        if not all(isfinite(x) and x != 0 for x in (e0, l0, v0)):
            raise ValidationError(f"technology {tech.node_label!r}: {name!r} at P = Q = N has energy {e0}, "
                                  f"mean latency {l0} and variation {v0}; the sweep needs them finite and non-zero")
        points = [SweepPoint(network=name, p=p, q=q, norm_energy=e / e0, norm_latency=l / l0,
                             norm_variation=v / v0, expanded_fraction=frac)
                  for (p, q), (e, l, v, frac) in zip(grid, scores)]
        _require_finite(tech, f"sweep value for {name!r}",
                        [x for pt in points for x in (pt.norm_energy, pt.norm_latency, pt.norm_variation)])
        sweeps.append(points)
    return sweeps


def sweep_nhnl(spec: CrossbarSpec, tech: TechnologyParams, nh_grid, nl_grid) -> dict:
    """Corner-extremes variation, normalized to the region-free crossbar.

    Returns {(n_h, n_l): variation ratio}, variation measured as the
    worst-best latency spread over all achievable paths; 1.0 at
    n_h = n_l = 0 and non-increasing in n_h for fixed n_l.
    """
    nh_grid, nl_grid = list(nh_grid), list(nl_grid)
    if not nh_grid or not nl_grid:
        raise InvalidGrid("empty region grid")
    for nh in nh_grid:
        for nl in nl_grid:
            if nh < 0 or nl < 0 or nh + nl > spec.n:
                raise InvalidGrid(f"region sizes ({nh},{nl}) invalid for N={spec.n}")
    base = corner_extremes(replace(spec, n_h=0, n_l=0), tech, CONFIG_11)
    table = {}
    for nh in nh_grid:
        for nl in nl_grid:
            ext = corner_extremes(replace(spec, n_h=nh, n_l=nl), tech, CONFIG_11)
            table[(nh, nl)] = ext.diff / base.diff
    return table


def select_tradeoff(sweeps, *, latency_tolerance: float = 0.0) -> tuple[int, int]:
    """Cross-workload partition point.

    Per workload: the knee is the feasible point with the smallest P*Q whose
    normalized latency shows no regression (<= 1 + tolerance); equal products
    prefer the larger P. Across workloads the knees are combined elementwise
    by maximum, so the chosen partition regresses no workload.
    """
    if not sweeps:
        raise InvalidGrid("no sweeps given")
    if not isfinite(latency_tolerance):
        raise ValidationError(f"latency tolerance must be finite, got {latency_tolerance}")
    grid0 = [(pt.p, pt.q) for pt in sweeps[0]]
    for points in sweeps:
        if [(pt.p, pt.q) for pt in points] != grid0:
            raise InvalidGrid("sweeps do not share a grid")
    knees = []
    for points in sweeps:
        ok = [pt for pt in points if pt.feasible and pt.norm_latency <= 1.0 + latency_tolerance]
        if not ok:
            raise NoFeasibleKnee(f"network {points[0].network!r}: every point regresses latency")
        knee = min(ok, key=lambda pt: (pt.p * pt.q, -pt.p))
        knees.append((knee.p, knee.q))
    return max(p for p, _ in knees), max(q for _, q in knees)
