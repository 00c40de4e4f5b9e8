"""Design-space exploration over partition points and region sizes.

The P/Q sweep maps each workload once, re-selects every crossbar's
configuration at each candidate partition, evaluates it under one seeded
activity draw, and normalizes energy, mean path latency, and corner-extremes
variation against the degenerate partition P = Q = N. The N_h/N_l sweep is
pure geometry: how far the region rules pull the fastest and slowest
achievable paths together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .crossbar import CONFIG_11, CrossbarSpec
from .errors import InvalidGrid, NoFeasibleKnee
from .mapper import Hardware, Placement, _cheapest_config, map_network
from .simulate import Activity, _activity, corner_extremes, energy_report, latency_stats
from .techmodel import TechnologyParams
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
    """One deterministic activity draw shared by every grid point."""
    rng = np.random.default_rng(seed)
    counts = {}
    for cluster in network.clusters:
        for nid in cluster.pre_neurons:
            counts[nid] = int(rng.poisson(spike_rate * duration))
    return _activity(counts, network.routes, duration)


def _evaluate(placement: Placement, spec: CrossbarSpec, tech: TechnologyParams, activity: Activity):
    energy = float(energy_report(placement, activity, tech).total_j)
    report = latency_stats(placement, tech)
    # A degenerate partition (P = Q = N) has no far region, so nothing is
    # genuinely expanded even though the reported configuration is '11'.
    partitioned = spec.p < spec.n or spec.q < spec.n
    expanded = sum(1 for xb in placement.crossbars if xb.config == CONFIG_11 and partitioned)
    return energy, report.aggregate.mean, report.extremes.ratio, expanded / len(placement.crossbars)


def sweep_pq(networks, base_spec: CrossbarSpec, tech: TechnologyParams, grid,
             *, spike_rate: float = 30.0, duration: float = 1.0, seed: int = 0,
             names=None) -> list[list[SweepPoint]]:
    """Evaluate each (P, Q) grid point for each network.

    Returns one SweepPoint list per network, in grid order. Each network is
    mapped once, at P = Q = N: the mapper's cell assignment reads only N,
    N_h and N_l, so every grid point reuses it and only re-selects the
    configurations. A network that cannot be mapped raises Infeasible.
    """
    grid = list(grid)
    if not grid:
        raise InvalidGrid("empty (P,Q) grid")
    for p, q in grid:
        if not (1 <= p <= base_spec.n and 1 <= q <= base_spec.n):
            raise InvalidGrid(f"point ({p},{q}) outside 1..{base_spec.n}")
    if names is None:
        names = [f"net{i}" for i in range(len(networks))]

    sweeps = []
    for name, network in zip(names, networks):
        activity = _seeded_activity(network, spike_rate, duration, seed)
        base = replace(base_spec, p=base_spec.n, q=base_spec.n)
        hardware = Hardware(crossbar_count=len(network.clusters), spec=base, tech=tech)
        mapped = map_network(network, hardware)
        e0, l0, v0, _ = _evaluate(mapped, base, tech, activity)
        extents = [(max(s.row for s in xb.synapses), max(s.col for s in xb.synapses))
                   for xb in mapped.crossbars]
        points = []
        for p, q in grid:
            spec = replace(base_spec, p=p, q=q)
            crossbars = tuple(replace(xb, spec=spec, config=_cheapest_config(*extent, spec))
                              for xb, extent in zip(mapped.crossbars, extents))
            e, l, v, frac = _evaluate(replace(mapped, crossbars=crossbars), spec, tech, activity)
            points.append(SweepPoint(network=name, p=p, q=q,
                                     norm_energy=e / e0, norm_latency=l / l0,
                                     norm_variation=v / v0, expanded_fraction=frac))
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
