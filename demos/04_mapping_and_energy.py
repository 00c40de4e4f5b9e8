#!/usr/bin/env python3
"""Region-aware placement versus a state-blind control mapper.

The optimized mapper seats HRS-heavy neurons on short paths and keeps
every synapse in a region that permits its state, then picks the cheapest
configuration that holds the used cells; seating itself ignores the P/Q
partition. The control mapper scatters neurons at random. The difference
shows up as expanded-mode crossbars and energy.
"""

from xbarsim import (
    CrossbarSpec,
    GenParams,
    Hardware,
    activity_from_trains,
    energy_report,
    generate_synthetic,
    latency_stats,
    map_network,
    map_network_control,
    preset,
    synapse_utilization,
)

tech = preset("16nm")
params = GenParams(clusters=8, pre_range=(8, 90), post_range=(8, 90), density=0.12,
                   spike_rate=30.0, duration=1.0, seed=7)
network, trace = generate_synthetic(params)
activity = activity_from_trains(trace, network.routes, duration=1.0)
print(f"workload: {len(network.clusters)} clusters, "
      f"{sum(len(c.state) for c in network.clusters)} synapses, "
      f"{activity.total_spikes} spikes over 1.0 time units")

spec = CrossbarSpec(n=128, p=96, q=96)
hardware = Hardware(crossbar_count=8, spec=spec)

optimized = map_network(network, hardware)
control = map_network_control(network, hardware, seed=7)

print()
print("  crossbar  cluster  util%   optimized  control")
ctl_by_cluster = {xb.cluster_id: xb for xb in control.crossbars}
for xb in optimized.crossbars:
    util = 100 * synapse_utilization(len(xb.cluster.state), spec.n)
    print(f"  {xb.crossbar_id:8d}  {xb.cluster_id:7d}  {util:5.2f}   "
          f"'{xb.config.name}'        '{ctl_by_cluster[xb.cluster_id].config.name}'")

for name, placement in (("optimized", optimized), ("control", control)):
    energy = energy_report(placement, activity, tech)
    latency = latency_stats(placement, tech)
    print()
    print(f"{name}: energy {energy.total_j:.4g} J "
          f"(static {energy.static_j:.4g}, spikes {energy.spike_j:.4g}, "
          f"routing {energy.routing_j:.4g}, access {energy.access_overhead_j:.4g})")
    agg = latency.aggregate
    print(f"{name}: placed-path latency mean {agg.mean:.0f}, spread {agg.diff:.0f}, "
          f"ratio {agg.ratio:.4f}")
