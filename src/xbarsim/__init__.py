"""Crossbar-level modeling and mapping toolchain for NVM neuromorphic PEs.

Latency-balanced resistance-state regions, coarse-grained partitioned
crossbars with power gating, region-aware synapse placement, and the
partition-point design-space exploration that ties them together.
"""

__version__ = "0.1.0"

from .analysis import AreaModel, cost_per_bit, die_area_overhead, total_bits
from .crossbar import (
    CONFIG_00,
    CONFIG_01,
    CONFIG_10,
    CONFIG_11,
    CONFIGURATIONS,
    HRS,
    LRS1,
    LRS2,
    LRS3,
    Configuration,
    ControlMode,
    CrossbarSpec,
    Granularity,
    Region,
    config_by_name,
    config_dimensions,
    isolation_transistor_count,
    load_spec,
    permits,
    region_of,
    save_spec,
    static_energy_weight,
    synapse_utilization,
)
from .dse import SweepPoint, select_tradeoff, sweep_nhnl, sweep_pq
from .mapper import (
    Assignment,
    CrossbarPlacement,
    Hardware,
    PlacedSynapse,
    Placement,
    assign_cluster,
    check_placement,
    load_placement,
    map_network,
    map_network_control,
    save_placement,
    select_configuration,
)
from .simulate import (
    Activity,
    EnergyReport,
    IFNeuron,
    LatencyReport,
    LatencyStats,
    activity_from_trains,
    average_latency_delta,
    compute_isi,
    corner_extremes,
    energy_report,
    if_neuron_fire,
    isi_distortion,
    latency_stats,
    neuron_isi_distortion,
)
from .techmodel import (
    DEFAULT_STATES,
    PRESETS,
    PathLatency,
    ResistanceState,
    TechnologyParams,
    ladder_delay,
    line_tap_delay,
    load_tech,
    path_latency,
    preset,
    save_tech,
    sense_latency,
    tap_delays,
)
from .workload import (
    Cluster,
    GenParams,
    Network,
    Route,
    SpikeTrace,
    SpikeTrain,
    Synapse,
    generate_synthetic,
    load_network,
    load_spikes,
    save_network,
    save_spikes,
)
