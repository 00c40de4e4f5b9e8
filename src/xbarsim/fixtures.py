"""Small bundled fixtures used by demos and tests."""

from __future__ import annotations

from .crossbar import HRS, LRS1, LRS2, LRS3
from .simulate import IFNeuron
from .workload import Cluster, Network, Route, Synapse


def mapping_demo_network() -> Network:
    """Three clusters sized for a 4x4 crossbar.

    One 4-input neuron, one 3-input neuron, and two 2-input neurons sharing a
    cluster; mapped on 4x4 crossbars they use 4, 3, and 4 of the 16 cells
    (25%, 18.75%, 25% utilization).
    """
    c0 = Cluster(id=0, pre_neurons=(0, 1, 2, 3), post_neurons=(4,),
                 synapses=(Synapse(0, 0, HRS), Synapse(1, 0, LRS1),
                           Synapse(2, 0, LRS2), Synapse(3, 0, LRS3)))
    c1 = Cluster(id=1, pre_neurons=(5, 6, 7), post_neurons=(8,),
                 synapses=(Synapse(0, 0, HRS), Synapse(1, 0, LRS1), Synapse(2, 0, LRS2)))
    c2 = Cluster(id=2, pre_neurons=(9, 10, 11, 12), post_neurons=(13, 14),
                 synapses=(Synapse(0, 0, LRS1), Synapse(1, 0, HRS),
                           Synapse(2, 1, LRS1), Synapse(3, 1, HRS)))
    route = Route(src_cluster=0, src_neuron=4, dst_cluster=1, dst_neuron=5, hops=2)
    return Network(clusters=(c0, c1, c2), routes=(route,))


def isi_demo():
    """Three-input integrate-and-fire scenario.

    Returns (neuron, on_time_arrivals, delayed_arrivals). With the on-time
    arrivals (20, 21, 22 us) the neuron fires once at 22 us; delaying the
    third arrival to 27 us lets the leak drain the potential below threshold
    and no spike is emitted.
    """
    neuron = IFNeuron(v_threshold=1.0, v_increment_per_state={LRS1: 0.4},
                      leak_per_second=5e4, refractory=0.0)
    on_time = [(20e-6, LRS1), (21e-6, LRS1), (22e-6, LRS1)]
    delayed = [(20e-6, LRS1), (21e-6, LRS1), (27e-6, LRS1)]
    return neuron, on_time, delayed
