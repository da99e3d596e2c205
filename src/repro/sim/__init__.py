"""Deterministic discrete-event cluster simulator.

This package is the substitution for the hardware the paper evaluated on
(the RRZE Meggie cluster: 64 nodes, 2× Intel Xeon E5-2630 v4 per node,
Intel OmniPath in a fat-tree topology).  It provides:

``engine``
    a discrete-event core with totally ordered events (time, sequence
    number) and completable futures, so simulations are reproducible
    bit-for-bit;
``node``
    simulated nodes with per-core busy timelines and a memory budget;
``network``
    a latency/bandwidth/occupancy network model over a fat-tree topology,
    including per-node NIC serialization — the effect that makes many small
    messages expensive (the mechanism behind the paper's TPC result);
``cluster``
    cluster assembly from a :class:`ClusterSpec`, with a preset calibrated
    to the paper's testbed, and the :class:`CostModel` that prices a
    transfer between two of its nodes;
``metrics``
    counter/timer registry used by the runtime's monitoring component.
"""

from repro.sim.engine import SimEngine, Future, Event
from repro.sim.node import SimNode
from repro.sim.network import Network, NetworkConfig
from repro.sim.topology import FatTreeTopology
from repro.sim.cluster import Cluster, ClusterSpec, CostModel, meggie_like_spec
from repro.sim.metrics import MetricRegistry

__all__ = [
    "SimEngine",
    "Future",
    "Event",
    "SimNode",
    "Network",
    "NetworkConfig",
    "FatTreeTopology",
    "Cluster",
    "ClusterSpec",
    "CostModel",
    "meggie_like_spec",
    "MetricRegistry",
]
