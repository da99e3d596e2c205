"""Cluster assembly.

A :class:`Cluster` bundles the event engine, the nodes, and the network —
the complete simulated counterpart of the paper's testbed.  The
:func:`meggie_like_spec` preset is calibrated so single-node application
throughput lands near the leftmost points of the paper's Fig. 7 (the
*shape* of the scaling curves is then produced by the model, not fitted).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.sim.accelerator import AcceleratorSpec, SimAccelerator
from repro.sim.engine import SimEngine
from repro.sim.metrics import MetricRegistry
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import SimNode
from repro.sim.topology import FatTreeTopology


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a simulated cluster."""

    num_nodes: int
    cores_per_node: int = 20
    # effective (not peak) per-core rate for the memory-bound kernels the
    # paper evaluates; see meggie_like_spec for calibration notes
    flops_per_core: float = 2.4e9
    memory_per_node: float = 64e9
    network: NetworkConfig = field(default_factory=NetworkConfig)
    switch_radix: int = 16
    #: accelerators per node (0 = CPU-only, the paper's testbed)
    gpus_per_node: int = 0
    gpu: AcceleratorSpec = field(default_factory=AcceleratorSpec)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")

    def with_nodes(self, num_nodes: int) -> "ClusterSpec":
        return replace(self, num_nodes=num_nodes)


def meggie_like_spec(num_nodes: int) -> ClusterSpec:
    """Preset approximating one RRZE Meggie node and its interconnect.

    Each node has 2× Xeon E5-2630 v4 (2×10 cores) and 64 GB RAM.  The
    per-core effective rate of 2.4 GFLOP/s reflects a bandwidth-bound
    stencil (the paper's single-node stencil point is ≈48 GFLOPS per node),
    far below the chips' peak — stencils stream memory.
    """
    return ClusterSpec(
        num_nodes=num_nodes,
        cores_per_node=20,
        flops_per_core=2.4e9,
        memory_per_node=64e9,
        network=NetworkConfig(),
        switch_radix=16,
    )


class Cluster:
    """A fully assembled simulated cluster."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        self.engine = SimEngine()
        self.metrics = MetricRegistry()
        self.topology = FatTreeTopology(spec.num_nodes, spec.switch_radix)
        self.network = Network(
            self.engine, self.topology, spec.network, self.metrics
        )
        self.nodes = [
            SimNode(
                self.engine,
                node_id=i,
                cores=spec.cores_per_node,
                flops_per_core=spec.flops_per_core,
                memory_bytes=spec.memory_per_node,
                metrics=self.metrics,
            )
            for i in range(spec.num_nodes)
        ]
        self.accelerators: list[list[SimAccelerator]] = [
            [
                SimAccelerator(self.engine, device_id=k, spec=spec.gpu)
                for k in range(spec.gpus_per_node)
            ]
            for _ in range(spec.num_nodes)
        ]

    @property
    def num_nodes(self) -> int:
        # capacity-change-safe: elastic clusters add nodes after
        # construction, so the live node list is authoritative, not the
        # (frozen) spec the cluster started from
        return len(self.nodes)

    def node(self, node_id: int) -> SimNode:
        return self.nodes[node_id]

    def add_node(
        self,
        cores: int | None = None,
        flops_per_core: float | None = None,
        memory_bytes: float | None = None,
        gpus: int | None = None,
    ) -> int:
        """Grow the cluster by one node mid-run; returns its node id.

        The new node may be heterogeneous — a different core count,
        per-core rate (the GPU-variant machinery's speed knob applied
        per node), memory size, or accelerator count than the founding
        spec.  The network gains a NIC pair and the fat tree is regrown
        so hop counts include the newcomer.
        """
        spec = self.spec
        node_id = len(self.nodes)
        node = SimNode(
            self.engine,
            node_id=node_id,
            cores=cores if cores is not None else spec.cores_per_node,
            flops_per_core=(
                flops_per_core
                if flops_per_core is not None
                else spec.flops_per_core
            ),
            memory_bytes=(
                memory_bytes
                if memory_bytes is not None
                else spec.memory_per_node
            ),
            metrics=self.metrics,
        )
        self.nodes.append(node)
        count = gpus if gpus is not None else spec.gpus_per_node
        self.accelerators.append(
            [
                SimAccelerator(self.engine, device_id=k, spec=spec.gpu)
                for k in range(count)
            ]
        )
        self.topology = FatTreeTopology(len(self.nodes), spec.switch_radix)
        self.network.attach_node(self.topology)
        self.metrics.incr("cluster.nodes_added")
        return node_id

    def run(self, until: float | None = None) -> int:
        """Drive the event loop; returns the number of events processed."""
        return self.engine.run(until=until)

    def total_cores(self) -> int:
        # nodes may be heterogeneous after add_node; sum, don't multiply
        return sum(node.num_cores for node in self.nodes)

    def __repr__(self) -> str:
        return (
            f"Cluster({self.num_nodes} nodes × "
            f"{self.spec.cores_per_node} cores, t={self.engine.now:.6g}s)"
        )


class CostModel:
    """Time costs over the bipartite compute–memory architecture model.

    Compute nodes are the processes; memories are the per-node fragment
    stores; the links between them carry the fat-tree switch distance,
    tabulated once over the cluster's live nodes.  The offline planner
    prices task placements with it and the load balancer prices
    migrations, so both charge a transfer the same way; a cluster that
    grew by :meth:`Cluster.add_node` needs a fresh model.
    """

    def __init__(self, cluster: Cluster) -> None:
        topology = cluster.topology
        nodes = range(cluster.num_nodes)
        self.hops = [[topology.switch_hops(s, d) for d in nodes] for s in nodes]
        spec = cluster.spec
        self.node_flops = float(spec.cores_per_node * spec.flops_per_core)
        self.bandwidth = float(spec.network.bandwidth)

    def transfer_seconds(self, nbytes: float, src: int, dst: int) -> float:
        """Time to pull ``nbytes`` from ``src``'s memory to ``dst``'s."""
        if src == dst or nbytes <= 0:
            return 0.0
        return nbytes * self.hops[src][dst] / self.bandwidth

    def compute_seconds(self, flops: float) -> float:
        return flops / self.node_flops
