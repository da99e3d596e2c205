"""Latency/bandwidth/occupancy network model.

A message from node ``s`` to node ``d`` of ``n`` bytes experiences:

* **NIC serialization at the sender** — the sending NIC is a serial
  resource: each message occupies it for a fixed per-message overhead plus
  ``n / bandwidth``.  Queueing behind earlier messages is what makes
  many-small-message workloads (the paper's TPC benchmark) degrade at
  scale;
* **wire latency** — a base latency plus a per-switch-hop increment from
  the fat-tree topology;
* **receive overhead** at the destination NIC (also serialized).

Loopback messages (``s == d``) bypass the NIC and cost a small software
overhead only, matching how HPX short-circuits local communication.

All state lives on the simulation engine, so concurrent transfers interact
through the NIC busy timelines deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import Future, SimEngine
from repro.sim.metrics import MetricRegistry
from repro.sim.topology import FatTreeTopology


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """Tunable parameters of the network model.

    Defaults approximate a 100 Gbit/s OmniPath-class interconnect:
    ~1 µs base MPI latency, ~12.5 GB/s peak bandwidth, sub-microsecond
    per-message CPU/NIC overheads.
    """

    base_latency: float = 1.0e-6
    hop_latency: float = 0.15e-6
    bandwidth: float = 12.5e9
    send_overhead: float = 0.4e-6
    recv_overhead: float = 0.4e-6
    loopback_overhead: float = 0.05e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        for name in (
            "base_latency",
            "hop_latency",
            "send_overhead",
            "recv_overhead",
            "loopback_overhead",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(slots=True)
class _NicState:
    send_free_at: float = 0.0
    recv_free_at: float = 0.0


class Network:
    """Message transport between simulated nodes."""

    __slots__ = ("engine", "topology", "config", "metrics", "_nics")

    def __init__(
        self,
        engine: SimEngine,
        topology: FatTreeTopology,
        config: NetworkConfig | None = None,
        metrics: MetricRegistry | None = None,
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.config = config or NetworkConfig()
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self._nics = [_NicState() for _ in range(topology.num_nodes)]

    # -- core transfer ---------------------------------------------------------------

    def send(self, src: int, dst: int, nbytes: int) -> Future:
        """Transfer ``nbytes`` from node ``src`` to node ``dst``.

        Returns a future that completes (with the delivery time) when the
        message is fully received at ``dst``.
        """
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        engine = self.engine
        cfg = self.config
        done = engine.future()
        metrics = self.metrics
        metrics.incr("net.messages")
        metrics.incr("net.bytes", nbytes)

        # trace labels are built only under repro.verify (labels active)
        label = (
            ("net.deliver", src, dst, nbytes)
            if engine._labels is not None
            else None
        )
        if src == dst:
            engine.schedule(
                cfg.loopback_overhead,
                lambda: done.complete(engine.now),
                label=label,
            )
            return done

        serialization = nbytes / cfg.bandwidth
        nic = self._nics[src]
        send_start = max(engine.now, nic.send_free_at)
        send_done = send_start + cfg.send_overhead + serialization
        nic.send_free_at = send_done
        metrics.observe("net.send_queue_wait", send_start - engine.now)

        wire = cfg.base_latency + cfg.hop_latency * self.topology.switch_hops(
            src, dst
        )
        arrival = send_done + wire

        def on_arrival() -> None:
            rnic = self._nics[dst]
            recv_start = max(engine.now, rnic.recv_free_at)
            recv_done = recv_start + cfg.recv_overhead
            rnic.recv_free_at = recv_done
            engine.schedule_at(
                recv_done, lambda: done.complete(engine.now), label=label
            )

        engine.schedule_at(
            arrival,
            on_arrival,
            label=(
                ("net.arrival", src, dst, nbytes)
                if engine._labels is not None
                else None
            ),
        )
        return done

    def send_bulk(self, src: int, dst: int, sizes: list[int]) -> Future:
        """One bulk message carrying several coalesced payloads.

        The NIC is charged *once*: a single per-message overhead plus the
        summed serialization time, so a bulk message always costs at least
        as much as its largest constituent sent alone, and strictly less
        than sending the parts as separate messages.  Loopback bulk
        messages short-circuit like plain sends.
        """
        sizes = list(sizes)
        if not sizes:
            raise ValueError("bulk message with no constituent payloads")
        for nbytes in sizes:
            if nbytes < 0:
                raise ValueError(f"negative constituent size {nbytes}")
        self.metrics.incr("net.bulk_messages")
        self.metrics.incr("net.bulk_parts", len(sizes))
        return self.send(src, dst, sum(sizes))

    def transfer_time_estimate(self, src: int, dst: int, nbytes: int) -> float:
        """Unloaded-network latency of one message (no queueing).

        Nothing in the runtime calls it; tests use it as the closed-form
        cost of a lone message against which the queued model is checked.
        """
        cfg = self.config
        if src == dst:
            return cfg.loopback_overhead
        return (
            cfg.send_overhead
            + nbytes / cfg.bandwidth
            + cfg.base_latency
            + cfg.hop_latency * self.topology.switch_hops(src, dst)
            + cfg.recv_overhead
        )

    # -- elastic membership ------------------------------------------------------------

    def attach_node(self, topology: FatTreeTopology) -> None:
        """Adopt a grown topology and give each new node a fresh NIC pair.

        Called by :meth:`repro.sim.cluster.Cluster.add_node`; the NIC
        list is sized at construction, so joining nodes must extend it or
        their first send would index out of range.
        """
        if topology.num_nodes < len(self._nics):
            raise ValueError(
                f"topology shrank from {len(self._nics)} to "
                f"{topology.num_nodes} nodes; departures keep their NICs"
            )
        self.topology = topology
        while len(self._nics) < topology.num_nodes:
            self._nics.append(_NicState())

    # -- introspection ---------------------------------------------------------------

    def nic_backlog(self, node: int) -> float:
        """Seconds until node's send NIC is free — a congestion signal."""
        return max(0.0, self._nics[node].send_free_at - self.engine.now)
