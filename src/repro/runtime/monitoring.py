"""Monitoring infrastructure (paper §3.2, AllScale deliverable D5.2).

The runtime model makes task and data management observable; this module
aggregates the per-process and network counters into one on-demand
snapshot, :func:`report`: per-process task counts, queue states, data
ownership and replica volumes, memory usage, and cluster-wide
communication totals.  The load balancer consumes the same signals; a
run observed over time subscribes to the probe instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import AllScaleRuntime


@dataclass
class ProcessReport:
    """Snapshot of one runtime process."""

    pid: int
    executed_leaves: int
    executed_splits: int
    queued_tasks: int
    active_tasks: int
    backlog_seconds: float
    owned_bytes: float
    replica_bytes: float
    memory_used: float


@dataclass
class RuntimeReport:
    """Cluster-wide monitoring snapshot."""

    sim_time: float
    processes: list[ProcessReport] = field(default_factory=list)
    total_messages: float = 0.0
    total_bytes: float = 0.0
    migrations: float = 0.0
    replications: float = 0.0
    invalidations: float = 0.0
    index_lookups: int = 0
    index_hops: int = 0
    lock_waits: float = 0.0

    @property
    def total_leaves(self) -> int:
        return sum(p.executed_leaves for p in self.processes)

    def load_imbalance(self) -> float:
        """max/mean ratio of per-process executed leaf tasks (1.0 = even)."""
        counts = [p.executed_leaves for p in self.processes]
        mean = sum(counts) / len(counts) if counts else 0.0
        return max(counts) / mean if mean else 0.0

    def summary_lines(self) -> list[str]:
        lines = [
            f"sim time          : {self.sim_time:.6f} s",
            f"leaf tasks        : {self.total_leaves}",
            f"splits            : {sum(p.executed_splits for p in self.processes)}",
            f"messages / bytes  : {self.total_messages:.0f} / {self.total_bytes:.3g}",
            f"migrations        : {self.migrations:.0f}",
            f"replications      : {self.replications:.0f}",
            f"invalidations     : {self.invalidations:.0f}",
            f"index lookups/hops: {self.index_lookups} / {self.index_hops}",
            f"lock waits        : {self.lock_waits:.0f}",
            f"load imbalance    : {self.load_imbalance():.3f}",
        ]
        return lines


def report(runtime: "AllScaleRuntime") -> RuntimeReport:
    """A snapshot of ``runtime`` at the current simulated time."""
    metrics = runtime.metrics
    snapshot = RuntimeReport(
        sim_time=runtime.now,
        total_messages=metrics.counter("net.messages"),
        total_bytes=metrics.counter("net.bytes"),
        migrations=metrics.counter("dm.migrations"),
        replications=metrics.counter("dm.replicas_fetched"),
        invalidations=metrics.counter("dm.invalidations"),
        index_lookups=runtime.index.lookups,
        index_hops=runtime.index.lookup_hops,
        lock_waits=metrics.counter("proc.lock_waits"),
    )
    for process in runtime.processes:
        manager = process.data_manager
        owned_bytes = sum(
            item.region_bytes(manager.owned_region(item))
            for item in manager.fragments
        )
        replica_bytes = sum(
            item.region_bytes(manager.replica_region(item))
            for item in manager.fragments
        )
        snapshot.processes.append(
            ProcessReport(
                pid=process.pid,
                executed_leaves=process.executed_leaves,
                executed_splits=process.executed_splits,
                queued_tasks=process.queue_length(),
                active_tasks=process.active,
                backlog_seconds=process.node.backlog(),
                owned_bytes=owned_bytes,
                replica_bytes=replica_bytes,
                memory_used=process.node.memory_used,
            )
        )
    return snapshot
