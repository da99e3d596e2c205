"""Simulated compute nodes.

A node owns a set of worker cores, each with its own busy-until timeline,
and a main-memory budget.  Work is expressed in seconds of core time (the
apps derive it from FLOP counts and a calibrated per-core rate); the node
places each work item on the earliest-available core — the behaviour of an
HPX worker pool that steals within the node, abstracted to its timing
effect.
"""

from __future__ import annotations

from repro.sim.engine import Future, SimEngine
from repro.sim.metrics import MetricRegistry


class MemoryExhaustedError(RuntimeError):
    """A fragment allocation exceeded the node's memory budget."""


class SimNode:
    """One cluster node: ``cores`` workers and ``memory_bytes`` of RAM."""

    __slots__ = (
        "engine",
        "node_id",
        "num_cores",
        "flops_per_core",
        "memory_bytes",
        "memory_used",
        "metrics",
        "_core_free_at",
        "_busy_time",
    )

    def __init__(
        self,
        engine: SimEngine,
        node_id: int,
        cores: int,
        flops_per_core: float,
        memory_bytes: float = float("inf"),
        metrics: MetricRegistry | None = None,
    ) -> None:
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        if flops_per_core <= 0:
            raise ValueError("flops_per_core must be positive")
        self.engine = engine
        self.node_id = node_id
        self.num_cores = cores
        self.flops_per_core = flops_per_core
        self.memory_bytes = memory_bytes
        self.memory_used = 0.0
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self._core_free_at = [0.0] * cores
        self._busy_time = 0.0

    # -- compute -------------------------------------------------------------------

    def execute(self, cost_seconds: float) -> Future:
        """Occupy the earliest-free core for ``cost_seconds``.

        Only task work books a core: leaf compute and the task start and
        spawn overheads.  Runtime control work (parcels, fragment ops) goes
        through :meth:`interleave`.  Returns a future completing when the
        work finishes.
        """
        return self._occupy(cost_seconds, ahead=False)

    def interleave(self, cost_seconds: float) -> Future:
        """Run ``cost_seconds`` of short runtime control work *now*.

        The work slots in ahead of whatever the earliest-free core has
        booked, the way a worker thread services a parcel between two
        compute tasks: it completes at ``now + cost_seconds``, and that
        core's booked work shifts back by ``cost_seconds``.  Busy time and
        ``node.tasks_executed`` are charged as by ``execute``; on an idle
        core the two are identical.
        """
        return self._occupy(cost_seconds, ahead=True)

    def _occupy(self, cost_seconds: float, ahead: bool) -> Future:
        if cost_seconds < 0:
            raise ValueError(f"negative cost {cost_seconds}")
        engine = self.engine
        now = engine.now
        free_at = self._core_free_at
        core = min(range(self.num_cores), key=free_at.__getitem__)
        booked = max(now, free_at[core])
        start = now if ahead else booked
        free_at[core] = booked + cost_seconds
        self._busy_time += cost_seconds
        metrics = self.metrics
        metrics.incr("node.tasks_executed")
        metrics.observe("node.queue_wait", start - now)
        done = engine.future()
        engine.schedule_at(start + cost_seconds, lambda: done.complete(engine.now))
        return done

    def execute_parallel(self, cost_seconds: float) -> Future:
        """Occupy *all* cores for ``cost_seconds`` (node-wide kernel).

        Models an OpenMP-style parallel region / an MPI rank driving the
        whole node; starts when every core is free.
        """
        if cost_seconds < 0:
            raise ValueError(f"negative cost {cost_seconds}")
        engine = self.engine
        start = max(engine.now, max(self._core_free_at))
        finish = start + cost_seconds
        for core in range(self.num_cores):
            self._core_free_at[core] = finish
        self._busy_time += cost_seconds * self.num_cores
        self.metrics.incr("node.parallel_regions")
        done = engine.future()
        engine.schedule_at(finish, lambda: done.complete(engine.now))
        return done

    def flops_to_seconds(self, flops: float) -> float:
        """Convert a FLOP count to single-core seconds on this node."""
        return flops / self.flops_per_core

    def flops_to_seconds_parallel(self, flops: float) -> float:
        """Seconds for ``flops`` spread perfectly over all cores."""
        return flops / (self.flops_per_core * self.num_cores)

    def backlog(self) -> float:
        """Average seconds of queued work per core — a load signal."""
        now = self.engine.now
        return sum(max(0.0, t - now) for t in self._core_free_at) / self.num_cores

    def busy_fraction(self, elapsed: float) -> float:
        """Core utilization over ``elapsed`` simulated seconds."""
        if elapsed <= 0:
            return 0.0
        return self._busy_time / (elapsed * self.num_cores)

    # -- memory --------------------------------------------------------------------

    def allocate(self, nbytes: float) -> None:
        if self.memory_used + nbytes > self.memory_bytes:
            raise MemoryExhaustedError(
                f"node {self.node_id}: allocation of {nbytes:.3g} B exceeds "
                f"budget ({self.memory_used:.3g}/{self.memory_bytes:.3g} B used)"
            )
        self.memory_used += nbytes

    def free(self, nbytes: float) -> None:
        self.memory_used = max(0.0, self.memory_used - nbytes)

    def __repr__(self) -> str:
        return (
            f"SimNode(id={self.node_id}, cores={self.num_cores}, "
            f"mem={self.memory_used:.3g}/{self.memory_bytes:.3g})"
        )
