"""The AllScale runtime façade.

Assembles the per-process components (queues, lock tables, data item
managers), the hierarchical index, and the scheduler over a simulated
cluster, and exposes the small API applications use:

* :meth:`register_item` — introduce a data item (the *create* action),
  optionally pre-placing an initial distribution;
* :meth:`submit` — schedule a task, receiving its treeture;
* :meth:`spawn` / :meth:`run` — drive simulation processes and the event
  loop;
* :meth:`wait` — run the event loop until a treeture completes.

The runtime also keeps the system-wide replica registry used to enforce
the exclusive-writes property (replicas of a region being written are
invalidated before the write starts).
"""

from __future__ import annotations

import math
from typing import Any, Generator, Sequence

from repro.analysis import admission
from repro.items.base import DataItem
from repro.regions.base import Region
from repro.regions.bounds import bounds_disjoint
from repro.regions.kernel import get_kernel
from repro.runtime import sentinel
from repro.runtime.config import CONTROL_MESSAGE_BYTES, RuntimeConfig
from repro.runtime.data_manager import Signal
from repro.runtime.index import HierarchicalIndex
from repro.runtime.policies import DataAwarePolicy, SchedulingPolicy
from repro.runtime.probe import Probe
from repro.runtime.process import RuntimeProcess
from repro.runtime.scheduler import Scheduler
from repro.runtime.tasks import TaskSpec, Treeture
from repro.sim.cluster import Cluster

#: process-wide observer switches every new runtime honours (REPRO_SENTINEL,
#: REPRO_ANALYZE, ``enable_globally``).  Importing ``repro.analysis`` for it
#: is the runtime layer's one sanctioned upward import: the env vars must
#: work from entry points that import neither module.
AUTO_ATTACHED = (sentinel.ENABLEMENT, admission.ENABLEMENT)


class AllScaleRuntime:
    """One runtime instance spanning a whole simulated cluster."""

    def __init__(
        self,
        cluster: Cluster,
        config: RuntimeConfig | None = None,
        policy: SchedulingPolicy | None = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or RuntimeConfig()
        self.policy = policy or DataAwarePolicy()
        # policies are reused across runtimes (the placement tournament
        # races one instance over many runs) — drop any run-local state
        self.policy.reset()
        self.engine = cluster.engine
        self.network = cluster.network
        self.metrics = cluster.metrics
        #: the one instrumentation seam (repro.runtime.probe): sentinel,
        #: happens-before monitor, tracer and admission subscribe here
        self.probe = Probe(self.engine)
        self.index = HierarchicalIndex(
            self.network, cluster.num_nodes, probe=self.probe
        )
        self.scheduler = Scheduler(self)
        self.processes = [
            RuntimeProcess(self, pid, node)
            for pid, node in enumerate(cluster.nodes)
        ]
        #: registered items, in registration order, with their home maps
        self._home_maps: dict[DataItem, list[Region] | None] = {}
        self._replicas: dict[DataItem, dict[int, Region]] = {}
        #: staging write intents: id(task) -> (seq, {item: write region},
        #: task ref — pins the id).  Registered while a leaf stages its
        #: write set, cleared once its locks are verified; a writer pulling
        #: ownership defers to *older* overlapping intents.
        self._write_intents: dict[int, tuple[int, dict, object]] = {}
        self._intent_seq = 0
        #: fires whenever an intent is set or cleared
        self.intents = Signal(self.engine)
        #: optional periodic load balancer; created (but not started) when
        #: the config asks for it — drivers start it around the measured
        #: phase and stop it before returning, so the event loop drains
        self.balancer = None
        if self.config.load_balancing:
            from repro.runtime.balancer import LoadBalancer

            self.balancer = LoadBalancer(
                self, interval=self.config.balancer_interval
            )
        # kernel counters are process-wide; remember the creation-time
        # snapshot so this runtime's metrics report only its own activity
        self._region_stats_base = get_kernel().stats()
        for enablement in AUTO_ATTACHED:
            enablement.attach_from_global(self)

    # -- structure ---------------------------------------------------------------

    @property
    def num_processes(self) -> int:
        return len(self.processes)

    def process(self, pid: int) -> RuntimeProcess:
        return self.processes[pid]

    @property
    def items(self) -> list[DataItem]:
        return list(self._home_maps)

    # -- data items -----------------------------------------------------------------

    def register_item(
        self,
        item: DataItem,
        placement: list[Region] | None = None,
    ) -> None:
        """Introduce a data item to the runtime (the *create* action).

        ``placement`` optionally pre-allocates region ``placement[p]`` at
        process ``p`` — the moral equivalent of an application whose
        initialization tasks have already spread the data (used by tests
        and by apps that start from a known distribution).

        A policy carrying an offline :class:`~repro.placement.plan.
        PlacementPlan` (``planned_layout``) overrides ``placement``: the
        plan's layout for this item is pre-distributed, which is the
        planner's whole point — data starts where the plan wants the
        tasks to land.

        Without either, a policy that ``births_at_home`` (the default
        :class:`~repro.runtime.policies.DataAwarePolicy`) allocates the
        item at its :meth:`home_map` — the *create* rule followed by an
        *(init)* at every home, so no task has to look up data that no one
        owns yet.  Blocks of failed processes, items without a
        ``decompose`` and the other policies are left to first touch.
        The allocation is uncharged in simulated time, like
        ``placement``; its index-maintenance messages are charged.
        """
        if item in self._home_maps:
            raise ValueError(f"item {item.name!r} registered twice")
        planned = self.policy.planned_layout(item, self.num_processes)
        if planned is not None:
            placement = planned
            self.metrics.incr("placement.preplaced_items")
        self.index.register_item(item)
        homes = self._home_maps[item] = self._decompose(item)
        for notify in self.probe.item_registered:
            notify(item)
        if placement is None and homes is not None and self.policy.births_at_home:
            placement = [
                item.empty_region() if process.failed else home
                for process, home in zip(self.processes, homes)
            ]
        if placement is not None:
            if len(placement) != self.num_processes:
                raise ValueError(
                    f"placement has {len(placement)} entries for "
                    f"{self.num_processes} processes"
                )
            for pid, region in enumerate(placement):
                if not region.is_empty():
                    self.processes[pid].data_manager.allocate(item, region)

    def home_map(self, item: DataItem) -> list[Region] | None:
        """``item``'s even spread over the processes (``None`` without a
        ``decompose``): where the default policy allocates it at
        registration, and what a split with nothing owned cuts along."""
        return self._home_maps.get(item)

    def _decompose(self, item: DataItem) -> list[Region] | None:
        """``item``'s even spread over the current processes, if it has one."""
        try:
            return item.decompose(self.num_processes)
        except NotImplementedError:
            return None

    def destroy_item(self, item: DataItem) -> None:
        """Drop an item's fragments and bookkeeping (the *destroy* action)."""
        # announced before the teardown: a sanctioned coverage drop
        for notify in self.probe.item_destroyed:
            notify(item)
        for process in self.processes:
            manager = process.data_manager
            fragment = manager.fragments.pop(item, None)
            if fragment is not None:
                process.node.free(fragment.nbytes)
            manager.replica_cache.forget(item)
            self.index.update_ownership(item, process.pid, item.empty_region())
        self._replicas.pop(item, None)
        self._home_maps.pop(item, None)

    # -- elastic membership (dynamic environments, paper §2.4 outlook) ---------------------

    def add_process(
        self,
        cores: int | None = None,
        flops_per_core: float | None = None,
        memory_bytes: float | None = None,
        gpus: int | None = None,
    ) -> int:
        """Grow the runtime by one process on a freshly joined node.

        The cluster gains a (possibly heterogeneous) node, the index
        hierarchy grows to cover the new leaf, and the structural home
        maps are recomputed over the new process count so items born
        later, and first touches, include the newcomer.  Existing
        ownership is untouched — use :func:`repro.runtime.elastic.
        scale_out` to also migrate an ownership share over.  Returns the
        new pid.
        """
        node_id = self.cluster.add_node(
            cores=cores,
            flops_per_core=flops_per_core,
            memory_bytes=memory_bytes,
            gpus=gpus,
        )
        self.index.grow(self.cluster.num_nodes)
        process = RuntimeProcess(self, node_id, self.cluster.node(node_id))
        self.processes.append(process)
        self._refresh_home_maps()
        if self.balancer is not None:
            self.balancer.on_capacity_change()
        self.metrics.incr("runtime.nodes_joined")
        return node_id

    def _refresh_home_maps(self) -> None:
        """Recompute structural spreading hints after a capacity change."""
        for item in self._home_maps:
            self._home_maps[item] = self._decompose(item)

    # -- node failure (dynamic environments, paper §2.4 outlook) ---------------------------

    def fail_process(self, pid: int) -> None:
        """Simulate the crash of one node.

        Must be invoked at a task barrier (no tasks queued or running on
        the victim).  All data the node held — owned fragments and
        replicas — is lost; the index is updated so lookups report the
        lost regions as present nowhere.  Use
        :meth:`~repro.runtime.resilience.ResilienceManager.recover_lost_data`
        with a prior checkpoint to re-materialize the lost regions on the
        survivors.
        """
        process = self.processes[pid]
        if process.failed:
            raise RuntimeError(f"process {pid} has already failed")
        if process.queue or process.active:
            raise RuntimeError(
                f"process {pid} still has work; failures are only modelled "
                "at task barriers"
            )
        process.failed = True
        manager = process.data_manager
        victims = sorted(
            (
                item
                for item in self._home_maps
                if item in manager.fragments
                or not manager.owned_region(item).is_empty()
            ),
            key=lambda item: item.name,
        )
        for item in victims:
            # every copy registered here, landed or still on the wire
            self.unregister_replica(item, pid, item.full_region)
            self.index.update_ownership(item, pid, item.empty_region())
        manager.fragments.clear()
        # transfers addressed to the corpse: the markers die with it (the
        # ownership they covered was just dropped above), and any payload
        # still on the wire is discarded on arrival (dead-lettered) —
        # waiters re-check and find the regions present nowhere
        manager.in_flight.regions.clear()
        manager.fetching.regions.clear()
        manager.in_flight.fire()
        manager.fetching.fire()
        process.node.memory_used = 0.0
        for notify in self.probe.process_failed:
            notify(pid)
        self.metrics.incr("runtime.node_failures")

    def alive_processes(self) -> list[int]:
        return [p.pid for p in self.processes if not p.failed]

    def available_processes(self) -> list[int]:
        """Processes eligible for new work: alive and not held (draining or
        a storm victim)."""
        return [p.pid for p in self.processes if not (p.failed or p.held)]

    def _redirect_if_failed(self, target: int) -> int:
        """Route around failed processes (next alive pid).  A held process
        still takes placements: its queue is re-placed when it departs."""
        for offset in range(self.num_processes):
            candidate = self.processes[(target + offset) % self.num_processes]
            if not candidate.failed:
                return candidate.pid
        raise RuntimeError("all processes have failed")

    # -- replica registry ---------------------------------------------------------------

    def register_replica(self, item: DataItem, pid: int, region: Region) -> None:
        if region.is_empty():
            return
        for notify in self.probe.table_publish:
            notify(("rep", item.name), region)
        holders = self._replicas.setdefault(item, {})
        current = holders.get(pid, item.empty_region())
        holders[pid] = current.union(region)

    def unregister_replica(self, item: DataItem, pid: int, region: Region) -> None:
        for notify in self.probe.table_publish:
            notify(("rep", item.name), region)
        holders = self._replicas.get(item)
        if not holders or pid not in holders:
            return
        remaining = holders[pid].difference(region)
        if remaining.is_empty():
            del holders[pid]
        else:
            holders[pid] = remaining

    def replica_holders(self, item: DataItem) -> dict[int, Region]:
        for notify in self.probe.table_read:
            notify(("rep", item.name), None)
        return dict(self._replicas.get(item, {}))

    # -- write-intent reservations ----------------------------------------------------
    #
    # Staging is lock-free, so two writers stealing each other's staged
    # ownership can ping-pong indefinitely: a livelock the randomized-DAG
    # sweep and ``writer_straddle`` reproduce.  Intents break the symmetry
    # with a total order — a writer pulling ownership only ever waits for
    # strictly *older* intents, so the oldest one always makes progress and
    # the wait graph is acyclic.  Nothing else consults the table.

    def register_write_intent(self, owner: object, regions: dict) -> None:
        """Reserve ``regions`` ({item: write region}) while ``owner`` stages."""
        for notify in self.probe.table_publish:
            for item in regions:
                notify(("intent", item.name), None)
        self._intent_seq += 1
        self._write_intents[id(owner)] = (self._intent_seq, dict(regions), owner)
        self.intents.fire()

    def clear_write_intent(self, owner: object) -> None:
        entry = self._write_intents.pop(id(owner), None)
        if entry is not None:
            for notify in self.probe.table_publish:
                for item in entry[1]:
                    notify(("intent", item.name), None)
            self.intents.fire()

    def write_intent_blocked(
        self, item: DataItem, region: Region, owner: object
    ) -> bool:
        """True while an intent ``owner`` must defer to overlaps ``region``.

        Intent holders defer only to older intents; anyone else (a pure
        reader's read escalation, an acquisition without a task) defers to
        every intent.
        """
        for notify in self.probe.table_read:
            notify(("intent", item.name), None)
        if not self._write_intents:
            return False
        own = self._write_intents.get(id(owner)) if owner is not None else None
        # intent seqs are unique: "older than the owner's own" also skips it
        before = own[0] if own is not None else math.inf
        hull = region.hull()
        for seq, regions, _ref in self._write_intents.values():
            other = regions.get(item)
            if (
                other is not None
                and seq < before
                and not bounds_disjoint(hull, other.hull())
                and other.overlaps(region)
            ):
                return True
        return False

    def invalidate_replicas(
        self, item: DataItem, region: Region, keeper: int
    ) -> Generator:
        """Drop every remote replica overlapping ``region``.

        Enforces the start rule's ``D ∩ Dw = ∅`` premise before a write;
        waits for local locks at each holder, exactly like the *migrate*
        guard would.
        """
        for notify in self.probe.table_read:
            notify(("rep", item.name), None)
        holders = self._replicas.get(item, {})
        hull = region.hull()
        # ascending pid: the sends this yields must keep their order
        for pid in sorted(holders):
            if pid == keeper:
                continue
            held = holders.get(pid)
            if held is None or bounds_disjoint(hull, held.hull()):
                continue
            overlap = held.intersect(region)
            if overlap.is_empty():
                continue
            yield self.network.send(keeper, pid, CONTROL_MESSAGE_BYTES)
            process = self.processes[pid]
            while process.locks.any_locked(item, overlap):
                yield process.locks.released.wait()
            process.data_manager.drop_replica(item, overlap)
            self.metrics.incr("dm.invalidations")

    # -- execution ---------------------------------------------------------------------

    def submit(
        self,
        task: TaskSpec,
        origin: int = 0,
        after: list[Treeture] | None = None,
    ) -> Treeture:
        """Schedule a task through Algorithm 2; returns its treeture.

        ``after`` defers placement until the listed treetures complete —
        dependency chaining without a global barrier.
        """
        # root submissions only: children re-dispatched during splitting
        # go through scheduler.assign directly
        for notify in self.probe.submit:
            notify(task)
        return self.scheduler.assign(task, origin=origin, after=after)

    def submit_all(
        self, tasks: Sequence[TaskSpec], origins: Sequence[int]
    ) -> list[Treeture]:
        """Schedule root ``tasks``, the ``k``-th from ``origins[k]``, through
        :meth:`Scheduler.assign_all`; returns their treetures in task order.
        Each is announced as a submission, in order, before any is placed."""
        for task in tasks:
            for notify in self.probe.submit:
                notify(task)
        return self.scheduler.assign_all(tasks, origins)

    def spawn(self, gen: Generator):
        """Run an application driver as a simulation process."""
        return self.engine.spawn(gen)

    def run(self, until: float | None = None) -> int:
        return self.engine.run(until=until)

    def wait(self, treeture: Treeture) -> Any:
        """Drive the event loop until ``treeture`` completes; return value."""
        return self._run_to_barrier(
            treeture, "{!r} never completed (lost dependency or deadlock)"
        )

    def wait_process(self, gen: Generator) -> Any:
        """Spawn an application driver and run until it returns."""
        return self._run_to_barrier(
            self.engine.spawn(gen), "the driver never returned"
        )

    def _run_to_barrier(self, awaited: Any, stalled: str) -> Any:
        while not awaited.done:
            processed = self.engine.run(max_events=100_000)
            if processed == 0 and not awaited.done:
                raise RuntimeError(
                    "event queue drained but " + stalled.format(awaited)
                )
        for notify in self.probe.barrier:
            notify()
        self.sync_region_metrics()
        return awaited.value

    def sync_region_metrics(self) -> None:
        """Publish region-kernel cache counters into :attr:`metrics`.

        Counters (``region.cache_hits``, ``region.cache_misses``,
        ``region.interned``, plus per-op breakdowns) are deltas since this
        runtime was created, so concurrent runtimes in one process don't
        pollute each other.  Called automatically when :meth:`wait` /
        :meth:`wait_process` complete; idempotent.
        """
        stats = get_kernel().stats()
        base = self._region_stats_base
        for name, value in stats.items():
            self.metrics.set(name, value - base.get(name, 0))
        self.metrics.set("engine.compactions", float(self.engine.compactions))

    @property
    def now(self) -> float:
        return self.engine.now

    # -- communication-layer introspection ---------------------------------------------

    def transfer_plans(self) -> list:
        """Finished transfer plans across all processes (audit window).

        Each data manager keeps its most recent plans in a bounded log;
        the static analyzer, sentinel tests, and property tests compare
        their planned against their moved bytes.
        """
        plans = []
        for process in self.processes:
            plans.extend(process.data_manager.plan_log)
        return plans

    def data_bytes_moved(self) -> int:
        """Total payload bytes that crossed address spaces so far."""
        return int(
            self.metrics.counter("dm.migrated_bytes")
            + self.metrics.counter("dm.replicated_bytes")
        )

    # -- invariants (test support) ----------------------------------------------------------

    def check_ownership_invariants(self) -> None:
        """Owned regions are disjoint across processes."""
        for item in self._home_maps:
            seen = item.empty_region()
            for process in self.processes:
                owned = process.data_manager.owned_region(item)
                overlap = seen.intersect(owned)
                if not overlap.is_empty():
                    raise AssertionError(
                        f"ownership of {item.name!r} overlaps between "
                        f"processes ({overlap.size()} elements)"
                    )
                seen = seen.union(owned)

    def __repr__(self) -> str:
        return (
            f"AllScaleRuntime({self.num_processes} processes, "
            f"t={self.engine.now:.6g}s)"
        )
