"""Bundled model-checking scenarios: small clusters, adversarial protocols.

Each scenario is a factory of fresh, self-contained instances — a 2–3 node
runtime plus a driver that submits a handful of deliberately conflicting
tasks.  The explorer builds one instance per explored branch, so instances
must not share mutable state.  Every runtime-based instance attaches a
strict :class:`~repro.runtime.sentinel.RuntimeSentinel` (§2.5 invariants
raise mid-run) and checks the ownership invariants after completion; its
fingerprint hashes the *logical* terminal state — ownership layout and
fragment contents plus task results — never simulated timestamps, which
legitimately differ across schedules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Generator

import numpy as np

from repro.items.grid import Grid
from repro.regions.box import Box
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.sentinel import RuntimeSentinel, SentinelConfig
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec


class ScenarioInstance:
    """One runnable copy of a scenario (engine + driver + fingerprint)."""

    def __init__(
        self,
        engine: Any,
        run: Callable[[], None],
        fingerprint: Callable[[], str],
    ) -> None:
        self.engine = engine
        self._run = run
        self._fingerprint = fingerprint

    def run(self) -> None:
        """Drive the scenario to completion; raises on any failure."""
        self._run()

    def fingerprint(self) -> str:
        return self._fingerprint()


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    build: Callable[[], ScenarioInstance]


def _make_runtime(nodes: int, **config: Any) -> AllScaleRuntime:
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=1, flops_per_core=1e9)
    )
    runtime = AllScaleRuntime(
        cluster, RuntimeConfig(functional=True, **config)
    )
    # REPRO_SENTINEL=1 auto-attaches a strict sentinel of its own
    if runtime.probe.observer(RuntimeSentinel) is None:
        RuntimeSentinel(runtime, SentinelConfig(strict=True)).attach()
    return runtime


def _runtime_fingerprint(
    runtime: AllScaleRuntime, results: list[Any]
) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(repr(result).encode())
    for item in runtime.items:
        digest.update(item.name.encode())
        for process in runtime.processes:
            manager = process.data_manager
            owned = manager.owned_region(item)
            digest.update(f"|{process.pid}:{owned!r}".encode())
            if not owned.is_empty():
                payload = manager.fragment(item).extract(owned)
                # data is a list of (box, ndarray) pieces for grid items
                for box, values in payload.data or ():
                    digest.update(repr(box).encode())
                    digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()[:16]


def _drive(runtime: AllScaleRuntime, treetures: list[Any]) -> list[Any]:
    values = [runtime.wait(t) for t in treetures]
    runtime.check_ownership_invariants()
    return values


# -- scenario 1: migration under read ------------------------------------------------


def _migration_under_read() -> ScenarioInstance:
    runtime = _make_runtime(2)
    grid = Grid((4, 4), name="g")
    runtime.register_item(grid, placement=grid.decompose(2))
    results: list[Any] = []

    def write_body(ctx: Any) -> float:
        ctx.fragment(grid).scatter(
            Box.of((0, 0), (4, 4)), np.full((4, 4), 3.0)
        )
        return 3.0

    def read_body(ctx: Any) -> float:
        return float(ctx.fragment(grid).gather(Box.of((0, 0), (4, 4))).sum())

    writer = TaskSpec(
        name="whole-write",
        writes={grid: grid.box((0, 0), (4, 4))},
        flops=2e5,
        size_hint=16,
        body=write_body,
    )
    reader = TaskSpec(
        name="whole-read",
        reads={grid: grid.box((0, 0), (4, 4))},
        flops=1e5,
        size_hint=16,
        body=read_body,
    )

    def run() -> None:
        treetures = [
            runtime.submit(writer, origin=0),
            runtime.submit(reader, origin=1),
        ]
        results.extend(_drive(runtime, treetures))

    return ScenarioInstance(
        runtime.engine, run, lambda: _runtime_fingerprint(runtime, results)
    )


# -- scenario 2: balancer churn vs pinned reads --------------------------------------


def _balancer_vs_pin(*phases: tuple[int, int]) -> ScenarioInstance:
    runtime = _make_runtime(3)
    grid = Grid((6, 2), name="g")
    # the contended rows start owned by node 1; churn bounces them 1 <-> 2
    placement = [
        grid.box((0, 0), (2, 2)),
        grid.box((2, 0), (6, 2)),
        grid.empty_region(),
    ]
    runtime.register_item(grid, placement=placement)
    contended = grid.box((2, 0), (6, 2))
    results: list[Any] = []

    def churn(targets: tuple[int, int]) -> Generator:
        # balancer-style ownership migrations: each round pulls the
        # contended rows to the next target, racing any in-flight replica
        # fetch exactly like LoadBalancer.rebalance_once slices do
        for round_no in range(6):
            target = targets[round_no % 2]
            manager = runtime.process(target).data_manager
            yield from manager._acquire_ownership(grid, contended)

    def read_body(ctx: Any) -> float:
        return float(ctx.fragment(grid).gather(Box.of((0, 0), (6, 2))).sum())

    reader = TaskSpec(
        name="pinned-read",
        reads={grid: grid.box((0, 0), (6, 2))},
        flops=1e5,
        size_hint=12,
        body=read_body,
    )

    def run() -> None:
        churns = [runtime.spawn(churn(targets)) for targets in phases]
        treeture = runtime.submit(reader, origin=0)
        results.extend(_drive(runtime, [treeture]))
        while not all(future.done for future in churns):
            if runtime.engine.run(max_events=100_000) == 0:
                raise RuntimeError("churn driver never completed")
        runtime.check_ownership_invariants()

    return ScenarioInstance(
        runtime.engine, run, lambda: _runtime_fingerprint(runtime, results)
    )


# -- scenario 2b: a migration away from a reading owner ------------------------------


def _migration_vs_owner_read() -> ScenarioInstance:
    """One migration pulls the whole grid off the node a reader runs on.

    The reader is placed on the owner, so it stages nothing and takes its
    locks right after its start overhead; the migration must see those
    locks at its commit point, not only before its export overhead.
    """
    runtime = _make_runtime(2)
    grid = Grid((6, 2), name="g")
    whole = grid.box((0, 0), (6, 2))
    runtime.register_item(grid, placement=[grid.empty_region(), whole])
    results: list[Any] = []

    def read_body(ctx: Any) -> float:
        return float(ctx.fragment(grid).gather(Box.of((0, 0), (6, 2))).sum())

    reader = TaskSpec(
        name="owner-read",
        reads={grid: whole},
        flops=1e5,
        size_hint=12,
        body=read_body,
    )

    def run() -> None:
        migration = runtime.spawn(
            runtime.process(0).data_manager._acquire_ownership(grid, whole)
        )
        results.extend(_drive(runtime, [runtime.submit(reader, origin=1)]))
        while not migration.done:
            if runtime.engine.run(max_events=100_000) == 0:
                raise RuntimeError("migration never completed")
        runtime.check_ownership_invariants()

    return ScenarioInstance(
        runtime.engine, run, lambda: _runtime_fingerprint(runtime, results)
    )


# -- scenario 3: overlapping write-intent chain --------------------------------------


def _write_intent_chain() -> ScenarioInstance:
    runtime = _make_runtime(2)
    grid = Grid((6, 2), name="g")
    runtime.register_item(grid, placement=grid.decompose(2))
    results: list[Any] = []

    def scatter_body(lo: int, hi: int, value: float) -> Callable[[Any], float]:
        def body(ctx: Any) -> float:
            ctx.fragment(grid).scatter(
                Box.of((lo, 0), (hi, 2)), np.full((hi - lo, 2), value)
            )
            return value

        return body

    def read_body(ctx: Any) -> float:
        return float(ctx.fragment(grid).gather(Box.of((2, 0), (6, 2))).sum())

    # w1 writes the bottom and *reads* the top (its read premise is what a
    # younger writer must respect); w2's write overlaps w1's read
    w1 = TaskSpec(
        name="w1",
        writes={grid: grid.box((0, 0), (3, 2))},
        reads={grid: grid.box((3, 0), (6, 2))},
        flops=2e5,
        size_hint=12,
        body=scatter_body(0, 3, 1.0),
    )
    w2 = TaskSpec(
        name="w2",
        writes={grid: grid.box((3, 0), (6, 2))},
        flops=2e5,
        size_hint=12,
        body=scatter_body(3, 6, 2.0),
    )
    r1 = TaskSpec(
        name="r1",
        reads={grid: grid.box((2, 0), (6, 2))},
        flops=1e5,
        size_hint=8,
        body=read_body,
    )

    def run() -> None:
        treetures = [
            runtime.submit(w1, origin=0),
            runtime.submit(w2, origin=1),
            runtime.submit(r1, origin=0),
        ]
        results.extend(_drive(runtime, treetures))

    return ScenarioInstance(
        runtime.engine, run, lambda: _runtime_fingerprint(runtime, results)
    )


# -- scenario 4: replica cache invalidation under coalescing -------------------------


def _replica_cache_invalidation() -> ScenarioInstance:
    runtime = _make_runtime(2, comm_coalescing=True, replica_prefetch=True)
    grid = Grid((4, 2), name="g")
    runtime.register_item(grid, placement=grid.decompose(2))
    results: list[Any] = []

    def read_body(lo: int, hi: int) -> Callable[[Any], float]:
        def body(ctx: Any) -> float:
            return float(
                ctx.fragment(grid).gather(Box.of((lo, 0), (hi, 2))).sum()
            )

        return body

    def write_body(ctx: Any) -> float:
        ctx.fragment(grid).scatter(
            Box.of((2, 0), (4, 2)), np.full((2, 2), 7.0)
        )
        return 7.0

    r1 = TaskSpec(
        name="r1",
        reads={grid: grid.box((0, 0), (4, 2))},
        flops=1e5,
        size_hint=8,
        body=read_body(0, 4),
    )
    r2 = TaskSpec(
        name="r2",
        reads={grid: grid.box((1, 0), (4, 2))},
        flops=1e5,
        size_hint=6,
        body=read_body(1, 4),
    )
    w1 = TaskSpec(
        name="w1",
        writes={grid: grid.box((2, 0), (4, 2))},
        flops=2e5,
        size_hint=4,
        body=write_body,
    )

    def run() -> None:
        treetures = [
            runtime.submit(r1, origin=0),
            runtime.submit(r2, origin=1),
            runtime.submit(w1, origin=0),
        ]
        results.extend(_drive(runtime, treetures))

    return ScenarioInstance(
        runtime.engine, run, lambda: _runtime_fingerprint(runtime, results)
    )


# -- scenario 5: node failure during migration ---------------------------------------


def _node_failure_during_migration() -> ScenarioInstance:
    """A migration destination dies while the payload is on the wire.

    Ownership moved to the destination at export time; the crash drops it
    and the late payload must be *dead-lettered* — splicing it onto the
    corpse would leave bytes no process owns, invisible to the index.
    The choreography is event-driven (fail exactly when the in-flight
    marker appears), so the payload is mid-wire on every schedule; the
    fixed code recovers the lost regions from a checkpoint and a final
    read sees checkpoint-consistent values.
    """
    from repro.runtime.resilience import ResilienceManager

    runtime = _make_runtime(3)
    grid = Grid((6, 2), name="g")
    runtime.register_item(grid, placement=grid.decompose(3))
    resilience = ResilienceManager(runtime)
    results: list[Any] = []

    def seed(pid: int) -> TaskSpec:
        region = runtime.process(pid).data_manager.owned_region(grid)

        def body(ctx: Any) -> float:
            for box in region.boxes:
                ctx.fragment(grid).scatter(
                    box, np.full(box.widths(), float(pid + 1))
                )
            return float(pid + 1)

        return TaskSpec(
            name=f"seed{pid}",
            writes={grid: region},
            flops=1e5,
            size_hint=region.size(),
            body=body,
        )

    def read_body(ctx: Any) -> float:
        return float(ctx.fragment(grid).gather(Box.of((0, 0), (6, 2))).sum())

    reader = TaskSpec(
        name="survivor-read",
        reads={grid: grid.box((0, 0), (6, 2))},
        flops=1e5,
        size_hint=12,
        body=read_body,
    )

    def choreography() -> Generator:
        snapshot = yield from resilience.checkpoint()
        src, dst = 1, 2
        destination = runtime.process(dst).data_manager
        moving = runtime.process(src).data_manager.owned_region(grid)
        migration = runtime.spawn(
            destination.migrate_in(grid, moving, src)
        )
        # fail the destination the moment the payload is marked in
        # flight — after the atomic ownership handover, before landing
        while not destination.in_flight:
            yield 1e-7
        runtime.fail_process(dst)
        while not migration.done:
            yield 1e-7
        yield from resilience.recover_lost_data(snapshot)

    def run() -> None:
        seeds = [runtime.submit(seed(pid), origin=pid) for pid in range(3)]
        results.extend(_drive(runtime, seeds))
        fate = runtime.spawn(choreography())
        while not fate.done:
            if runtime.engine.run(max_events=100_000) == 0:
                raise RuntimeError("failure choreography never completed")
        results.extend(_drive(runtime, [runtime.submit(reader, origin=0)]))

    return ScenarioInstance(
        runtime.engine, run, lambda: _runtime_fingerprint(runtime, results)
    )


# -- scenario 6: service admission races ---------------------------------------------


def _service_admission() -> ScenarioInstance:
    from repro.service.core import ServiceConfig, ServiceCore
    from repro.service.jobs import JobSpec
    from repro.service.quotas import TenantConfig

    core = ServiceCore(
        ServiceConfig(
            nodes=2,
            cores_per_node=1,
            flops_per_core=1e9,
            tenants=(
                TenantConfig("alpha", weight=2.0),
                TenantConfig("beta", weight=1.0),
            ),
            max_running_jobs=2,
            events_per_slice=500,
        )
    )
    compute = {"flops": 2e6, "tasks": 2}
    records: list[Any] = []

    def run() -> None:
        records.extend(
            [
                core.submit(
                    JobSpec(tenant="alpha", kind="compute", params=compute)
                ),
                core.submit(
                    JobSpec(tenant="beta", kind="compute", params=compute)
                ),
                core.submit(
                    JobSpec(tenant="alpha", kind="compute", params=compute)
                ),
            ]
        )
        core.run_until_drained()
        core.check_invariants()

    def fingerprint() -> str:
        digest = hashlib.sha256()
        for record in records:
            digest.update(f"{record.job_id}:{record.state}".encode())
        for name in sorted(core.ledgers):
            ledger = core.ledgers[name]
            digest.update(f"|{name}:{ledger.used:.9f}".encode())
        return digest.hexdigest()[:16]

    return ScenarioInstance(core.engine, run, fingerprint)


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "migration_under_read",
            "a whole-grid writer consolidating ownership races a "
            "whole-grid reader's replica fetches (2 nodes)",
            _migration_under_read,
        ),
        Scenario(
            "balancer_vs_pin",
            "balancer-style ownership churn bounces contended rows "
            "between two nodes while a third reads them (3 nodes)",
            lambda: _balancer_vs_pin((2, 1)),
        ),
        Scenario(
            "counterphase_vs_pin",
            "two churn loops in opposite phase bounce the contended rows "
            "between two nodes while a third reads them (3 nodes)",
            lambda: _balancer_vs_pin((2, 1), (1, 2)),
        ),
        Scenario(
            "migration_vs_owner_read",
            "one ownership migration pulls the grid off the node whose "
            "reader is about to lock it (2 nodes)",
            _migration_vs_owner_read,
        ),
        Scenario(
            "write_intent_chain",
            "two writers with overlapping write/read premises plus a "
            "reader exercise the write-intent total order (2 nodes)",
            _write_intent_chain,
        ),
        Scenario(
            "replica_cache_invalidation",
            "coalesced + prefetched replica fetches against an "
            "invalidating writer (2 nodes)",
            _replica_cache_invalidation,
        ),
        Scenario(
            "node_failure_during_migration",
            "the destination of an ownership migration crashes while "
            "the payload is on the wire; the late payload must be "
            "dead-lettered and the loss recovered from a checkpoint "
            "(3 nodes)",
            _node_failure_during_migration,
        ),
        Scenario(
            "service_admission",
            "three tenant jobs contend for two run slots on the shared "
            "service cluster; ledgers must balance (2 nodes)",
            _service_admission,
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None
