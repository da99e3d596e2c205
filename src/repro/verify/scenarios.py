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


def _finish(runtime: AllScaleRuntime, *futures: Any) -> None:
    """Run until every spawned driver in ``futures`` has returned."""
    while not all(future.done for future in futures):
        if runtime.engine.run(max_events=100_000) == 0:
            raise RuntimeError("a scenario driver never completed")
    runtime.check_ownership_invariants()


def _rows(grid: Grid, lo: int, hi: int) -> Box:
    return Box.of((lo, 0), (hi, grid.shape[1]))


def _reader(grid: Grid, name: str, lo: int = 0, hi: int = 0) -> TaskSpec:
    """A task returning the sum of rows ``lo``–``hi`` (0: the last)."""
    rows = _rows(grid, lo, hi or grid.shape[0])
    return TaskSpec(
        name=name,
        reads={grid: grid.box(rows.lo, rows.hi)},
        flops=1e5,
        size_hint=rows.size(),
        body=lambda ctx: float(ctx.fragment(grid).gather(rows).sum()),
    )


def _writer(
    grid: Grid, name: str, lo: int, hi: int, value: float, **spec: Any
) -> TaskSpec:
    """A task filling rows ``lo``–``hi`` with ``value`` and returning it."""
    rows = _rows(grid, lo, hi)

    def body(ctx: Any) -> float:
        ctx.fragment(grid).scatter(rows, np.full(rows.widths(), value))
        return value

    spec.setdefault("size_hint", rows.size())
    spec.setdefault("flops", 2e5)
    return TaskSpec(
        name=name, writes={grid: grid.box(rows.lo, rows.hi)}, body=body, **spec
    )


def _scenario(
    runtime: AllScaleRuntime, run: Callable[[list[Any]], None]
) -> ScenarioInstance:
    """An instance whose ``run`` collects the results it fingerprints."""
    results: list[Any] = []
    return ScenarioInstance(
        runtime.engine,
        lambda: run(results),
        lambda: _runtime_fingerprint(runtime, results),
    )


# -- scenario 1: migration under read ------------------------------------------------


def _migration_under_read() -> ScenarioInstance:
    runtime = _make_runtime(2)
    grid = Grid((4, 4), name="g")
    runtime.register_item(grid, placement=grid.decompose(2))

    def run(results: list[Any]) -> None:
        treetures = [
            runtime.submit(_writer(grid, "whole-write", 0, 4, 3.0), origin=0),
            runtime.submit(_reader(grid, "whole-read"), origin=1),
        ]
        results.extend(_drive(runtime, treetures))

    return _scenario(runtime, run)


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

    def churn(targets: tuple[int, int]) -> Generator:
        # balancer-style ownership migrations: each round pulls the
        # contended rows to the next target, racing any in-flight replica
        # fetch exactly like LoadBalancer.rebalance_once slices do
        for round_no in range(6):
            target = targets[round_no % 2]
            manager = runtime.process(target).data_manager
            yield from manager._acquire_ownership(grid, contended)

    def run(results: list[Any]) -> None:
        churns = [runtime.spawn(churn(targets)) for targets in phases]
        treeture = runtime.submit(_reader(grid, "pinned-read"), origin=0)
        results.extend(_drive(runtime, [treeture]))
        _finish(runtime, *churns)

    return _scenario(runtime, run)


# -- scenario 2b: a migration away from a reading owner ------------------------------


def _migration_vs_owner_read() -> ScenarioInstance:
    """One migration pulls the whole grid off the node a reader runs on.

    The reader is placed on the owner, so it stages nothing and takes its
    locks right after its start overhead; the migration must see those
    locks at its commit point, not only before its export overhead.
    """
    runtime = _make_runtime(2)
    grid = Grid((6, 2), name="g")
    whole = grid.full_region
    runtime.register_item(grid, placement=[grid.empty_region(), whole])

    def run(results: list[Any]) -> None:
        migration = runtime.spawn(
            runtime.process(0).data_manager._acquire_ownership(grid, whole)
        )
        reader = _reader(grid, "owner-read")
        results.extend(_drive(runtime, [runtime.submit(reader, origin=1)]))
        _finish(runtime, migration)

    return _scenario(runtime, run)


# -- scenario 3: overlapping write-intent chain --------------------------------------


def _write_intent_chain() -> ScenarioInstance:
    runtime = _make_runtime(2)
    grid = Grid((6, 2), name="g")
    runtime.register_item(grid, placement=grid.decompose(2))
    # w1 writes the bottom and *reads* the top (its read premise is what a
    # younger writer must respect); w2's write overlaps w1's read
    top = grid.box((3, 0), (6, 2))
    w1 = _writer(grid, "w1", 0, 3, 1.0, reads={grid: top}, size_hint=12)
    w2 = _writer(grid, "w2", 3, 6, 2.0, size_hint=12)

    def run(results: list[Any]) -> None:
        treetures = [
            runtime.submit(w1, origin=0),
            runtime.submit(w2, origin=1),
            runtime.submit(_reader(grid, "r1", 2), origin=0),
        ]
        results.extend(_drive(runtime, treetures))

    return _scenario(runtime, run)


# -- scenario 3b: two writers straddling the ownership boundary ---------------------


def _writer_straddle() -> ScenarioInstance:
    """Two writers each straddle the ownership boundary from its own side.

    Each must pull the other's rows to stage: without an order between
    their intents, each steals back what the other just staged.
    """
    runtime = _make_runtime(2)
    grid = Grid((6, 2), name="g")
    runtime.register_item(grid, placement=grid.decompose(2))

    def run(results: list[Any]) -> None:
        treetures = [
            runtime.submit(_writer(grid, "w1", 1, 5, 1.0), origin=0),
            runtime.submit(_writer(grid, "w2", 2, 6, 2.0), origin=1),
        ]
        results.extend(_drive(runtime, treetures))

    return _scenario(runtime, run)


# -- scenario 3c: a copy in transit against its owner's writer -----------------------


def _replica_vs_owner_write() -> ScenarioInstance:
    """A whole-grid reader copies the rows a writer on their owner writes.

    Whichever of the two runs first, a read after both must see the
    write: a copy cut before the write (or during the source's charge)
    must be invalidated, even while its bytes are still on the wire.
    """
    runtime = _make_runtime(2)
    grid = Grid((6, 2), name="g")
    runtime.register_item(
        grid, placement=[grid.box((0, 0), (4, 2)), grid.box((4, 0), (6, 2))]
    )

    def run(results: list[Any]) -> None:
        treetures = [
            runtime.submit(_reader(grid, "R"), origin=0),
            runtime.submit(_writer(grid, "W", 4, 6, 5.0), origin=1),
        ]
        results.extend(_drive(runtime, treetures))
        after = _drive(runtime, [runtime.submit(_reader(grid, "R2"), origin=0)])
        if after != [20.0]:
            raise RuntimeError(f"R2 read stale data: {after[0]} != 20.0")
        results.extend(after)

    return _scenario(runtime, run)


# -- scenario 4: replica cache invalidation under coalescing -------------------------


def _replica_cache_invalidation() -> ScenarioInstance:
    runtime = _make_runtime(2, comm_coalescing=True, replica_prefetch=True)
    grid = Grid((4, 2), name="g")
    runtime.register_item(grid, placement=grid.decompose(2))

    def run(results: list[Any]) -> None:
        treetures = [
            runtime.submit(_reader(grid, "r1"), origin=0),
            runtime.submit(_reader(grid, "r2", 1), origin=1),
            runtime.submit(_writer(grid, "w1", 2, 4, 7.0), origin=0),
        ]
        results.extend(_drive(runtime, treetures))

    return _scenario(runtime, run)


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

    def run(results: list[Any]) -> None:
        seeds = [
            runtime.submit(
                _writer(grid, f"seed{pid}", 2 * pid, 2 * pid + 2, pid + 1.0,
                        flops=1e5),
                origin=pid,
            )
            for pid in range(3)
        ]
        results.extend(_drive(runtime, seeds))
        _finish(runtime, runtime.spawn(choreography()))
        reader = _reader(grid, "survivor-read")
        results.extend(_drive(runtime, [runtime.submit(reader, origin=0)]))

    return _scenario(runtime, run)


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
            "writer_straddle",
            "two writers each pull the other's boundary rows to stage "
            "(2 nodes)",
            _writer_straddle,
        ),
        Scenario(
            "replica_vs_owner_write",
            "a whole-grid reader's copy of the rows a writer on their "
            "owner writes; a later read must see the write (2 nodes)",
            _replica_vs_owner_write,
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
