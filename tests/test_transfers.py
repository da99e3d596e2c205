"""Unit tests for transfer plans and the replica cache."""

import numpy as np

from repro.items.grid import Grid
from repro.regions.box import Box
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskProgram, TaskSpec
from repro.runtime.transfers import TransferPlan, plan_for_task
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.network import Network


def make_runtime(nodes=2, **config):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=2, flops_per_core=1e9)
    )
    return AllScaleRuntime(cluster, RuntimeConfig(**config))


def run_task(runtime, task):
    return runtime.wait(runtime.submit(task))


class TestTransferPlan:
    def test_plan_dedups_elements(self):
        grid = Grid((8, 8), name="g")
        plan = TransferPlan(dst=0)
        first = plan.plan(grid, grid.box((0, 0), (4, 8)), src=1, kind="replicate")
        assert first.same_elements(grid.box((0, 0), (4, 8)))
        # overlapping second intent only contributes the fresh elements
        second = plan.plan(grid, grid.box((2, 0), (6, 8)), src=1, kind="replicate")
        assert second.same_elements(grid.box((4, 0), (6, 8)))
        assert plan.planned_region(grid).same_elements(
            grid.box((0, 0), (6, 8))
        )
        # fully covered intent plans nothing
        third = plan.plan(grid, grid.box((1, 1), (3, 3)), src=1, kind="replicate")
        assert third.is_empty()
        assert len(plan.planned) == 2

    def test_planned_bytes_skip_allocations(self):
        grid = Grid((8, 8), name="g")
        plan = TransferPlan(dst=0)
        plan.plan(grid, grid.box((0, 0), (4, 8)), src=1, kind="replicate")
        plan.plan(grid, grid.box((4, 0), (8, 8)), src=0, kind="allocate")
        assert plan.planned_bytes() == grid.region_bytes(
            grid.box((0, 0), (4, 8))
        )

    def test_moved_and_refetched_regions(self):
        grid = Grid((8, 8), name="g")
        plan = TransferPlan(dst=0)
        region = grid.box((0, 0), (4, 8))
        nbytes = grid.region_bytes(region)
        plan.record_moved(grid, region, src=1, kind="replicate", nbytes=nbytes)
        assert plan.moved_region(grid).same_elements(region)
        assert plan.refetched_region(grid).is_empty()
        assert plan.refetched_bytes() == 0
        # the same elements travelling again count as refetched ...
        plan.record_moved(grid, region, src=1, kind="replicate", nbytes=nbytes)
        assert plan.refetched_region(grid).same_elements(region)
        assert plan.refetched_bytes() == nbytes
        # ... but allocations never do (they move no payload)
        plan2 = TransferPlan(dst=0)
        plan2.record_moved(grid, region, src=0, kind="allocate", nbytes=0)
        plan2.record_moved(grid, region, src=1, kind="replicate", nbytes=nbytes)
        assert plan2.refetched_region(grid).is_empty()

    def test_empty_records_ignored(self):
        grid = Grid((8, 8), name="g")
        plan = TransferPlan(dst=0)
        plan.record_moved(grid, grid.empty_region(), 1, "replicate", 0)
        plan.record_hit(grid, grid.empty_region())
        assert not plan.moved and not plan.hits
        assert plan.items() == []

    def test_hit_region_accumulates(self):
        grid = Grid((8, 8), name="g")
        plan = TransferPlan(dst=0)
        plan.record_hit(grid, grid.box((0, 0), (2, 8)))
        plan.record_hit(grid, grid.box((2, 0), (4, 8)))
        assert plan.hit_region(grid).same_elements(grid.box((0, 0), (4, 8)))

    def test_finish_publishes_metrics_once(self):
        runtime = make_runtime()
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid)
        plan = TransferPlan(dst=0, purpose="test")
        region = grid.box((0, 0), (4, 8))
        plan.plan(grid, region, src=1, kind="replicate")
        plan.record_moved(
            grid, region, 1, "replicate", grid.region_bytes(region)
        )
        plan.finish(runtime)
        plan.finish(runtime)  # idempotent
        assert runtime.metrics.counter("comms.plans") == 1
        assert runtime.metrics.counter("comms.planned_bytes") == plan.planned_bytes()
        assert runtime.metrics.counter("comms.moved_bytes") == plan.moved_bytes()
        assert runtime.metrics.counter("comms.refetched_bytes") == 0


class TestPlanForTask:
    def test_static_read_plan_replicates_remote_share(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        task = TaskSpec(
            name="r", reads={grid: grid.full_region}, body=lambda ctx: None
        )
        plan = plan_for_task(task, runtime, target=0)
        remote = runtime.index.owned_region(grid, 1)
        assert plan.planned_region(grid).same_elements(remote)
        assert {step.kind for step in plan.planned} == {"replicate"}
        assert all(step.src == 1 for step in plan.planned)

    def test_static_write_plan_migrates(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        task = TaskSpec(
            name="w", writes={grid: grid.full_region}, body=lambda ctx: None
        )
        plan = plan_for_task(task, runtime, target=0)
        kinds = {step.kind for step in plan.planned}
        assert kinds == {"migrate"}

    def test_static_plan_allocates_uninitialized(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        # nothing owned anywhere yet
        runtime.register_item(grid, placement=[grid.empty_region()] * 2)
        task = TaskSpec(
            name="w", writes={grid: grid.full_region}, body=lambda ctx: None
        )
        plan = plan_for_task(task, runtime, target=0)
        assert {step.kind for step in plan.planned} == {"allocate"}
        assert plan.planned_bytes() == 0

    def test_static_plan_matches_executed_staging(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        placement = grid.decompose(2)
        runtime.register_item(grid, placement=placement)
        # the write pins placement at process 0 (Algorithm 2 line 7), so
        # the static audit and the executed staging share a target
        task = TaskSpec(
            name="r",
            reads={grid: grid.full_region},
            writes={grid: placement[0]},
            body=lambda ctx: None,
            size_hint=1,
        )
        static = plan_for_task(task, runtime, target=0)
        run_task(runtime, task)
        executed = [
            plan for plan in runtime.transfer_plans() if plan.purpose == "r"
        ]
        assert executed
        moved = grid.empty_region()
        for plan in executed:
            moved = moved.union(plan.moved_region(grid))
        assert static.planned_region(grid).difference(moved).is_empty()


def tracked(cache, item):
    """The replica region ``cache`` tracks for ``item``."""
    region = item.empty_region()
    for entry in cache.entries(item):
        region = region.union(entry)
    return region


class TestReplicaCache:
    def replicate(self, runtime, grid, region, target=0):
        """Fetch a read replica of ``region`` into ``target`` directly."""
        manager = runtime.process(target).data_manager
        runtime.engine.spawn(manager._fetch_replicas(grid, region))
        runtime.run()

    def test_note_fetched_tracks_only_replicas(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        manager = runtime.process(0).data_manager
        cache = manager.replica_cache
        # owned bytes are not replicas: nothing to track
        cache.note_fetched(grid, manager.owned_region(grid))
        assert cache.entries(grid) == []

    def test_fetch_then_drop(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        self.replicate(runtime, grid, grid.full_region, target=0)
        manager = runtime.process(0).data_manager
        cache = manager.replica_cache
        replica = manager.replica_region(grid)
        assert not replica.is_empty()
        assert tracked(cache, grid).same_elements(replica)
        half = cache.entries(grid)[0]
        manager.drop_replica(grid, half)
        assert tracked(cache, grid).same_elements(replica.difference(half))

    def pinned_reader(self, grid, placement, name):
        """A task pinned at process 0 whose read spans the remote half."""
        return TaskSpec(
            name=name,
            reads={grid: grid.full_region},
            writes={grid: placement[0]},
            body=lambda ctx: None,
            size_hint=1,
        )

    def test_hit_and_miss_metrics(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        placement = grid.decompose(2)
        runtime.register_item(grid, placement=placement)
        remote = placement[1]
        run_task(runtime, self.pinned_reader(grid, placement, "r1"))
        misses = runtime.metrics.counter("comms.replica_misses")
        assert misses >= 1
        assert runtime.metrics.counter("comms.replica_miss_bytes") >= float(
            grid.region_bytes(remote)
        )
        # second read of the same region is served from the replica
        run_task(runtime, self.pinned_reader(grid, placement, "r2"))
        assert runtime.metrics.counter("comms.replica_hits") >= 1
        assert runtime.metrics.counter("comms.replica_misses") == misses
        assert runtime.metrics.counter("comms.replica_hit_bytes") >= float(
            grid.region_bytes(remote)
        )

    def test_revalidation_after_ownership_change(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        manager = runtime.process(0).data_manager
        cache = manager.replica_cache
        remote = runtime.index.owned_region(grid, 1)
        self.replicate(runtime, grid, remote, target=0)
        before = cache.entries(grid)
        assert before
        # the cache keeps no ownership epoch: an update of the owner's
        # leaf, here a no-op one, leaves the tracked replica as it was
        runtime.index.update_ownership(
            grid, 1, runtime.index.owned_region(grid, 1)
        )
        assert cache.entries(grid) == before
        hits = runtime.metrics.counter("comms.replica_hits")
        cache.record_hit(grid, remote)
        assert runtime.metrics.counter("comms.replica_hits") == hits + 1
        assert tracked(cache, grid).same_elements(remote)

    def test_destroyed_item_leaves_no_cache_entries(self):
        """A destroyed item's replicas leave the cache with it, and a later
        fetch of another item is tracked as usual."""
        runtime = make_runtime(nodes=2)
        a = Grid((4, 4), name="a")
        b = Grid((4, 4), name="b")
        for grid in (a, b):
            runtime.register_item(grid, placement=grid.decompose(2))
        cache = runtime.process(0).data_manager.replica_cache
        remote_a = runtime.index.owned_region(a, 1)
        self.replicate(runtime, a, remote_a)
        assert tracked(cache, a).same_elements(remote_a)
        runtime.destroy_item(a)
        assert cache.entries(a) == []
        remote_b = runtime.index.owned_region(b, 1)
        self.replicate(runtime, b, remote_b)
        assert cache.entries(a) == []
        assert tracked(cache, b).same_elements(remote_b)


class TestPlanLog:
    def test_runtime_collects_plans(self):
        runtime = make_runtime(nodes=2)
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        task = TaskSpec(
            name="w",
            writes={grid: grid.full_region},
            body=lambda ctx: ctx.fragment(grid).scatter(
                Box.of((0, 0), (8, 8)), np.ones((8, 8))
            ),
            size_hint=1,
        )
        run_task(runtime, task)
        plans = runtime.transfer_plans()
        assert plans
        assert all(plan.finished for plan in plans)
        moved = sum(plan.moved_bytes() for plan in plans)
        assert moved == runtime.data_bytes_moved()


class TestCoalescedDispatch:
    """With the communication layer on, tasks dispatched together share
    their messages: one parcel out, one completion back, and one prefetch
    request per owning peer."""

    def test_a_parcels_completions_return_in_one_message(self, monkeypatch):
        runtime = make_runtime(
            functional=False, comm_coalescing=True, replica_prefetch=True
        )
        grid = Grid((16,), name="g")
        # everything is pid 1's, so every child travels there from pid 0
        runtime.register_item(
            grid, placement=[grid.empty_region(), grid.full_region]
        )
        children = [
            TaskSpec(
                name=f"c{k}",
                writes={grid: grid.box((4 * k,), (4 * k + 4,))},
                flops=1e6 * (k + 1),  # they finish at different times
                body=lambda _ctx, k=k: k,
                body_in_virtual=True,
            )
            for k in range(4)
        ]
        bulks = []
        send_bulk = Network.send_bulk

        def spy(network, src, dst, sizes):
            bulks.append((src, dst, len(sizes)))
            return send_bulk(network, src, dst, sizes)

        monkeypatch.setattr(Network, "send_bulk", spy)
        treetures = runtime.scheduler.assign_batch(children, origin=0)
        values = [runtime.wait(treeture) for treeture in treetures]
        assert values == [0, 1, 2, 3]
        assert bulks == [(0, 1, 4), (1, 0, 4)]
        assert runtime.metrics.counter("sched.remote_dispatch") == 4

    def test_leaves_placed_together_prefetch_once_per_peer(self):
        runtime = make_runtime(
            functional=False, comm_coalescing=True, replica_prefetch=True
        )
        grid = Grid((32,), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        # two leaves at pid 0, each reading a different halo of pid 1's
        children = [
            TaskSpec(
                name=f"h{k}",
                writes={grid: grid.box((8 * k,), (8 * k + 8,))},
                reads={grid: grid.box((16 + 2 * k,), (18 + 2 * k,))},
                flops=1e6,
            )
            for k in range(2)
        ]
        for treeture in runtime.scheduler.assign_batch(children, origin=0):
            runtime.wait(treeture)
        assert [p.executed_leaves for p in runtime.processes] == [2, 0]
        assert runtime.metrics.counter("comms.prefetches") == 1
        assert runtime.metrics.counter("comms.coalesced_fetches") == 1
        assert runtime.metrics.counter("comms.coalesced_parts") == 2
        assert runtime.replica_holders(grid)[0].same_elements(
            grid.box((16,), (20,))
        )
        assert runtime.index.lookups == 1  # the batch's shared lookup

    def test_a_one_task_parcel_is_a_plain_send(self, monkeypatch):
        runtime = make_runtime(functional=False, comm_coalescing=True)
        grid = Grid((16,), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        # one sibling for each process: each parcel carries one task
        children = [
            TaskSpec(name=f"c{k}", writes={grid: grid.box((8 * k,), (8 * k + 8,))})
            for k in range(2)
        ]
        bulks = []
        send_bulk = Network.send_bulk

        def spy(network, src, dst, sizes):
            bulks.append((src, dst, len(sizes)))
            return send_bulk(network, src, dst, sizes)

        monkeypatch.setattr(Network, "send_bulk", spy)
        for treeture in runtime.scheduler.assign_batch(children, origin=0):
            runtime.wait(treeture)
        assert bulks == []
        assert runtime.metrics.counter("sched.remote_dispatch") == 1
        assert runtime.metrics.counter("comms.batched_dispatches") == 0
        assert runtime.metrics.counter("comms.batched_tasks") == 0


class TestCoalescedPhaseRoots:
    """With ``comm_coalescing`` on, a phase's roots from one submission
    origin are placed together: one lookup per item, each root where a
    lookup of its own would have put it."""

    NODES = 4
    #: roots per phase; rotation continues across phases, so the last
    #: phase gives origin 0 two roots and the other origins one each
    PHASES = (8, 8, 5)
    FLAGS = dict(comm_coalescing=True, replica_prefetch=True, index_caching=True)

    def _program(self):
        a = Grid((32,), name="a")
        b = Grid((32,), name="b")
        program = TaskProgram(
            "roots",
            items=[a, b],
            placement={a: a.decompose(self.NODES), b: b.decompose(self.NODES)},
            rotate_origins=True,
        )
        for phase, count in enumerate(self.PHASES):
            # read-only roots: ownership never moves, so every phase's
            # placement is decided by the same owners
            program.add_phase(
                *[
                    TaskSpec(
                        name=f"p{phase}r{k}",
                        reads={
                            a: a.box(((5 * k) % 27,), ((5 * k) % 27 + 5,)),
                            b: b.box(((7 * k + 3) % 28,), ((7 * k + 3) % 28 + 4,)),
                        },
                        flops=1e5 * (k + 1),
                        body=lambda _ctx, v=100 * phase + k: v,
                        body_in_virtual=True,
                    )
                    for k in range(count)
                ]
            )
        return program

    def _run(self, monkeypatch, **flags):
        from repro.api.program import execute_program
        from repro.runtime.scheduler import Scheduler

        log = []
        landed = {}
        assign, assign_batch = Scheduler.assign, Scheduler.assign_batch

        def one(scheduler, task, origin=0, **kwargs):
            log.append(("assign", origin, [task.name]))
            return assign(scheduler, task, origin, **kwargs)

        def batch(scheduler, tasks, origin=0, parent=None):
            log.append(("assign_batch", origin, [task.name for task in tasks]))
            return assign_batch(scheduler, tasks, origin, parent)

        class Observer:
            def on_submit(self, task):
                log.append(("submit", task.name))

            def on_task_enqueued(self, task, _treeture, pid, _variant, _now):
                landed[task.name] = pid

        def watch(runtime):
            runtime.probe.attach(Observer())
            scheduler = runtime.scheduler
            lookup = scheduler._lookup

            def counted(item, region, origin):
                log.append(("lookup", origin, item.name))
                return (yield from lookup(item, region, origin))

            scheduler._lookup = counted

        cluster = Cluster(
            ClusterSpec(num_nodes=self.NODES, cores_per_node=2, flops_per_core=1e9)
        )
        with monkeypatch.context() as patch:
            patch.setattr(Scheduler, "assign", one)
            patch.setattr(Scheduler, "assign_batch", batch)
            run = execute_program(
                cluster, self._program(), RuntimeConfig(**flags), on_runtime=watch
            )
        return run, log, landed

    @staticmethod
    def _phases(log):
        """The log cut at each phase's first submission."""
        phases = []
        for entry in log:
            if entry[0] == "submit" and (not phases or phases[-1][-1][0] != "submit"):
                phases.append([])
            phases[-1].append(entry)
        return phases

    def test_roots_of_one_origin_share_one_lookup(self, monkeypatch):
        on, log_on, landed_on = self._run(monkeypatch, **self.FLAGS)
        off, log_off, landed_off = self._run(monkeypatch)
        roots = [
            [f"p{phase}r{k}" for k in range(count)]
            for phase, count in enumerate(self.PHASES)
        ]
        assert on.values == off.values == [
            [100 * phase + k for k in range(count)]
            for phase, count in enumerate(self.PHASES)
        ]
        # every root lands where its own lookup placed it
        assert landed_on == landed_off
        assert set(landed_on) == {name for phase in roots for name in phase}
        phases = self._phases(log_on)
        assert len(phases) == len(self.PHASES)
        submitted = 0
        for names, entries in zip(roots, phases):
            count = len(names)
            # every root is announced, in order, before any is placed
            assert entries[:count] == [("submit", name) for name in names]
            origins = [(submitted + k) % self.NODES for k in range(count)]
            submitted += count
            lookups = [entry[1:] for entry in entries if entry[0] == "lookup"]
            assert sorted(lookups) == sorted(
                (origin, item) for origin in set(origins) for item in ("a", "b")
            )
            # one placement call per origin, in order of its first root
            groups = {}
            for name, origin in zip(names, origins):
                groups.setdefault(origin, []).append(name)
            calls = [entry for entry in entries if entry[0].startswith("assign")]
            assert calls == [
                ("assign_batch" if len(group) > 1 else "assign", origin, group)
                for origin, group in groups.items()
            ]
        # the last phase's lone roots went through ``assign``
        assert [call[0] for call in calls] == ["assign_batch"] + ["assign"] * 3
        # with the flags off every root is placed on its own, in order
        assert [e for e in log_off if e[0] == "assign"] == [
            ("assign", (k % self.NODES), [name])
            for k, name in enumerate(n for phase in roots for n in phase)
        ]
        assert not [e for e in log_off if e[0] == "assign_batch"]
