"""A split's children are placed from their parent's lookup while it holds.

Algorithm 2 places every task with one charged Algorithm-1 lookup.  Each
item's part of it is a :class:`~repro.runtime.tasks.Resolution` stamped
with the item's ownership epoch.  A child of a split is placed from its
parent's pieces clipped to its own region, with no lookup and no message,
when the item's epoch is unchanged and the clip resolves the child's
whole region.  Otherwise it is looked up afresh.
"""

import weakref

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from repro.items.grid import Grid
from repro.regions.box import Box, BoxSetRegion
from repro.runtime.config import RuntimeConfig
from repro.runtime.data_manager import Move, run_moves
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.tasks import STALE, Resolution, TaskSpec, Treeture
from repro.sim.cluster import Cluster, ClusterSpec

SIDE = 12


def make_runtime(nodes=4, **cfg):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=2, flops_per_core=1e9)
    )
    return AllScaleRuntime(cluster, RuntimeConfig(functional=False, **cfg))


def placed_grid(runtime, length=32):
    """A 1-D grid in equal blocks, one per process."""
    grid = Grid((length,), name="g")
    runtime.register_item(grid, placement=grid.decompose(runtime.num_processes))
    return grid


def writer(grid, lo, hi, name=None):
    return TaskSpec(
        name=name or f"w[{lo},{hi})", writes={grid: grid.box((lo,), (hi,))}
    )


def resolve(runtime, grid, region, origin=0):
    """The charged placement lookup of ``region`` from ``origin``."""
    return runtime.wait_process(
        runtime.scheduler._resolve(grid, region, origin)
    )


def place(runtime, task, parent, origin=0):
    """The records Algorithm 2 places ``task`` with, given its parent's."""
    return runtime.wait_process(
        runtime.scheduler._locate_requirements(task, origin, parent)
    )


def shares(grid, pieces) -> dict[int, object]:
    """Owner → the part of ``pieces`` it owns, empty shares left out."""
    out = {}
    for part, pid in pieces:
        out[pid] = out.get(pid, grid.empty_region()).union(part)
    return {pid: share for pid, share in out.items() if not share.is_empty()}


def same_shares(left, right) -> bool:
    return left.keys() == right.keys() and all(
        left[pid].same_elements(right[pid]) for pid in left
    )


class TestPlacementFromTheParentsLookup:
    def test_a_lookup_is_stamped_with_the_items_epoch(self):
        runtime = make_runtime()
        grid = placed_grid(runtime)
        record = resolve(runtime, grid, grid.full_region)
        assert isinstance(record, Resolution)
        assert record.epoch == runtime.index.ownership_version(grid)
        assert [pid for _part, pid in sorted(record, key=lambda p: p[1])] == [
            0, 1, 2, 3,
        ]

    def test_a_split_places_its_children_without_a_lookup(self):
        runtime = make_runtime()
        grid = placed_grid(runtime)
        children = [writer(grid, lo, lo + 8) for lo in range(0, 32, 8)]
        root = TaskSpec(
            name="root",
            writes={grid: grid.full_region},
            splitter=lambda _owners: children,
            size_hint=32.0,
            granularity=8.0,
        )
        runtime.wait(runtime.submit(root))
        # the root's lookup is the only one; each child runs at its owner
        assert runtime.index.lookups == 1
        assert [p.executed_leaves for p in runtime.processes] == [1, 1, 1, 1]
        runtime.check_ownership_invariants()

    def test_a_child_inside_the_parents_lookup_is_placed_for_free(self):
        runtime = make_runtime()
        grid = placed_grid(runtime)
        parent = {grid: resolve(runtime, grid, grid.full_region)}
        lookups = runtime.index.lookups
        messages = runtime.metrics.counter("net.messages")
        record = place(runtime, writer(grid, 6, 18), parent)[grid]
        assert runtime.index.lookups == lookups
        assert runtime.metrics.counter("net.messages") == messages
        assert record.epoch == parent[grid].epoch
        assert same_shares(
            shares(grid, record),
            {
                0: grid.box((6,), (8,)),
                1: grid.box((8,), (16,)),
                2: grid.box((16,), (18,)),
            },
        )

    def test_an_epoch_bump_forces_a_charged_lookup(self):
        runtime = make_runtime()
        grid = placed_grid(runtime)
        parent = {grid: resolve(runtime, grid, grid.full_region)}
        # between the parent's placement and the child's, part of pid 1's
        # block moves to pid 3
        moved = grid.box((8,), (12,))
        runtime.wait_process(run_moves(runtime, [Move(grid, moved, 1, 3)]))
        assert runtime.index.ownership_version(grid) != parent[grid].epoch
        lookups = runtime.index.lookups
        record = place(runtime, writer(grid, 8, 16), parent)[grid]
        assert runtime.index.lookups == lookups + 1
        assert record.epoch == runtime.index.ownership_version(grid)
        assert same_shares(
            shares(grid, record), {3: moved, 1: grid.box((12,), (16,))}
        )

    def test_a_lookup_that_saw_ownership_move_places_no_child(self):
        runtime = make_runtime()
        grid = placed_grid(runtime)

        def move_while_it_runs():
            yield 1e-9  # the lookup is still travelling to pid 3
            runtime.index.update_ownership(grid, 2, grid.box((16,), (20,)))

        found = runtime.engine.spawn(
            runtime.scheduler._resolve(grid, grid.box((24,), (32,)), 0)
        )
        runtime.engine.spawn(move_while_it_runs())
        runtime.run()
        parent = {grid: found.value}
        assert parent[grid].epoch == STALE
        lookups = runtime.index.lookups
        place(runtime, writer(grid, 24, 28), parent)
        assert runtime.index.lookups == lookups + 1

    def test_an_unresolved_clip_forces_a_charged_lookup(self):
        runtime = make_runtime()
        grid = Grid((32,), name="g")
        # the upper half is owned by nobody yet: first touch is pending
        halves = [grid.box((0,), (8,)), grid.box((8,), (16,))]
        runtime.register_item(grid, placement=halves + [grid.empty_region()] * 2)
        parent = {grid: resolve(runtime, grid, grid.full_region)}
        lookups = runtime.index.lookups
        place(runtime, writer(grid, 12, 20), parent)
        assert runtime.index.lookups == lookups + 1
        # the resolved half still places its children for free
        place(runtime, writer(grid, 4, 12), parent)
        assert runtime.index.lookups == lookups + 1

    def test_a_child_outside_the_parents_lookup_forces_a_charged_lookup(self):
        runtime = make_runtime()
        grid = placed_grid(runtime)
        parent = {grid: resolve(runtime, grid, grid.box((0,), (16,)))}
        lookups = runtime.index.lookups
        record = place(runtime, writer(grid, 12, 20), parent)[grid]
        assert runtime.index.lookups == lookups + 1
        assert set(shares(grid, record)) == {1, 2}

    def test_batched_siblings_look_up_only_what_the_parent_cannot_place(self):
        runtime = make_runtime(comm_coalescing=True)
        grid = placed_grid(runtime)
        parent = {grid: resolve(runtime, grid, grid.box((0,), (16,)))}
        lookups = runtime.index.lookups
        siblings = [writer(grid, 0, 8), writer(grid, 8, 16), writer(grid, 16, 24)]
        treetures = runtime.scheduler.assign_batch(siblings, parent=parent)
        for treeture in treetures:
            runtime.wait(treeture)
        # one shared lookup, for the one sibling outside the parent's
        assert runtime.index.lookups == lookups + 1
        assert [p.executed_leaves for p in runtime.processes] == [1, 1, 1, 0]

    def test_a_leaf_releases_its_lookup_after_its_first_staging(self):
        runtime = make_runtime()
        grid = placed_grid(runtime)

        class Tracked(dict):
            """A lookup a weak reference can follow."""

        lookup = Tracked({grid: resolve(runtime, grid, grid.box((0,), (4,)))})
        alive = weakref.ref(lookup)
        seen = []
        task = writer(grid, 0, 4)
        task.body = lambda _ctx: seen.append(alive() is not None)
        task.body_in_virtual = True
        treeture = Treeture(runtime.engine, task.name)
        runtime.process(0).enqueue(task, treeture, "leaf", lookup)
        del lookup
        runtime.wait(treeture)
        # staged and running: nothing holds the lookup any more
        assert seen == [False]


class TestTheCacheLearnsFromCarriedLookups:
    def test_a_reused_clip_teaches_the_origins_cache(self):
        runtime = make_runtime(index_caching=True)
        grid = placed_grid(runtime)
        index = runtime.index
        parent = {grid: resolve(runtime, grid, grid.box((0,), (16,)), origin=2)}
        place(runtime, writer(grid, 4, 12), parent, origin=2)
        # a later lookup of the same region from pid 2 hits its cache
        hits = index.cache_hits
        runtime.wait_process(index.lookup_cached(grid, grid.box((4,), (12,)), 2))
        assert index.cache_hits == hits + 1

    def test_a_received_lookup_teaches_the_targets_cache(self):
        runtime = make_runtime(index_caching=True)
        grid = placed_grid(runtime)
        index = runtime.index
        runtime.wait(runtime.submit(writer(grid, 24, 32), origin=0))
        assert runtime.process(3).executed_leaves == 1
        hits = index.cache_hits
        runtime.wait_process(
            index.lookup_cached(grid, grid.box((26,), (30,)), 3)
        )
        assert index.cache_hits == hits + 1

    def test_a_stale_record_teaches_nothing(self):
        runtime = make_runtime(index_caching=True)
        grid = placed_grid(runtime)
        index = runtime.index
        record = resolve(runtime, grid, grid.full_region, origin=1)
        runtime.wait_process(
            run_moves(runtime, [Move(grid, grid.box((0,), (4,)), 0, 2)])
        )
        index.learn(grid, 3, record.epoch, record)
        misses = index.cache_misses
        runtime.wait_process(index.lookup_cached(grid, grid.box((0,), (4,)), 3))
        assert index.cache_misses == misses + 1


# -- the clip names the owners a fresh lookup would --------------------------------

boxes = st.tuples(
    st.integers(0, SIDE - 1),
    st.integers(0, SIDE - 1),
    st.integers(1, 8),
    st.integers(1, 8),
).map(
    lambda t: Box.of(
        (t[0], t[1]), (min(SIDE, t[0] + t[2]), min(SIDE, t[1] + t[3]))
    )
)


def grant(runtime, grid, pid, box):
    """Give ``box`` to ``pid`` in the index, taking it from everyone else."""
    region = BoxSetRegion((box,))
    index = runtime.index
    for other in range(runtime.num_processes):
        if other != pid:
            index.update_ownership(
                grid, other, index.leaf(grid, other).difference(region)
            )
    index.update_ownership(grid, pid, index.leaf(grid, pid).union(region))


#: random ownership layouts, a parent lookup, moves after it, and a child
CLIP_CASES = dict(
    num_processes=st.sampled_from([2, 3, 4, 8]),
    owned=st.booleans(),
    layout=st.lists(st.tuples(st.integers(0, 7), boxes), max_size=8),
    request=boxes,
    origin=st.integers(0, 7),
    # a move of ``None`` hands the child's own box to the pid
    moves=st.lists(
        st.tuples(st.integers(0, 7), st.one_of(st.none(), boxes)), max_size=3
    ),
    child=st.one_of(boxes, boxes.map(lambda b: ("inside", b))),
    child_origin=st.integers(0, 7),
)

#: deterministic, so the mutant below fails it on every run
CLIP_SETTINGS = dict(max_examples=150, deadline=None, derandomize=True, database=None)

#: after the parent's lookup, the child's box moves from pid 0 to pid 1
CLIP_EXAMPLE = dict(
    num_processes=2,
    owned=True,
    layout=[],
    request=Box.of((0, 0), (SIDE, SIDE)),
    origin=0,
    moves=[(1, None)],
    child=Box.of((0, 0), (4, 4)),
    child_origin=0,
)


def check_reused_clip(
    num_processes, owned, layout, request, origin, moves, child, child_origin
):
    """``owned``: every cell starts owned (a block each), else none does."""
    runtime = make_runtime(nodes=num_processes)
    grid = Grid((SIDE, SIDE), name="g")
    runtime.register_item(grid)
    index = runtime.index
    if owned:
        for pid, block in enumerate(grid.decompose(num_processes)):
            index.update_ownership(grid, pid, block)
    for pid, box in layout:
        grant(runtime, grid, pid % num_processes, box)
    requested = BoxSetRegion((request,))
    parent = resolve(runtime, grid, requested, origin % num_processes)
    child_box = child[1] if isinstance(child, tuple) else child
    for pid, box in moves:
        grant(runtime, grid, pid % num_processes, box or child_box)
    region = BoxSetRegion((child_box,))
    if isinstance(child, tuple):
        region = requested.intersect(region)
    record = runtime.scheduler._reuse(
        {grid: parent}, grid, region, child_origin % num_processes
    )
    truth = shares(
        grid,
        [
            (region.intersect(index.leaf(grid, pid)), pid)
            for pid in range(num_processes)
        ],
    )
    if record is not None:
        assert same_shares(shares(grid, record), truth), (
            "a reused clip names other owners than the index's leaves"
        )
    resolved = grid.empty_region()
    for part, _pid in parent:
        resolved = resolved.union(part)
    if parent.epoch == index.ownership_version(grid) and resolved.covers(region):
        assert record is not None, "a clip that still holds was refused"


@given(**CLIP_CASES)
@example(**CLIP_EXAMPLE)
@settings(**CLIP_SETTINGS)
def test_a_reused_clip_names_the_owners_a_fresh_lookup_would(**case):
    check_reused_clip(**case)


def test_dropped_epoch_check_fails_the_clip_property(monkeypatch):
    """The property above kills a scheduler that ignores the epoch."""
    reuse = Scheduler._reuse

    def ignoring_epochs(self, parent, item, region, origin):
        pieces = parent.get(item) if parent else None
        if isinstance(pieces, Resolution):
            pieces.epoch = self.index.ownership_version(item)
        return reuse(self, parent, item, region, origin)

    # the first failing example is enough: no shrinking
    @given(**CLIP_CASES)
    @example(**CLIP_EXAMPLE)
    @settings(**CLIP_SETTINGS, phases=[Phase.explicit, Phase.generate])
    def under_the_mutant(**case):
        check_reused_clip(**case)

    monkeypatch.setattr(Scheduler, "_reuse", ignoring_epochs)
    with pytest.raises(AssertionError, match="other owners"):
        under_the_mutant()
