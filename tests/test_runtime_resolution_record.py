"""A split's children are placed from their parent's lookup; where a task
lands checks it.

Algorithm 2 places every task with one charged Algorithm-1 lookup, a
plain ``{item: [(region, pid)]}``.  A child of a split is placed from its
parent's pieces clipped to its own region, with no lookup and no message,
when the clip resolves the child's whole region.  Otherwise it is looked
up afresh.  Ownership may have moved since the parent's lookup: the
process a task lands on reads its own leaves, and a task whose lookup
names an owner of all its writes (Algorithm 2 line 7) that lands where
they are not owned re-places itself from there (``Scheduler._land``).
"""

import weakref

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from repro.items.grid import Grid
from repro.regions.box import Box, BoxSetRegion
from repro.runtime.config import RuntimeConfig
from repro.runtime.data_manager import Move, run_moves
from repro.runtime.index import HierarchicalIndex
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.tasks import TaskSpec, Treeture
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
    """The pieces a charged lookup of ``region`` from ``origin`` finds."""
    mapping, _unresolved = runtime.wait_process(
        runtime.index.lookup(grid, region, origin)
    )
    return mapping


def place(runtime, task, parent, origin=0):
    """The lookup Algorithm 2 places ``task`` with, given its parent's."""
    return runtime.wait_process(
        runtime.scheduler._locate_requirements(task, origin, parent)
    )


def ran_at(runtime, task, origin=0, parent=None):
    """Run ``task`` to completion; the pids whose queues it entered."""
    landed = []
    for proc in runtime.processes:

        def enqueue(task, treeture, variant, lookup=None, _proc=proc):
            landed.append(_proc.pid)
            type(_proc).enqueue(_proc, task, treeture, variant, lookup)

        proc.enqueue = enqueue
    runtime.wait(runtime.scheduler.assign(task, origin=origin, parent=parent))
    return landed


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
        assert same_shares(
            shares(grid, record),
            {
                0: grid.box((6,), (8,)),
                1: grid.box((8,), (16,)),
                2: grid.box((16,), (18,)),
            },
        )

    def test_an_epoch_bump_forces_a_charged_lookup(self):
        """Ownership moves after the parent's lookup: the child is placed
        from the stale clip, lands misplaced, and re-places itself through
        one charged lookup."""
        runtime = make_runtime()
        grid = placed_grid(runtime)
        parent = {grid: resolve(runtime, grid, grid.full_region)}
        # between the parent's placement and the child's, part of pid 1's
        # block moves to pid 3
        moved = grid.box((8,), (12,))
        runtime.wait_process(run_moves(runtime, [Move(grid, moved, 1, 3)]))
        lookups = runtime.index.lookups
        assert ran_at(runtime, writer(grid, 8, 12), parent=parent) == [3]
        assert runtime.metrics.counter("sched.replaced") == 1
        assert runtime.index.lookups == lookups + 1
        assert runtime.process(3).executed_leaves == 1

    def test_a_task_landing_where_it_owns_its_writes_is_queued(self):
        runtime = make_runtime()
        grid = placed_grid(runtime)
        assert ran_at(runtime, writer(grid, 16, 24)) == [2]
        assert runtime.metrics.counter("sched.replaced") == 0
        assert runtime.index.lookups == 1

    def test_a_lookup_that_saw_ownership_move_still_places_children(self):
        """An unrelated move while the parent's lookup runs leaves its
        pieces right: the child is placed from them and stays where it
        lands."""
        runtime = make_runtime()
        grid = placed_grid(runtime)
        version = runtime.index.ownership_version(grid)

        def move_while_it_runs():
            yield 1e-9  # the lookup is still travelling to pid 3
            yield from run_moves(
                runtime, [Move(grid, grid.box((16,), (20,)), 2, 1)]
            )

        found = runtime.engine.spawn(
            runtime.index.lookup(grid, grid.box((24,), (32,)), 0)
        )
        seen = []
        found.add_callback(
            lambda _value: seen.append(runtime.index.ownership_version(grid))
        )
        runtime.engine.spawn(move_while_it_runs())
        runtime.run()
        assert seen[0] != version  # the lookup ended after the move began
        parent = {grid: found.value[0]}
        lookups = runtime.index.lookups
        assert ran_at(runtime, writer(grid, 24, 28), parent=parent) == [3]
        assert runtime.index.lookups == lookups
        assert runtime.metrics.counter("sched.replaced") == 0

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
        parent = {grid: resolve(runtime, grid, grid.box((8,), (24,)), origin=2)}
        # placed from the clip, the child lands at its origin, pid 2
        assert ran_at(runtime, writer(grid, 18, 22), 2, parent) == [2]
        hits = index.cache_hits
        runtime.wait_process(index.lookup_cached(grid, grid.box((18,), (22,)), 2))
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

    def test_a_misplaced_landing_teaches_nothing(self):
        runtime = make_runtime(index_caching=True)
        grid = placed_grid(runtime)
        index = runtime.index
        parent = {grid: resolve(runtime, grid, grid.full_region)}
        block = grid.box((24,), (32,))
        runtime.wait_process(run_moves(runtime, [Move(grid, block, 3, 2)]))
        # the stale clip sends the child to pid 3, which re-places it
        assert ran_at(runtime, writer(grid, 24, 32), parent=parent) == [2]
        assert runtime.metrics.counter("sched.replaced") == 1
        # pid 3 knows only what its own fresh lookup found
        hits = index.cache_hits
        mapping, _unresolved = runtime.wait_process(
            index.lookup_cached(grid, block, 3)
        )
        assert index.cache_hits == hits + 1
        assert [pid for _part, pid in mapping] == [2]

    def test_a_stale_cache_entry_ends_after_one_replacement(self):
        """pid 1's cache learns a stale owner of ``8..12`` from a checked
        landing, then a write of it is submitted at pid 1: the cache sends
        it home to pid 1, where it lands misplaced.  Forgetting the
        written item there makes the re-placement's lookup fresh."""
        runtime = make_runtime(index_caching=True)
        grid = placed_grid(runtime)
        parent = {grid: resolve(runtime, grid, grid.full_region)}
        moved = grid.box((8,), (12,))
        runtime.wait_process(run_moves(runtime, [Move(grid, moved, 1, 2)]))
        # writes what pid 1 still owns, reads what it no longer does: the
        # check passes, and pid 1 learns the clip ``8..16 -> 1``
        reader = TaskSpec(
            name="reader",
            reads={grid: grid.box((8,), (16,))},
            writes={grid: grid.box((12,), (16,))},
        )
        assert ran_at(runtime, reader, 1, parent) == [1]
        assert runtime.metrics.counter("sched.replaced") == 0
        assert ran_at(runtime, writer(grid, 8, 12), origin=1) == [2]
        assert runtime.metrics.counter("sched.replaced") == 1
        assert runtime.process(2).executed_leaves == 1

    def test_without_forget_the_stale_entry_re_places_forever(self, monkeypatch):
        """The test above kills a landing that keeps its cache entries."""
        monkeypatch.setattr(HierarchicalIndex, "forget", lambda *_args: None)
        with pytest.raises(RecursionError):
            self.test_a_stale_cache_entry_ends_after_one_replacement()


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
    """Move whatever is owned of ``box`` to ``pid``, from every other owner."""
    region = BoxSetRegion((box,))
    moves = []
    for other in range(runtime.num_processes):
        part = runtime.index.leaf(grid, other).intersect(region)
        if other != pid and not part.is_empty():
            moves.append(Move(grid, part, other, pid))
    runtime.wait_process(run_moves(runtime, moves))


#: random ownership layouts, a parent lookup, and a child
CLIP_CASES = dict(
    num_processes=st.sampled_from([2, 3, 4, 8]),
    owned=st.booleans(),
    layout=st.lists(st.tuples(st.integers(0, 7), boxes), max_size=8),
    request=boxes,
    origin=st.integers(0, 7),
    child=st.one_of(boxes, boxes.map(lambda b: ("inside", b))),
)

#: deterministic, so the mutant below fails it on every run
CLIP_SETTINGS = dict(max_examples=150, deadline=None, derandomize=True, database=None)


def laid_out(num_processes, owned, layout, request, origin, child):
    """A runtime over a random layout, the parent's pieces of ``request``
    and the child's region.  ``owned``: every cell starts owned (a block
    each), else none does."""
    runtime = make_runtime(nodes=num_processes)
    grid = Grid((SIDE, SIDE), name="g")
    if owned:
        shares = grid.decompose(num_processes)
    else:
        shares = [grid.empty_region()] * num_processes
    for pid, box in layout:
        region = BoxSetRegion((box,))
        shares = [share.difference(region) for share in shares]
        shares[pid % num_processes] = shares[pid % num_processes].union(region)
    runtime.register_item(grid, placement=shares)
    requested = BoxSetRegion((request,))
    parent = resolve(runtime, grid, requested, origin % num_processes)
    child_box = child[1] if isinstance(child, tuple) else child
    region = BoxSetRegion((child_box,))
    if isinstance(child, tuple):
        region = requested.intersect(region)
    return runtime, grid, parent, child_box, region


def check_reused_clip(**case):
    """With no ownership move between the parent's lookup and the child's
    placement, a reused clip is exactly who owns the child's region."""
    runtime, grid, parent, _child_box, region = laid_out(**case)
    index = runtime.index
    record = Scheduler._reuse({grid: parent}, grid, region)
    truth = shares(
        grid,
        [
            (region.intersect(index.leaf(grid, pid)), pid)
            for pid in range(runtime.num_processes)
        ],
    )
    if record is not None:
        assert same_shares(shares(grid, record), truth), (
            "a reused clip names other owners than the index's leaves"
        )
    resolved = grid.empty_region()
    for part, _pid in parent:
        resolved = resolved.union(part)
    if resolved.covers(region):
        assert record is not None, "a clip that holds was refused"


@given(**CLIP_CASES)
@settings(**CLIP_SETTINGS)
def test_a_reused_clip_names_the_owners_a_fresh_lookup_would(**case):
    check_reused_clip(**case)


# -- a task naming an owner of its writes is queued only where they are owned -------

#: the clip cases, plus moves after the parent's lookup and the child's
#: origin; a move of ``None`` hands the child's own box to the pid
LANDING_CASES = dict(
    CLIP_CASES,
    moves=st.lists(
        st.tuples(st.integers(0, 7), st.one_of(st.none(), boxes)), max_size=3
    ),
    child_origin=st.integers(0, 7),
)

#: after the parent's lookup, the child's box moves from pid 0 to pid 1
LANDING_EXAMPLE = dict(
    num_processes=2,
    owned=True,
    layout=[],
    request=Box.of((0, 0), (SIDE, SIDE)),
    origin=0,
    moves=[(1, None)],
    child=Box.of((0, 0), (4, 4)),
    child_origin=0,
)


def check_landing(moves, child_origin, **case):
    """Place a writer of the child's region from its parent's lookup after
    ``moves``, and record every queue it enters: whenever the lookup it
    carries names a process owning all its writes, the process it is
    queued at owns them at that moment.  The queues run nothing."""
    runtime, grid, parent, child_box, region = laid_out(**case)
    for pid, box in moves:
        grant(runtime, grid, pid % runtime.num_processes, box or child_box)
    task = TaskSpec(name="child", writes={grid: region})
    landed = []
    for proc in runtime.processes:

        def enqueue(task, treeture, variant, lookup=None, _pid=proc.pid):
            named = runtime.scheduler._covering_writes(
                task,
                {item: Scheduler._owner_shares(p) for item, p in lookup.items()},
            )
            owns = runtime.index.leaf(grid, _pid).covers(region)
            landed.append((named, owns))

        proc.enqueue = enqueue
    runtime.scheduler.assign(
        task, origin=child_origin % runtime.num_processes, parent={grid: parent}
    )
    runtime.run()
    assert len(landed) == 1, "the task was not queued exactly once"
    named, owns = landed[0]
    assert named is None or owns, (
        "a task naming an owner of its writes was queued where they are not"
    )


@given(**LANDING_CASES)
@example(**LANDING_EXAMPLE)
@settings(**CLIP_SETTINGS)
def test_a_task_naming_a_write_owner_is_queued_only_where_it_owns(**case):
    check_landing(**case)


def test_dropped_landing_check_fails_the_landing_property(monkeypatch):
    """The property above kills a scheduler whose landing checks nothing."""

    # the first failing example is enough: no shrinking
    @given(**LANDING_CASES)
    @example(**LANDING_EXAMPLE)
    @settings(**CLIP_SETTINGS, phases=[Phase.explicit, Phase.generate])
    def under_the_mutant(**case):
        check_landing(**case)

    monkeypatch.setattr(Scheduler, "_misplaced", lambda *_args: False)
    with pytest.raises(AssertionError, match="queued where they are not"):
        under_the_mutant()
