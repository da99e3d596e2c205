"""The local scheduler's dispatch order: splits first, then leaves by
descending flops, arrival order breaking ties (Graham's LPT rule).

An enqueue starts its entry at once while a slot is free, so blockers
fill every slot first; the entries under test queue behind them, and
each later start is a choice among all of them.  A leaf's start is its
``task_start`` event; a split's is the call of its splitter, at the same
point of :meth:`RuntimeProcess._handle`.  On one core the start
overheads complete in the order the entries were popped.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.runtime.config import RuntimeConfig
from repro.runtime.process import RuntimeProcess
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.tasks import TaskSpec, Treeture
from repro.sim.cluster import Cluster, ClusterSpec


def make_runtime(cores=1):
    cluster = Cluster(
        ClusterSpec(num_nodes=1, cores_per_node=cores, flops_per_core=1e9)
    )
    return AllScaleRuntime(cluster, RuntimeConfig(functional=False))


class StartLog:
    """Records each task's start and finish by name."""

    def __init__(self, runtime):
        self.starts: list[str] = []
        self.finishes: dict[str, float] = {}
        runtime.probe.attach(self)

    def on_task_start(self, task, treeture, pid, now):
        self.starts.append(task.name)

    def on_task_finish(self, task, treeture, pid, now):
        self.finishes[task.name] = now


def run_queue(runtime, log, specs):
    """Queue ``specs`` — ``("split", None)`` or ``("leaf", flops)`` — on
    process 0 in order behind blockers that fill every slot, run them,
    and return their names in the order they started."""
    process = runtime.process(0)
    treetures = []
    for k in range(process.max_concurrent):
        treetures.append(Treeture(runtime.engine, f"blocker{k}"))
        process.enqueue(
            TaskSpec(name=f"blocker{k}", flops=1e3), treetures[-1], "leaf"
        )
    names = []
    for k, (kind, flops) in enumerate(specs):
        name = f"{kind}{k}"
        if kind == "split":

            def splitter(owners, name=name):
                log.starts.append(name)
                return [TaskSpec(name=f"child-{name}", flops=1e3)]

            task = TaskSpec(name=name, splitter=splitter)
        else:
            task = TaskSpec(name=name, flops=flops)
        treeture = Treeture(runtime.engine, name)
        process.enqueue(task, treeture, kind)
        names.append(name)
        treetures.append(treeture)
    for treeture in treetures:
        runtime.wait(treeture)
    return names, [name for name in log.starts if name in names]


def expected_order(names, specs):
    """Splits by arrival, then leaves by descending flops, then arrival."""
    ranked = sorted(
        range(len(specs)),
        key=lambda k: (
            float("-inf") if specs[k][0] == "split" else -specs[k][1],
            k,
        ),
    )
    return [names[k] for k in ranked]


queue_specs = st.lists(
    st.one_of(
        st.just(("split", None)),
        st.tuples(st.just("leaf"), st.sampled_from([1e5, 2e5, 5e5, 1e6])),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=40, deadline=None)
@given(queue_specs)
def test_splits_first_then_longest_leaf_then_arrival(specs):
    runtime = make_runtime()
    log = StartLog(runtime)
    names, starts = run_queue(runtime, log, specs)
    assert starts == expected_order(names, specs)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 10), st.sampled_from([1e5, 1e6]))
def test_equal_leaves_start_exactly_fifo(count, flops):
    runtime = make_runtime()
    log = StartLog(runtime)
    names, starts = run_queue(runtime, log, [("leaf", flops)] * count)
    assert starts == names


def fifo_push(self, entry):
    heapq.heappush(self.queue, (0.0, next(self._arrivals), entry))


LONG_LAST = [("leaf", 1e6)] * 3 + [("leaf", 3e6)]


def test_longest_first_beats_fifo_with_the_long_leaf_last(monkeypatch):
    """With the rank forced to a constant the queue runs FIFO: on one core
    the long leaf, queued last, finishes last; on two cores it also ends
    the whole queue later (makespan 4 units against LPT's 3)."""
    finishes = {}
    for order in ("longest-first", "fifo"):
        if order == "fifo":
            monkeypatch.setattr(RuntimeProcess, "_push", fifo_push)
        for cores in (1, 2):
            runtime = make_runtime(cores)
            log = StartLog(runtime)
            names, starts = run_queue(runtime, log, LONG_LAST)
            if order == "fifo":
                assert starts == names
            finishes[order, cores] = (log.finishes["leaf3"], runtime.now)
    assert finishes["fifo", 1][0] > finishes["longest-first", 1][0]
    assert finishes["fifo", 2][1] > finishes["longest-first", 2][1]
