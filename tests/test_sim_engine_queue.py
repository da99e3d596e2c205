"""Differential tests of the simulator's event queue.

The queue in :mod:`repro.sim.engine` is one ``heapq`` of ``(time, seq)``
pairs plus a ``seq -> callback`` table whose missing entries are
tombstones; it must be observationally identical to the textbook loop
below, which keeps a live set instead and never compacts.  The hypothesis
sweep drives both through random interleavings of scheduling,
cancellation, rescheduling and partial runs — by horizon and by event
count, the slice shape the runtime's barrier and the service pump issue —
with times drawn from a small grid so equal-timestamp sequence tiebreaks
are exercised constantly, and requires the exact same firing order.
What the engine's loop can get wrong that the reference cannot is the
tombstone bookkeeping: a compaction rebuilds the heap while ``run()``
holds a local alias of it, so the sweep also schedules *storms* —
callbacks that cancel a range of handles when they fire — and a seeded
large-scale run pushes 5,000 events through repeated cancel storms.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimEngine


class HeapReference:
    """The oracle: one heap and a live set, popped in (time, seq) order."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int]] = []
        self._live: dict[int, Callable[[], None] | None] = {}
        self.next_seq = 0

    def schedule_at(
        self, time: float, action: Callable[[], None] | None = None
    ) -> int:
        seq = self.next_seq
        self.next_seq = seq + 1
        heapq.heappush(self._heap, (time, seq))
        self._live[seq] = action
        return seq

    def cancel(self, seq: int) -> None:
        self._live.pop(seq, None)

    def run(
        self, until: float | None = None, max_events: int | None = None
    ) -> list[int]:
        fired: list[int] = []
        heap = self._heap
        while (
            heap
            and (max_events is None or len(fired) < max_events)
            and (until is None or heap[0][0] <= until)
        ):
            time, seq = heapq.heappop(heap)
            if seq in self._live:
                action = self._live.pop(seq)
                self.now = time
                fired.append(seq)
                if action is not None:
                    action()
        if until is not None and (not heap or heap[0][0] > until):
            self.now = max(self.now, until)
        return fired

    @property
    def pending(self) -> int:
        return len(self._live)


#: offsets from the current watermark; a tiny pool guarantees collisions
_DELTAS = (0.0, 0.5, 1.0, 1.5, 3.0)

_HANDLE = st.integers(min_value=0, max_value=63)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), st.sampled_from(_DELTAS)),
        st.tuples(st.just("cancel"), _HANDLE),
        st.tuples(st.just("resched"), _HANDLE, st.sampled_from(_DELTAS)),
        st.tuples(st.just("run"), st.sampled_from(_DELTAS)),
        # run(max_events=k): stop mid-timestamp, tombstones left at the head
        st.tuples(st.just("run_n"), st.integers(min_value=1, max_value=8)),
        # a callback that cancels handles i..j when it fires: compaction
        # from inside the dispatch loop
        st.tuples(
            st.just("storm"), st.sampled_from(_DELTAS), _HANDLE, _HANDLE
        ),
    ),
    min_size=1,
    max_size=80,
)


def _drive(ops) -> None:
    engine = SimEngine()
    model = HeapReference()
    fired_engine: list[int] = []
    fired_model: list[int] = []
    handles = []  # engine Event handles; index == seq on both sides

    def _engine_schedule(delta: float, action=None) -> None:
        seq = len(handles)

        def fire() -> None:
            fired_engine.append(seq)
            if action is not None:
                action()

        handles.append(engine.schedule_at(engine.now + delta, fire))
        assert handles[-1].seq == seq

    def _schedule(delta: float, storm: tuple[int, int] | None = None) -> None:
        if storm is None:
            engine_storm = model_storm = None
        else:
            lo, hi = min(storm), max(storm)

            # cancel the range, then schedule into the heap run() is draining
            def engine_storm() -> None:
                for index in range(lo, hi + 1):
                    handles[index % len(handles)].cancel()
                _engine_schedule(delta)

            def model_storm() -> None:
                for index in range(lo, hi + 1):
                    model.cancel(index % model.next_seq)
                model.schedule_at(model.now + delta)

        _engine_schedule(delta, engine_storm)
        # both sides count schedules identically
        assert model.schedule_at(model.now + delta, model_storm) == len(handles) - 1

    for op in ops:
        if op[0] == "sched":
            _schedule(op[1])
        elif op[0] == "storm":
            _schedule(op[1], storm=(op[2], op[3]))
        elif op[0] in ("cancel", "resched"):
            if handles:
                seq = op[1] % len(handles)
                handles[seq].cancel()
                model.cancel(seq)
                if op[0] == "resched":
                    _schedule(op[2])
        else:
            if op[0] == "run":
                bound = {"until": engine.now + op[1]}
            else:  # run_n
                bound = {"max_events": op[1]}
            processed = engine.run(**bound)
            fired = model.run(**bound)
            fired_model.extend(fired)
            assert processed == len(fired)
            assert engine.now == model.now
            assert fired_engine == fired_model
            assert engine.pending_events == model.pending
    engine.run()
    fired_model.extend(model.run())
    assert fired_engine == fired_model
    assert engine.pending_events == model.pending == 0


@settings(max_examples=200, deadline=None)
@given(_OPS)
def test_matches_reference_heapq(ops) -> None:
    _drive(ops)


def test_equal_timestamps_fire_in_scheduling_order() -> None:
    engine = SimEngine()
    fired: list[int] = []
    for index in range(100):
        engine.schedule_at(1.0, lambda i=index: fired.append(i))
    engine.run()
    assert fired == list(range(100))


def test_cancel_storm_compaction_stress() -> None:
    """Seeded large run: horizon slices between 220-handle cancel storms."""
    rng = random.Random(20260809)
    engine = SimEngine()
    model = HeapReference()
    fired_engine: list[int] = []
    fired_model: list[int] = []
    handles = []
    for _ in range(5000):
        time = rng.choice((0.5, 1.0, 2.0, 4.0)) * rng.randint(1, 50)
        handle = engine.schedule_at(
            time, lambda s=len(handles): fired_engine.append(s)
        )
        model_seq = model.schedule_at(time)
        assert handle.seq == model_seq
        handles.append(handle)
    # drain in many small horizon slices
    for until in range(0, 60, 3):
        # cancel a random slice between runs to stress tombstoning
        for _ in range(220):
            victim = rng.randrange(len(handles))
            handles[victim].cancel()
            model.cancel(victim)
        engine.run(until=float(until))
        fired_model.extend(model.run(until=float(until)))
        assert fired_engine == fired_model
    engine.run()
    fired_model.extend(model.run())
    assert fired_engine == fired_model
    assert engine.pending_events == 0
    assert engine.compactions > 0  # the cancel storms must have tripped it


def test_compaction_counter_and_correct_survivors() -> None:
    engine = SimEngine()
    fired: list[int] = []
    handles = [
        engine.schedule_at(float(i), lambda i=i: fired.append(i))
        for i in range(100)
    ]
    for handle in handles[:60]:
        handle.cancel()
    assert engine.compactions >= 1  # >50% tombstones triggers a pass
    engine.run()
    assert fired == list(range(60, 100))


def test_compaction_from_inside_a_callback_keeps_the_loop_honest() -> None:
    """``run()`` aliases the heap; a callback compacting it must not
    strand the loop on a stale list."""
    engine = SimEngine()
    fired: list[int] = []
    handles = []

    def fire(index: int) -> None:
        fired.append(index)
        if index == 3:
            # 96 slots are pending; the 49th cancel crosses the half mark
            for handle in handles[30:]:
                handle.cancel()
            # ... and this must land in the list the loop is draining
            engine.schedule_at(4.5, lambda: fired.append(-1))

    for index in range(100):
        handles.append(engine.schedule_at(float(index), lambda i=index: fire(i)))
    assert engine.run(max_events=7) == 7
    assert fired == [0, 1, 2, 3, 4, -1, 5]
    assert engine.compactions == 1
    assert engine.pending_events == 24
    engine.run()
    assert fired == [0, 1, 2, 3, 4, -1, *range(5, 30)]
    assert engine.compactions == 1


class _FirstCandidate:
    """An oracle that keeps the natural ``(time, seq)`` order."""

    def choose(self, time, candidates, labels):
        return candidates[0]


def test_cancel_under_controlled_dispatch_leaves_no_tombstone() -> None:
    """Pending events live in the controlled map, not in the heap: a
    cancel there has no slot to tombstone and nothing to compact."""
    engine = SimEngine()
    fired: list[int] = []
    handles = [
        engine.schedule_at(float(i), lambda i=i: fired.append(i))
        for i in range(10)
    ]
    engine.set_oracle(_FirstCandidate())
    engine.run(max_events=2)
    handles[5].cancel()
    handles[6].cancel()
    assert engine.compactions == 0
    assert engine.pending_events == 6
    engine.set_oracle(None)  # the survivors go back into the heap
    engine.run()
    assert fired == [0, 1, 2, 3, 4, 7, 8, 9]
    assert engine.compactions == 0


def test_tombstones_folded_into_the_controlled_map_are_forgotten() -> None:
    """A tombstone scheduled and cancelled inside one controlled event
    disappears with the fold; it must not be counted against the heap the
    survivors return to."""
    engine = SimEngine()
    later = []

    def first() -> None:
        later.extend(engine.schedule(1.0 + i, lambda: None) for i in range(8))
        engine.schedule(1.0, lambda: None).cancel()

    engine.schedule_at(0.0, first)
    engine.schedule_at(0.5, lambda: None)
    engine.set_oracle(_FirstCandidate())
    engine.run(max_events=2)
    engine.set_oracle(None)
    assert engine.pending_events == 8
    for handle in later[:4]:
        handle.cancel()  # exactly half of 8 slots: not yet a compaction
    assert engine.compactions == 0
    later[4].cancel()
    assert engine.compactions == 1


def test_cancel_after_fire_is_a_noop() -> None:
    engine = SimEngine()
    fired: list[int] = []
    handle = engine.schedule_at(1.0, lambda: fired.append(0))
    engine.run()
    handle.cancel()  # already executed; must not disturb anything
    engine.schedule_at(2.0, lambda: fired.append(1))
    engine.run()
    assert fired == [0, 1]


def test_schedule_in_the_past_rejected() -> None:
    engine = SimEngine()
    engine.schedule_at(5.0, lambda: None)
    engine.run()
    assert engine.now == 5.0
    try:
        engine.schedule_at(4.0, lambda: None)
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected ValueError for past schedule")
