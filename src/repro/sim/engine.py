"""Discrete-event simulation core: one ``heapq`` and a callback table.

Events are ordered by ``(time, sequence)`` — the sequence number makes
simultaneous events fire in scheduling order, so every run of the same
scenario is deterministic regardless of hash randomization or dict
ordering.

The queue is the textbook one, because that is the traffic: no ledger
workload or bench panel holds more than ~3,500 pending events, where a
binary heap of tuples is as fast as anything built on top of it
(``docs/runtime.md`` § "The flat core" has the counts):

* **heap** — ``(time, seq)`` pairs in a ``heapq``; every event enters
  through ``heappush`` and leaves through ``heappop``.
* **callback table** — ``seq -> callable``.  Cancellation removes the
  entry (the heap slot becomes a tombstone, skipped on pop); when more
  than half the heap is tombstones it is rebuilt in place and the pass
  counted in :attr:`SimEngine.compactions`.

Two programming styles are supported on top of the raw event queue:

* **callbacks** — ``engine.schedule(delay, fn)``;
* **processes** — generator coroutines that ``yield`` either a float delay
  or a :class:`Future`; the engine resumes them when the delay elapses or
  the future completes.  The runtime system and the MPI baseline are
  written in this style.

**Controlled nondeterminism** (``repro.verify``): the ``(time, seq)``
order makes one run deterministic, but it is only *one* schedule of the
modelled system — the seq component is an artifact of scheduling order,
and every scheduled delay is a lower bound (a message may always arrive
later, a worker may always be preempted longer), so executing any pending
event next, at ``max(now, its time)``, is a legal schedule of the real
runtime.  :meth:`SimEngine.set_oracle` installs a
:class:`ScheduleOracle`-shaped object through which that choice is routed,
switching ``run`` onto a slower, fully introspectable dispatch loop; the
model checker drives it to explore alternative schedules, and a recorded
decision trace replays any explored branch exactly.  :meth:`SimEngine.set_hb` installs a
happens-before observer (event attribution, spawn edges, future
completion/read edges, coroutine program order) feeding the vector-clock
layer of the race sanitizer.  Both hooks are ``None`` in normal runs and
cost one attribute check on the hot paths.
"""

from __future__ import annotations

import heapq
import weakref
from math import inf
from typing import Any, Callable, Generator


class Event:
    """Handle for a scheduled callback; cancellable."""

    __slots__ = ("time", "seq", "cancelled", "_engine")

    def __init__(self, time: float, seq: int, engine: "SimEngine") -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._engine._cancel(self.seq)

    def __repr__(self) -> str:
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6g}, seq={self.seq}{flag})"


class Future:
    """A completable one-shot value, usable from coroutine processes.

    ``yield future`` inside a process suspends it until ``complete`` is
    called; the completed value becomes the result of the ``yield``
    expression.  Completing twice is an error; callbacks added after
    completion run immediately.
    """

    __slots__ = ("engine", "done", "value", "_callbacks")

    def __init__(self, engine: "SimEngine") -> None:
        self.engine = engine
        self.done = False
        self.value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    def complete(self, value: Any = None) -> None:
        if self.done:
            raise RuntimeError("future completed twice")
        self.done = True
        self.value = value
        hb = self.engine._hb
        if hb is not None:
            hb.on_future_complete(self)
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(value)

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        if self.done:
            hb = self.engine._hb
            if hb is not None:
                # the value carries causality from the completing event
                hb.on_future_read(self)
            fn(self.value)
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:
        return f"Future(done={self.done})"


ProcessGen = Generator[Any, Any, Any]


class SimEngine:
    """Deterministic discrete-event loop over one ``(time, seq)`` heap."""

    __slots__ = (
        "now",
        "compactions",
        "_heap",
        "_fns",
        "_next_seq",
        "_cancelled",
        "_events_processed",
        "_listeners",
        "_oracle",
        "_hb",
        "_hb_followers",
        "_labels",
        "_ctl_times",
    )

    def __init__(self) -> None:
        self.now = 0.0
        #: number of tombstone-compaction passes the queue has performed
        self.compactions = 0
        # (time, seq) heapq; only ever mutated in place, so the alias an
        # active run() holds survives a compaction issued from a callback
        self._heap: list[tuple[float, int]] = []
        # seq -> callback; absent seq == cancelled tombstone
        self._fns: dict[int, Callable[[], None]] = {}
        self._next_seq = 0
        # tombstones currently sitting in the heap
        self._cancelled = 0
        self._events_processed = 0
        # post-event observers (e.g. the runtime invariant sentinel);
        # called with no arguments after each executed event
        self._listeners: list[Callable[[], None]] = []
        # controlled-nondeterminism seam (repro.verify); both None in
        # normal runs, costing one attribute check on the hot paths
        self._oracle: Any = None
        self._hb: Any = None
        # runtime probes subscribed to whichever observer set_hb installs
        self._hb_followers: weakref.WeakSet = weakref.WeakSet()
        self._labels: dict[int, Any] | None = None
        # controlled mode keeps pending (seq -> time) here instead of in
        # the heap, so any live event is addressable by the oracle
        self._ctl_times: dict[int, float] = {}

    # -- verification seam ----------------------------------------------------------

    def set_oracle(self, oracle: Any) -> None:
        """Route schedule choices through ``oracle`` (or detach).

        While an oracle (or a happens-before observer) is installed,
        :meth:`run` uses the controlled dispatch loop: before each event,
        every live event is collected in natural ``(time, seq)`` order and
        — when there is more than one — ``oracle.choose(time, seqs,
        labels)`` picks which fires next (at ``max(now, its time)``; every
        delay is a lower bound, so deferring events is always legal).
        ``None`` detaches and folds any controlled-mode state back into
        the normal queue.
        """
        self._oracle = oracle
        if oracle is not None and self._labels is None:
            self._labels = {}
        if oracle is None and self._hb is None:
            self._exit_controlled()

    def set_hb(self, hb: Any) -> None:
        """Install (or with ``None`` detach) a happens-before observer.

        The observer receives event attribution (``on_event``), scheduling
        edges (``on_scheduled``), coroutine lifecycle (``on_spawn`` /
        ``on_resume`` / ``on_suspend``), and future causality
        (``on_future_complete`` / ``on_future_read`` / ``note_future_dep``).
        Every :meth:`follow_hb` follower is re-subscribed to it as well.
        """
        for follower in self._hb_followers:
            if self._hb is not None:
                follower.detach(self._hb)
            if hb is not None:
                follower.attach(hb)
        self._hb = hb
        if hb is not None and self._labels is None:
            self._labels = {}
        if hb is None and self._oracle is None:
            self._exit_controlled()

    def follow_hb(self, follower: Any) -> None:
        """Keep ``follower`` (a runtime probe: ``attach`` / ``detach``)
        subscribed to whatever :meth:`set_hb` installs.  The observer
        arrives after a scenario is built and must also reach runtimes
        born mid-run; they meet here.  Followers are held weakly."""
        self._hb_followers.add(follower)
        if self._hb is not None:
            follower.attach(self._hb)

    def _exit_controlled(self) -> None:
        """Fold controlled-mode pending events back into the heap."""
        if self._ctl_times:
            for seq, time in self._ctl_times.items():
                if seq in self._fns:
                    heapq.heappush(self._heap, (time, seq))
            self._ctl_times = {}
        self._labels = None

    def add_listener(self, fn: Callable[[], None]) -> None:
        """Register an observer invoked after every executed event."""
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[], None]) -> None:
        """Unregister an observer added with :meth:`add_listener`."""
        if fn in self._listeners:
            self._listeners.remove(fn)

    # -- scheduling ---------------------------------------------------------------

    def schedule(
        self, delay: float, fn: Callable[[], None], label: Any = None
    ) -> Event:
        """Run ``fn`` after ``delay`` simulated seconds.

        ``label`` is an optional human-readable tag recorded only while a
        verification oracle or happens-before observer is installed; it
        makes decision traces legible and costs nothing otherwise.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        time = self.now + delay
        seq = self._next_seq
        self._next_seq = seq + 1
        self._fns[seq] = fn
        heapq.heappush(self._heap, (time, seq))
        if self._labels is not None:
            if label is not None:
                self._labels[seq] = label
            if self._hb is not None:
                self._hb.on_scheduled(seq)
        return Event(time, seq, self)

    def schedule_at(
        self, time: float, fn: Callable[[], None], label: Any = None
    ) -> Event:
        """Run ``fn`` at absolute simulated time ``time`` (>= now)."""
        if time < self.now:
            if self._labels is not None:
                # controlled dispatch may have deferred events past an
                # absolute time computed earlier (e.g. a NIC free slot);
                # the deferral makes that minimum already satisfied
                time = self.now
            else:
                raise ValueError(
                    f"cannot schedule in the past: {time} < {self.now}"
                )
        seq = self._next_seq
        self._next_seq = seq + 1
        self._fns[seq] = fn
        heapq.heappush(self._heap, (time, seq))
        if self._labels is not None:
            if label is not None:
                self._labels[seq] = label
            if self._hb is not None:
                self._hb.on_scheduled(seq)
        return Event(time, seq, self)

    def future(self) -> Future:
        return Future(self)

    # -- coroutine processes ---------------------------------------------------------

    def spawn(self, gen: ProcessGen) -> Future:
        """Run a generator process; the returned future completes with its
        ``return`` value when the process finishes."""
        result = self.future()
        if self._hb is not None:
            self._hb.on_spawn(id(gen))
        self._step_process(gen, None, result)
        return result

    def _step_process(self, gen: ProcessGen, send_value: Any, result: Future) -> None:
        hb = self._hb
        if hb is not None:
            hb.on_resume(id(gen))
        try:
            yielded = gen.send(send_value)
        except StopIteration as stop:
            if hb is not None:
                hb.on_suspend(id(gen), finished=True)
            result.complete(stop.value)
            return
        if hb is not None:
            hb.on_suspend(id(gen))
        if isinstance(yielded, Future):
            yielded.add_callback(
                lambda value: self._step_process(gen, value, result)
            )
        elif isinstance(yielded, (int, float)):
            self.schedule(
                float(yielded), lambda: self._step_process(gen, None, result)
            )
        else:
            raise TypeError(
                f"process yielded {yielded!r}; expected Future or delay"
            )

    def all_of(self, futures: list[Future]) -> Future:
        """Future completing (with a list of values) once all inputs complete."""
        combined = self.future()
        if not futures:
            combined.complete([])
            return combined
        remaining = len(futures)
        values: list[Any] = [None] * len(futures)

        def make_cb(index: int) -> Callable[[Any], None]:
            def cb(value: Any) -> None:
                nonlocal remaining
                values[index] = value
                remaining -= 1
                hb = self._hb
                if hb is not None:
                    # the joined result depends on *every* input's
                    # completer, not only the last one's
                    hb.note_future_dep(combined)
                if remaining == 0:
                    combined.complete(values)

            return cb

        for index, future in enumerate(futures):
            future.add_callback(make_cb(index))
        return combined

    # -- queue maintenance ----------------------------------------------------------

    def _cancel(self, seq: int) -> None:
        if self._fns.pop(seq, None) is None:
            return  # already executed, already cancelled, or never queued
        if self._labels is not None:
            self._labels.pop(seq, None)
        if self._ctl_times.pop(seq, None) is not None:
            return  # held by controlled dispatch: no heap slot left behind
        self._cancelled += 1
        if self._cancelled * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstoned slots from the heap, in place."""
        self.compactions += 1
        fns = self._fns
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[1] in fns]
        heapq.heapify(heap)
        self._cancelled = 0

    def _peek_time(self) -> float:
        """Time of the earliest pending slot (tombstones included)."""
        head = self._heap[0][0] if self._heap else inf
        if self._ctl_times:
            fns = self._fns
            for seq, time in self._ctl_times.items():
                if time < head and seq in fns:
                    head = time
        return head

    # -- execution -----------------------------------------------------------------

    def run(
        self, until: float | None = None, max_events: int | None = None
    ) -> int:
        """Process events until the queue drains (or a bound is hit).

        Returns the number of events processed by this call.
        """
        if self._oracle is not None or self._hb is not None:
            return self._run_controlled(until, max_events)
        horizon = inf if until is None else until
        limit = inf if max_events is None else max_events
        processed = 0
        heap = self._heap
        fns = self._fns
        listeners = self._listeners
        heappop = heapq.heappop
        while heap and processed < limit:
            time = heap[0][0]
            if time > horizon:
                break
            fn = fns.pop(heappop(heap)[1], None)
            if fn is None:
                self._cancelled -= 1
                continue
            self.now = time
            fn()
            processed += 1
            self._events_processed += 1
            if listeners:
                for listener in tuple(listeners):
                    listener()
        if until is not None and self._peek_time() > until:
            self.now = max(self.now, until)
        return processed

    def _run_controlled(
        self, until: float | None = None, max_events: int | None = None
    ) -> int:
        """Verification-mode dispatch: every schedule choice goes via the
        oracle.

        Without an oracle (or with one that always picks the first
        candidate) events fire in exactly the normal ``(time, seq)`` order
        — but all live events are visible as one candidate set before each
        dispatch, and the oracle may fire *any* of them next: scheduled
        delays are lower bounds on the modelled system, so delaying one
        event past another is always a legal schedule (the chosen event
        runs at ``max(now, its time)``, keeping time monotone).
        O(pending log pending) per event; only ever active under
        ``repro.verify``.
        """
        horizon = inf if until is None else until
        limit = inf if max_events is None else max_events
        processed = 0
        fns = self._fns
        times = self._ctl_times
        heap = self._heap
        oracle = self._oracle
        hb = self._hb
        labels = self._labels
        while processed < limit:
            if heap:
                # fold what was scheduled since the last dispatch into the
                # controlled map; its tombstones go with the heap
                for time, seq in heap:
                    if seq in fns:
                        times[seq] = time
                heap.clear()
                self._cancelled = 0
            if not times:
                break
            tmin = inf
            for seq, time in times.items():
                if time < tmin:
                    tmin = time
            if tmin > horizon:
                break
            candidates = [
                seq
                for seq, time in sorted(
                    times.items(), key=lambda entry: (entry[1], entry[0])
                )
                if time <= horizon
            ]
            if len(candidates) > 1 and oracle is not None:
                seq = oracle.choose(tmin, candidates, labels)
                if seq not in times:
                    raise RuntimeError(
                        f"oracle chose seq {seq} outside the candidate set"
                    )
            else:
                seq = candidates[0]
            chosen_time = times.pop(seq)
            fn = fns.pop(seq)
            if labels is not None:
                labels.pop(seq, None)
            if chosen_time > self.now:
                self.now = chosen_time
            if hb is not None:
                hb.on_event(seq)
            fn()
            processed += 1
            self._events_processed += 1
            if self._listeners:
                for listener in tuple(self._listeners):
                    listener()
            # detached mid-run (a scenario tearing down its monitor)
            if self._oracle is not oracle or self._hb is not hb:
                remaining = (
                    None if max_events is None else max_events - processed
                )
                return processed + self.run(until=until, max_events=remaining)
        if until is not None and self._peek_time() > until:
            self.now = max(self.now, until)
        return processed

    @property
    def pending_events(self) -> int:
        return len(self._fns)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def __repr__(self) -> str:
        return f"SimEngine(now={self.now:.6g}, pending={self.pending_events})"
