"""Per-task execution tracing and timeline rendering.

An optional deep-inspection layer over the monitoring component: an
:class:`ExecutionTracer` subscribed to a runtime's probe
(:mod:`repro.runtime.probe`, the five ``task_*`` events) records every
leaf task's lifecycle timestamps — enqueue, handling start, data staged,
locks acquired, compute done — and where it ran.  The tracer can then
report

* per-task phase breakdowns (queueing vs. data staging vs. lock waiting
  vs. compute),
* per-process utilization over time, and
* an ASCII Gantt chart of the busiest window,

which is how the task-overhead findings in EXPERIMENTS.md were diagnosed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TaskRecord:
    """Lifecycle timestamps (simulated seconds) of one leaf task."""

    name: str
    #: the process that executed the task (stamped at start: a stolen or
    #: re-placed task runs elsewhere than where it was first queued)
    pid: int
    #: first time the task entered any queue
    enqueued: float = 0.0
    started: float = 0.0
    data_ready: float = 0.0
    locks_held: float = 0.0
    finished: float = 0.0

    @property
    def queue_wait(self) -> float:
        return max(0.0, self.started - self.enqueued)

    @property
    def staging_time(self) -> float:
        return max(0.0, self.data_ready - self.started)

    @property
    def lock_wait(self) -> float:
        return max(0.0, self.locks_held - self.data_ready)

    @property
    def compute_time(self) -> float:
        return max(0.0, self.finished - self.locks_held)

    @property
    def total(self) -> float:
        return max(0.0, self.finished - self.enqueued)


@dataclass
class PhaseBreakdown:
    """Aggregate of where leaf-task time went."""

    queue_wait: float = 0.0
    staging: float = 0.0
    lock_wait: float = 0.0
    compute: float = 0.0
    tasks: int = 0

    @property
    def total(self) -> float:
        return self.queue_wait + self.staging + self.lock_wait + self.compute

    def fractions(self) -> dict[str, float]:
        total = self.total or 1.0
        return {
            "queue_wait": self.queue_wait / total,
            "staging": self.staging / total,
            "lock_wait": self.lock_wait / total,
            "compute": self.compute / total,
        }


class ExecutionTracer:
    """Collects :class:`TaskRecord` entries from a runtime's processes.

    Attach before submitting work::

        tracer = ExecutionTracer()
        runtime.probe.attach(tracer)
        ... run ...
        print(tracer.render_gantt(num_processes=runtime.num_processes))
    """

    def __init__(self, max_records: int = 100_000) -> None:
        self.records: list[TaskRecord] = []
        self.max_records = max_records
        self._open: dict[object, TaskRecord] = {}

    # -- probe subscriptions (records are keyed by treeture) ----------------------

    def on_task_enqueued(
        self, task, key: object, pid: int, variant: str, now: float
    ) -> None:
        if variant == "split" or key in self._open:
            return  # a re-placement re-queues the task: the first enqueue counts
        if len(self.records) + len(self._open) >= self.max_records:
            return
        self._open[key] = TaskRecord(name=task.name, pid=pid, enqueued=now)

    def on_task_start(self, task, key: object, pid: int, now: float) -> None:
        record = self._open.get(key)
        if record:
            record.pid = pid
            record.started = now

    def on_task_data_ready(self, task, key: object, pid: int, now: float) -> None:
        record = self._open.get(key)
        if record:
            record.data_ready = now

    def on_task_locks_held(self, task, key: object, pid: int, now: float) -> None:
        record = self._open.get(key)
        if record:
            record.locks_held = now

    def on_task_finish(self, task, key: object, pid: int, now: float) -> None:
        record = self._open.pop(key, None)
        if record:
            record.finished = now
            self.records.append(record)

    # -- analysis ------------------------------------------------------------------

    def breakdown(self) -> PhaseBreakdown:
        out = PhaseBreakdown()
        for record in self.records:
            out.queue_wait += record.queue_wait
            out.staging += record.staging_time
            out.lock_wait += record.lock_wait
            out.compute += record.compute_time
            out.tasks += 1
        return out

    def slowest(self, count: int = 10) -> list[TaskRecord]:
        return sorted(self.records, key=lambda r: -r.total)[:count]

    def utilization(
        self, num_processes: int, buckets: int = 20
    ) -> list[list[float]]:
        """Fraction of each time bucket each process spent computing."""
        if not self.records:
            return [[0.0] * buckets for _ in range(num_processes)]
        end = max(r.finished for r in self.records)
        start = min(r.enqueued for r in self.records)
        span = max(end - start, 1e-12)
        width = span / buckets
        grid = [[0.0] * buckets for _ in range(num_processes)]
        for record in self.records:
            lo, hi = record.locks_held, record.finished
            b0 = int((lo - start) / width)
            b1 = int((hi - start) / width)
            for b in range(max(0, b0), min(buckets, b1 + 1)):
                bucket_lo = start + b * width
                bucket_hi = bucket_lo + width
                overlap = max(
                    0.0, min(hi, bucket_hi) - max(lo, bucket_lo)
                )
                grid[record.pid][b] += overlap / width
        return grid

    def render_gantt(
        self, num_processes: int, buckets: int = 40
    ) -> str:
        """ASCII utilization chart: one row per process, shaded by load."""
        shades = " .:-=+*#%@"
        grid = self.utilization(num_processes, buckets)
        lines = ["process utilization over the traced window:"]
        for pid, row in enumerate(grid):
            cells = "".join(
                shades[min(len(shades) - 1, int(v * (len(shades) - 1)))]
                for v in row
            )
            lines.append(f"  p{pid:<3d} |{cells}|")
        return "\n".join(lines)

    def render_breakdown(self) -> str:
        breakdown = self.breakdown()
        fractions = breakdown.fractions()
        lines = [f"leaf task phase breakdown ({breakdown.tasks} tasks):"]
        for phase, fraction in fractions.items():
            bar = "#" * int(fraction * 40)
            lines.append(f"  {phase:<11} {fraction * 100:5.1f}%  {bar}")
        return "\n".join(lines)
