"""The planner's output: an initial layout plus task pins."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.regions.base import Region


@dataclass
class PlacementPlan:
    """An offline placement decision for one program on one cluster.

    ``layouts[name][p]`` is the region of data item ``name`` that process
    ``p`` should own *before the first task runs* (disjoint across
    processes by construction); ``pins[task_name]`` is the process a task
    of that name should be routed to.  Both are keyed by *name* rather
    than object identity so a plan computed from one build of a program
    applies to the item instances of the next build of it.
    """

    label: str
    processes: int
    layouts: dict[str, list[Region]] = field(default_factory=dict)
    pins: dict[str, int] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)

    def layout_for(self, item_name: str, processes: int) -> list[Region] | None:
        """The item's planned layout, or ``None`` if the plan doesn't apply."""
        if processes != self.processes:
            return None
        return self.layouts.get(item_name)

    def summary(self) -> dict:
        """A JSON-friendly digest (used by the tournament benchmark)."""
        return {
            "label": self.label,
            "processes": self.processes,
            "items": {
                name: [int(region.size()) for region in regions]
                for name, regions in sorted(self.layouts.items())
            },
            "pins": len(self.pins),
            "stats": {key: self.stats[key] for key in sorted(self.stats)},
        }

    def __repr__(self) -> str:
        return (
            f"PlacementPlan({self.label!r}, processes={self.processes}, "
            f"items={len(self.layouts)}, pins={len(self.pins)})"
        )
