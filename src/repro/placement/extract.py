"""Static extraction of a program's placement-relevant structure.

The planner does not need the full analyzer report — only, per task the
runtime will actually schedule, the *effective* regions the task's whole
subtree touches.  Both come from machinery `repro.analysis` already has:
:func:`~repro.analysis.expansion.expand_task` unfolds the split structure
without executing bodies, and
:func:`~repro.analysis.races.effective_requirements` folds declared
requirements bottom-up.  Extraction keeps the expansion *frontier* —
the deepest expanded level of each root — as the planning units: those
are exactly the tasks whose names the runtime reproduces when it splits
to the same granularity, so plans can pin them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.expansion import AnalysisConfig, TaskNode, expand_task
from repro.analysis.program import TaskProgram
from repro.analysis.races import effective_requirements
from repro.items.base import DataItem
from repro.regions.base import Region


@dataclass
class PlacementTask:
    """One planning unit: an expansion-frontier task and its regions.

    ``reads``/``writes`` are the *effective* (subtree-unioned) regions,
    keyed by data-item name — the plan must survive being applied to a
    different runtime's item instances, and canonical region interning
    makes same-shape regions compare equal across them.
    """

    name: str
    path: str
    phase: int
    flops: float
    reads: dict[str, Region]
    writes: dict[str, Region]
    #: task names from the root down to this task's parent
    ancestors: tuple[str, ...]
    #: splittable but not expanded — regions still subsume the subtree
    truncated: bool = False

    def accessed_names(self) -> list[str]:
        return sorted(set(self.reads) | set(self.writes))


@dataclass
class ExtractedProgram:
    """Everything :func:`~repro.placement.planner.plan_placement` consumes."""

    label: str
    tasks: list[PlacementTask] = field(default_factory=list)
    #: item name → a representative instance (for shapes and byte weights)
    items: dict[str, DataItem] = field(default_factory=dict)
    expanded: int = 0
    truncated: int = 0


def extract_program(
    program: TaskProgram,
    config: AnalysisConfig | None = None,
) -> ExtractedProgram:
    """Expand every root of a phased program into planning units.

    Only the expansion is used: the analyzer's checks (coverage, races,
    lint) report on the program, and nothing here reads a finding.
    """
    config = config or AnalysisConfig(races=False, lint=False)
    out = ExtractedProgram(label=program.label)
    for phase_index, phase in enumerate(program.phases):
        for spec in phase:
            root, expanded, truncated = expand_task(spec, config)
            out.expanded += expanded
            out.truncated += truncated
            efforts = effective_requirements(root)
            for node, ancestors in _frontier(root):
                eff = efforts[id(node)]
                reads: dict[str, Region] = {}
                writes: dict[str, Region] = {}
                for item, region in eff.writes.items():
                    out.items.setdefault(item.name, item)
                    writes[item.name] = region
                for item, region in eff.reads.items():
                    out.items.setdefault(item.name, item)
                    reads[item.name] = region
                out.tasks.append(
                    PlacementTask(
                        name=node.spec.name,
                        path=node.path,
                        phase=phase_index,
                        flops=float(node.spec.flops),
                        reads=reads,
                        writes=writes,
                        ancestors=ancestors,
                        truncated=node.truncated,
                    )
                )
    return out


def _frontier(root: TaskNode) -> Iterator[tuple[TaskNode, tuple[str, ...]]]:
    """Pre-order ``(leaf, ancestor-names)`` pairs of the expanded tree."""
    stack: list[tuple[TaskNode, tuple[str, ...]]] = [(root, ())]
    while stack:
        node, ancestors = stack.pop()
        if node.children:
            below = ancestors + (node.spec.name,)
            stack.extend((child, below) for child in reversed(node.children))
        else:
            yield node, ancestors
