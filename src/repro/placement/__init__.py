"""Offline placement planning (paper §3.2, taken ahead of time).

The runtime's :class:`~repro.runtime.policies.DataAwarePolicy` decides
placement *online*, one task at a time, from whatever ownership the index
has accumulated so far.  This package moves the same decision *offline*:
the static analyzer's bounded expansion yields every task's effective
data requirements without running a single body, the architecture model
supplies link costs between processes, and a min-cost assignment over
the two produces a :class:`~repro.placement.plan.PlacementPlan` — an
initial data-item layout plus task→process pins — that the runtime
consumes through :class:`~repro.placement.policy.PlannedPolicy`.
"""

from repro.placement.extract import (
    ExtractedProgram,
    PlacementTask,
    extract_program,
)
from repro.placement.plan import PlacementPlan
from repro.placement.planner import plan_placement
from repro.placement.policy import PlannedPolicy
from repro.sim.cluster import CostModel

__all__ = [
    "CostModel",
    "ExtractedProgram",
    "PlacementPlan",
    "PlacementTask",
    "PlannedPolicy",
    "extract_program",
    "plan_placement",
]
