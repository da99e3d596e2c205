"""Region-granular read/write lock table (per process).

Implements the ``Lr`` / ``Lw`` bookkeeping of the model at the
implementation level: a task acquires read locks on its read regions and
write locks on its write regions before executing, holds them for the
duration (satisfied-requirements property), and releases them on
completion (rule *end*).

Unlike the specification level — where overlapping write locks are not
formally excluded (see the faithfulness notes in
:mod:`repro.model.transitions`) — the implementation enforces
reader/writer exclusion per element: writers conflict with any overlapping
lock, readers only with overlapping writers.  Conflicting acquisitions
queue on a future and are retried in FIFO order as locks drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.items.base import DataItem
from repro.regions.base import Region
from repro.regions.bounds import bounds_disjoint
from repro.runtime.data_manager import Signal
from repro.runtime.probe import INERT, Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import SimEngine


@dataclass
class _Hold:
    owner: object
    item: DataItem
    region: Region
    write: bool


class LockTable:
    """All locks held within one address space."""

    def __init__(
        self, engine: "SimEngine", pid: int = -1, probe: Probe = INERT
    ) -> None:
        self.pid = pid
        self.probe = probe
        self._holds: list[_Hold] = []
        #: fires the next time any locks are released
        self.released = Signal(engine)

    # -- queries -------------------------------------------------------------------
    #
    # Every scan rejects a hold whose cached hull is disjoint from the
    # query's before it asks the region algebra: most holds of a table are
    # nowhere near the region asked about.

    def write_locked(self, item: DataItem, region: Region) -> bool:
        for notify in self.probe.table_read:
            notify(("locks", self.pid, item.name), region)
        hull = region.hull()
        return any(
            h.write
            and h.item is item
            and not bounds_disjoint(hull, h.region.hull())
            and h.region.overlaps(region)
            for h in self._holds
        )

    def any_locked(self, item: DataItem, region: Region) -> bool:
        for notify in self.probe.table_read:
            notify(("locks", self.pid, item.name), region)
        hull = region.hull()
        return any(
            h.item is item
            and not bounds_disjoint(hull, h.region.hull())
            and h.region.overlaps(region)
            for h in self._holds
        )

    def conflicts(
        self,
        reads: dict[DataItem, Region],
        writes: dict[DataItem, Region],
        owner: object = None,
    ) -> bool:
        """Would acquiring these locks conflict with *other* holders?

        ``owner``'s own existing holds never count as conflicts: a
        re-entrant acquisition by the owner of the overlapping hold must
        not self-deadlock.  Pass ``owner=None`` (the default) to treat
        every hold as foreign.
        """
        for notify in self.probe.table_read:
            for item, region in (*writes.items(), *reads.items()):
                if not region.is_empty():
                    notify(("locks", self.pid, item.name), region)
        for item, region in writes.items():
            if region.is_empty():
                continue
            hull = region.hull()
            for hold in self._holds:
                if (
                    hold.owner is not owner
                    and hold.item is item
                    and not bounds_disjoint(hull, hold.region.hull())
                    and hold.region.overlaps(region)
                ):
                    return True
        for item, region in reads.items():
            if region.is_empty():
                continue
            hull = region.hull()
            for hold in self._holds:
                if (
                    hold.owner is not owner
                    and hold.write
                    and hold.item is item
                    and not bounds_disjoint(hull, hold.region.hull())
                    and hold.region.overlaps(region)
                ):
                    return True
        return False

    # -- acquisition --------------------------------------------------------------

    def try_acquire(
        self,
        owner: object,
        reads: dict[DataItem, Region],
        writes: dict[DataItem, Region],
    ) -> bool:
        """Atomically acquire all locks, or none."""
        if self.conflicts(reads, writes, owner=owner):
            return False
        # publish the new lock state: later guard checks that observe
        # these holds (or their absence) order after this acquisition
        for notify in self.probe.table_publish:
            for item, region in (*writes.items(), *reads.items()):
                if not region.is_empty():
                    notify(("locks", self.pid, item.name), region)
        for item, region in writes.items():
            if not region.is_empty():
                # interned hold regions make the per-hold overlap checks
                # above hit the kernel memo-cache by operand identity
                self._holds.append(
                    _Hold(owner, item, region.interned(), write=True)
                )
        for item, region in reads.items():
            if not region.is_empty():
                # read∩write overlap within one task is covered by its own
                # write lock; lock only the read-exclusive part
                effective = region.difference(
                    writes.get(item, item.empty_region())
                )
                if not effective.is_empty():
                    self._holds.append(
                        _Hold(owner, item, effective, write=False)
                    )
        return True

    def release(self, owner: object) -> None:
        """Drop all locks of ``owner`` and wake queued waiters."""
        before = len(self._holds)
        for notify in self.probe.table_publish:
            for hold in self._holds:
                if hold.owner is owner:
                    notify(("locks", self.pid, hold.item.name), hold.region)
        self._holds = [h for h in self._holds if h.owner is not owner]
        if len(self._holds) != before:
            self.released.fire()

    @property
    def active_holds(self) -> int:
        return len(self._holds)

    def __repr__(self) -> str:
        return f"LockTable({len(self._holds)} holds)"
