"""Hierarchical, distributed data storage index (paper Fig. 5, Algorithm 1).

All runtime processes are organized in a binary hierarchy.  Level 1 is the
leaf level (one leaf per process, covering the regions of its locally
*owned* fragments); the node at level ``l`` rooted at process ``i`` covers
processes ``[i, i + 2**(l-1))`` and is *hosted* by process ``i`` — "the
role of inner nodes is assumed by the left child".  Each process therefore
maintains up to ``O(log₂ P)`` regions per data item.

:meth:`HierarchicalIndex.lookup` implements Algorithm 1 (region location
resolution) as a simulation process: every RESOLVE step executed on a
process other than its caller is charged as a control-message round trip
on the simulated network, so lookup latency scales with hop count exactly
as the distributed implementation's would.

One deliberate refinement over the paper's pseudocode: descending into a
child passes ``r ∩ r_subtree`` rather than the full remainder ``r`` —
otherwise a child that cannot resolve everything would escalate back to
the parent that just called it.  The subtraction on the paper's lines
20/25 indicates this is the intended reading.

Index *maintenance* (``update_ownership``) recomputes the covered regions
along the leaf-to-root path whenever ownership changes, charging one
fire-and-forget control message per remote ancestor host.  It is the only
writer of ownership: a leaf is the one record of what its process owns,
and that process's data manager reads it through
:meth:`HierarchicalIndex.leaf`, as does the scheduler when a task lands
there.
"""

from __future__ import annotations

from typing import Generator, Iterable

from repro.items.base import DataItem
from repro.regions.base import Region
from repro.regions.bounds import bounds_disjoint
from repro.runtime.config import CONTROL_MESSAGE_BYTES
from repro.runtime.probe import INERT, Probe
from repro.sim.network import Network


class HierarchicalIndex:
    """Distributed index over process-owned regions of data items."""

    def __init__(
        self,
        network: Network,
        num_processes: int,
        probe: Probe = INERT,
    ) -> None:
        if num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        self.network = network
        self.num_processes = num_processes
        self.probe = probe
        # number of hierarchy levels: leaves at 1, root at `levels`
        self.levels = 1
        while (1 << (self.levels - 1)) < num_processes:
            self.levels += 1
        # (item, level, root_process) -> covered region
        self._cover: dict[tuple[DataItem, int, int], Region] = {}
        self._items: set[DataItem] = set()
        self.lookups = 0
        self.lookup_hops = 0
        self.update_messages = 0
        # per-item ownership version; bumped on every update so origin-side
        # lookup caches can validate their entries cheaply
        self._version: dict[DataItem, int] = {}
        # (origin, item) -> {"version", "pieces": [(region, pid)],
        #                    "resolved": Region, "checked": Region}
        self._lookup_cache: dict[tuple[int, DataItem], dict] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # -- elastic membership -----------------------------------------------------------

    def grow(self, num_processes: int) -> None:
        """Extend the hierarchy to cover ``num_processes`` leaves.

        Joining processes own nothing yet, so every existing leaf (and
        therefore every existing ancestor on its path) keeps its cover;
        only *new root levels* appear, each covering exactly what the old
        root did.  Ownership versions are untouched — no leaf changed —
        so per-origin lookup caches stay valid: the newcomer's empty leaf
        cannot invalidate placement knowledge already learned.
        """
        if num_processes < self.num_processes:
            raise ValueError(
                f"index cannot shrink from {self.num_processes} to "
                f"{num_processes} processes (departures keep their leaves)"
            )
        if num_processes == self.num_processes:
            return
        old_levels = self.levels
        levels = 1
        while (1 << (levels - 1)) < num_processes:
            levels += 1
        if levels > old_levels:
            for item in self._items:
                base = self._cover.get((item, old_levels, 0))
                if base is None:
                    continue
                # new root levels are all rooted at 0; the right child of
                # each is entirely made of (empty) newcomers, so each new
                # root covers exactly the old root's region
                for level in range(old_levels + 1, levels + 1):
                    self._cover[(item, level, 0)] = base
        self.num_processes = num_processes
        self.levels = levels

    # -- hierarchy geometry ---------------------------------------------------------

    def node_root(self, level: int, process: int) -> int:
        """Root process of the level-``level`` node containing ``process``."""
        span = 1 << (level - 1)
        return process - (process % span)

    def children_of(self, level: int, root: int) -> tuple[int, int]:
        """Roots of the two level-``level - 1`` children of node (level, root)."""
        half = 1 << (level - 2)
        return root, root + half

    def host_of(self, level: int, root: int) -> int:
        """Process hosting the hierarchy node — its leftmost descendant."""
        return root

    # -- covered-region bookkeeping ----------------------------------------------------

    def register_item(self, item: DataItem) -> None:
        self._items.add(item)

    def covered(self, item: DataItem, level: int, root: int) -> Region:
        for notify in self.probe.table_read:
            notify(("own", item.name), None)
        region = self._cover.get((item, level, root))
        return region if region is not None else item.empty_region()

    def owned_region(self, item: DataItem, process: int) -> Region:
        return self.covered(item, 1, process)

    def leaf(self, item: DataItem, process: int) -> Region:
        """``process``'s leaf, read without announcing a ``table_read``: a
        process consulting its own owned map, the way its data manager
        does, is not an index access the happens-before monitor orders."""
        region = self._cover.get((item, 1, process))
        return region if region is not None else item.empty_region()

    def ownership_version(self, item: DataItem) -> int:
        """Monotone per-item ownership epoch (bumped on every applied
        update).  Global and read for free, so placement does not read it;
        the opt-in locality cache does ("What the model gives for free",
        ``docs/simulation.md``)."""
        return self._version.get(item, 0)

    def update_ownership(
        self, item: DataItem, process: int, new_region: Region
    ) -> None:
        """Set the leaf region of ``process`` and refresh its ancestors.

        Charges one control message per ancestor hosted on a different
        process (fire-and-forget; maintenance does not block the caller).
        """
        if item not in self._items:
            raise KeyError(f"item {item.name!r} not registered with the index")
        old = self.covered(item, 1, process)
        # store the canonical representative: every later lookup combining
        # against this cover then hits the kernel's memo-cache by identity
        new_region = new_region.interned()
        if new_region is old or new_region.same_elements(old):
            # no-op update: the stored leaf already holds exactly this
            # region, so ancestors cannot change either.  Skip the version
            # bump (which would wipe every origin's locality cache) and the
            # ancestor maintenance messages.
            return
        self._version[item] = self._version.get(item, 0) + 1
        self._cover[(item, 1, process)] = new_region
        # each ancestor on the leaf-to-root path is the union of its two
        # children (Fig. 5), re-merged bottom-up
        for level in range(2, self.levels + 1):
            root = self.node_root(level, process)
            left, right = self.children_of(level, root)
            merged = self.covered(item, level - 1, left)
            if right < self.num_processes:
                merged = merged.union(self.covered(item, level - 1, right))
            self._cover[(item, level, root)] = merged
            host = self.host_of(level, root)
            if host != process:
                self.update_messages += 1
                self.network.send(process, host, CONTROL_MESSAGE_BYTES)
        # the new covers are published: lookups that observe them (via
        # ``covered``) order after this update
        for notify in self.probe.ownership_update:
            notify(item, process, new_region)

    # -- Algorithm 1: region location resolution ------------------------------------------

    def lookup(
        self, item: DataItem, region: Region, origin: int
    ) -> Generator:
        """Locate ``region`` of ``item`` starting from process ``origin``.

        A simulation process (drive with ``engine.spawn`` / ``yield from``)
        returning ``(mapping, unresolved)`` where ``mapping`` is a list of
        ``(region_part, process)`` pairs and ``unresolved`` is the part of
        the request no process owns (i.e. uninitialized data).
        """
        self.lookups += 1
        if region.is_empty():
            return [], region
        mapping: list[tuple[Region, int]] = []

        # leaf step: the origin's own share (Algorithm 1, lines 8-14)
        part, remaining = yield from self._resolve(
            item, region, 1, origin, exclude_child=None
        )
        mapping.extend(part)

        # escalation: consult ever larger enclosing subtrees (lines 32-35);
        # each parent only needs its child not yet examined
        caller = origin
        prev_root = origin
        level = 1
        while not remaining.is_empty() and level < self.levels:
            level += 1
            root = self.node_root(level, origin)
            host = self.host_of(level, root)
            if host != caller:
                self.lookup_hops += 1
                yield self.network.send(caller, host, CONTROL_MESSAGE_BYTES)
                caller = host
            part, remaining = yield from self._resolve(
                item, remaining, level, root, exclude_child=prev_root
            )
            mapping.extend(part)
            prev_root = root
        # the collected mapping travels back to the origin
        if caller != origin:
            self.lookup_hops += 1
            yield self.network.send(caller, origin, CONTROL_MESSAGE_BYTES)
        return mapping, remaining

    def _resolve(
        self,
        item: DataItem,
        region: Region,
        level: int,
        root: int,
        exclude_child: int | None,
    ) -> Generator:
        """RESOLVE(d, r, l) of Algorithm 1, downward direction only."""
        mapping: list[tuple[Region, int]] = []
        if region.is_empty():
            return mapping, region
        if level == 1:
            local = self.covered(item, 1, root)
            if bounds_disjoint(region.hull(), local.hull()):
                return mapping, region
            found = region.intersect(local)
            if not found.is_empty():
                mapping.append((found, root))
                region = region.difference(found)
            return mapping, region
        host = self.host_of(level, root)
        descents: list[tuple[int, Region]] = []
        for child_root in self.children_of(level, root):
            if child_root == exclude_child or child_root >= self.num_processes:
                continue
            child_cover = self.covered(item, level - 1, child_root)
            if bounds_disjoint(region.hull(), child_cover.hull()):
                continue
            overlap = region.intersect(child_cover)
            if overlap.is_empty():
                continue
            descents.append((child_root, overlap))
            region = region.difference(overlap)
        if len(descents) == 1:
            child_root, overlap = descents[0]
            part = yield from self._descend(item, overlap, level, host, child_root)
            mapping.extend(part)
        elif descents:
            # both children hold parts of the request: a distributed
            # implementation sends both RESOLVE messages at once and
            # joins the replies, so the sub-resolutions run concurrently
            # (hop accounting is identical either way; child covers are
            # disjoint, so the answers cannot overlap)
            engine = self.network.engine
            parts = yield engine.all_of(
                [
                    engine.spawn(
                        self._descend(item, overlap, level, host, child_root)
                    )
                    for child_root, overlap in descents
                ]
            )
            for part in parts:
                mapping.extend(part)
        return mapping, region

    def _descend(
        self, item: DataItem, overlap: Region, level: int, host: int, child_root: int
    ) -> Generator:
        """One charged round trip into a child node's sub-resolution."""
        child_host = self.host_of(level - 1, child_root)
        if child_host != host:
            self.lookup_hops += 1
            yield self.network.send(host, child_host, CONTROL_MESSAGE_BYTES)
        part, _ = yield from self._resolve(
            item, overlap, level - 1, child_root, exclude_child=None
        )
        if child_host != host:
            self.lookup_hops += 1
            yield self.network.send(child_host, host, CONTROL_MESSAGE_BYTES)
        return part

    # -- origin-side lookup caching (a §6 "closing the gap" optimization) -----------

    def lookup_cached(
        self, item: DataItem, region: Region, origin: int
    ) -> Generator:
        """Like :meth:`lookup` but with a per-origin *locality cache*.

        Every miss teaches the origin the placement of the looked-up
        region; subsequent lookups covered by accumulated knowledge are
        served locally at zero message cost — the optimization the paper's
        §6 "closing the performance gap" effort points at for lookup-bound
        workloads like TPC.  An entry is dropped once the item's ownership
        version moves.  One learned from a task's carried lookup
        (:meth:`learn`) can still name a stale owner; a task placed from
        it lands misplaced, and the landing process forgets the entry.
        """
        version = self._version.get(item, 0)
        key = (origin, item)
        entry = self._lookup_cache.get(key)
        if entry is not None and entry["version"] != version:
            entry = None  # ownership changed: forget everything learned
        if entry is not None and entry["checked"].covers(region):
            # the answer is a clip of what this origin has learned
            self.cache_hits += 1
            self.lookups += 1
            mapping = []
            for piece, pid in entry["pieces"]:
                overlap = piece.intersect(region)
                if not overlap.is_empty():
                    mapping.append((overlap, pid))
            return mapping, region.difference(entry["resolved"])
        self.cache_misses += 1
        mapping, unresolved = yield from self.lookup(item, region, origin)
        # a lookup that saw ownership move while it ran teaches nothing
        if self._version.get(item, 0) == version:
            self.learn(item, origin, mapping, region)
        return mapping, unresolved

    def learn(
        self,
        item: DataItem,
        origin: int,
        mapping: Iterable[tuple[Region, int]],
        region: Region | None = None,
    ) -> None:
        """Teach ``origin``'s locality cache that ``mapping`` is who owns
        what of ``region`` of ``item`` — a lookup it made, or one a task
        carried to it that it has checked.  ``region=None``: the pieces
        alone, nothing unresolved.  The entry is stamped with the item's
        current ownership version."""
        version = self._version.get(item, 0)
        # re-fetch the entry: a concurrent miss from this origin may have
        # (re)built it, and concurrent learners accumulate, not clobber
        key = (origin, item)
        entry = self._lookup_cache.get(key)
        if entry is None or entry["version"] != version:
            entry = {
                "version": version,
                "pieces": [],
                "resolved": item.empty_region(),
                "checked": item.empty_region(),
            }
            self._lookup_cache[key] = entry
        for piece, pid in mapping:
            fresh = piece.difference(entry["resolved"])
            if not fresh.is_empty():
                entry["pieces"].append((fresh, pid))
                entry["resolved"] = entry["resolved"].union(fresh)
        entry["checked"] = entry["checked"].union(
            entry["resolved"] if region is None else region
        )

    def forget(self, item: DataItem, origin: int) -> None:
        """Drop everything ``origin``'s locality cache learned of ``item``."""
        self._lookup_cache.pop((origin, item), None)

    # -- convenience -----------------------------------------------------------------------

    def covering_process(self, item: DataItem, region: Region) -> int | None:
        """Process whose owned region covers all of ``region``, if any.

        Pure state inspection used by tests; the scheduler derives coverage
        from charged :meth:`lookup` results instead.
        """
        if region.is_empty():
            return None
        for process in range(self.num_processes):
            if self.owned_region(item, process).covers(region):
                return process
        return None
