"""Resilience manager: data item checkpoint and restart (paper §3.2/§6).

The paper lists runtime-based task checkpointing as a service the
application model enables (deliverable D5.7) and as ongoing work.  Because
the runtime owns the distribution of all data items, a checkpoint is simply
the set of every process's fragment payloads; restoring re-creates the
distribution on a (possibly different-sized) runtime — the data preservation
property guarantees nothing else is needed to resume between task barriers.

Checkpoint cost is charged to the simulation: each process serializes its
fragments (core time) and ships them to stable storage modelled as a peer
stream with the configured network bandwidth.  Every process streams at
once, so a checkpoint costs its largest share's stream rather than the sum
of all shares.

Recovery after node loss and restore are redistributions from stable
storage: their planners return moves, and the one executor runs them all
at once (``docs/runtime.md``, "Redistribution").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Iterator

from repro.items.base import DataItem, FragmentPayload
from repro.regions.base import Region
from repro.regions.bounds import hull_gap
from repro.runtime.balancer import share_slices, take_slice
from repro.runtime.config import FRAGMENT_OP_OVERHEAD
from repro.runtime.data_manager import Move, run_stored_moves

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.process import RuntimeProcess
    from repro.runtime.runtime import AllScaleRuntime


def lost_region(
    runtime: "AllScaleRuntime", item: DataItem, region: Region
) -> Region:
    """The part of ``region`` a node loss took: owned by no process.

    Failed processes own nothing, and bytes on the wire are already owned
    by their live destination, so the index root's cover is exactly what
    survived.  A survivor's *replica* of a lost row does not count: no one
    owns it, so nothing would keep it coherent."""
    index = runtime.index
    return region.difference(index.covered(item, index.levels, 0))


def owned_bytes(runtime: "AllScaleRuntime", pid: int) -> int:
    """Bytes process ``pid`` owns, every item summed."""
    manager = runtime.process(pid).data_manager
    return sum(
        item.region_bytes(manager.owned_region(item)) for item in runtime.items
    )


def nearest(
    runtime: "AllScaleRuntime",
    candidates: list[int],
    share: dict[DataItem, Region],
    load: dict[int, int],
) -> int:
    """The candidate whose owned hull lies nearest ``share`` ({item:
    region}): the smallest :func:`hull_gap` between an item's part and the
    candidate's owned hull of that item (infinite if it owns none); ties
    to the lowest ``load``, then the lowest pid."""

    def gap(pid: int) -> float:
        manager = runtime.process(pid).data_manager
        return min(
            hull_gap(manager.owned_region(item).hull(), part.hull())
            for item, part in share.items()
        )

    return min(candidates, key=lambda pid: (gap(pid), load[pid], pid))


@dataclass
class Checkpoint:
    """A consistent snapshot of all data items' contents and distribution."""

    sim_time: float
    #: item name -> list of (owning pid, payload)
    payloads: dict[str, list[tuple[int, FragmentPayload]]] = field(
        default_factory=dict
    )

    def total_bytes(self) -> int:
        return sum(
            payload.nbytes
            for entries in self.payloads.values()
            for _pid, payload in entries
        )


class ResilienceManager:
    """Checkpoint/restore of the runtime's data items."""

    def __init__(self, runtime: "AllScaleRuntime") -> None:
        self.runtime = runtime

    # -- checkpoint ---------------------------------------------------------------

    def checkpoint(self) -> Generator:
        """Simulation process producing a :class:`Checkpoint`.

        Must run at a task barrier (no tasks holding locks); the runtime's
        apps checkpoint between pfor steps, where that holds by
        construction.  Every process streams its own share at once, so a
        checkpoint costs its largest share's stream, not the sum of all.
        """
        runtime = self.runtime
        engine = runtime.engine
        snapshot = Checkpoint(sim_time=runtime.now)
        shares = yield engine.all_of([
            engine.spawn(self._stream(process))
            for process in runtime.processes
        ])
        for item in runtime.items:
            entries = [
                (process.pid, share[item.name])
                for process, share in zip(runtime.processes, shares)
                if item.name in share
            ]
            if entries:
                snapshot.payloads[item.name] = entries
        for notify in runtime.probe.checkpoint:
            notify(snapshot)
        runtime.metrics.incr("resilience.checkpoints")
        return snapshot

    def _stream(self, process: "RuntimeProcess") -> Generator:
        """One process's share of a checkpoint: item name -> payload.

        A process that dies mid-stream contributes only the payloads that
        fully reached stable storage before it died."""
        runtime = self.runtime
        manager = process.data_manager
        # stable storage is off-node: modelled as a full-bandwidth send to
        # the next process's NIC
        target = (process.pid + 1) % runtime.num_processes
        share: dict[str, FragmentPayload] = {}
        for item in runtime.items:
            owned = manager.owned_region(item)
            if owned.is_empty():
                continue
            yield process.node.interleave(FRAGMENT_OP_OVERHEAD)
            if process.failed:
                break
            payload = manager.fragment(item).extract(owned)
            yield runtime.network.send(
                process.pid, target, max(1, payload.nbytes)
            )
            if process.failed:
                break
            share[item.name] = payload
        return share

    # -- recovery from node loss --------------------------------------------------------

    def recover_lost_data(self, snapshot: Checkpoint) -> Generator:
        """Re-materialize data lost to a node failure from a checkpoint.

        Whatever part of ``elems(d)`` is owned by no process
        (:func:`lost_region`) moves from the checkpoint payloads onto the
        survivors, planned by :meth:`_adopt` and run concurrently by the
        one executor with stable storage as the source: each move claims
        its part before the first yield, so no element is owned by no
        process while the bytes travel (``docs/runtime.md``,
        "Redistribution").  Returns the bytes restored.

        Data still alive is left untouched — survivors keep their (possibly
        newer) state; only the lost region rolls back to checkpoint time,
        which is the standard partial-restart semantics the model's data
        preservation property makes safe between task barriers.
        """
        runtime = self.runtime
        restored = yield from run_stored_moves(
            runtime, self._adopt(snapshot)
        )
        for notify in runtime.probe.recovery:
            notify(snapshot)
        runtime.metrics.incr("resilience.recoveries")
        return restored

    def _land(
        self, snapshot: Checkpoint, by_name: dict[str, DataItem]
    ) -> Iterator[Move]:
        """The restore planner: each payload's owned pieces to their
        owners, its unowned rest to ``live[pid % len(live)]``."""
        live = self.runtime.alive_processes()
        managers = [self.runtime.process(pid).data_manager for pid in live]
        for item_name, entries in snapshot.payloads.items():
            item = by_name[item_name]
            for pid, payload in entries:
                rest = payload.region
                for owner, manager in zip(live, managers):
                    part = rest.intersect(manager.owned_region(item))
                    if not part.is_empty():
                        yield Move(item, part, payload, owner)
                        rest = rest.difference(part)
                if not rest.is_empty():
                    yield Move(item, rest, payload, live[pid % len(live)])

    def _adopt(self, snapshot: Checkpoint) -> Iterator[Move]:
        """The recovery planner: water-fill the lost parts over the
        survivors by owned bytes (every item summed).

        Parts of a region type :func:`take_slice` cannot cut (kd-trees)
        go whole to the least-loaded survivor.  The rest goes owner by
        owner, in the order the owners first appear in the checkpoint:
        each piece to the survivor still under the mean whose owned hull
        is nearest (:func:`nearest`), cut to fill it up to the mean at the
        same fraction of every item (:func:`share_slices`), each cut off
        the face that looks at the adopter's owned hull.  Each move is
        claimed as it is yielded (:func:`run_stored_moves`), so later
        choices see earlier claims.
        """
        runtime = self.runtime
        by_name = {item.name: item for item in runtime.items}
        survivors = runtime.alive_processes()
        if not survivors:
            raise RuntimeError("no surviving processes to recover onto")
        # each checkpointed owner's lost parts, item by item
        shares: dict[int, dict[DataItem, Region]] = {}
        payloads: dict[tuple[int, DataItem], FragmentPayload] = {}
        for item_name, entries in snapshot.payloads.items():
            item = by_name.get(item_name)
            if item is None:
                continue
            lost = lost_region(runtime, item, item.full_region)
            if lost.is_empty():
                continue
            for pid, payload in entries:
                part = payload.region.intersect(lost)
                if not part.is_empty():
                    shares.setdefault(pid, {})[item] = part
                    payloads[pid, item] = payload
            runtime.metrics.incr("resilience.recovered_items")
        load = {pid: owned_bytes(runtime, pid) for pid in survivors}

        def give(
            owner: int, pieces: dict[DataItem, Region], pid: int
        ) -> Iterator[Move]:
            for item, piece in pieces.items():
                load[pid] += item.region_bytes(piece)
                yield Move(item, piece, payloads[owner, item], pid)

        def least_loaded() -> int:
            return min(survivors, key=lambda pid: (load[pid], pid))

        # parts take_slice cannot cut (kd-tree regions) go whole first
        for owner, share in shares.items():
            for item in [i for i, part in share.items()
                         if take_slice(part, 0.5) is None]:
                yield from give(owner, {item: share.pop(item)}, least_loaded())
        # water level: every survivor's bytes once all that is left lands
        mean = (
            sum(load.values())
            + sum(
                item.region_bytes(part)
                for share in shares.values()
                for item, part in share.items()
            )
        ) / len(survivors)

        for owner, share in shares.items():
            while share:
                under = [pid for pid in survivors if load[pid] < mean]
                if not under:
                    yield from give(owner, share, least_loaded())
                    break
                pid = nearest(runtime, under, share, load)
                need = sum(
                    item.region_bytes(part) for item, part in share.items()
                )
                room = mean - load[pid]
                cut = dict(share_slices(
                    share.items(), room / need,
                    toward=runtime.process(pid).data_manager,
                )) if room < need else {}
                if len(cut) < len(share):
                    yield from give(owner, share, pid)
                    break
                yield from give(owner, cut, pid)
                share = {
                    item: part.difference(cut[item])
                    for item, part in share.items()
                }

    # -- restore ---------------------------------------------------------------------

    def restore(self, snapshot: Checkpoint) -> Generator:
        """Re-create the checkpointed distribution on this runtime.

        The target runtime may have a different process count, and some of
        its processes may have left.  A payload's piece some live process
        owns already (an item born at its homes) lands at that owner; the
        rest folds onto the live processes, payload ``pid`` onto
        ``live[pid % len(live)]`` — data items make the re-decomposition
        safe, which is the point of the model's resilience story.  Every
        piece is one stable-storage move, claimed before the first yield
        and landed concurrently, the way recovery does.
        """
        runtime = self.runtime
        by_name = {item.name: item for item in runtime.items}
        for item_name in snapshot.payloads:
            if item_name not in by_name:
                raise KeyError(
                    f"checkpoint contains unknown item {item_name!r}; "
                    "register it before restoring"
                )
        yield from run_stored_moves(runtime, self._land(snapshot, by_name))
        for notify in runtime.probe.restore:
            notify(snapshot)
        runtime.metrics.incr("resilience.restores")
