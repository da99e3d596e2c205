"""Static race detection over the declared-requirement task DAG (§2.5).

Happens-before at the task level is structural: a split parent's children
are spawned together and joined by the parent's combiner barrier, so

* ancestor/descendant pairs are ordered (a task runs *either* its leaf
  variant or its split variant — never both);
* everything else inside one tree is unordered — two tasks race-check
  against each other exactly when neither is an ancestor of the other;
* separate submissions are ordered only by explicit dependency (treeture
  ``after`` chains or driver barriers); program phases encode this.

Rather than enumerating all unordered pairs, the detector works with
**effective regions**: each node's declared regions unioned with its
descendants' (bottom-up).  Any unordered pair (x, y) has a unique pair of
distinct sibling ancestors (a, b) below their least common ancestor, and
x's regions are contained in a's effective regions (likewise y in b) — so
checking sibling pairs on effective regions covers every unordered pair,
*including* pairs whose declarations escape their parents (the effective
union keeps escaped regions visible where plain subsumption would hide
them).

Checks per unordered pair and item, after a bounding-corner prefilter
(:mod:`repro.regions.bounds`):

* write ∩ write ≠ ∅ — an *exclusive writes* violation (error);
* read ∩ write ≠ ∅ — legal (the runtime serializes through region locks)
  but scheduling-order dependent, hence a determinism warning.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.expansion import AnalysisConfig, TaskNode
from repro.analysis.findings import ERROR, WARNING, Finding
from repro.items.base import DataItem
from repro.regions.base import Region
from repro.regions.bounds import bounds_disjoint, corner_bounds


class EffectiveRequirements:
    """A task subtree's declared requirements, unioned over all levels."""

    __slots__ = ("path", "reads", "writes")

    def __init__(self, path: str) -> None:
        self.path = path
        self.reads: dict[DataItem, Region] = {}
        self.writes: dict[DataItem, Region] = {}

    def absorb_spec(self, spec) -> None:
        for item, region in spec.reads.items():
            self._merge(self.reads, item, region)
        for item, region in spec.writes.items():
            self._merge(self.writes, item, region)

    def absorb(self, other: "EffectiveRequirements") -> None:
        for item, region in other.reads.items():
            self._merge(self.reads, item, region)
        for item, region in other.writes.items():
            self._merge(self.writes, item, region)

    @staticmethod
    def _merge(target: dict, item: DataItem, region: Region) -> None:
        if region.is_empty():
            return
        current = target.get(item)
        target[item] = region if current is None else current.union(region)


def effective_requirements(root: TaskNode) -> dict[int, EffectiveRequirements]:
    """Bottom-up effective regions for every node, keyed by ``id(node)``."""
    out: dict[int, EffectiveRequirements] = {}
    post_order: list[TaskNode] = list(root.walk())
    for node in reversed(post_order):
        eff = EffectiveRequirements(node.path)
        eff.absorb_spec(node.spec)
        for child in node.children:
            eff.absorb(out[id(child)])
        out[id(node)] = eff
    return out


def check_tree_races(
    root: TaskNode, config: AnalysisConfig | None = None
) -> tuple[list[Finding], int]:
    """Race-check all unordered pairs inside one expanded task tree.

    Returns ``(findings, pairs_checked)``.
    """
    config = config or AnalysisConfig()
    effective = effective_requirements(root)
    findings: list[Finding] = []
    pairs = 0
    for node in root.walk():
        children = node.children
        for i in range(len(children)):
            for j in range(i + 1, len(children)):
                if pairs >= config.max_pairs:
                    return findings, pairs
                pairs += 1
                _check_pair(
                    effective[id(children[i])],
                    effective[id(children[j])],
                    findings,
                )
    return findings, pairs


def check_concurrent_roots(
    efforts: Iterable[EffectiveRequirements],
    config: AnalysisConfig | None = None,
) -> tuple[list[Finding], int]:
    """Race-check mutually unordered root subtrees (one program phase)."""
    config = config or AnalysisConfig()
    items = list(efforts)
    findings: list[Finding] = []
    pairs = 0
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if pairs >= config.max_pairs:
                return findings, pairs
            pairs += 1
            _check_pair(items[i], items[j], findings)
    return findings, pairs


def _check_pair(
    a: EffectiveRequirements,
    b: EffectiveRequirements,
    findings: list[Finding],
) -> None:
    # write/write — exclusive-writes violation
    for item in sorted(a.writes.keys() & b.writes.keys(), key=lambda i: i.name):
        write_a, write_b = a.writes[item], b.writes[item]
        if bounds_disjoint(corner_bounds(write_a), corner_bounds(write_b)):
            continue
        overlap = write_a.intersect(write_b)
        if overlap.is_empty():
            continue
        findings.append(
            Finding(
                check="race.write_write",
                severity=ERROR,
                message=(
                    f"unordered tasks both write {overlap.size()} "
                    f"element(s) (peer: {a.path!r})"
                ),
                task=b.path,
                item=item.name,
                region=overlap,
            )
        )
    # read/write — order-dependent result
    for reader, writer in ((a, b), (b, a)):
        for item in sorted(
            reader.reads.keys() & writer.writes.keys(), key=lambda i: i.name
        ):
            read, write = reader.reads[item], writer.writes[item]
            if bounds_disjoint(corner_bounds(read), corner_bounds(write)):
                continue
            overlap = read.intersect(write)
            if overlap.is_empty():
                continue
            findings.append(
                Finding(
                    check="race.read_write",
                    severity=WARNING,
                    message=(
                        f"unordered read/write overlap of {overlap.size()} "
                        f"element(s) (writer: {writer.path!r}); result "
                        "depends on scheduling order"
                    ),
                    task=reader.path,
                    item=item.name,
                    region=overlap,
                )
            )
