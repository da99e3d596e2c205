"""Requirement-coverage checks (the spawn rule's precondition, §2.2/§3.2).

When the runtime splits a task, each child is scheduled against its *own*
declared requirements — the parent's guarantees extend to the child only
if the child's declarations are subsumed by the parent's (the premise of
the paper's task-decomposition reasoning, and the precondition under
which §2.5's *satisfied requirements* survives splitting):

* a child's **write** region must lie within the parent's write region;
* a child's **read** region must lie within the parent's accessed
  (read ∪ write) region;
* sibling **write** regions must be pairwise disjoint — with that,
  *exclusive writes* holds by construction at every level of the tree.

Escapes are reported per item with the exact escaping region (the
difference), so an application author can see precisely which elements
the requirement function forgot.
"""

from __future__ import annotations

from repro.analysis.expansion import AnalysisConfig, TaskNode
from repro.analysis.findings import ERROR, Finding
from repro.regions.bounds import bounds_disjoint, corner_bounds


def check_coverage(
    root: TaskNode, config: AnalysisConfig | None = None
) -> list[Finding]:
    """Check parent/child subsumption and sibling write-disjointness."""
    findings: list[Finding] = []
    for node in root.walk():
        if node.children:
            _check_children(node, findings)
    return findings


def _check_children(parent: TaskNode, findings: list[Finding]) -> None:
    pspec = parent.spec
    for child in parent.children:
        cspec = child.spec
        for item in cspec.accessed_items_ordered():
            write_escape = cspec.write_region(item).difference(
                pspec.write_region(item)
            )
            if not write_escape.is_empty():
                findings.append(
                    Finding(
                        check="coverage.write_escape",
                        severity=ERROR,
                        message=(
                            f"child writes {write_escape.size()} element(s) "
                            "outside the parent's declared write region"
                        ),
                        task=child.path,
                        item=item.name,
                        region=write_escape,
                    )
                )
            read_escape = cspec.read_region(item).difference(
                pspec.accessed_region(item)
            )
            if not read_escape.is_empty():
                findings.append(
                    Finding(
                        check="coverage.read_escape",
                        severity=ERROR,
                        message=(
                            f"child reads {read_escape.size()} element(s) "
                            "outside the parent's declared requirements"
                        ),
                        task=child.path,
                        item=item.name,
                        region=read_escape,
                    )
                )
    _check_sibling_writes(parent, findings)


def _check_sibling_writes(parent: TaskNode, findings: list[Finding]) -> None:
    """Exclusive writes by construction: sibling writes pairwise disjoint."""
    children = parent.children
    writes: list[dict] = [
        {
            item: region
            for item, region in child.spec.writes.items()
            if not region.is_empty()
        }
        for child in children
    ]
    for i in range(len(children)):
        for j in range(i + 1, len(children)):
            shared = writes[i].keys() & writes[j].keys()
            for item in sorted(shared, key=lambda it: it.name):
                region_a = writes[i][item]
                region_b = writes[j][item]
                # the bounding-box prefilter rejects far-apart siblings
                # without touching the algebra
                if bounds_disjoint(
                    corner_bounds(region_a), corner_bounds(region_b)
                ):
                    continue
                overlap = region_a.intersect(region_b)
                if overlap.is_empty():
                    continue
                findings.append(
                    Finding(
                        check="coverage.sibling_write_overlap",
                        severity=ERROR,
                        message=(
                            f"sibling write regions overlap in "
                            f"{overlap.size()} element(s) "
                            f"(also declared by {children[i].path!r})"
                        ),
                        task=children[j].path,
                        item=item.name,
                        region=overlap,
                    )
                )
