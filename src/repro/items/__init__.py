"""Data item implementations (paper §3.1).

Every data item implementation provides the three components of Fig. 4:

* a **façade** — the user-facing type (these classes), exposing
  data-structure-specific operations;
* a **fragment** — the runtime's view, capable of holding an arbitrary
  region of the item's elements inside one address space, and of being
  resized, split, serialized, and merged as data migrates;
* a **region** type — the addressing scheme (see :mod:`repro.regions`).

All fragments are *dual-mode*: **functional** fragments carry real values
(NumPy storage) and are used by tests and examples; **virtual** fragments
carry only regions and byte-counts and are used by the full-scale benchmark
sweeps, where materializing 20,000²-per-node grids would be pointless — the
placement, locking, index, and migration code paths are identical in both
modes.

Provided items:

``ScalarItem``
    a single addressable value;
``Grid``
    the N-dimensional grid of the paper's stencil/iPiC3D apps, with
    box-set regions (Fig. 4a);
``BalancedTree``
    a complete binary tree with selectable region scheme — flexible
    include/exclude sub-trees (Fig. 4b) or blocked bitmask (Fig. 4c);
``KDTreeItem``
    the kd-tree used by the two-point-correlation app, layered over the
    balanced-tree addressing.
"""

from repro.items.base import DataItem, Fragment, FragmentPayload
from repro.items.scalar import ScalarItem, ScalarFragment
from repro.items.grid import Grid, GridFragment
from repro.items.tree import BalancedTree, TreeFragment
from repro.items.kdtree import (
    KDTreeItem,
    KDTreeFragment,
    KDTreeStructure,
    build_kdtree,
    synthetic_kdtree,
)
from repro.items.graph import PartitionedGraph, GraphFragment

__all__ = [
    "DataItem",
    "Fragment",
    "FragmentPayload",
    "ScalarItem",
    "ScalarFragment",
    "Grid",
    "GridFragment",
    "BalancedTree",
    "TreeFragment",
    "KDTreeItem",
    "KDTreeFragment",
    "KDTreeStructure",
    "build_kdtree",
    "synthetic_kdtree",
    "PartitionedGraph",
    "GraphFragment",
]
