"""R-tree over integer boxes: search and validation.

The filter stage performs MBR-overlap joins (the ``&&`` operator of the
optimized query, Figure 1(b)); the SDBMS uses the same tree for its
GiST-style index scans.  Every tree is built by the Hilbert bulk loader
in :mod:`repro.index.hilbert_rtree`; this module is the tree structure
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import IndexError_
from repro.geometry.box import Box

__all__ = ["RTree", "RTreeNode", "DEFAULT_FANOUT"]

DEFAULT_FANOUT = 16


@dataclass(slots=True)
class RTreeNode:
    """One R-tree node; leaves store ``(box, payload)`` entries."""

    is_leaf: bool
    mbr: Box | None = None
    children: list["RTreeNode"] = field(default_factory=list)
    entries: list[tuple[Box, int]] = field(default_factory=list)

    def recompute_mbr(self) -> None:
        """Tighten the node MBR over its children/entries."""
        boxes: list[Box]
        if self.is_leaf:
            boxes = [b for b, _ in self.entries]
        else:
            boxes = [c.mbr for c in self.children if c.mbr is not None]
        if not boxes:
            self.mbr = None
            return
        mbr = boxes[0]
        for box in boxes[1:]:
            mbr = mbr.cover(box)
        self.mbr = mbr


class RTree:
    """An R-tree keyed by :class:`~repro.geometry.box.Box` with int payloads.

    Built by :func:`repro.index.hilbert_rtree.bulk_load`; an empty tree
    is a single empty leaf.
    """

    def __init__(self, fanout: int = DEFAULT_FANOUT) -> None:
        if fanout < 4:
            raise IndexError_(f"fanout must be >= 4, got {fanout}")
        self.fanout = fanout
        self.root = RTreeNode(is_leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search(self, box: Box) -> list[int]:
        """Payloads whose boxes overlap ``box`` (the ``&&`` test), sorted."""
        out: list[int] = []
        self._search(self.root, box, out)
        out.sort()
        return out

    def _search(self, node: RTreeNode, box: Box, out: list[int]) -> None:
        if node.mbr is None or not node.mbr.intersects(box):
            return
        if node.is_leaf:
            out.extend(pid for b, pid in node.entries if b.intersects(box))
            return
        for child in node.children:
            self._search(child, box, out)

    def iter_leaf_entries(self) -> Iterator[tuple[Box, int]]:
        """All ``(box, payload)`` entries, tree order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(node.children)

    @property
    def height(self) -> int:
        """Number of levels (1 for a single leaf root)."""
        levels = 1
        node = self.root
        while not node.is_leaf:
            node = node.children[0]
            levels += 1
        return levels

    # ------------------------------------------------------------------
    # Validation (tests/debugging)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check MBR containment and leaf-depth uniformity."""
        depths: set[int] = set()
        self._validate(self.root, 1, depths)
        if len(depths) > 1:
            raise IndexError_(f"leaves at different depths: {sorted(depths)}")

    def _validate(self, node: RTreeNode, depth: int, depths: set[int]) -> None:
        if node.is_leaf:
            depths.add(depth)
            for box, _ in node.entries:
                if node.mbr is None or not node.mbr.contains_box(box):
                    raise IndexError_("leaf MBR does not cover an entry")
            return
        if not node.children:
            raise IndexError_("internal node with no children")
        for child in node.children:
            if child.mbr is not None:
                if node.mbr is None or not node.mbr.contains_box(child.mbr):
                    raise IndexError_("node MBR does not cover a child")
            self._validate(child, depth + 1, depths)

