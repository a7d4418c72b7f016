"""R-tree over integer boxes: batched search and validation.

The SDBMS baseline uses this tree for its GiST-style index scans (the
``&&`` operator of the optimized query, Figure 1(b)); the pipeline's
filter stage joins MBR arrays without one (:mod:`repro.index.join`).
Every tree is built by the Hilbert bulk loader
in :mod:`repro.index.hilbert_rtree`; this module is the tree structure
itself.

A packed tree needs no node objects: each level is one flat array of
boxes, node ``j`` of a level covering rows ``j * fanout`` to
``j * fanout + fanout - 1`` of the level below, and a whole batch of
probes walks down the levels together (:meth:`RTree.search_many`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import IndexError_
from repro.geometry.box import Box

__all__ = ["RTree", "DEFAULT_FANOUT"]

DEFAULT_FANOUT = 16

# Box ``b`` overlaps node ``m`` (the ``&&`` test) exactly when each of
# ``m.x0, m.y0, -m.x1, -m.y1`` is below ``b.x1, b.y1, -b.x0, -b.y0``: one
# comparison, its four result bytes read as one uint32.
_SIGNS = np.array([1, 1, -1, -1])
_ALL4 = np.frombuffer(bytes([1, 1, 1, 1]), dtype=np.uint32)[0]
_NEVER = np.iinfo(np.int64).max  # key of padding rows: no probe overlaps


def _overlaps(nodes: np.ndarray, probes: np.ndarray) -> np.ndarray:
    return (nodes < probes).view(np.uint32)[..., 0] == _ALL4


class RTree:
    """An R-tree keyed by integer boxes with int payloads.

    ``levels[0]`` holds the entries' boxes (rows ``x0, y0, x1, y1``) in
    packing order, ``payloads`` their payloads, and ``levels[k]`` the
    MBRs of level ``k``'s nodes; the last level is the root.  Built by
    :func:`repro.index.hilbert_rtree.bulk_load`; an empty tree has no
    levels.
    """

    def __init__(self, fanout: int = DEFAULT_FANOUT) -> None:
        if fanout < 4:
            raise IndexError_(f"fanout must be >= 4, got {fanout}")
        self.fanout = fanout
        self.pack(np.zeros((0, 4), dtype=np.int64), np.zeros(0, dtype=np.int64))

    def pack(self, boxes: np.ndarray, payloads: np.ndarray) -> "RTree":
        """Pack ``boxes`` in the given order into full nodes, bottom-up."""
        below = np.asarray(boxes, dtype=np.int64).reshape(-1, 4)
        self.payloads = np.asarray(payloads, dtype=np.int64)
        self.levels = [below] if len(below) else []
        while self.levels and (len(self.levels) == 1 or len(below) > 1):
            starts = np.arange(0, len(below), self.fanout)
            lo = np.minimum.reduceat(below[:, :2], starts)
            below = np.hstack([lo, np.maximum.reduceat(below[:, 2:], starts)])
            self.levels.append(below)
        # Probes test the first level wider than one node whole: the
        # levels above it cannot narrow the search.
        wide = [k for k, level in enumerate(self.levels) if len(level) > self.fanout]
        self._top = max(wide, default=0)
        self._keys = [
            np.vstack([level * _SIGNS, np.full((-len(level) % self.fanout, 4), _NEVER)])
            for level in self.levels
        ]
        return self

    def __len__(self) -> int:
        return len(self.payloads)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search_many(self, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every ``(probe, payload)`` whose boxes overlap (the ``&&`` test).

        ``boxes`` is an ``(n, 4)`` array of probes.  Returns two int64
        arrays, probe index ascending, then payload ascending within a
        probe.  All probes descend the levels together, one gather and
        one comparison per level.
        """
        rows = np.asarray(boxes, dtype=np.int64).reshape(-1, 4)
        probes = np.ascontiguousarray((rows * -_SIGNS)[:, [2, 3, 0, 1]])
        if not self.levels:
            return np.zeros((2, 0), dtype=np.int64)
        keys = self._keys[self._top][: len(self.levels[self._top])]
        probe, node = np.nonzero(_overlaps(keys, probes[:, None, :]))
        span = np.arange(self.fanout)
        for keys in reversed(self._keys[: self._top]):
            children = node[:, None] * self.fanout + span
            hit = _overlaps(keys[children], probes[probe][:, None, :])
            rows, cols = np.nonzero(hit)
            probe, node = probe[rows], children[rows, cols]
        payload = self.payloads[node]
        order = np.lexsort((payload, probe))
        return probe[order], payload[order]

    def search(self, box: Box) -> list[int]:
        """Payloads whose boxes overlap ``box``, sorted (a batch of one)."""
        return self.search_many(np.array([box.as_tuple()]))[1].tolist()

    def iter_leaf_entries(self) -> Iterator[tuple[Box, int]]:
        """All ``(box, payload)`` entries, tree order."""
        for level in self.levels[:1]:
            for row, pid in zip(level.tolist(), self.payloads.tolist()):
                yield Box(*row), pid

    @property
    def height(self) -> int:
        """Number of node levels (1 for a single leaf root)."""
        return max(1, len(self.levels) - 1)

    def validate(self) -> None:
        """Check node counts and that every node's MBR covers its children."""
        for below, level in zip(self.levels, self.levels[1:]):
            if len(level) != -(-len(below) // self.fanout):
                raise IndexError_(f"{len(level)} nodes for {len(below)} children")
            parent = np.repeat(level, self.fanout, axis=0)[: len(below)]
            if np.any((parent - below) * _SIGNS > 0):
                raise IndexError_("node MBR does not cover a child")
        if self.levels and len(self.levels[-1]) != 1:
            raise IndexError_(f"{len(self.levels[-1])} roots")
