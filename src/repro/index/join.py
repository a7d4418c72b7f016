"""MBR pair join — the pipeline's filter stage.

Given two polygon sets segmented from the same tile, emit every pair whose
MBRs overlap (the ``&&`` join predicate of the optimized query in Figure
1(b)).  The left set probes a Hilbert R-tree built over the right set;
the output array of pair indices is exactly the input batch the PixelBox
aggregator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.polygon import RectilinearPolygon
from repro.index.hilbert_rtree import bulk_load_polygons
from repro.index.rtree import RTree

__all__ = ["PairJoinResult", "mbr_pair_join", "mbr_pair_join_bruteforce"]


@dataclass(slots=True)
class PairJoinResult:
    """Candidate pairs from the MBR join.

    ``left_idx[k]``/``right_idx[k]`` index the input polygon lists;
    :meth:`pairs` materializes the polygon tuples for a kernel call.
    """

    left_idx: np.ndarray
    right_idx: np.ndarray

    def __len__(self) -> int:
        return len(self.left_idx)

    def pairs(
        self,
        left: list[RectilinearPolygon],
        right: list[RectilinearPolygon],
    ) -> list[tuple[RectilinearPolygon, RectilinearPolygon]]:
        """Materialize ``(p, q)`` polygon tuples for the kernel."""
        return [
            (left[i], right[j])
            for i, j in zip(self.left_idx.tolist(), self.right_idx.tolist())
        ]


def mbr_pair_join(
    left: list[RectilinearPolygon],
    right: list[RectilinearPolygon],
    tree: RTree | None = None,
) -> PairJoinResult:
    """Index nested-loop join on MBR overlap.

    Parameters
    ----------
    left, right:
        The two polygon sets (e.g. the two segmentation results of one
        tile).
    tree:
        Optional pre-built index over ``right`` (the builder stage's
        output); built on the fly when omitted.
    """
    if tree is None:
        tree = bulk_load_polygons(right)
    lefts: list[int] = []
    rights: list[int] = []
    for i, poly in enumerate(left):
        for j in tree.search(poly.mbr):
            lefts.append(i)
            rights.append(j)
    return PairJoinResult(
        np.asarray(lefts, dtype=np.int64), np.asarray(rights, dtype=np.int64)
    )


def mbr_pair_join_bruteforce(
    left: list[RectilinearPolygon],
    right: list[RectilinearPolygon],
) -> PairJoinResult:
    """O(n*m) reference join used to validate the index path."""
    lefts: list[int] = []
    rights: list[int] = []
    for i, p in enumerate(left):
        p_mbr = p.mbr
        for j, q in enumerate(right):
            if p_mbr.intersects(q.mbr):
                lefts.append(i)
                rights.append(j)
    return PairJoinResult(
        np.asarray(lefts, dtype=np.int64), np.asarray(rights, dtype=np.int64)
    )
