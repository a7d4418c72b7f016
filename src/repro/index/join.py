"""MBR pair join — the pipeline's filter stage.

Given two polygon sets segmented from the same tile, emit every pair whose
MBRs overlap (the ``&&`` join predicate of the optimized query in Figure
1(b)).  The left set's MBR array probes a Hilbert R-tree built over the
right set in one batched search; the two index arrays it returns are
exactly the input batch the PixelBox aggregator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.polyset import PolygonSet
from repro.index.hilbert_rtree import bulk_load
from repro.index.rtree import RTree

__all__ = ["PairJoinResult", "mbr_pair_join"]


@dataclass(slots=True)
class PairJoinResult:
    """Candidate pairs from the MBR join.

    ``left_idx[k]``/``right_idx[k]`` index the input polygon sets (with
    them, a kernel ``PairBatch``); :meth:`pairs` materializes tuples.
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
        """Materialize ``(p, q)`` polygon tuples."""
        return [
            (left[i], right[j])
            for i, j in zip(self.left_idx.tolist(), self.right_idx.tolist())
        ]


def mbr_pair_join(left, right, tree: RTree | None = None) -> PairJoinResult:
    """Index nested-loop join on MBR overlap of two polygon sets (e.g. the
    two segmentation results of one tile; :class:`PolygonSet` or lists).
    ``tree`` is a pre-built index over ``right`` (the builder stage's
    output), built on the fly when omitted.

    Pairs come left index ascending, then right index ascending.
    """
    if tree is None:
        tree = bulk_load(PolygonSet.from_polygons(right).mbrs)
    return PairJoinResult(*tree.search_many(PolygonSet.from_polygons(left).mbrs))
