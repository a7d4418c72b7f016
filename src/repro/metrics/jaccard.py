"""Jaccard similarity of polygon sets (paper §2.1).

Two measures are provided:

* :func:`jaccard_pairwise` — the paper's working definition ``J'``: the
  mean of ``|p n q| / |p u q|`` over all pairs with a non-empty
  intersection (Formula 1).  Missing polygons (present in one set with no
  intersecting counterpart in the other) are excluded from the mean but
  counted separately, as §2.1 prescribes.
* :func:`jaccard_global` — the set-level ``J = |P n Q| / |P u Q|``,
  computed exactly with the Klee-measure sweep over the decomposed
  rectangles of both sets.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.exact.decompose import decompose
from repro.exact.measure import union_area_of_boxes
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.polyset import PolygonSet
from repro.index.join import SortedMBRs, sweep_join
from repro.obs.clock import StageClock
from repro.pixelbox.common import LaunchConfig
from repro.pixelbox.kernel import BatchAreas, PairBatch

__all__ = ["PairwiseJaccard", "jaccard_pairwise", "jaccard_tile",
           "jaccard_from_areas", "jaccard_global"]


@dataclass(frozen=True, slots=True)
class PairwiseJaccard:
    """Result of the pairwise (J') cross-comparison of two polygon sets.

    Every field is a sum over the compared pairs or polygons, so the
    partials of several tiles add field by field (``+``) into the
    image-level result without rounding a mean per tile;
    ``PairwiseJaccard()`` is the empty sum.
    """

    ratio_sum: float = 0.0
    intersecting_pairs: int = 0
    candidate_pairs: int = 0
    missing_a: int = 0
    missing_b: int = 0
    count_a: int = 0
    count_b: int = 0

    @property
    def mean_ratio(self) -> float:
        """``J'``: mean ratio over the intersecting pairs (0 with none)."""
        if not self.intersecting_pairs:
            return 0.0
        return self.ratio_sum / self.intersecting_pairs

    @property
    def jaccard(self) -> float:
        """Alias for the paper's ``J'``."""
        return self.mean_ratio

    def __add__(self, other: "PairwiseJaccard") -> "PairwiseJaccard":
        return PairwiseJaccard(
            *(
                getattr(self, f.name) + getattr(other, f.name)
                for f in dataclasses.fields(self)
            )
        )

    def __str__(self) -> str:
        return (
            f"J'={self.mean_ratio:.4f} over {self.intersecting_pairs} "
            f"intersecting pairs ({self.candidate_pairs} candidates); "
            f"missing: {self.missing_a} of {self.count_a} in A, "
            f"{self.missing_b} of {self.count_b} in B"
        )


def jaccard_from_areas(
    areas: BatchAreas,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    count_a: int,
    count_b: int,
) -> PairwiseJaccard:
    """Aggregate kernel output into ``J'`` (the aggregator's last step)."""
    if len(areas) != len(left_idx) or len(areas) != len(right_idx):
        raise GeometryError("areas and index arrays disagree in length")
    hit = areas.intersection > 0
    ratios = areas.ratios()[hit]
    matched_a = np.unique(np.asarray(left_idx)[hit])
    matched_b = np.unique(np.asarray(right_idx)[hit])
    return PairwiseJaccard(
        ratio_sum=float(ratios.sum()),
        intersecting_pairs=int(hit.sum()),
        candidate_pairs=len(areas),
        missing_a=count_a - len(matched_a),
        missing_b=count_b - len(matched_b),
        count_a=count_a,
        count_b=count_b,
    )


def jaccard_tile(
    set_a: Sequence[RectilinearPolygon],
    set_b: Sequence[RectilinearPolygon],
    areas_for: Callable[[PairBatch], BatchAreas],
    clock: StageClock | None = None,
) -> PairwiseJaccard:
    """One tile's two polygon sets -> its ``J'`` partial.

    The pipeline's builder, filter and aggregator stages for one tile
    (paper §4.1), each charged to ``clock``: ``set_b``'s MBR array sorted
    on both axes (:class:`SortedMBRs`, where §4.1 bulk-loads a Hilbert
    R-tree), ``set_a``'s sorted likewise and swept against it
    (:func:`sweep_join`), one ``areas_for`` launch over the candidate
    :class:`PairBatch`, :func:`jaccard_from_areas`.  Every set- and
    file-level comparison is this function, once per tile.
    """
    if clock is None:
        clock = StageClock("pipeline.")
    set_a, set_b = PolygonSet.from_polygons(set_a), PolygonSet.from_polygons(set_b)
    with clock.measure("builder"):
        right = SortedMBRs.of(set_b.mbrs)
    with clock.measure("filter"):
        join = sweep_join(SortedMBRs.of(set_a.mbrs), right)
        pairs = PairBatch(set_a, set_b, join.left_idx, join.right_idx)
    with clock.measure("aggregator", tiles=1, pairs=len(pairs)):
        return jaccard_from_areas(
            areas_for(pairs),
            join.left_idx,
            join.right_idx,
            len(set_a),
            len(set_b),
        )


def jaccard_pairwise(
    set_a: list[RectilinearPolygon],
    set_b: list[RectilinearPolygon],
    config: LaunchConfig | None = None,
    backend: str = "batch",
) -> PairwiseJaccard:
    """End-to-end ``J'`` of two polygon sets (join + kernel + aggregate).

    ``backend`` names the execution backend the kernel launch dispatches
    through (:mod:`repro.backends`); results are identical for every
    registered backend.

    >>> from repro.geometry import Box, RectilinearPolygon
    >>> a = [RectilinearPolygon.from_box(Box(0, 0, 4, 4))]
    >>> b = [RectilinearPolygon.from_box(Box(0, 0, 4, 2))]
    >>> jaccard_pairwise(a, b).mean_ratio
    0.5
    """
    from repro.backends import get_backend

    with get_backend(backend) as executor:
        return jaccard_tile(
            set_a, set_b, lambda pairs: executor.compare_pairs(pairs, config)
        )


def jaccard_global(
    set_a: list[RectilinearPolygon],
    set_b: list[RectilinearPolygon],
) -> float:
    """Set-level ``J = |P n Q| / |P u Q|`` via exact sweeps.

    ``|P u Q|`` comes from one Klee sweep over both sets' rectangles;
    ``|P n Q|`` follows from inclusion-exclusion with the per-set sweeps
    (polygons within one segmentation result may themselves overlap, so
    per-polygon areas cannot simply be summed).
    """
    rects_a = [r for p in set_a for r in decompose(p)]
    rects_b = [r for q in set_b for r in decompose(q)]
    if not rects_a and not rects_b:
        return 0.0
    area_a = union_area_of_boxes(rects_a)
    area_b = union_area_of_boxes(rects_b)
    area_union = union_area_of_boxes(rects_a + rects_b)
    area_inter = area_a + area_b - area_union
    if area_union == 0:
        return 0.0
    return area_inter / area_union
