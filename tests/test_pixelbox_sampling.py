"""Unit tests for sampling-box classification (Lemma 1)."""

import numpy as np
import pytest

from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.raster import polygon_to_mask
from repro.pixelbox.common import BoxPosition
from repro.pixelbox.sampling import (
    box_contribute,
    box_continue,
    box_position,
    box_positions_vectorized,
    nosep_continue,
    nosep_contribution,
)
from repro.geometry.polyset import PolygonSet
from repro.pixelbox.vectorized import classify_boxes
from tests.conftest import random_polygon

L_SHAPE = RectilinearPolygon([(0, 0), (8, 0), (8, 4), (4, 4), (4, 10), (0, 10)])


def brute_force_position(box: Box, poly: RectilinearPolygon) -> BoxPosition:
    """Ground truth: classify by testing every pixel."""
    mask = polygon_to_mask(poly, box)
    if mask.all():
        return BoxPosition.INSIDE
    if not mask.any():
        return BoxPosition.OUTSIDE
    return BoxPosition.HOVER


class TestScalarLemma:
    def test_inside(self):
        assert box_position(Box(1, 1, 3, 3), L_SHAPE) == BoxPosition.INSIDE

    def test_outside(self):
        assert box_position(Box(5, 5, 7, 7), L_SHAPE) == BoxPosition.OUTSIDE

    def test_hover_edge_crossing(self):
        assert box_position(Box(3, 3, 6, 6), L_SHAPE) == BoxPosition.HOVER

    def test_hover_polygon_inside_box(self):
        tiny = RectilinearPolygon.from_box(Box(2, 2, 3, 3))
        assert box_position(Box(0, 0, 8, 8), tiny) == BoxPosition.HOVER

    def test_boundary_overlap_counts_as_in_or_out(self):
        # Box edge exactly on the polygon boundary: either IN or OUT is
        # acceptable per the paper; it must not be HOVER.
        pos = box_position(Box(0, 0, 4, 4), L_SHAPE)
        assert pos == BoxPosition.INSIDE

    def test_matches_brute_force_random(self, rng):
        for _ in range(10):
            poly = random_polygon(rng, 16, 16)
            mbr = poly.mbr
            for _ in range(30):
                x0 = int(rng.integers(mbr.x0 - 2, mbr.x1))
                y0 = int(rng.integers(mbr.y0 - 2, mbr.y1))
                box = Box(x0, y0, x0 + int(rng.integers(1, 6)),
                          y0 + int(rng.integers(1, 6)))
                expected = brute_force_position(box, poly)
                got = box_position(box, poly)
                if expected == BoxPosition.HOVER:
                    # Boundary-only overlap may legally classify IN/OUT
                    # when no edge crosses the open interior; verify the
                    # box's pixels then all agree with the center.
                    if got != BoxPosition.HOVER:
                        mask = polygon_to_mask(poly, box)
                        assert mask.all() or not mask.any()
                else:
                    assert got == expected


class TestVectorizedClassifiers:
    def test_vectorized_matches_scalar(self, rng):
        poly = random_polygon(rng, 16, 16)
        boxes = []
        for _ in range(60):
            x0 = int(rng.integers(-2, 18))
            y0 = int(rng.integers(-2, 18))
            boxes.append((x0, y0, x0 + int(rng.integers(1, 7)),
                          y0 + int(rng.integers(1, 7))))
        arr = np.asarray(boxes, dtype=np.int64)
        got = box_positions_vectorized(arr, poly)
        for k, b in enumerate(boxes):
            assert got[k] == box_position(Box(*b), poly).value

    def test_csr_classifier_matches_scalar(self, rng):
        polys = [random_polygon(rng, 14, 14) for _ in range(5)]
        table = PolygonSet.from_polygons(polys).edges
        boxes = []
        owners = []
        for owner in range(5):
            for _ in range(20):
                x0 = int(rng.integers(-2, 14))
                y0 = int(rng.integers(-2, 14))
                boxes.append((x0, y0, x0 + int(rng.integers(1, 6)),
                              y0 + int(rng.integers(1, 6))))
                owners.append(owner)
        arr = np.asarray(boxes, dtype=np.int64)
        got = classify_boxes(arr, np.asarray(owners), table)
        for k, (b, o) in enumerate(zip(boxes, owners)):
            assert got[k] == box_position(Box(*b), polys[o]).value


class TestContinuationRules:
    IN, OUT, HOVER = BoxPosition.INSIDE, BoxPosition.OUTSIDE, BoxPosition.HOVER

    def test_pixelbox_continue_table(self):
        # Undecided only when one hovers and the other is not OUT.
        assert box_continue(self.HOVER, self.HOVER)
        assert box_continue(self.HOVER, self.IN)
        assert box_continue(self.IN, self.HOVER)
        assert not box_continue(self.HOVER, self.OUT)
        assert not box_continue(self.OUT, self.HOVER)
        assert not box_continue(self.IN, self.IN)
        assert not box_continue(self.OUT, self.OUT)
        assert not box_continue(self.IN, self.OUT)

    def test_pixelbox_contribute_table(self):
        assert box_contribute(self.IN, self.IN)
        assert not box_contribute(self.IN, self.HOVER)
        assert not box_contribute(self.OUT, self.IN)

    def test_nosep_continues_more(self):
        # The paper's example: hover/outside is decided for intersection
        # but not for union, so NoSep must keep partitioning.
        assert nosep_continue(self.HOVER, self.OUT)
        assert not box_continue(self.HOVER, self.OUT)
        assert nosep_continue(self.IN, self.HOVER)
        assert not nosep_continue(self.IN, self.IN)
        assert not nosep_continue(self.IN, self.OUT)
        assert not nosep_continue(self.OUT, self.OUT)

    def test_nosep_contribution(self):
        assert nosep_contribution(self.IN, self.IN, 10) == (10, 10)
        assert nosep_contribution(self.IN, self.OUT, 10) == (0, 10)
        assert nosep_contribution(self.OUT, self.OUT, 10) == (0, 0)
