"""Unit tests for repro.geometry.raster (mask <-> polygon conversions)."""

from collections import deque

import numpy as np
import pytest
from scipy import ndimage

from repro.errors import RasterError
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.raster import (
    extract_polygons,
    fill_holes,
    mask_bbox,
    parity_fill,
    polygon_to_mask,
    trace_mask,
)
from tests.conftest import random_mask


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected component labelling by breadth-first flood: ``(labels,
    count)`` with labels in ``1..count`` and ``0`` for background, pinned
    against ``scipy.ndimage.label`` below."""
    mask = np.asarray(mask, dtype=bool)
    labels = np.zeros(mask.shape, dtype=np.int32)
    h, w = mask.shape
    current = 0
    for sy in range(h):
        for sx in range(w):
            if mask[sy, sx] and labels[sy, sx] == 0:
                current += 1
                queue: deque[tuple[int, int]] = deque([(sy, sx)])
                labels[sy, sx] = current
                while queue:
                    y, x = queue.popleft()
                    for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                        if 0 <= ny < h and 0 <= nx < w:
                            if mask[ny, nx] and labels[ny, nx] == 0:
                                labels[ny, nx] = current
                                queue.append((ny, nx))
    return labels, current


class TestPolygonToMask:
    def test_square(self):
        poly = RectilinearPolygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert polygon_to_mask(poly).sum() == 4

    def test_clipped_to_box(self):
        poly = RectilinearPolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        mask = polygon_to_mask(poly, Box(2, 2, 6, 6))
        assert mask.sum() == 4  # only the overlapping quadrant

    def test_mask_count_equals_area(self, rng):
        for _ in range(20):
            mask = random_mask(rng)
            for poly in extract_polygons(mask):
                assert polygon_to_mask(poly).sum() == poly.area

    def test_parity_fill_scratch_shape_mismatch(self):
        poly = RectilinearPolygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        with pytest.raises(RasterError):
            parity_fill(poly.vertical_edges, Box(0, 0, 2, 2),
                        out=np.zeros((3, 3), dtype=np.uint8))


class TestTraceMask:
    def test_single_square(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1:3, 1:3] = True
        outers, holes = trace_mask(mask)
        assert len(outers) == 1 and not holes
        assert outers[0].area == 4

    def test_hole_traced_clockwise(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[2, 2] = False
        outers, holes = trace_mask(mask)
        assert len(outers) == 1 and len(holes) == 1
        assert holes[0].signed_area < 0
        assert outers[0].area - holes[0].area == mask.sum()

    def test_diagonal_cells_become_two_loops(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        outers, holes = trace_mask(mask)
        assert len(outers) == 2 and not holes
        assert all(p.area == 1 for p in outers)

    def test_total_area_conservation(self, rng):
        for _ in range(50):
            mask = random_mask(rng, 10, 10, 0.5)
            outers, holes = trace_mask(mask)
            assert sum(p.area for p in outers) == mask.sum()
            assert not holes  # fixture masks are hole-filled

    def test_rejects_bad_shape(self):
        with pytest.raises(RasterError):
            trace_mask(np.zeros(5, dtype=bool))


class TestExtractPolygons:
    def test_origin_offset(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = True
        polys = extract_polygons(mask, origin=(100, 200))
        assert polys[0].mbr == Box(100, 200, 101, 201)

    def test_min_area_filter(self, rng):
        mask = random_mask(rng, 16, 16, 0.4)
        small = extract_polygons(mask, min_area=1)
        filtered = extract_polygons(mask, min_area=5)
        assert all(p.area >= 5 for p in filtered)
        assert len(filtered) <= len(small)

    def test_holes_raise_when_not_filled(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[2, 2] = False
        with pytest.raises(RasterError):
            extract_polygons(mask, fill_interior_holes=False)

    def test_roundtrip_exact(self, rng):
        for _ in range(30):
            mask = random_mask(rng, 12, 12)
            acc = np.zeros_like(mask)
            box = Box(0, 0, mask.shape[1], mask.shape[0])
            for poly in extract_polygons(mask):
                piece = polygon_to_mask(poly, box)
                assert not (acc & piece).any()  # polygons are disjoint
                acc |= piece
            assert np.array_equal(acc, mask)


class TestMaskUtilities:
    def test_fill_holes_matches_scipy(self, rng):
        for _ in range(30):
            mask = rng.random((15, 17)) < 0.5
            assert np.array_equal(
                fill_holes(mask), ndimage.binary_fill_holes(mask)
            )

    def test_label_components_matches_scipy(self, rng):
        structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        for _ in range(20):
            mask = rng.random((12, 12)) < 0.4
            ours, n_ours = label_components(mask)
            theirs, n_theirs = ndimage.label(mask, structure=structure)
            assert n_ours == n_theirs
            # Label ids may differ; compare partition structure.
            assert np.array_equal(ours > 0, theirs > 0)
            for k in range(1, n_ours + 1):
                cells = theirs[ours == k]
                assert len(set(cells.tolist())) == 1

    def test_mask_bbox(self):
        mask = np.zeros((5, 8), dtype=bool)
        mask[1, 2] = mask[3, 6] = True
        assert mask_bbox(mask) == Box(2, 1, 7, 4)
        assert mask_bbox(np.zeros((3, 3), dtype=bool)) is None

    def test_fill_holes_rejects_3d(self):
        with pytest.raises(RasterError):
            fill_holes(np.zeros((2, 2, 2), dtype=bool))
