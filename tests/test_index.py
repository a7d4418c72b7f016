"""Unit tests for repro.index: Hilbert curve, R-tree, MBR join."""

import time
import tracemalloc

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.index.hilbert import d_to_xy, hilbert_keys, xy_to_d
from repro.index.hilbert_rtree import bulk_load, bulk_load_polygons
from repro.index.join import SortedMBRs, mbr_pair_join, sweep_join
from repro.index.rtree import RTree
from tests.conftest import mbr_pair_join_bruteforce


class TestHilbertCurve:
    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_bijection(self, order):
        side = 1 << order
        seen = set()
        for x in range(side):
            for y in range(side):
                d = xy_to_d(order, x, y)
                assert d_to_xy(order, d) == (x, y)
                seen.add(d)
        assert seen == set(range(side * side))

    def test_locality_consecutive_cells_adjacent(self):
        for d in range(4 ** 4 - 1):
            x1, y1 = d_to_xy(4, d)
            x2, y2 = d_to_xy(4, d + 1)
            assert abs(x1 - x2) + abs(y1 - y2) == 1

    def test_vectorized_matches_scalar(self, rng):
        xs = rng.integers(0, 64, 200)
        ys = rng.integers(0, 64, 200)
        keys = hilbert_keys(6, xs, ys)
        for k, x, y in zip(keys, xs, ys):
            assert int(k) == xy_to_d(6, int(x), int(y))

    def test_vectorized_clamps_out_of_range(self):
        keys = hilbert_keys(4, np.array([-5, 100]), np.array([3, 3]))
        assert int(keys[0]) == xy_to_d(4, 0, 3)
        assert int(keys[1]) == xy_to_d(4, 15, 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError_):
            xy_to_d(3, 8, 0)
        with pytest.raises(IndexError_):
            d_to_xy(3, 64)
        with pytest.raises(IndexError_):
            xy_to_d(0, 0, 0)


def _random_boxes(rng, count, span=400, max_side=25):
    out = []
    for _ in range(count):
        x0 = int(rng.integers(0, span))
        y0 = int(rng.integers(0, span))
        out.append(Box(x0, y0, x0 + int(rng.integers(1, max_side)),
                       y0 + int(rng.integers(1, max_side))))
    return out


class TestRTree:
    def test_empty_tree_search(self):
        assert RTree().search(Box(0, 0, 10, 10)) == []

    def test_height_grows_logarithmically(self, rng):
        # 200 entries at fanout 4 pack into 50 leaves, then 13, 4 and 1.
        tree = bulk_load(_random_boxes(rng, 200), fanout=4)
        tree.validate()
        assert tree.height == 4

    def test_iter_leaf_entries(self, rng):
        tree = bulk_load(_random_boxes(rng, 50))
        payloads = sorted(pid for _, pid in tree.iter_leaf_entries())
        assert payloads == list(range(50))

    def test_invalid_fanout(self):
        with pytest.raises(IndexError_):
            RTree(fanout=2)


class TestHilbertBulkLoad:
    def test_bulk_load_matches_bruteforce(self, rng):
        boxes = _random_boxes(rng, 500)
        tree = bulk_load(boxes, fanout=8)
        tree.validate()
        assert len(tree) == 500
        for _ in range(50):
            probe = _random_boxes(rng, 1, span=380, max_side=60)[0]
            expected = sorted(
                i for i, b in enumerate(boxes) if b.intersects(probe)
            )
            assert tree.search(probe) == expected

    def test_bulk_load_empty(self):
        tree = bulk_load([])
        assert tree.search(Box(0, 0, 5, 5)) == []

    def test_leaves_are_clustered(self, rng):
        # Hilbert-ordered packing must beat random-ordered packing of the
        # same leaf structure by a wide margin (total leaf MBR area).
        boxes = _random_boxes(rng, 400, span=1000, max_side=6)
        packed = bulk_load(boxes, fanout=16)
        rows = np.array([b.as_tuple() for b in boxes], dtype=np.int64)
        order = rng.permutation(len(boxes))
        shuffled = RTree(fanout=16).pack(rows[order], order)

        def leaf_area(tree):
            leaves = tree.levels[1]
            return int(np.sum((leaves[:, 2] - leaves[:, 0]) * (leaves[:, 3] - leaves[:, 1])))

        assert leaf_area(packed) < leaf_area(shuffled) / 3


class TestPairJoin:
    def test_join_matches_bruteforce(self, rng):
        left = [RectilinearPolygon.from_box(b) for b in _random_boxes(rng, 120)]
        right = [RectilinearPolygon.from_box(b) for b in _random_boxes(rng, 140)]
        a = mbr_pair_join(left, right)
        b = mbr_pair_join_bruteforce(left, right)
        assert np.array_equal(a.left_idx, b.left_idx)
        assert np.array_equal(a.right_idx, b.right_idx)

    def test_join_pairs_materialization(self, rng):
        left = [RectilinearPolygon.from_box(b) for b in _random_boxes(rng, 20)]
        right = [RectilinearPolygon.from_box(b) for b in _random_boxes(rng, 20)]
        join = mbr_pair_join(left, right)
        pairs = join.pairs(left, right)
        assert len(pairs) == len(join)
        for (p, q), i, j in zip(pairs, join.left_idx, join.right_idx):
            assert p is left[int(i)] and q is right[int(j)]

    def test_empty_inputs(self):
        res = mbr_pair_join([], [])
        assert len(res) == 0


def _column(count, x0=0):
    """``count`` 10-wide boxes stacked up one x-range, each overlapping
    its two neighbours (y steps of 10, heights of 12)."""
    y = np.arange(count, dtype=np.int64) * 10
    return np.stack([np.full(count, x0), y, np.full(count, x0 + 10), y + 12], axis=1)


class TestSkewedJoin:
    """Boxes that pile up on one axis must not make the sweep quadratic
    in time, nor its scratch memory quadratic in space."""

    def test_a_shared_column_sweeps_the_other_axis(self):
        # Swept along x, 20 000 boxes per side sharing one x-range would
        # make 4 * 10**8 candidates; along y they make about 6 * 10**4.
        boxes = _column(20_000)
        start = time.perf_counter()
        join = sweep_join(SortedMBRs.of(boxes), SortedMBRs.of(boxes))
        elapsed = time.perf_counter() - start
        assert len(join) == 3 * 20_000 - 2
        assert np.abs(join.left_idx - join.right_idx).max() == 1
        assert elapsed < 1.0

    def test_dense_on_both_axes_stays_in_bounded_memory(self):
        # 2000 columns share one x-range and 2000 rows one y-range, per
        # side: either axis yields 4 * 10**6 candidates, several hundred
        # MiB if expanded at once.  Each box overlaps only its own copy.
        stripes = np.arange(2000, dtype=np.int64) * 20 + 1000
        columns = np.stack(
            [np.zeros_like(stripes), stripes, np.full_like(stripes, 10), stripes + 10],
            axis=1,
        )
        rows = columns[:, [1, 0, 3, 2]]
        boxes = np.vstack([columns, rows])
        left, right = SortedMBRs.of(boxes), SortedMBRs.of(boxes)
        tracemalloc.start()
        try:
            join = sweep_join(left, right)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(join.left_idx, np.arange(4000))
        assert np.array_equal(join.right_idx, np.arange(4000))
        assert peak < 32 * 2**20


def _brute_pairs(probes, boxes):
    """Every overlapping (probe, box) pair, probe then box ascending."""
    hits = [
        (i, j)
        for i, p in enumerate(probes)
        for j, b in enumerate(boxes)
        if p.intersects(b)
    ]
    return (
        np.array([i for i, _ in hits], dtype=np.int64),
        np.array([j for _, j in hits], dtype=np.int64),
    )


class TestBatchedSearch:
    @pytest.mark.parametrize("count", [0, 1, 4, 5, 17, 300])
    @pytest.mark.parametrize("fanout", [4, 16])
    def test_search_many_is_the_brute_force(self, rng, count, fanout):
        boxes = _random_boxes(rng, count, span=200)
        probes = _random_boxes(rng, 40, span=200, max_side=40)
        tree = bulk_load(boxes, fanout=fanout)
        tree.validate()
        got = tree.search_many(np.array([b.as_tuple() for b in probes]).reshape(-1, 4))
        want = _brute_pairs(probes, boxes)
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and np.array_equal(g, w)
        for i, probe in enumerate(probes):
            assert tree.search(probe) == want[1][want[0] == i].tolist()

    def test_touching_boxes_do_not_overlap(self):
        # Shared edges and corners only: the && test is strict.
        boxes = [Box(0, 0, 2, 2), Box(2, 0, 4, 2), Box(0, 2, 2, 4), Box(2, 2, 4, 4)]
        tree = bulk_load(boxes * 3, fanout=4)
        tree.validate()
        assert tree.search(Box(2, 2, 3, 3)) == [3, 7, 11]
        assert tree.search(Box(4, 0, 6, 2)) == []
        assert tree.search(Box(1, 1, 3, 3)) == list(range(12))

    def test_join_arrays_are_the_brute_force(self, rng):
        left = [RectilinearPolygon.from_box(b) for b in _random_boxes(rng, 90)]
        right = [RectilinearPolygon.from_box(b) for b in _random_boxes(rng, 110)]
        join = mbr_pair_join(left, right)
        want = _brute_pairs([p.mbr for p in left], [q.mbr for q in right])
        assert np.array_equal(join.left_idx, want[0])
        assert np.array_equal(join.right_idx, want[1])
        brute = mbr_pair_join_bruteforce(left, right)
        assert np.array_equal(join.left_idx, brute.left_idx)
        assert np.array_equal(join.right_idx, brute.right_idx)

    def test_validate_catches_a_loose_node(self, rng):
        tree = bulk_load(_random_boxes(rng, 40), fanout=4)
        tree.levels[1][0] = (0, 0, 1, 1)
        with pytest.raises(IndexError_):
            tree.validate()
