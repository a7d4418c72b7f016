"""Unit tests for repro.index: Hilbert curve, R-tree, MBR join."""

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.index.hilbert import d_to_xy, hilbert_keys, xy_to_d
from repro.index.hilbert_rtree import bulk_load, bulk_load_polygons
from repro.index.join import mbr_pair_join, mbr_pair_join_bruteforce
from repro.index.rtree import RTree


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
        from repro.index.rtree import RTreeNode

        boxes = _random_boxes(rng, 400, span=1000, max_side=6)
        packed = bulk_load(boxes, fanout=16)

        def leaf_area(tree):
            total = 0
            stack = [tree.root]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    total += node.mbr.size if node.mbr else 0
                else:
                    stack.extend(node.children)
            return total

        order = rng.permutation(len(boxes))
        random_leaf_area = 0
        for lo in range(0, len(order), 16):
            node = RTreeNode(
                is_leaf=True,
                entries=[(boxes[int(i)], int(i)) for i in order[lo : lo + 16]],
            )
            node.recompute_mbr()
            random_leaf_area += node.mbr.size
        assert leaf_area(packed) < random_leaf_area / 3


class TestPairJoin:
    def test_join_matches_bruteforce(self, rng):
        left = [RectilinearPolygon.from_box(b) for b in _random_boxes(rng, 120)]
        right = [RectilinearPolygon.from_box(b) for b in _random_boxes(rng, 140)]
        a = mbr_pair_join(left, right)
        b = mbr_pair_join_bruteforce(left, right)
        assert sorted(zip(a.left_idx.tolist(), a.right_idx.tolist())) == sorted(
            zip(b.left_idx.tolist(), b.right_idx.tolist())
        )

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
