"""Unit tests for the PixelBox kernels (all variants, all tiers)."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.exact.boolean import intersection_area, union_area
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.pixelbox.common import (
    KernelStats,
    LaunchConfig,
    Method,
    PairAreas,
    split_grid,
)
from repro.pixelbox.cpu import pair_areas_scalar
from repro.pixelbox.engine import compute_pair
from repro.pixelbox.reference import ReferenceKernel
from tests.conftest import batched_areas, chunked_areas, random_pair, scalar_areas

pair_areas = compute_pair


def square(x0, y0, x1, y1):
    return RectilinearPolygon.from_box(Box(x0, y0, x1, y1))


class TestLaunchConfig:
    def test_default_threshold_is_half_block_squared(self):
        assert LaunchConfig().threshold == 64 * 64 // 2

    def test_explicit_threshold(self):
        assert LaunchConfig(pixel_threshold=100).threshold == 100

    @pytest.mark.parametrize("bs,grid", [(64, (8, 8)), (32, (8, 4)), (16, (4, 4))])
    def test_split_grid(self, bs, grid):
        assert split_grid(bs) == grid

    def test_invalid_block_size(self):
        with pytest.raises(KernelError):
            LaunchConfig(block_size=2)

    def test_invalid_leaf_mode(self):
        with pytest.raises(KernelError):
            LaunchConfig(leaf_mode="warp")

    def test_pair_areas_consistency_enforced(self):
        with pytest.raises(KernelError):
            PairAreas(intersection=5, union=10, area_p=4, area_q=4)

    def test_ratio(self):
        areas = PairAreas(intersection=2, union=8, area_p=5, area_q=5)
        assert areas.ratio == 0.25


class TestKnownPairs:
    def test_half_overlapping_squares(self):
        res = pair_areas(square(0, 0, 4, 4), square(2, 2, 6, 6))
        assert (res.intersection, res.union) == (4, 28)

    def test_identical_polygons(self):
        a = square(1, 1, 5, 5)
        res = pair_areas(a, a)
        assert res.intersection == res.union == 16
        assert res.ratio == 1.0

    def test_disjoint_mbrs(self):
        res = pair_areas(square(0, 0, 2, 2), square(10, 10, 12, 12))
        assert res.intersection == 0
        assert res.union == 8

    def test_nested(self):
        res = pair_areas(square(0, 0, 10, 10), square(3, 3, 5, 5))
        assert res.intersection == 4 and res.union == 100

    def test_touching_edges_zero_intersection(self):
        res = pair_areas(square(0, 0, 2, 2), square(2, 0, 4, 2))
        assert res.intersection == 0 and res.union == 8


class TestVariantsAgainstExact:
    @pytest.mark.parametrize("method", list(Method))
    def test_matches_exact_overlay(self, rng, method):
        pairs = [random_pair(rng) for _ in range(40)]
        res = chunked_areas(pairs, method)
        for k, (p, q) in enumerate(pairs):
            assert res.intersection[k] == intersection_area(p, q)
            assert res.union[k] == union_area(p, q)

    @pytest.mark.parametrize("method", list(Method))
    def test_scaled_pairs(self, rng, method):
        pairs = [random_pair(rng) for _ in range(10)]
        scaled = [(p.scale(6), q.scale(6)) for p, q in pairs]
        res = chunked_areas(scaled, method)
        for k, (p, q) in enumerate(scaled):
            assert res.intersection[k] == intersection_area(p, q)

    def test_deep_recursion_config(self, rng):
        cfg = LaunchConfig(block_size=16, pixel_threshold=8)
        pairs = [random_pair(rng) for _ in range(15)]
        res = chunked_areas(pairs, Method.PIXELBOX, cfg)
        for k, (p, q) in enumerate(pairs):
            assert res.intersection[k] == intersection_area(p, q)

    def test_crossing_leaf_mode(self, rng):
        cfg = LaunchConfig(leaf_mode="crossing")
        pairs = [random_pair(rng) for _ in range(20)]
        for method in Method:
            res = chunked_areas(pairs, method, cfg)
            for k, (p, q) in enumerate(pairs):
                assert res.intersection[k] == intersection_area(p, q)
                assert res.union[k] == union_area(p, q)

    def test_tight_mbr_only_for_pixelbox(self, rng):
        cfg = LaunchConfig(tight_mbr=True)
        p, q = random_pair(rng)
        with pytest.raises(KernelError):
            compute_pair(p, q, Method.NOSEP, cfg)
        res = compute_pair(p, q, Method.PIXELBOX, cfg)
        assert res.intersection == intersection_area(p, q)

    def test_single_pair_matches_batch(self, rng):
        pairs = [random_pair(rng) for _ in range(10)]
        batch = chunked_areas(pairs, Method.PIXELBOX)
        for k, (p, q) in enumerate(pairs):
            single = compute_pair(p, q, Method.PIXELBOX)
            assert batch.pair(k) == single


class TestBatchKernel:
    def test_matches_exact(self, rng):
        pairs = [random_pair(rng) for _ in range(50)]
        res = batched_areas(pairs)
        for k, (p, q) in enumerate(pairs):
            assert res.intersection[k] == intersection_area(p, q)
            assert res.union[k] == union_area(p, q)

    def test_large_pairs_take_fallback_path(self, rng):
        pairs = [(p.scale(9), q.scale(9)) for p, q in
                 (random_pair(rng) for _ in range(5))]
        res = batched_areas(pairs)
        assert res.stats.fallback_pairs == 5
        for k, (p, q) in enumerate(pairs):
            assert res.intersection[k] == intersection_area(p, q)

    def test_mixed_sizes(self, rng):
        small = [random_pair(rng) for _ in range(10)]
        large = [(p.scale(9), q.scale(9)) for p, q in small[:3]]
        res = batched_areas(small + large)
        assert res.stats.batched_pairs == 10
        assert res.stats.fallback_pairs == 3

    def test_empty_batch(self):
        res = batched_areas([])
        assert len(res) == 0

    def test_ratios(self):
        res = batched_areas([(square(0, 0, 2, 2), square(0, 0, 2, 2)),
                           (square(0, 0, 2, 2), square(5, 5, 6, 6))])
        assert res.ratios().tolist() == [1.0, 0.0]


class TestCpuPort:
    def test_scalar_matches_exact(self, rng):
        for _ in range(25):
            p, q = random_pair(rng)
            res = pair_areas_scalar(p, q)
            assert res.intersection == intersection_area(p, q)
            assert res.union == union_area(p, q)

    def test_scalar_with_sampling_recursion(self, rng):
        cfg = LaunchConfig(block_size=16, pixel_threshold=16)
        for _ in range(10):
            p, q = random_pair(rng)
            p, q = p.scale(4), q.scale(4)
            assert pair_areas_scalar(p, q, cfg).intersection == \
                intersection_area(p, q)

    def test_scalar_backend_over_a_pair_list(self, rng):
        pairs = [random_pair(rng) for _ in range(21)]
        res = scalar_areas(pairs)
        for k, (p, q) in enumerate(pairs):
            assert res.intersection[k] == intersection_area(p, q)


class TestReferenceKernel:
    def test_matches_engine(self, rng):
        kernel = ReferenceKernel(LaunchConfig(block_size=16, pixel_threshold=32))
        for _ in range(8):
            p, q = random_pair(rng)
            res, trace = kernel.run_pair(p, q)
            assert res.intersection == intersection_area(p, q)
            assert trace.pops >= 1 and trace.pushes >= 1

    def test_stack_discipline(self, rng):
        kernel = ReferenceKernel(
            LaunchConfig(block_size=16, pixel_threshold=16), record_events=True
        )
        p, q = random_pair(rng)
        p, q = p.scale(3), q.scale(3)
        res, trace = kernel.run_pair(p, q)
        assert res.intersection == intersection_area(p, q)
        # Everything pushed (children) or left behind (markers) is popped
        # exactly once: pops == pushes + marks.
        marks = sum(1 for e in trace.events if e.startswith("mark"))
        assert trace.pops == trace.pushes + marks
        # Markers and decided children are both popped as no-probe entries.
        assert trace.skipped_markers >= marks


class TestStats:
    def test_stats_accumulate(self, rng):
        pairs = [random_pair(rng) for _ in range(12)]
        res = chunked_areas(pairs, Method.PIXELBOX)
        assert res.stats.pairs == 12
        assert res.stats.leaf_boxes >= 12
        assert res.stats.pixel_tests > 0

    def test_merge(self):
        a = KernelStats(pairs=1, pops=2)
        b = KernelStats(pairs=3, pixel_tests=10)
        a.merge(b)
        assert a.pairs == 4 and a.pops == 2 and a.pixel_tests == 10
        assert a.as_dict()["pairs"] == 4

    def test_sampling_reduces_pixel_tests_on_large_pairs(self, rng):
        pairs = [(p.scale(8), q.scale(8)) for p, q in
                 (random_pair(rng) for _ in range(10))]
        po = chunked_areas(pairs, Method.PIXEL_ONLY).stats
        pb = chunked_areas(pairs, Method.PIXELBOX).stats
        assert pb.pixel_tests < po.pixel_tests

    def test_nosep_partitions_at_least_as_much(self, rng):
        cfg = LaunchConfig(block_size=16, pixel_threshold=64)
        pairs = [(p.scale(6), q.scale(6)) for p, q in
                 (random_pair(rng) for _ in range(10))]
        ns = chunked_areas(pairs, Method.NOSEP, cfg).stats
        pb = chunked_areas(pairs, Method.PIXELBOX, cfg).stats
        assert ns.partitions >= pb.partitions
