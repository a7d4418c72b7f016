"""Unit tests for repro.data (synthetic slides) and repro.metrics."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.data.datasets import DatasetSpec, generate_dataset, suite_specs
from repro.data.perturb import PerturbModel
from repro.data.shapes import rasterize_shape, sample_shape
from repro.data.stats import dataset_stats, polygon_stats
from repro.data.synth import TileSpec, generate_tile, generate_tile_pair
from repro.errors import DatasetError, GeometryError
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.io.polyfile import read_polygons
from repro.io.tiles import list_tile_files
from repro.metrics.jaccard import (
    jaccard_from_areas,
    jaccard_global,
    jaccard_pairwise,
)


class TestShapes:
    def test_rasterized_area_reasonable(self, rng):
        shape = sample_shape(rng, 20, 20)
        mask = rasterize_shape(shape, 40, 40)
        assert 20 < mask.sum() < 1200

    def test_grow_monotone(self, rng):
        shape = sample_shape(rng, 20, 20)
        small = rasterize_shape(shape, 40, 40, grow=-0.2).sum()
        base = rasterize_shape(shape, 40, 40).sum()
        big = rasterize_shape(shape, 40, 40, grow=0.2).sum()
        assert small < base < big

    def test_shift_moves_centroid(self, rng):
        shape = sample_shape(rng, 20, 20)
        base = rasterize_shape(shape, 60, 60)
        moved = rasterize_shape(shape, 60, 60, shift=(10.0, 0.0))
        assert abs(
            np.nonzero(moved)[1].mean() - np.nonzero(base)[1].mean() - 10.0
        ) < 1.5

    def test_clipped_at_tile_border(self, rng):
        shape = sample_shape(rng, 1, 1)
        mask = rasterize_shape(shape, 30, 30)
        assert mask.shape == (30, 30)

    def test_invalid_radius(self, rng):
        with pytest.raises(DatasetError):
            sample_shape(rng, 0, 0, mean_radius=-1)


class TestSynthTiles:
    def test_deterministic(self):
        a1, b1 = generate_tile_pair(seed=3, nuclei=15, width=128, height=128)
        a2, b2 = generate_tile_pair(seed=3, nuclei=15, width=128, height=128)
        assert a1 == a2 and b1 == b2

    def test_different_seeds_differ(self):
        a1, _ = generate_tile_pair(seed=3, nuclei=15, width=128, height=128)
        a2, _ = generate_tile_pair(seed=4, nuclei=15, width=128, height=128)
        assert a1 != a2

    def test_polygons_within_tile(self):
        tile = generate_tile(TileSpec(width=128, height=128, nuclei=20, seed=1))
        frame = Box(0, 0, 128, 128)
        for poly in tile.polygons_a + tile.polygons_b:
            assert frame.contains_box(poly.mbr)

    def test_area_statistics_match_paper(self):
        polys = []
        for seed in range(4):
            a, _ = generate_tile_pair(seed=seed, nuclei=60)
            polys.extend(a)
        stats = polygon_stats(polys)
        # Paper: mean ~150 px, sd ~100 px.
        assert 110 < stats.area_mean < 220
        assert 60 < stats.area_sd < 170

    def test_invalid_spec(self):
        with pytest.raises(DatasetError):
            TileSpec(width=8, height=8)

    def test_perturb_validation(self):
        with pytest.raises(DatasetError):
            PerturbModel(drop_rate=1.5)


class TestDatasets:
    def test_generate_and_cache(self, tmp_path):
        spec = DatasetSpec(name="mini", tiles=2, nuclei_per_tile=10,
                           tile_width=128, tile_height=128, seed=5)
        dir_a, dir_b = generate_dataset(spec, tmp_path)
        assert len(list_tile_files(dir_a)) == 2
        first = (dir_a / "tile_0000.txt").read_text()
        # Second call is a cache hit (files unchanged).
        generate_dataset(spec, tmp_path)
        assert (dir_a / "tile_0000.txt").read_text() == first

    def test_tiles_do_not_overlap_in_slide_space(self, tmp_path):
        spec = DatasetSpec(name="grid", tiles=4, nuclei_per_tile=10,
                           tile_width=128, tile_height=128, seed=6)
        dir_a, _ = generate_dataset(spec, tmp_path)
        mbrs = []
        for path in list_tile_files(dir_a).values():
            polys = read_polygons(path)
            mbr = polys[0].mbr
            for p in polys[1:]:
                mbr = mbr.cover(p.mbr)
            mbrs.append(mbr)
        for i in range(len(mbrs)):
            for j in range(i + 1, len(mbrs)):
                assert not mbrs[i].intersects(mbrs[j])

    def test_suite_specs_relative_sizes(self):
        specs = suite_specs(scale=0.05)
        assert len(specs) == 18
        tiles = [s.tiles for s in specs]
        assert tiles == sorted(tiles)
        assert tiles[-1] > 5 * tiles[0]

    def test_suite_scale_validation(self):
        with pytest.raises(DatasetError):
            suite_specs(scale=0)

    def test_dataset_stats(self, small_dataset):
        dir_a, _ = small_dataset
        stats = dataset_stats(dir_a)
        assert stats.count > 0
        assert stats.area_mean > 0
        assert "polygons" in str(stats)


class TestJaccardMetrics:
    def test_pairwise_identical_sets(self, tile_pair):
        a, _ = tile_pair
        res = jaccard_pairwise(a, a)
        assert res.mean_ratio == pytest.approx(1.0)
        assert res.missing_a == res.missing_b == 0

    def test_pairwise_disjoint_sets(self):
        a = [RectilinearPolygon.from_box(Box(0, 0, 2, 2))]
        b = [RectilinearPolygon.from_box(Box(10, 10, 12, 12))]
        res = jaccard_pairwise(a, b)
        assert res.mean_ratio == 0.0
        assert res.missing_a == 1 and res.missing_b == 1

    def test_pairwise_on_synthetic_tile(self, tile_pair):
        a, b = tile_pair
        res = jaccard_pairwise(a, b)
        assert 0.4 < res.mean_ratio < 1.0
        assert res.intersecting_pairs <= res.candidate_pairs

    def test_missing_counts(self):
        a = [RectilinearPolygon.from_box(Box(0, 0, 4, 4)),
             RectilinearPolygon.from_box(Box(20, 20, 24, 24))]
        b = [RectilinearPolygon.from_box(Box(1, 1, 5, 5))]
        res = jaccard_pairwise(a, b)
        assert res.missing_a == 1 and res.missing_b == 0

    def test_global_jaccard_bounds(self, tile_pair):
        a, b = tile_pair
        value = jaccard_global(a, b)
        pw = jaccard_pairwise(a, b)
        assert 0.0 < value <= 1.0
        # Set-level J counts missing polygons, so it cannot exceed the
        # pairwise mean by much; sanity band only.
        assert value <= 1.0

    def test_global_identical(self, tile_pair):
        a, _ = tile_pair
        assert jaccard_global(a, a) == pytest.approx(1.0)

    def test_global_empty(self):
        assert jaccard_global([], []) == 0.0

    def test_from_areas_validates_lengths(self, tile_pair):
        a, b = tile_pair
        areas = get_backend("batch").compare_pairs([(a[0], b[0])])
        with pytest.raises(GeometryError):
            jaccard_from_areas(areas, np.array([0, 1]), np.array([0]), 1, 1)
