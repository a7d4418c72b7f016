"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.raster import extract_polygons, fill_holes


def random_mask(rng: np.random.Generator, h: int = 12, w: int = 14,
                density: float = 0.45) -> np.ndarray:
    """A random boolean mask with interior holes filled."""
    return fill_holes(rng.random((h, w)) < density)


def random_polygon(rng: np.random.Generator, h: int = 12, w: int = 14,
                   density: float = 0.5) -> RectilinearPolygon:
    """The largest polygon traced from a random mask (never empty)."""
    while True:
        polys = extract_polygons(random_mask(rng, h, w, density))
        if polys:
            return max(polys, key=lambda p: p.area)


def random_pair(rng: np.random.Generator, h: int = 12, w: int = 14):
    """Two random polygons sharing a coordinate frame."""
    return (random_polygon(rng, h, w), random_polygon(rng, h, w))


def mask_of(polygon: RectilinearPolygon, box: Box) -> np.ndarray:
    """Ground-truth rasterization inside ``box``."""
    from repro.geometry.raster import polygon_to_mask

    return polygon_to_mask(polygon, box)


def chunked_areas(pairs, method=None, cfg=None):
    """The chunk kernel under the always-subdivide policy of ``method``."""
    from repro.pixelbox.common import Method
    from repro.pixelbox.kernel import ChunkKernel, ExecutionPolicy

    policy = ExecutionPolicy(method=method or Method.PIXELBOX)
    return ChunkKernel(policy, cfg).compute(pairs)


def batched_areas(pairs, cfg=None):
    """The production batch policy, through the registry."""
    from repro.backends import get_backend

    return get_backend("batch").compare_pairs(pairs, cfg)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tile_pair():
    """One synthetic tile's two polygon sets (session-cached)."""
    from repro.data.synth import generate_tile_pair

    return generate_tile_pair(seed=77, nuclei=30, width=256, height=256)


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """A small on-disk dataset (4 tiles, both result sets)."""
    from repro.data.datasets import DatasetSpec, generate_dataset

    root = tmp_path_factory.mktemp("dataset")
    spec = DatasetSpec(
        name="testset", tiles=4, nuclei_per_tile=25,
        tile_width=256, tile_height=256, seed=123,
    )
    return generate_dataset(spec, root)
