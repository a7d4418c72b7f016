"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import backend_registry, get_backend
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.raster import extract_polygons, fill_holes
from repro.gpu.simt_kernel import collect_block_counts
from repro.pixelbox.common import KernelStats, Method
from repro.pixelbox.cpu import pair_areas_scalar
from repro.pixelbox.kernel import BatchAreas, ChunkKernel, ExecutionPolicy


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
    policy = ExecutionPolicy(method=method or Method.PIXELBOX)
    return ChunkKernel(policy, cfg).compute(pairs)


def batched_areas(pairs, cfg=None):
    """The production batch policy, through the registry."""
    return get_backend("batch").compare_pairs(pairs, cfg)


# ----------------------------------------------------------------------
# References: implementations the experiments measure, not executors a
# request may run on.  Each is a plain ``(pairs, cfg) -> BatchAreas``
# callable the parity harness checks beside the backend registry.
# ----------------------------------------------------------------------

#: The always-subdivide policy of the ``vectorized`` reference (the kernel
#: Figs. 8 and 10 measure); every registered backend runs ``BATCH_POLICY``.
VECTORIZED_POLICY = ExecutionPolicy()


def _polygon_areas(pairs):
    """``(area_p, area_q)`` columns of a pair list."""
    a_p = np.array([p.area for p, _ in pairs], dtype=np.int64)
    a_q = np.array([q.area for _, q in pairs], dtype=np.int64)
    return a_p, a_q


def scalar_areas(pairs, cfg=None):
    """PixelBox-CPU-S (:func:`pair_areas_scalar`) over a pair list."""
    stats = KernelStats()
    inter = np.array(
        [pair_areas_scalar(p, q, cfg, stats).intersection for p, q in pairs],
        dtype=np.int64,
    )
    a_p, a_q = _polygon_areas(pairs)
    return BatchAreas(inter, a_p + a_q - inter, a_p, a_q, stats)


def simt_areas(pairs, cfg=None):
    """Fig. 9's SIMT replay (:func:`collect_block_counts`) over a pair
    list; it meters pops, so those are the only counters it reports."""
    counts = [collect_block_counts(p, q, cfg) for p, q in pairs]
    stats = KernelStats(pairs=len(counts), pops=sum(c.pops for c in counts))
    inter = np.array([c.intersection_area for c in counts], dtype=np.int64)
    union = np.array([c.union_area for c in counts], dtype=np.int64)
    return BatchAreas(inter, union, *_polygon_areas(pairs), stats)


def vectorized_areas(pairs, cfg=None):
    """The chunk kernel under the always-subdivide policy."""
    return ChunkKernel(VECTORIZED_POLICY, cfg).compute(pairs)


REFERENCES = {
    "scalar": scalar_areas,
    "simt": simt_areas,
    "vectorized": vectorized_areas,
}

#: Every implementation the parity harness compares: registry + references.
IMPLEMENTATIONS = sorted(set(backend_registry()) | set(REFERENCES))


def implementation_areas(name, pairs, cfg=None, **options):
    """``BatchAreas`` of one reference or registered backend.

    A backend is built with ``options`` and closed again before
    returning.
    """
    if name in REFERENCES:
        return REFERENCES[name](pairs, cfg)
    with get_backend(name, **options) as backend:
        return backend.compare_pairs(pairs, cfg)


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
