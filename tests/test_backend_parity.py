"""Cross-backend parity harness.

The architectural guarantee of :mod:`repro.backends` is that every
registered executor computes the *same function*: exact integer
intersection and union areas, bit-for-bit equal to the exact overlay
reference.  This harness enforces the guarantee by introspecting the
registry — a newly registered backend is covered by the act of
registering, with no test changes — and holds the implementations the
experiments measure (``conftest.REFERENCES``: PixelBox-CPU-S, the SIMT
replay, the always-subdivide kernel) to the same bar.  Every registered
executor runs one production policy, so each must also return the
``batch`` backend's result exactly, work counters included.

Workloads are seeded and randomized at three shapes:

* ``small``   — pixel-scale polygons plus handcrafted degenerate cases
  (identical, disjoint, touching, single-pixel);
* ``medium``  — polygons whose pair MBRs exceed the pixelization
  threshold, forcing sampling-box subdivision in every engine;
* ``tile``    — a synthetic pathology tile pair joined by MBR overlap,
  the production workload (large enough to engage the multiprocess
  backend's worker pool at its default ``min_pairs``).
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.backends import available_backends, backend_registry, get_backend
from repro.exact import boolean
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.raster import extract_polygons, fill_holes
from repro.pixelbox.common import LaunchConfig

from conftest import IMPLEMENTATIONS, implementation_areas, simt_areas


def random_pair(rng, h: int = 12, w: int = 14, density: float = 0.5):
    """Two random hole-free polygons sharing a coordinate frame."""

    def one():
        while True:
            mask = fill_holes(rng.random((h, w)) < density)
            polys = extract_polygons(mask)
            if polys:
                return max(polys, key=lambda p: p.area)

    return one(), one()

EXPECTED_BACKENDS = {"batch", "cluster", "multiprocess"}


def _edge_case_pairs():
    """Degenerate pairs every backend must agree on."""
    unit = RectilinearPolygon.from_box(Box(0, 0, 1, 1))
    square = RectilinearPolygon.from_box(Box(0, 0, 8, 8))
    shifted = RectilinearPolygon.from_box(Box(4, 4, 12, 12))
    disjoint = RectilinearPolygon.from_box(Box(100, 100, 108, 108))
    touching = RectilinearPolygon.from_box(Box(8, 0, 16, 8))
    tall = RectilinearPolygon.from_box(Box(0, 0, 1, 200))
    wide = RectilinearPolygon.from_box(Box(0, 0, 200, 1))
    return [
        (unit, unit),
        (square, square),
        (square, shifted),
        (square, disjoint),
        (square, touching),
        (tall, wide),
        (unit, square),
    ]


def _workload(kind: str):
    rng = np.random.default_rng(20260730)
    if kind == "small":
        pairs = [random_pair(rng) for _ in range(60)]
        return pairs + _edge_case_pairs()
    if kind == "medium":
        # MBRs of ~100x120 pixels: far above the default threshold
        # (64**2 / 2), so every engine runs the subdivision loop.
        return [random_pair(rng, h=100, w=120) for _ in range(12)]
    if kind == "tile":
        from repro.data.synth import generate_tile_pair
        from repro.index.join import mbr_pair_join

        set_a, set_b = generate_tile_pair(
            seed=4242, nuclei=400, width=512, height=512
        )
        join = mbr_pair_join(set_a, set_b)
        return join.pairs(set_a, set_b)
    raise AssertionError(kind)


@pytest.fixture(scope="module")
def workloads():
    """Workloads plus their exact-overlay reference areas (computed once)."""
    out = {}
    for kind in ("small", "medium", "tile"):
        pairs = _workload(kind)
        inter = np.array(
            [boolean.intersection(p, q).area for p, q in pairs],
            dtype=np.int64,
        )
        area_p = np.array([p.area for p, _ in pairs], dtype=np.int64)
        area_q = np.array([q.area for _, q in pairs], dtype=np.int64)
        out[kind] = (pairs, inter, area_p + area_q - inter)
    return out


def test_registry_has_expected_backends():
    assert set(available_backends()) == EXPECTED_BACKENDS


@pytest.mark.parametrize("name", sorted(backend_registry()))
def test_backend_reports_structured_capabilities(name):
    """Every backend reports BackendCapabilities — the registry contract
    replacing ad-hoc attribute sniffing (pooling owners branch on it)."""
    from repro.backends import BackendCapabilities

    caps = get_backend(name).capabilities()
    assert isinstance(caps, BackendCapabilities)
    assert caps.max_workers >= 1
    assert isinstance(caps.summary(), str) and caps.summary()
    if name in ("multiprocess", "cluster"):
        assert caps.persistent_pooling


@pytest.mark.parametrize("name", IMPLEMENTATIONS)
@pytest.mark.parametrize("kind", ["small", "medium", "tile"])
def test_backend_matches_exact_reference(name, kind, workloads):
    """Every implementation is bit-for-bit the exact overlay."""
    if name == "simt" and kind == "tile":
        pytest.skip("pure-Python replay at tile scale belongs to tier 2")
    pairs, ref_inter, ref_union = workloads[kind]
    result = implementation_areas(name, pairs)
    assert len(result) == len(pairs)
    assert np.array_equal(result.intersection, ref_inter)
    assert np.array_equal(result.union, ref_union)
    assert result.stats.pairs == len(pairs)


@pytest.mark.parametrize("name", sorted(backend_registry()))
@pytest.mark.parametrize("kind", ["small", "medium", "tile"])
def test_every_backend_returns_batch_areas(name, kind, workloads):
    """One production policy: every executor returns the ``batch``
    backend's ``BatchAreas``, work counters included."""
    pairs = workloads[kind][0]
    want = implementation_areas("batch", pairs)
    got = implementation_areas(name, pairs)
    for field in ("intersection", "union", "area_p", "area_q"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.stats.as_dict() == want.stats.as_dict()


@pytest.mark.slow
def test_simt_matches_exact_reference_tile(workloads):
    """The tile-scale simt run, kept out of the fast tier."""
    pairs, ref_inter, ref_union = workloads["tile"]
    result = simt_areas(pairs)
    assert np.array_equal(result.intersection, ref_inter)
    assert np.array_equal(result.union, ref_union)


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_multiprocess_sharding_is_bit_identical(workers, workloads):
    """Any shard boundary yields the same bits (forced pool path)."""
    pairs, ref_inter, ref_union = workloads["tile"]
    with get_backend("multiprocess", workers=workers, min_pairs=1) as backend:
        result = backend.compare_pairs(pairs)
    assert np.array_equal(result.intersection, ref_inter)
    assert np.array_equal(result.union, ref_union)
    assert result.stats.pairs == len(pairs)


def test_backends_agree_under_nondefault_config(workloads):
    """Parity holds for non-default launch parameters, too."""
    pairs, ref_inter, ref_union = workloads["small"]
    cfg = LaunchConfig(block_size=16, pixel_threshold=64)
    for name in IMPLEMENTATIONS:
        result = implementation_areas(name, pairs, cfg)
        assert np.array_equal(result.intersection, ref_inter), name
        assert np.array_equal(result.union, ref_union), name


# ----------------------------------------------------------------------
# Degenerate-input sweep: every backend, every boundary condition
# ----------------------------------------------------------------------
def _degenerate_scenarios():
    """Boundary workloads every current and future backend must survive.

    Keyed by name -> ``(pairs, config)``.  Polygons stay tiny so even the
    pure-Python SIMT replay finishes instantly at ``threshold=1``.
    """
    unit = RectilinearPolygon.from_box(Box(0, 0, 1, 1))
    small = RectilinearPolygon.from_box(Box(0, 0, 5, 5))
    sliver = RectilinearPolygon.from_box(Box(0, 0, 1, 9))
    far = RectilinearPolygon.from_box(Box(50, 50, 55, 55))
    farther = RectilinearPolygon.from_box(Box(200, 7, 205, 12))
    overlapping = RectilinearPolygon.from_box(Box(3, 3, 8, 8))
    disjoint_batch = [
        (small, far),
        (unit, farther),
        (sliver, far),
        (far, farther),
        (small, small.translate(100, 0)),
    ]
    return {
        "empty": ([], None),
        "single-pair": ([(small, overlapping)], None),
        "all-disjoint": (disjoint_batch, None),
        "tight-mbr": (disjoint_batch + [(small, overlapping)],
                      LaunchConfig(tight_mbr=True)),
        "threshold-1": ([(small, overlapping), (small, far), (unit, unit)],
                        LaunchConfig(pixel_threshold=1)),
    }


@pytest.mark.parametrize("name", IMPLEMENTATIONS)
@pytest.mark.parametrize("scenario", sorted(_degenerate_scenarios()))
def test_backend_survives_degenerate_inputs(name, scenario):
    """Empty lists, all-disjoint batches, tight MBRs, threshold=1: the
    sweep runs through the registry so every future backend inherits it."""
    pairs, cfg = _degenerate_scenarios()[scenario]
    result = implementation_areas(name, pairs, cfg)
    assert len(result) == len(pairs)
    ref_inter = np.array(
        [boolean.intersection(p, q).area for p, q in pairs], dtype=np.int64
    )
    area_p = np.array([p.area for p, _ in pairs], dtype=np.int64)
    area_q = np.array([q.area for _, q in pairs], dtype=np.int64)
    assert np.array_equal(result.intersection, ref_inter)
    assert np.array_equal(result.union, area_p + area_q - ref_inter)
    assert result.stats.pairs == len(pairs)


# ----------------------------------------------------------------------
# Lifecycle: every backend is a context manager with an idempotent close
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(backend_registry()))
def test_backend_lifecycle_context_manager(name, workloads):
    """Registry introspection covers the lifecycle contract too: use as
    a context manager, correct results inside, close idempotent after."""
    pairs, ref_inter, ref_union = workloads["small"]
    with get_backend(name) as backend:
        result = backend.compare_pairs(pairs)
        assert np.array_equal(result.intersection, ref_inter)
        assert np.array_equal(result.union, ref_union)
    backend.close()  # second close must be a no-op


def _shm_segments() -> set[str]:
    """Named shared-memory segments visible on this host (Linux)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return set()


def test_multiprocess_persistent_pool_lifecycle(workloads):
    """One pool serves repeated dispatches bit-for-bit, and close() joins
    its workers and leaks no shared-memory segment."""
    pairs, ref_inter, ref_union = workloads["tile"]
    segments_before = _shm_segments()
    backend = get_backend("multiprocess", workers=2, min_pairs=1)
    try:
        warm_pids = backend.warm()
        assert warm_pids, "warm() spawned no workers"
        pool_pids = {p.pid for p in multiprocessing.active_children()}
        assert set(warm_pids) <= pool_pids
        for _ in range(2):  # the pool is reused, not re-forked
            result = backend.compare_pairs(pairs)
            assert np.array_equal(result.intersection, ref_inter)
            assert np.array_equal(result.union, ref_union)
        # No new worker processes appeared across repeated calls.
        assert {p.pid for p in multiprocessing.active_children()} == pool_pids
    finally:
        backend.close()
    backend.close()  # idempotent
    alive = {p.pid for p in multiprocessing.active_children()}
    assert not (pool_pids & alive), "workers survived close()"
    assert _shm_segments() <= segments_before, "leaked shared memory"
    # The backend stays usable: the pool is re-created lazily.
    result = backend.compare_pairs(pairs)
    assert np.array_equal(result.intersection, ref_inter)
    backend.close()
