"""Shared chunk kernel: policy validation, drift regressions, stats parity.

The kernel seam (:mod:`repro.pixelbox.kernel`) exists so the three
execution paths — per-pair engine, chunked/batched device kernel, and
the multiprocess shard worker — cannot drift.  These tests pin the two
historical drift classes:

* the *disjoint-pair union bug*: direct-union methods (NoSep, PixelOnly)
  must report ``union = |p| + |q|`` for pairs the kernel never planned
  (no start box / disjoint MBRs) instead of a zero union that the final
  consistency check rejects as a ``KernelError`` — latent in the
  hand-copied paths (only the tight-MBR PIXELBOX policy prefilters
  today), armed the moment any policy prefilters disjoint MBRs for a
  direct-union method;
* *counter drift*: the same input charged different ``pops`` /
  ``leaf_boxes`` / ``pixel_tests`` depending on the executor.  Every
  registered executor now runs :data:`BATCH_POLICY`, so their counters
  are pinned to one set of tuples.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.backends import available_backends, get_backend
from repro.errors import GeometryError, KernelError
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.raster import extract_polygons, fill_holes
from repro.pixelbox import kernel as kernel_module
from repro.pixelbox.common import KernelStats, LaunchConfig, Method
from repro.pixelbox.engine import compute_pair
from repro.pixelbox.kernel import (
    BATCH_POLICY,
    DEFAULT_CHUNK_PAIRS,
    ChunkKernel,
    ExecutionPolicy,
    ShardInput,
    compiled_chunk,
    start_box,
)
from repro.pixelbox.vectorized import stacked_leaf_counts
from repro.geometry.polyset import PolygonSet

from conftest import (
    IMPLEMENTATIONS,
    REFERENCES,
    VECTORIZED_POLICY,
    batched_areas,
    chunked_areas,
    implementation_areas,
)


def finalize(method, inter, uni, a_p, a_q, has_box):
    """``ShardInput.finalize`` over hand-made measurements."""
    empty = PolygonSet.from_polygons([]).edges
    boxes = np.zeros((len(has_box), 4), dtype=np.int64)
    shard = ShardInput(empty, empty, boxes, has_box, a_p, a_q)
    return shard.finalize(
        ExecutionPolicy(method=method), inter, uni, KernelStats()
    ).union


def rect(x0, y0, x1, y1):
    return RectilinearPolygon.from_box(Box(x0, y0, x1, y1))


@pytest.fixture
def rng():
    return np.random.default_rng(20260730)


def random_pair(rng, h=12, w=14, density=0.5):
    def one():
        while True:
            mask = fill_holes(rng.random((h, w)) < density)
            polys = extract_polygons(mask)
            if polys:
                return max(polys, key=lambda p: p.area)

    return one(), one()


# ----------------------------------------------------------------------
# Disjoint / touching / sliver pairs: batched == per-pair, every variant
# ----------------------------------------------------------------------
def _contact_cases():
    """Pairs around the MBR-contact boundary (the historical crash zone)."""
    return {
        "disjoint": (rect(0, 0, 10, 10), rect(20, 20, 30, 30)),
        "disjoint-x": (rect(0, 0, 10, 10), rect(40, 0, 50, 10)),
        "touching-edge": (rect(0, 0, 10, 10), rect(10, 0, 20, 10)),
        "touching-corner": (rect(0, 0, 10, 10), rect(10, 10, 20, 20)),
        "one-pixel-overlap": (rect(0, 0, 10, 10), rect(9, 9, 19, 19)),
    }


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("case", sorted(_contact_cases()))
def test_batched_agrees_with_per_pair_on_contact_cases(method, case):
    """Regression: ``chunked_areas`` must never raise on disjoint MBRs and
    must agree bit-for-bit with ``compute_pair`` for every variant."""
    p, q = _contact_cases()[case]
    expected = compute_pair(p, q, method)
    got = chunked_areas([(p, q)], method).pair(0)
    assert got == expected
    if "overlap" not in case:
        assert got.intersection == 0
        assert got.union == p.area + q.area


@pytest.mark.parametrize("name", IMPLEMENTATIONS)
def test_every_backend_handles_contact_cases(name):
    """The same contact sweep through the registry and the references:
    bit-for-bit parity."""
    pairs = list(_contact_cases().values())
    expected = [compute_pair(p, q) for p, q in pairs]
    result = implementation_areas(name, pairs)
    for i, exp in enumerate(expected):
        assert result.pair(i) == exp, name


def test_tight_mbr_disjoint_pair_has_full_union():
    """No start box end-to-end: the tight-MBR policy on disjoint MBRs."""
    p, q = rect(0, 0, 10, 10), rect(20, 20, 30, 30)
    cfg = LaunchConfig(tight_mbr=True)
    assert start_box(p, q, Method.PIXELBOX, cfg) is None
    res = chunked_areas([(p, q)], Method.PIXELBOX, cfg).pair(0)
    assert res == compute_pair(p, q, Method.PIXELBOX, cfg)
    assert res.intersection == 0 and res.union == 200


@pytest.mark.parametrize("method", [Method.NOSEP, Method.PIXEL_ONLY])
def test_finalize_completes_union_for_unrouted_pairs(method):
    """The drift fix itself: a direct-union pair the kernel never visited
    gets ``union = |p| + |q|`` instead of tripping the consistency check.

    This is the state the hand-copied batched path would have reached on
    a no-start-box pair (measured union 0, final check raising
    ``KernelError`` on valid disjoint input) as soon as a prefiltering
    policy met a direct-union method; the kernel closes it for every
    policy, current and future.
    """
    inter = np.array([0, 3], dtype=np.int64)
    uni = np.array([0, 9], dtype=np.int64)  # slot 0 never measured
    a_p = np.array([4, 6], dtype=np.int64)
    a_q = np.array([5, 6], dtype=np.int64)
    has_box = np.array([False, True])
    union = finalize(method, inter, uni, a_p, a_q, has_box)
    assert union.tolist() == [9, 9]


def test_finalize_requires_measured_union_for_direct_policies():
    ones = np.ones(1, dtype=np.int64)
    with pytest.raises(KernelError):
        finalize(Method.NOSEP, ones * 0, None, ones, ones, np.array([True]))


def test_default_workers_rejects_malformed_env(monkeypatch):
    """The CI parity matrix pins pool width via REPRO_WORKERS; a value
    that does not parse must fail loudly, never fall back silently."""
    from repro.backends import default_workers

    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert default_workers() == 3
    for bad in ("two", "0", "-2", ""):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(KernelError):
            default_workers()


def test_finalize_still_rejects_inconsistent_measurements():
    inter = np.array([2], dtype=np.int64)
    uni = np.array([5], dtype=np.int64)  # should be 4 + 4 - 2 = 6
    a_p = np.array([4], dtype=np.int64)
    a_q = np.array([4], dtype=np.int64)
    with pytest.raises(KernelError):
        finalize(Method.NOSEP, inter, uni, a_p, a_q, np.array([True]))


# ----------------------------------------------------------------------
# ExecutionPolicy validation
# ----------------------------------------------------------------------
class TestExecutionPolicy:
    def test_union_is_indirect_exactly_for_pixelbox(self):
        assert ExecutionPolicy(method=Method.PIXELBOX).indirect_union
        assert not ExecutionPolicy(method=Method.NOSEP).indirect_union
        assert not ExecutionPolicy(method=Method.PIXEL_ONLY).indirect_union
        assert ExecutionPolicy(method=Method.NOSEP).measures_union

    def test_unknown_method_rejected(self):
        with pytest.raises(KernelError):
            ExecutionPolicy(method="pixelbox")

    def test_bad_chunk_and_skip_bounds_rejected(self):
        with pytest.raises(KernelError):
            ExecutionPolicy(chunk_pairs=0)
        with pytest.raises(KernelError):
            ExecutionPolicy(skip_subdivision_max_dim=0)

    def test_registered_policies(self):
        """The production policy and the always-subdivide reference keep
        exactly the knobs they always had."""
        assert VECTORIZED_POLICY == ExecutionPolicy()
        assert VECTORIZED_POLICY.skip_subdivision_max_dim is None
        assert VECTORIZED_POLICY.chunk_pairs == DEFAULT_CHUNK_PAIRS
        assert BATCH_POLICY == ExecutionPolicy(skip_subdivision_max_dim=64)
        assert BATCH_POLICY.indirect_union and VECTORIZED_POLICY.indirect_union


# ----------------------------------------------------------------------
# Counter parity across every entry point
# ----------------------------------------------------------------------
def _per_pair_stats(pairs, method, cfg):
    stats = KernelStats()
    for p, q in pairs:
        compute_pair(p, q, method, cfg, stats)
    return stats.as_dict()


@pytest.mark.parametrize("method", list(Method))
def test_stats_agree_per_pair_vs_chunked(rng, method):
    pairs = [random_pair(rng) for _ in range(12)]
    pairs += [random_pair(rng, h=60, w=70) for _ in range(3)]
    pairs.append((pairs[0][0], pairs[0][0].translate(400, 400)))
    cfg = LaunchConfig(block_size=16, pixel_threshold=32)
    assert _per_pair_stats(pairs, method, cfg) == \
        chunked_areas(pairs, method, cfg).stats.as_dict()


def test_stats_agree_across_all_entry_points(rng):
    """Same input, same policy -> same counters on every executor.

    The batch policy may legitimately differ from the always-subdivide
    one on pairs in its skip-subdivision band (that *is* its policy), so
    the workload keeps every pair MBR under both the skip bound and the
    pixelization threshold where all plans coincide.
    """
    pairs = [random_pair(rng) for _ in range(14)]
    pairs.append((pairs[0][0], pairs[0][0].translate(300, 300)))
    cfg = LaunchConfig()
    reference = _per_pair_stats(pairs, Method.PIXELBOX, cfg)

    chunked = chunked_areas(pairs, Method.PIXELBOX, cfg).stats.as_dict()
    assert chunked == reference

    batched = batched_areas(pairs, cfg).stats.as_dict()
    routing = {"batched_pairs", "fallback_pairs"}
    assert {k: v for k, v in batched.items() if k not in routing} == \
        {k: v for k, v in reference.items() if k not in routing}
    # ... and the batch policy reports its routing decisions on top.
    assert batched["batched_pairs"] + batched["fallback_pairs"] == len(pairs)

    # Every registered executor runs the batch policy: batch's counters.
    for options in ({"workers": 1}, {"workers": 2, "min_pairs": 1}):
        sharded = implementation_areas("multiprocess", pairs, cfg, **options)
        assert sharded.stats.as_dict() == batched


# Work counters the parent of the one-executor-path refactor produced
# for `_pinned_pairs()` under LaunchConfig(block_size=16), in
# KernelStats field order, cover MBR then tight MBR.  `scalar`, `simt`
# and `vectorized` are conftest references; every registered executor
# runs the batch policy, so all three share its tuples.
_ALWAYS_SUBDIVIDE = (
    (28, 406, 42, 672, 294, 364, 25996, 0, 0),
    (28, 328, 30, 480, 178, 298, 25684, 0, 0),
)
_REPLAY = ((28, 406, 0, 0, 0, 0, 0, 0, 0),) * 2
_BATCH = (
    (28, 146, 15, 240, 122, 131, 34004, 27, 1),
    (28, 144, 15, 240, 122, 129, 29388, 25, 1),
)
PINNED_STATS = {
    "scalar": (_ALWAYS_SUBDIVIDE[0],) * 2,  # always starts from the cover
    "vectorized": _ALWAYS_SUBDIVIDE,
    "multiprocess": _BATCH,
    "cluster": _BATCH,
    "batch": _BATCH,
    "simt": _REPLAY,
}
PINNED_AREA_SUMS = (8974, 16484)


def _pinned_pairs():
    """20 small + 6 mid pairs, one above the 64-pixel skip bound, one
    with disjoint MBRs (no start box under the tight-MBR policy)."""
    rng = np.random.default_rng(20260928)
    pairs = [random_pair(rng) for _ in range(20)]
    pairs += [random_pair(rng, h=40, w=44) for _ in range(6)]
    pairs.append(random_pair(rng, h=72, w=80))
    pairs.append((rect(0, 0, 10, 10), rect(20, 20, 30, 30)))
    return pairs


def test_every_in_process_name_is_pinned():
    assert set(PINNED_STATS) == set(available_backends()) | set(REFERENCES)


@pytest.mark.parametrize("tight", [False, True], ids=["cover", "tight"])
@pytest.mark.parametrize(
    "name, options",
    [
        pytest.param(name, {}, id=name)
        for name in sorted(set(PINNED_STATS) - {"multiprocess", "cluster"})
    ]
    + [  # min_pairs low enough that two workers take the pool path
        pytest.param(
            "multiprocess", {"workers": w, "min_pairs": 2}, id=f"multiprocess-w{w}"
        )
        for w in (1, 2)
    ]
    + [  # six 5-pair shards on local worker processes
        pytest.param(
            "cluster", {"min_pairs": 2, "shard_pairs": 5}, id="cluster"
        )
    ],
)
def test_kernel_stats_are_bit_for_bit_what_they_were(name, options, tight):
    cfg = LaunchConfig(block_size=16, tight_mbr=tight)
    res = implementation_areas(name, _pinned_pairs(), cfg, **options)
    assert tuple(res.stats.as_dict().values()) == PINNED_STATS[name][tight]
    assert (
        int(res.intersection.sum()), int(res.union.sum())
    ) == PINNED_AREA_SUMS


# ----------------------------------------------------------------------
# ShardInput: the one owner of the bundle layout
# ----------------------------------------------------------------------
def test_shard_input_round_trips_through_its_arrays(rng):
    pairs = [random_pair(rng) for _ in range(5)]
    cfg = LaunchConfig(tight_mbr=True)
    built = ShardInput.build(pairs, ExecutionPolicy(), cfg)
    arrays = built.to_arrays()
    rebuilt = ShardInput.from_arrays(arrays)
    assert len(rebuilt) == len(built) == 5
    assert set(rebuilt.to_arrays()) == set(arrays)
    for key, value in rebuilt.to_arrays().items():
        assert value is arrays[key], key  # zero-copy
    assert rebuilt.area_p is None and rebuilt.area_q is None
    kernel = ChunkKernel(ExecutionPolicy(), cfg)
    want, _ = kernel.run_shard(built, 0, 5, KernelStats())
    got, _ = kernel.run_shard(rebuilt, 0, 5, KernelStats())
    assert np.array_equal(got, want)
    with pytest.raises(KernelError, match="no polygon areas"):
        rebuilt.finalize(ExecutionPolicy(), got, None, KernelStats())


@pytest.mark.parametrize("missing", ["p.xs", "q.offsets", "boxes", "has_box"])
def test_shard_input_names_a_missing_array(rng, missing):
    arrays = ShardInput.build(
        [random_pair(rng)], ExecutionPolicy(), LaunchConfig()
    ).to_arrays()
    del arrays[missing]
    with pytest.raises(KernelError, match=missing):
        ShardInput.from_arrays(arrays)


def test_shard_input_of_no_pairs_is_an_empty_result():
    policy, cfg = ExecutionPolicy(), LaunchConfig()
    shard = ShardInput.build([], policy, cfg)
    stats = KernelStats()
    inter, _ = ChunkKernel(policy, cfg).run_shard(shard, 0, 0, stats)
    res = shard.finalize(policy, inter, None, stats)
    assert len(res) == 0 and res.stats.as_dict() == KernelStats().as_dict()


def test_batch_charges_pops_for_skip_routed_pairs(rng):
    """Regression: the batched path used to drop the start-box pop of
    every skip-routed pair, so `pops` disagreed with the other paths."""
    pairs = [random_pair(rng) for _ in range(8)]
    cfg = LaunchConfig()
    res = batched_areas(pairs, cfg)
    assert res.stats.batched_pairs == len(pairs)
    assert res.stats.pops == _per_pair_stats(pairs, Method.PIXELBOX, cfg)["pops"]


def test_batch_honors_leaf_mode(rng):
    """Regression: the batched path used to ignore ``leaf_mode`` and
    always run the XOR-scan; under ``crossing`` it must behave exactly
    like the engine policy (same results, same counters)."""
    pairs = [random_pair(rng) for _ in range(8)]
    cfg = LaunchConfig(leaf_mode="crossing")
    batched = batched_areas(pairs, cfg)
    engine = chunked_areas(pairs, Method.PIXELBOX, cfg)
    assert np.array_equal(batched.intersection, engine.intersection)
    assert batched.stats.pixel_tests == engine.stats.pixel_tests


# ----------------------------------------------------------------------
# Chunk-boundary invariance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk_pairs", [1, 3, 7])
def test_chunk_size_never_changes_results_or_stats(rng, chunk_pairs):
    pairs = [random_pair(rng) for _ in range(10)]
    cfg = LaunchConfig()
    base = chunked_areas(pairs, cfg=cfg)
    policy = ExecutionPolicy(method=Method.PIXELBOX, chunk_pairs=chunk_pairs)
    res = ChunkKernel(policy, cfg).compute(pairs)
    assert np.array_equal(res.intersection, base.intersection)
    assert np.array_equal(res.union, base.union)
    assert res.stats.as_dict() == base.stats.as_dict()


def test_shard_boundaries_never_change_results(rng):
    """run_shard at arbitrary split points reproduces the full compute."""
    pairs = [random_pair(rng) for _ in range(9)]
    cfg = LaunchConfig()
    kernel = ChunkKernel(ExecutionPolicy(), cfg)
    base = kernel.compute(pairs)

    shard = ShardInput.build(pairs, kernel.policy, cfg)
    for split in (1, 4, 8):
        stats = KernelStats()
        left, _ = kernel.run_shard(shard, 0, split, stats)
        right, _ = kernel.run_shard(shard, split, len(pairs), stats)
        inter = np.concatenate([left, right])
        assert np.array_equal(inter, base.intersection)
        assert stats.as_dict() == base.stats.as_dict()


# ----------------------------------------------------------------------
# Coordinates the int32 edge tables cannot hold: reject or agree
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", available_backends())
def test_coordinates_beyond_int32_never_give_a_wrong_area(name):
    from repro.exact.boolean import intersection_area

    p = rect(2**31 - 2, 0, 2**31 + 2, 4)
    q = rect(2**31, 0, 2**31 + 4, 4)
    assert intersection_area(p, q) == 8
    with get_backend(name) as backend:
        try:
            result = backend.compare_pairs([(p, q)])
        except GeometryError as exc:
            assert "polygon 0" in str(exc)
        else:
            assert result.intersection.tolist() == [8]


# ----------------------------------------------------------------------
# The compiled chunk: the same boxes, pixels and counters as NumPy
# ----------------------------------------------------------------------
def _require_compiled():
    """The compiled library; a host with a C compiler must load it."""
    lib = native.load()
    if lib is None:
        if any(shutil.which(c) for c in native.COMPILERS):
            pytest.fail(f"a C compiler is on PATH, yet {native.status()}")
        pytest.skip(native.status())
    return lib


def _generated_leaves(rng):
    """Polygon tables plus leaves around them: random boxes, 1-pixel
    boxes, boxes wider than their polygon, boxes whose borders lie on
    polygon edges, and boxes at the 64x64 skip bound."""
    sides = [
        [random_pair(rng, h=int(rng.integers(2, 40)), w=int(rng.integers(2, 70)))[0]
         for _ in range(40)]
        for _ in range(2)
    ]
    tables = [PolygonSet.from_polygons(polys).edges for polys in sides]
    mbrs = PolygonSet.from_polygons(sides[0]).mbrs
    leaves, owner = [], []
    for row in range(40):
        x0, y0, x1, y1 = (int(v) for v in mbrs[row])
        xs = tables[0].xs[tables[0].offsets[row] : tables[0].offsets[row + 1]]
        for _ in range(6):
            ax, bx = sorted(rng.integers(x0 - 3, x1 + 4, 2))
            ay, by = sorted(rng.integers(y0 - 3, y1 + 4, 2))
            leaves.append((ax, ay, max(bx, ax + 1), max(by, ay + 1)))
        px, py = int(rng.integers(x0, x1)), int(rng.integers(y0, y1))
        ex = sorted(int(v) for v in rng.choice(xs, 2))
        leaves += [
            (px, py, px + 1, py + 1),
            (x0 - 1, y0 - 1, x1 + 1, y1 + 1),
            (x0 - 40, py, x1 + 40, py + 1),
            (ex[0], y0, max(ex[1], ex[0] + 1), y1),
            (x0, y0, x0 + 64, y0 + 64),
            (x0 - 64, y0 - 64, x0, y0),
        ]
        owner += [row] * 12
    return tables, np.array(leaves, dtype=np.int64), np.array(owner, dtype=np.int64)


def _compiled(table_p, table_q, boxes, cfg=None, skip=64, row_base=0, has_box=None):
    """``(inter, stats)`` of one compiled chunk over ``boxes``."""
    stats = KernelStats()
    if has_box is None:
        has_box = np.ones(len(boxes), dtype=bool)
    inter = compiled_chunk(
        table_p, table_q, np.asarray(boxes), has_box, row_base,
        cfg or LaunchConfig(), skip, stats,
    )
    return inter, stats


@pytest.mark.parametrize("leaf_mode", ["scan", "crossing"])
def test_compiled_leaves_count_what_the_numpy_leaves_count(rng, leaf_mode):
    """Every start box under the skip bound is one leaf: the compiled
    fill counts the pixels of the NumPy scan and the per-pixel ray cast."""
    _require_compiled()
    (table_p, table_q), leaves, owner = _generated_leaves(rng)
    want, _ = stacked_leaf_counts(table_p, table_q, leaves, owner, False, leaf_mode)
    got, stats = _compiled(
        table_p.take(owner), table_q.take(owner), leaves, skip=1 << 20
    )
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert want.sum() > 0 and np.count_nonzero(want == 0) > 0
    assert stats.leaf_boxes == stats.batched_pairs == stats.pops == len(leaves)


@pytest.mark.parametrize(
    "leaf, owner, match",
    [
        ((5, 5, 5, 9), 0, "extent"),
        ((5, 9, 8, 4), 0, "extent"),
        ((0, 0, 4, 4), 7, "owner row"),
        ((0, 0, 4, 4), -1, "owner row"),
        ((0, 0, 4), 0, "int64\\[n, 4\\]"),
    ],
)
def test_compiled_leaves_reject_what_they_cannot_count(leaf, owner, match):
    _require_compiled()
    table = PolygonSet.from_polygons([rect(0, 0, 4, 4)]).edges
    with pytest.raises(KernelError, match=match):
        _compiled(table, table, np.array([leaf]), row_base=owner)


@functools.cache
def _differential_pairs():
    """Pairs for the compiled-vs-NumPy planner check: disjoint and nested
    MBRs, start boxes on both sides of the 64-pixel skip bound, tall
    1-pixel-wide boxes (the deepest stacks), and coordinates at both
    ends of the int32 range."""
    rng = np.random.default_rng(20261018)
    pairs = [random_pair(rng, h=90, w=110) for _ in range(3)]
    pairs += [random_pair(rng, h=int(h), w=int(w)) for h, w in
              ((63, 63), (64, 64), (65, 64), (64, 65), (66, 66), (70, 30))]
    big, _ = random_pair(rng, h=100, w=100)
    x0, y0 = big.mbr.x0, big.mbr.y0
    pairs += [
        (big, rect(x0 + 30, y0 + 30, x0 + 60, y0 + 70)),  # nested MBRs
        (rect(x0 + 10, y0 + 10, x0 + 90, y0 + 95), big),
        (rect(0, 0, 10, 10), rect(20, 20, 30, 30)),  # disjoint, one cover box
        (rect(0, 0, 50, 50), rect(100, 100, 170, 160)),  # disjoint, planned
        (rect(0, 0, 64, 40), rect(10, 20, 60, 64)),  # cover box 64 x 64
        (rect(0, 0, 65, 40), rect(10, 20, 60, 64)),  # cover box 65 x 64
    ]
    for k in (0, 5, 333, 4000):
        pairs.append((rect(7, 0, 8, 1 << 16), rect(7, k, 8, (1 << 16) - 3 * k - 1)))
    pairs.append((rect(7, 0, 8, 1 << 16), rect(6, 100, 9, 900)))
    limit = np.iinfo(np.int32)
    for p, q in [random_pair(rng, h=80, w=90) for _ in range(2)]:
        pairs.append((p.translate(limit.max - 200, limit.max - 200),
                      q.translate(limit.max - 200, limit.max - 200)))
        pairs.append((p.translate(limit.min + 5, limit.min), q.translate(limit.min + 5, limit.min)))
    return tuple(pairs)


@pytest.mark.parametrize("tight", [False, True], ids=["cover", "tight"])
@pytest.mark.parametrize("block_size", [16, 32, 64, 128])
def test_compiled_chunk_plans_what_the_numpy_planner_plans(
    block_size, tight, monkeypatch
):
    """BATCH_POLICY's chunk in C against ``plan_levels`` +
    ``stacked_leaf_counts``: equal areas and all nine counters."""
    _require_compiled()
    cfg = LaunchConfig(block_size=block_size, tight_mbr=tight)
    shard = ShardInput.build(list(_differential_pairs()), BATCH_POLICY, cfg)
    kernel = ChunkKernel(BATCH_POLICY, cfg)

    def chunk():
        stats = KernelStats()
        inter, _ = kernel.run_chunk(
            shard.table_p, shard.table_q, shard.boxes, shard.has_box, 0, stats
        )
        return inter, stats.as_dict()

    calls = []
    monkeypatch.setattr(
        kernel_module, "compiled_chunk", lambda *a: calls.append(1) or compiled_chunk(*a)
    )
    got = chunk()
    monkeypatch.setattr(native, "load", lambda: None)
    want = chunk()
    assert calls == [1]
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert want[1]["partitions"] > 0 and want[1]["batched_pairs"] > 0


def test_compiled_chunk_rejects_a_malformed_bundle():
    """Owner rows and edge spans are bounds-checked: a bad one is a
    KernelError, never a read outside the tables."""
    _require_compiled()
    pairs = list(_differential_pairs()[:4])
    shard = ShardInput.build(pairs, BATCH_POLICY, LaunchConfig())
    tp, tq = shard.table_p, shard.table_q
    for row_base in (1, -1, len(pairs)):
        with pytest.raises(KernelError, match="owner row"):
            _compiled(tp, tq, shard.boxes, row_base=row_base)
    for offsets in (
        tp.offsets + 1,  # the last span runs past the columns
        tp.offsets[::-1].copy(),  # spans of negative length
        tp.offsets - tp.offsets[1],  # a span starting before the columns
    ):
        bad = dataclasses.replace(tp, offsets=offsets)
        with pytest.raises(KernelError, match="owner row or edge span"):
            _compiled(bad, tq, shard.boxes)
    with pytest.raises(KernelError, match="1-D and of one length"):
        _compiled(dataclasses.replace(tp, ys=tp.ys[:-1]), tq, shard.boxes)
    with pytest.raises(KernelError, match="extent"):
        _compiled(tp, tq, np.array([[0, 0, 1 << 40, 2]] * 4))


def test_a_subdivision_that_never_ends_is_refused():
    """A 5-thread block splits 5 x 1, so a 1-pixel-wide box of 12 or more
    pixels that hovers partitions into itself: the stack bound stops it."""
    _require_compiled()
    p = PolygonSet.from_polygons([rect(0, 0, 1, 100)]).edges
    q = PolygonSet.from_polygons([rect(0, 10, 1, 90)]).edges
    with pytest.raises(KernelError, match="deeper than the stack bound"):
        _compiled(p, q, np.array([[0, 0, 1, 100]]), LaunchConfig(block_size=5))


@pytest.mark.parametrize(
    "policy", [ExecutionPolicy(), BATCH_POLICY], ids=["numpy", "production"]
)
def test_every_policy_refuses_a_subdivision_that_never_ends(policy):
    """The NumPy planner stops at the compiled chunk's stack bound, so a
    prime block size is refused on every policy and host, not a hang."""
    pair = (rect(0, 0, 1, 100), rect(0, 10, 1, 90))
    with pytest.raises(KernelError, match="deeper than the stack bound"):
        ChunkKernel(policy, LaunchConfig(block_size=5)).compute([pair])


def test_only_the_production_scan_runs_compiled(rng, monkeypatch):
    """BATCH_POLICY's scan chunks go to the compiled chunk; crossing
    leaves and every other policy stay on the NumPy programs."""
    _require_compiled()
    calls = []

    def counting(*args):
        calls.append(len(args[2]))
        return compiled_chunk(*args)

    monkeypatch.setattr(kernel_module, "compiled_chunk", counting)
    pairs = [random_pair(rng) for _ in range(6)]
    batched_areas(pairs)
    assert calls
    calls.clear()
    batched_areas(pairs, LaunchConfig(leaf_mode="crossing"))
    chunked_areas(pairs)
    ChunkKernel(ExecutionPolicy(skip_subdivision_max_dim=64, chunk_pairs=3)).compute(
        pairs
    )
    assert calls == []


_SANITIZED_RUN = """
import sys
import pytest
from repro import native

native.FLAGS = ("-O1", "-g", "-shared", "-fPIC",
                "-fsanitize=address,undefined", "-fno-sanitize-recover=all")
assert native.load(), native.status()
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "--capture=sys", *sys.argv[1:]]))
"""


def test_the_compiled_chunk_is_clean_under_address_and_undefined_sanitizers(
    tmp_path,
):
    """The shipped library built with ASan and UBSan, in a child process,
    runs the compiled-chunk tests above and the parser differentials
    (both entry points) without a report."""
    compiler = shutil.which("gcc")
    if compiler is None:
        pytest.skip("no gcc on PATH")
    runtimes = [
        subprocess.run(
            [compiler, f"-print-file-name={name}"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        for name in ("libasan.so", "libubsan.so")
    ]
    if not all(os.path.isabs(path) and os.path.exists(path) for path in runtimes):
        pytest.skip(f"no sanitizer runtime next to {compiler}")
    here = Path(__file__).resolve()
    src = str(here.parents[1] / "src")
    env = dict(
        os.environ,
        XDG_CACHE_HOME=str(tmp_path),
        LD_PRELOAD=" ".join(runtimes),
        ASAN_OPTIONS="detect_leaks=0",
        PYTHONPATH=os.pathsep.join(
            filter(None, [src, str(here.parents[1]), str(here.parent),
                          os.environ.get("PYTHONPATH")])
        ),
    )
    tests = [
        f"{here}::{name}"
        for name in (
            "test_compiled_leaves_count_what_the_numpy_leaves_count[scan]",
            "test_compiled_leaves_reject_what_they_cannot_count",
            "test_compiled_chunk_plans_what_the_numpy_planner_plans",
            "test_compiled_chunk_rejects_a_malformed_bundle",
            "test_a_subdivision_that_never_ends_is_refused",
            "test_every_policy_refuses_a_subdivision_that_never_ends",
        )
    ] + [
        str(here.parent / "test_io.py"),
        f"{here.parent / 'test_properties.py'}::test_parsers_agree",
        f"{here.parent / 'test_properties.py'}::test_parsers_accept_and_reject_alike",
    ]
    done = subprocess.run(
        [sys.executable, "-c", _SANITIZED_RUN, *tests],
        env=env, capture_output=True, text=True, timeout=600, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert [p.suffix for p in (tmp_path / "repro").iterdir()] == [".so"]


_NO_COMPILER_RUN = """
import json, sys
from repro.backends import get_backend
from repro.geometry.polygon import RectilinearPolygon
from repro import native

rings = json.load(open(sys.argv[1]))
pairs = [(RectilinearPolygon(p), RectilinearPolygon(q)) for p, q in rings]
with get_backend("batch") as backend:
    backend.warm()
    res = backend.compare_pairs(pairs)
print(json.dumps({
    "loaded": native.load() is not None,
    "intersection": res.intersection.tolist(),
    "union": res.union.tolist(),
    "stats": res.stats.as_dict(),
}))
"""


def test_a_host_without_a_c_compiler_gives_the_same_bits(rng, tmp_path):
    """No ``cc``/``gcc`` on PATH and an empty build cache: ``batch`` runs
    the NumPy leaves, with the same areas and counters, and ``repro
    backends`` names the reason."""
    pairs = [random_pair(rng) for _ in range(12)]
    pairs += [random_pair(rng, h=90, w=110) for _ in range(4)]  # planner leaves
    rings = tmp_path / "rings.json"
    rings.write_text(
        json.dumps([[p.vertices.tolist(), q.vertices.tolist()] for p, q in pairs])
    )
    (tmp_path / "bin").mkdir()
    (tmp_path / "cache").mkdir()
    src = str(Path(native.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PATH=str(tmp_path / "bin"),
        XDG_CACHE_HOME=str(tmp_path / "cache"),
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], env=env, check=True, timeout=120,
            capture_output=True, text=True,
        ).stdout

    got = json.loads(run("-c", _NO_COMPILER_RUN, str(rings)))
    want = batched_areas(pairs)
    assert got["loaded"] is False
    assert got["intersection"] == want.intersection.tolist()
    assert got["union"] == want.union.tolist()
    assert got["stats"] == want.stats.as_dict()
    assert list((tmp_path / "cache").iterdir()) == []
    listing = run("-m", "repro", "backends")
    assert (
        "native library: NumPy in place of pixelbox_chunk, polyscan "
        "(no C compiler (cc, gcc) on PATH)"
        in listing
    )


def _fresh_build(monkeypatch, cache):
    """``native.load()`` as a new process runs it, building into ``cache``."""
    monkeypatch.setattr(native, "_state", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return native.load()


def test_a_failed_compile_is_recorded_not_raised(tmp_path, monkeypatch):
    _require_compiled()
    broken = tmp_path / "leafscan.c"
    broken.write_text("int pixelbox_chunk(void) { return }\n")
    monkeypatch.setattr(native, "SOURCES", (broken,))
    assert _fresh_build(monkeypatch, tmp_path / "cache") is None
    assert "failed" in native.status()
    assert [p.name for p in (tmp_path / "cache" / "repro").iterdir()] == []


def test_a_library_that_does_not_load_is_recorded_not_raised(tmp_path, monkeypatch):
    _require_compiled()

    def refuse(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(native.ctypes, "CDLL", refuse)
    assert _fresh_build(monkeypatch, tmp_path) is None
    assert "did not load" in native.status()


def test_an_unusable_cache_directory_falls_back_to_a_temporary_one(
    tmp_path, monkeypatch
):
    """The library builds in a temporary directory, still loads and runs
    after that directory is removed, and leaves nothing behind."""
    _require_compiled()
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    assert _fresh_build(monkeypatch, not_a_dir) is not None
    assert "compiled C pixelbox_chunk, polyscan" in native.status()
    assert list((tmp_path / "tmp").iterdir()) == []
    table = PolygonSet.from_polygons([rect(0, 0, 4, 4)]).edges
    counts, _ = _compiled(table, table, np.array([[2, 2, 6, 6]]))
    assert counts.tolist() == [4]


def test_processes_compiling_at_once_share_one_library(tmp_path):
    """Concurrent first uses of an empty cache all load, and leave one
    library and no temporary file behind."""
    _require_compiled()
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    code = "from repro import native; assert native.load(), native.status()"
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=env) for _ in range(3)
    ]
    assert [p.wait(timeout=120) for p in procs] == [0, 0, 0]
    assert [p.suffix for p in (tmp_path / "repro").iterdir()] == [".so"]
