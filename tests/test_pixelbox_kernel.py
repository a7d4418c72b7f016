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

import numpy as np
import pytest

from repro.backends import available_backends
from repro.errors import KernelError
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.raster import extract_polygons, fill_holes
from repro.pixelbox.common import KernelStats, LaunchConfig, Method
from repro.pixelbox.engine import compute_pair
from repro.pixelbox.kernel import (
    BATCH_POLICY,
    DEFAULT_CHUNK_PAIRS,
    ChunkKernel,
    ExecutionPolicy,
    ShardInput,
    start_box,
)
from repro.pixelbox.vectorized import EdgeTable

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
    empty = EdgeTable.build([])
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
    from repro.backends.multiprocess import default_workers

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
    + [  # six 5-pair shards on loopback workers
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
