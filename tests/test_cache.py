"""The content-addressed result cache: store, key, and both front doors.

The cache's one correctness contract is *transparency*: a cached hit
must be bit-for-bit identical to the cold computation it replaces —
areas **and** kernel work counters — across every backend, and any
change to what would be computed (geometry, launch parameters) must
change the cache key.  The executor is not part of it: every backend
runs one policy, so an entry answers the same pairs on any of them.  These tests pin that
contract from below (store/key units) and from above (registry-driven
hit-equals-miss across all available backends, per-tile caching of files
requests, stampede collapse in the session and the service).
"""

from __future__ import annotations

import asyncio
import dataclasses
import shutil
import sys
import threading
import time

import numpy as np
import pytest

from conftest import random_pair
from repro.api import CompareOptions, CompareRequest, Session
from repro.backends import available_backends
from repro.cache import (
    CacheSnapshot,
    LRUCacheStore,
    config_token,
    copy_areas,
    pairs_key,
)
from repro.errors import CacheError, RequestError
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.pixelbox.common import LaunchConfig, Method
from repro.pixelbox.kernel import ExecutionPolicy, PairBatch


@pytest.fixture
def pairs(rng):
    return [random_pair(rng) for _ in range(12)]


# ----------------------------------------------------------------------
# LRUCacheStore
# ----------------------------------------------------------------------
class TestLRUCacheStore:
    def test_miss_then_hit(self):
        store = LRUCacheStore(1024, name="t")
        assert store.get("k") is None
        store.put("k", "value", 10)
        assert store.get("k") == "value"
        snap = store.snapshot()
        assert (snap.hits, snap.misses, snap.insertions) == (1, 1, 1)
        assert snap.entries == 1
        assert snap.current_bytes == 10

    def test_eviction_is_lru_ordered(self):
        store = LRUCacheStore(100, name="t")
        store.put("a", 1, 40)
        store.put("b", 2, 40)
        # Touch "a" so "b" is the least recently used entry.
        assert store.get("a") == 1
        store.put("c", 3, 40)  # 120 bytes > 100: evict "b", not "a"
        assert store.get("b") is None
        assert store.get("a") == 1
        assert store.get("c") == 3
        snap = store.snapshot()
        assert snap.evictions == 1
        assert snap.current_bytes <= 100

    def test_eviction_frees_enough_for_large_values(self):
        store = LRUCacheStore(100, name="t")
        for key in "abcd":
            store.put(key, key, 25)
        store.put("big", "big", 90)  # must evict several entries
        assert store.get("big") == "big"
        assert store.snapshot().current_bytes <= 100

    def test_oversized_value_not_stored(self):
        store = LRUCacheStore(50, name="t")
        store.put("huge", "x", 51)
        assert store.get("huge") is None
        assert len(store) == 0
        assert store.snapshot().insertions == 0

    def test_replace_same_key_updates_bytes(self):
        store = LRUCacheStore(100, name="t")
        store.put("k", 1, 30)
        store.put("k", 2, 60)
        assert store.get("k") == 2
        assert store.snapshot().current_bytes == 60
        assert len(store) == 1

    def test_contains_has_no_side_effects(self):
        store = LRUCacheStore(100, name="t")
        store.put("k", 1, 10)
        before = store.snapshot()
        assert store.contains("k")
        assert not store.contains("other")
        after = store.snapshot()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_clear(self):
        store = LRUCacheStore(100, name="t")
        store.put("k", 1, 10)
        store.clear()
        assert len(store) == 0
        assert store.snapshot().current_bytes == 0

    def test_bad_budget_rejected(self):
        with pytest.raises(CacheError):
            LRUCacheStore(0, name="t")
        store = LRUCacheStore(10, name="t")
        with pytest.raises(CacheError):
            store.put("k", 1, -1)

    def test_snapshot_round_trips(self):
        store = LRUCacheStore(100, name="tier")
        store.put("k", 1, 10)
        store.get("k")
        store.get("gone")
        snap = store.snapshot()
        assert isinstance(snap, CacheSnapshot)
        d = snap.as_dict()
        assert d["name"] == "tier"
        assert d["hit_rate"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Key derivation: the invalidation matrix
# ----------------------------------------------------------------------

#: One non-default value per CompareOptions field.  Coverage is asserted
#: below, so adding a field without a perturbation fails this suite —
#: new knobs must be cache-relevant (or explicitly excluded here).
_OPTIONS_PERTURB = {
    "backend": "multiprocess",
    "backend_options": {"workers": 3},
    "hosts": None,  # constrained: only valid with backend="cluster"
    "block_size": 32,
    "pixel_threshold": 7,
    "tight_mbr": False,
    "leaf_mode": "crossing",
    "cache": True,
    "cache_bytes": 2**20,
    "trace": True,
    "trace_out": "trace.jsonl",
}

#: Fields that decide *where* a result is computed, cached or traced,
#: never what is computed (every backend runs one policy): they must not
#: change the key.
_NOT_KEYED = {
    "backend", "backend_options", "hosts",
    "cache", "cache_bytes", "trace", "trace_out",
}

_POLICY_PERTURB = {
    "method": Method.NOSEP,
    "skip_subdivision_max_dim": 48,
    "chunk_pairs": 123,
}

_CONFIG_PERTURB = {
    "block_size": 32,
    "pixel_threshold": 9,
    "tight_mbr": True,
    "leaf_mode": "crossing",
}


class TestKeyInvalidation:
    def test_options_perturbations_cover_every_field(self):
        assert set(_OPTIONS_PERTURB) == {
            f.name for f in dataclasses.fields(CompareOptions)
        }, "new CompareOptions field needs an invalidation perturbation"

    def test_pairs_key_invalidation_matrix(self, pairs):
        """Everything that changes the computation changes the one key."""

        def key(options, pair_list=pairs):
            return pairs_key(pair_list, options.launch_config())

        base = key(CompareOptions())
        for name, value in _OPTIONS_PERTURB.items():
            if value is None:
                continue
            perturbed = key(CompareOptions(**{name: value}))
            if name in _NOT_KEYED:
                assert perturbed == base, f"{name} must not reach the key"
            else:
                assert perturbed != base, f"perturbing {name} must change the key"
        for name, value in _CONFIG_PERTURB.items():
            cfg = dataclasses.replace(LaunchConfig(), **{name: value})
            assert pairs_key(pairs, cfg) != pairs_key(pairs, LaunchConfig()), (
                f"perturbing LaunchConfig.{name} must change the key"
            )
        cluster = CompareOptions(backend="cluster")
        assert key(cluster.replace(hosts="10.0.0.1:9000")) == key(cluster)
        assert key(CompareOptions(), list(reversed(pairs))) != base
        assert key(CompareOptions(), pairs[1:]) != base

    def test_policy_perturbations_cover_every_field(self):
        assert set(_POLICY_PERTURB) == {
            f.name for f in dataclasses.fields(ExecutionPolicy)
        }, "new ExecutionPolicy field needs an invalidation perturbation"

    def test_config_perturbations_cover_every_field(self):
        assert set(_CONFIG_PERTURB) == {
            f.name for f in dataclasses.fields(LaunchConfig)
        }, "new LaunchConfig field needs an invalidation perturbation"

    def test_pairs_key_tracks_geometry_and_config(self, rng):
        pairs = [random_pair(rng) for _ in range(4)]
        other = [random_pair(rng) for _ in range(4)]
        cfg = LaunchConfig()
        base = pairs_key(pairs, cfg)
        assert pairs_key(pairs, cfg) == base  # deterministic
        assert pairs_key(other, cfg) != base
        assert pairs_key(list(reversed(pairs)), cfg) != base  # order matters
        assert pairs_key(pairs, LaunchConfig(block_size=32)) != base

    def test_pairs_key_of_a_list_and_its_batch_agree(self, rng):
        p, q = random_pair(rng)
        pairs = [(p, q), (q, p), (p, p)]
        cfg = LaunchConfig()
        assert pairs_key(PairBatch.from_pairs(pairs), cfg) == pairs_key(pairs, cfg)

    def test_pairs_key_sees_where_a_pair_boundary_falls(self):
        # The same left vertices, split 4 + 6 in one list and 6 + 4 in
        # the other: only the per-pair vertex counts tell them apart.
        verts = np.array(
            [(0, 0), (1, 0), (1, 1), (0, 1),
             (0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], dtype=np.int64
        )
        q = RectilinearPolygon.from_box(Box(0, 0, 3, 3))

        def split(at):
            return [
                (RectilinearPolygon(verts[:at], validate=False), q),
                (RectilinearPolygon(verts[at:], validate=False), q),
            ]

        cfg = LaunchConfig()
        assert pairs_key(split(4), cfg) != pairs_key(split(6), cfg)

    def test_config_token_is_stable(self):
        assert config_token(LaunchConfig()) == config_token(LaunchConfig())


# ----------------------------------------------------------------------
# Session tier: registry-driven hit == miss, bit for bit
# ----------------------------------------------------------------------

def _assert_identical(a, b):
    assert np.array_equal(a.intersection, b.intersection)
    assert np.array_equal(a.union, b.union)
    assert np.array_equal(a.area_p, b.area_p)
    assert np.array_equal(a.area_q, b.area_q)
    assert a.stats.as_dict() == b.stats.as_dict()


def _backend_cache_options(name: str) -> CompareOptions:
    extra = {}
    if name in ("cluster", "multiprocess"):
        extra = {"backend_options": {"workers": 2, "min_pairs": 1}}
    return CompareOptions(backend=name, cache=True, **extra)


@pytest.mark.parametrize("name", available_backends())
def test_cached_hit_is_bit_for_bit_cold_miss(name, pairs):
    """The tentpole contract, for every registered backend."""
    with Session(_backend_cache_options(name)) as session:
        cold = session.compare(pairs)
        warm = session.compare(pairs)
        _assert_identical(cold, warm)
        stats = session.cache_stats()
        assert stats["session.request"]["hits"] == 1
        assert stats["session.request"]["misses"] == 1


def test_session_answers_batch_from_a_multiprocess_entry(pairs):
    """The executor is not part of the key: an entry ``multiprocess``
    computed answers the same pairs on ``batch``, bit for bit."""
    with Session(_backend_cache_options("multiprocess")) as session:
        session.compare(pairs)
        hit = session.compare(pairs, _backend_cache_options("batch"))
        stats = session.cache_stats()["session.request"]
        assert (stats["hits"], stats["misses"]) == (1, 1)
    with Session(CompareOptions(backend="batch")) as fresh:
        _assert_identical(hit, fresh.compare(pairs))


def test_session_cache_off_by_default(pairs):
    with Session(CompareOptions(backend="batch")) as session:
        session.compare(pairs)
        assert session.cache_stats() == {}


def test_session_returned_arrays_are_isolated(pairs):
    """Mutating a returned result must never corrupt the cache."""
    with Session(CompareOptions(backend="batch", cache=True)) as session:
        first = session.compare(pairs)
        pristine = copy_areas(first)
        first.intersection[:] = -1
        first.union[:] = -1
        again = session.compare(pairs)
        _assert_identical(pristine, again)


def test_session_cache_invalidated_by_launch_params(pairs):
    with Session(CompareOptions(backend="batch", cache=True)) as session:
        session.compare(pairs)
        session.compare(
            pairs,
            CompareOptions(
                backend="batch", cache=True, tight_mbr=False
            ),
        )
        stats = session.cache_stats()
        assert stats["session.request"]["hits"] == 0
        assert stats["session.request"]["misses"] == 2


def test_session_stampede_computes_once(pairs):
    options = CompareOptions(backend="batch", cache=True)
    with Session(options) as session:
        calls = []
        gate = threading.Event()
        compare_pairs = session.backend.compare_pairs

        def slow_compare_pairs(pairs, config=None):
            calls.append(1)
            gate.wait(2.0)
            return compare_pairs(pairs, config)

        session.backend.compare_pairs = slow_compare_pairs
        results = []

        def worker():
            results.append(session.compare(pairs))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        time.sleep(0.1)  # all submitters join the same flight
        gate.set()
        for t in threads:
            t.join(10.0)
        assert len(calls) == 1
        assert len(results) == 6
        for r in results[1:]:
            _assert_identical(results[0], r)


def test_session_concurrent_launches_compute_each_key_once(rng):
    """More threads than cores over three pair lists, switching often:
    the dispatch lock and the lookup under it compute each list once,
    and every caller gets the cold answer, counters included."""
    lists = [[random_pair(rng) for _ in range(5)] for _ in range(3)]
    with Session(CompareOptions(backend="batch")) as plain:
        want = [plain.compare(p) for p in lists]
    with Session(CompareOptions(backend="batch", cache=True)) as session:
        launched = []
        compare_pairs = session.backend.compare_pairs

        def counting_compare_pairs(pairs, config=None):
            launched.append(len(pairs))
            time.sleep(0.02)  # long enough for the other threads to miss
            return compare_pairs(pairs, config)

        session.backend.compare_pairs = counting_compare_pairs
        results = {}

        def worker(t):
            results[t] = session.compare(lists[t % 3])

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(12)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(20.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
    assert launched == [5, 5, 5]
    assert sorted(results) == list(range(12))
    for t, got in results.items():
        _assert_identical(got, want[t % 3])


def test_session_backend_failure_fails_every_caller_then_recovers(pairs):
    """A launch that raises fails every concurrent caller of the same
    pairs, stores nothing, and the session answers the next call."""
    with Session(CompareOptions(backend="batch", cache=True)) as session:
        gate = threading.Event()
        broken = [True]
        compare_pairs = session.backend.compare_pairs

        def failing_compare_pairs(pairs, config=None):
            gate.wait(2.0)
            if broken[0]:
                raise ValueError("boom")
            return compare_pairs(pairs, config)

        session.backend.compare_pairs = failing_compare_pairs
        errors = []

        def worker():
            try:
                session.compare(pairs)
            except ValueError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        gate.set()
        for t in threads:
            t.join(10.0)
        assert errors == ["boom"] * 4
        assert session.cache_stats()["session.request"]["entries"] == 0
        broken[0] = False
        recovered = session.compare(pairs)
    with Session(CompareOptions(backend="batch")) as fresh:
        _assert_identical(recovered, fresh.compare(pairs))


def test_session_eviction_under_memory_bound(rng):
    """A budget smaller than two entries keeps exactly one resident."""
    batches = [[random_pair(rng) for _ in range(4)] for _ in range(3)]
    from repro.cache import areas_nbytes

    with Session(CompareOptions(backend="batch", cache=True)) as probe:
        one_entry = areas_nbytes(probe.compare(batches[0]))
    options = CompareOptions(
        backend="batch", cache=True, cache_bytes=int(one_entry * 1.5)
    )
    with Session(options) as session:
        for batch in batches:
            session.compare(batch)
        stats = session.cache_stats()["session.request"]
        assert stats["entries"] == 1
        assert stats["evictions"] == 2
        assert stats["current_bytes"] <= int(one_entry * 1.5)
        # The survivor is the most recent batch.
        session.compare(batches[-1])
        assert session.cache_stats()["session.request"]["hits"] == 1


def test_session_explain_reports_cache_plan(pairs):
    options = CompareOptions(backend="batch", cache=True)
    with Session(options) as session:
        request = CompareRequest.from_pairs(pairs, options)
        plan = session.explain(request)
        assert plan.cache["enabled"] is True
        assert plan.cache["would_hit"] is False
        session.compare(pairs)
        plan = session.explain(request)
        assert plan.cache["would_hit"] is True
        assert plan.cache["request_key"].startswith("request:")
        # explain() itself must not perturb the counters.
        assert session.cache_stats()["session.request"]["hits"] == 0


def test_module_explain_cache_section(pairs):
    from repro.api import explain

    plan = explain(CompareRequest.from_pairs(pairs, CompareOptions()))
    assert plan.cache == {
        "enabled": False,
        "cache_bytes": None,
        "request_key": None,
        "would_hit": None,
    }
    plan = explain(
        CompareRequest.from_pairs(pairs, CompareOptions(cache=True))
    )
    assert plan.cache["enabled"] is True
    assert plan.cache["request_key"] is not None
    assert plan.cache["would_hit"] is None  # no store to consult
    assert "cache" in plan.as_dict()


def test_clear_caches_resets_stores(pairs):
    with Session(CompareOptions(backend="batch", cache=True)) as session:
        session.compare(pairs)
        session.clear_caches()
        assert session.cache_stats()["session.request"]["entries"] == 0
        session.compare(pairs)  # recomputed: the entry really was dropped
        stats = session.cache_stats()["session.request"]
        assert stats["entries"] == 1
        assert stats["insertions"] == 2  # counters are cumulative
        assert stats["hits"] == 0


def test_explain_reports_no_key_for_per_tile_requests(tile_pair, small_dataset):
    """``sets`` and ``files`` are cached under each tile's candidate
    pairs, known only after the MBR join: the plan must not name a key
    nothing is ever stored under (it used to, and ``would_hit`` stayed
    False right before the request hit)."""
    options = CompareOptions(backend="batch", cache=True)
    requests = (
        CompareRequest.from_sets(*tile_pair, options),
        CompareRequest.from_files(*small_dataset, options),
    )
    with Session(options) as session:
        for request in requests:
            session.run(request)
            plan = session.explain(request)
            assert plan.cache["enabled"] is True
            assert plan.cache["request_key"] is None
            assert plan.cache["would_hit"] is None
            assert any("cached per tile" in note for note in plan.notes)
            before = session.cache_stats()["session.request"]["hits"]
            session.run(request)
            after = session.cache_stats()["session.request"]["hits"]
            assert after - before == (plan.tiles or 1)


# ----------------------------------------------------------------------
# Files requests: per tile, by content
# ----------------------------------------------------------------------

def _similarity(result):
    """Every field of a ``CompareResult`` but the measured ones."""
    return dataclasses.replace(result, wall_seconds=0.0, input_bytes=0)


@pytest.mark.parametrize("name", ["batch", "multiprocess"])
def test_files_requests_are_cached_per_tile_by_content(
    name, small_dataset, tmp_path
):
    from repro.io import pair_result_sets, read_polygons, write_polygons

    dir_a, dir_b = (
        shutil.copytree(src, tmp_path / src.name) for src in small_dataset
    )
    tiles = len(pair_result_sets(dir_a, dir_b))
    options = _backend_cache_options(name)
    with Session(options) as session:
        cold = session.compare_files(dir_a, dir_b)
        warm = session.compare_files(dir_a, dir_b)
        assert _similarity(warm) == _similarity(cold)
        stats = session.cache_stats()
        assert list(stats) == ["session.request"]
        assert stats["session.request"]["hits"] == tiles
        assert stats["session.request"]["misses"] == tiles

        # Same paths, new payload: only the rewritten tile recomputes.
        edited = pair_result_sets(dir_a, dir_b)[1].file_a
        write_polygons(edited, read_polygons(edited)[:-1])
        after_edit = session.compare_files(dir_a, dir_b)
        stats = session.cache_stats()["session.request"]
        assert stats["misses"] == tiles + 1
        assert stats["hits"] == 2 * tiles - 1
    with Session(options.replace(cache=False)) as fresh:
        assert _similarity(fresh.compare_files(dir_a, dir_b)) == (
            _similarity(after_edit)
        )
        assert fresh.cache_stats() == {}
    assert _similarity(after_edit) != _similarity(cold)


# ----------------------------------------------------------------------
# Service tier
# ----------------------------------------------------------------------

def _run(coro):
    return asyncio.run(coro)


def test_service_request_cache_hit_and_isolation(pairs):
    from repro.service import ComparisonService, ServiceConfig

    async def scenario():
        config = ServiceConfig(CompareOptions(backend="batch", cache=True))
        async with ComparisonService(config) as service:
            cold = await service.submit(pairs)
            warm = await service.submit(pairs)
            _assert_identical(cold, warm)
            cold.intersection[:] = -1  # callers may mutate their copy
            again = await service.submit(pairs)
            _assert_identical(warm, again)
            snap = service.snapshot()
            assert snap.request_cache_hits == 2
            assert snap.request_cache_misses == 1
            assert snap.caches["service.request"]["entries"] == 1
            assert snap.batches == 1  # one real dispatch for three requests

    _run(scenario())


def test_service_stampede_dedupes_within_batch(pairs):
    from repro.backends import BackendLifecycle, get_backend
    from repro.service import ComparisonService, ServiceConfig

    class CountingBackend(BackendLifecycle):
        description = "counting test backend"

        def __init__(self):
            self._inner = get_backend("batch")
            self.calls = 0
            self.pairs_seen = 0

        def compare_pairs(self, pairs, config=None):
            self.calls += 1
            self.pairs_seen += len(pairs)
            return self._inner.compare_pairs(pairs, config)

        def close(self):
            self._inner.close()

    backend = CountingBackend()

    async def scenario():
        config = ServiceConfig(
            CompareOptions(backend="batch", cache=True), coalesce_window=0.05
        )
        async with ComparisonService(config, backend=backend) as service:
            results = await asyncio.gather(
                *[service.submit(pairs) for _ in range(6)]
            )
            for r in results[1:]:
                _assert_identical(results[0], r)
            snap = service.snapshot()
            # All six coalesced into one dispatch carrying ONE copy of
            # the pairs: identical requests collapse to a leader.
            assert backend.pairs_seen == len(pairs)
            assert snap.request_cache_hits >= 5

    _run(scenario())
    assert backend.calls == 1


def test_service_config_carries_cache_knobs():
    from repro.service import ComparisonService, ServiceConfig

    options = CompareOptions(backend="batch", cache=True, cache_bytes=2**20)
    config = ServiceConfig(options)
    assert config.options is options
    assert ServiceConfig().options == CompareOptions()
    caches = ComparisonService(config).snapshot().caches
    assert caches["service.request"]["max_bytes"] == 2**20
    assert ComparisonService().snapshot().caches == {}
    with pytest.raises(RequestError):
        ServiceConfig(CompareOptions(cache_bytes=0))


def test_library_and_wire_submits_share_launch_parameters(pairs):
    """A library ``submit`` without a config runs the service options'
    launch parameters, as the same pairs sent over the wire do: one
    cache entry answers both, and the kernel counters are a Session's."""
    from repro.api.request import request_from_wire
    from repro.service import ComparisonService, ServiceConfig
    from repro.service.protocol import pairs_to_wire

    options = CompareOptions(block_size=32, cache=True)
    message = {"op": "compare", "pairs": pairs_to_wire(pairs)}

    async def scenario():
        async with ComparisonService(ServiceConfig(options)) as service:
            library = await service.submit(pairs)
            request = request_from_wire(message, service.config.options)
            wire = await service.submit(
                list(request.pairs), request.launch_config()
            )
            return library, wire, service.snapshot()

    library, wire, snap = _run(scenario())
    assert (snap.request_cache_misses, snap.request_cache_hits) == (1, 1)
    assert snap.batches == 1
    with Session(options) as session:
        want = session.compare(pairs)
    assert dict(snap.kernel) == want.stats.as_dict()
    for got in (library, wire):
        assert np.array_equal(got.intersection, want.intersection)
        assert np.array_equal(got.union, want.union)


def test_service_converts_each_request_once(pairs, monkeypatch):
    """A cache-enabled miss turns its pair list into a ``PairBatch``
    once, at admission: the key, the merged launch and the kernel all
    reuse it."""
    from repro.pixelbox import kernel
    from repro.service import ComparisonService, ServiceConfig

    lists = []
    from_pairs = kernel.PairBatch.from_pairs.__func__

    def spy(cls, pairs):
        if isinstance(pairs, list):
            lists.append(len(pairs))
        return from_pairs(cls, pairs)

    monkeypatch.setattr(kernel.PairBatch, "from_pairs", classmethod(spy))

    async def scenario():
        config = ServiceConfig(CompareOptions(cache=True))
        async with ComparisonService(config) as service:
            await service.submit(pairs)
            return service.snapshot()

    snap = _run(scenario())
    assert snap.request_cache_misses == 1
    assert lists == [len(pairs)]


def test_service_clear_caches(pairs):
    from repro.service import ComparisonService, ServiceConfig

    async def scenario():
        config = ServiceConfig(CompareOptions(backend="batch", cache=True))
        async with ComparisonService(config) as service:
            await service.submit(pairs)
            service.clear_caches()
            assert (
                service.snapshot().caches["service.request"]["entries"] == 0
            )
            await service.submit(pairs)
            snap = service.snapshot()
            assert snap.request_cache_hits == 0
            assert snap.request_cache_misses == 2

    _run(scenario())
