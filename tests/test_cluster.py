"""Cluster subsystem tests: wire protocol, caching, scheduling, faults.

The registry-introspecting parity harness (``test_backend_parity.py``)
already covers the ``cluster`` backend's results bit-for-bit — including
the degenerate-input sweep — because registering *is* opting in.  This
file covers what parity cannot: the wire protocol's defensive surface,
the once-per-worker-per-table-version transfer guarantee, and the
failure modes (crashed workers, stragglers, cache eviction, garbage on
the socket) that must degrade without changing a single output bit.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.backends import get_backend
from repro.cluster import (
    ClusterBackend,
    LoopbackCluster,
    Shard,
    ShardScheduler,
    ShardWorker,
    parse_hosts,
)
from repro.cluster import wire
from repro.cluster.scheduler import ShardOutcome
from repro.errors import (
    ClusterConfigError,
    ClusterError,
    ClusterProtocolError,
    KernelError,
)
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.pixelbox.common import KernelStats, LaunchConfig

from conftest import batched_areas


def _pairs(count: int = 40, seed: int = 20260731):
    """Small randomized polygon pairs plus handcrafted degenerates."""
    from repro.geometry.raster import extract_polygons, fill_holes

    rng = np.random.default_rng(seed)

    def one():
        while True:
            mask = fill_holes(rng.random((12, 14)) < 0.5)
            polys = extract_polygons(mask)
            if polys:
                return max(polys, key=lambda p: p.area)

    square = RectilinearPolygon.from_box(Box(0, 0, 8, 8))
    far = RectilinearPolygon.from_box(Box(100, 100, 108, 108))
    pairs = [(one(), one()) for _ in range(count - 2)]
    return pairs + [(square, square), (square, far)]


@pytest.fixture(scope="module")
def workload():
    pairs = _pairs()
    # Cluster shards run the batch policy: the same counters.
    return pairs, batched_areas(pairs)


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
def test_wire_roundtrip_arrays():
    arrays = {
        "a": np.arange(12, dtype=np.int64).reshape(3, 4),
        "b": np.zeros(0, dtype=np.int32),
        "c": np.array([True, False]),
    }
    frame = wire.pack_frame(wire.MsgType.PUT_TABLES, {"digest": "x"}, arrays)
    # Frame = fixed header + payload; strip the fixed header.
    header, decoded = wire.unpack_payload(frame[8:])
    assert header["digest"] == "x"
    for name, arr in arrays.items():
        assert np.array_equal(decoded[name], arr)
        assert decoded[name].dtype == arr.dtype


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"\x00\x00\x00\xffgarbage",
        b"\x00\x00\x00\x02{]",
        b"\x00\x00\x00\x04null",
    ],
)
def test_wire_rejects_malformed_payloads(payload):
    with pytest.raises(ClusterProtocolError):
        wire.unpack_payload(payload)


def test_wire_rejects_lying_manifest():
    frame = wire.pack_frame(
        wire.MsgType.PUT_TABLES, {}, {"a": np.arange(4, dtype=np.int64)}
    )
    payload = bytearray(frame[8:])
    # Corrupt the declared blob size in the manifest.
    mutated = bytes(payload).replace(b'32]', b'31]')
    with pytest.raises(ClusterProtocolError):
        wire.unpack_payload(mutated)


def test_bundle_digest_is_content_addressed():
    a = {"x": np.arange(8, dtype=np.int64)}
    b = {"x": np.arange(8, dtype=np.int64)}
    c = {"x": np.arange(8, dtype=np.int32)}  # same values, new dtype
    assert wire.bundle_digest(a) == wire.bundle_digest(b)
    assert wire.bundle_digest(a) != wire.bundle_digest(c)


def test_config_roundtrips_on_the_wire():
    cfg = LaunchConfig(block_size=16, pixel_threshold=9, tight_mbr=True)
    assert wire.config_from_wire(wire.config_to_wire(cfg)) == cfg
    with pytest.raises(ClusterProtocolError):
        wire.config_from_wire({"block_size": "huge"})
    with pytest.raises(ClusterProtocolError):
        wire.config_from_wire({"unknown_knob": 1})


# ----------------------------------------------------------------------
# Host-list validation (clear failures at configuration time)
# ----------------------------------------------------------------------
def test_parse_hosts_accepts_list_and_string():
    assert parse_hosts("a:1, b:2") == [("a", 1), ("b", 2)]
    assert parse_hosts(["a:1"]) == [("a", 1)]
    assert parse_hosts(None) == []


@pytest.mark.parametrize("bad", ["nonsense", "host:", ":42", "h:0", "h:notaport"])
def test_cluster_misconfiguration_fails_clearly(bad):
    with pytest.raises(ClusterConfigError):
        get_backend("cluster", hosts=bad)


def test_unknown_backend_option_names_the_backend():
    with pytest.raises(KernelError, match="'batch' rejected options"):
        get_backend("batch", hosts="a:1")


# ----------------------------------------------------------------------
# Transfer counting: tables travel once per worker per table version
# ----------------------------------------------------------------------
def test_tables_sent_once_per_worker_per_version(workload):
    pairs, ref = workload
    with LoopbackCluster(2) as cluster:
        backend = get_backend("cluster", hosts=cluster.hosts, min_pairs=1)
        try:
            for _ in range(3):  # same table version three times
                result = backend.compare_pairs(pairs)
                assert np.array_equal(result.intersection, ref.intersection)
                assert np.array_equal(result.union, ref.union)
            assert backend.table_transfers == 2  # once per worker, total
            assert sum(w.tables_received for w in cluster.workers) == 2

            # A different config changes the start boxes -> a new table
            # version -> exactly one more transfer per worker.
            cfg = LaunchConfig(tight_mbr=True)
            ref2 = get_backend("batch").compare_pairs(pairs, cfg)
            result = backend.compare_pairs(pairs, cfg)
            assert np.array_equal(result.intersection, ref2.intersection)
            assert backend.table_transfers == 4
        finally:
            backend.close()


def test_worker_cache_survives_coordinator_reconnect(workload):
    pairs, ref = workload
    with LoopbackCluster(1) as cluster:
        backend = get_backend("cluster", hosts=cluster.hosts, min_pairs=1)
        try:
            backend.compare_pairs(pairs)
            assert backend.table_transfers == 1
        finally:
            backend.close()
        # A fresh coordinator learns the cached digests from HELLO_ACK
        # and pays zero transfers for the same table version.
        backend2 = get_backend("cluster", hosts=cluster.hosts, min_pairs=1)
        try:
            result = backend2.compare_pairs(pairs)
            assert np.array_equal(result.intersection, ref.intersection)
            assert backend2.table_transfers == 0
        finally:
            backend2.close()


def test_table_cache_eviction_triggers_resend(workload):
    pairs_a, ref_a = workload
    pairs_b = _pairs(count=30, seed=777)
    ref_b = get_backend("batch").compare_pairs(pairs_b)
    with LoopbackCluster(1, max_tables=1) as cluster:
        worker = cluster.workers[0]
        backend = get_backend("cluster", hosts=cluster.hosts, min_pairs=1)
        try:
            for _ in range(2):  # A, B, A, B: each call evicts the other
                res_a = backend.compare_pairs(pairs_a)
                res_b = backend.compare_pairs(pairs_b)
                assert np.array_equal(res_a.intersection, ref_a.intersection)
                assert np.array_equal(res_b.intersection, ref_b.intersection)
            assert worker.tables_evicted >= 3
            assert backend.table_transfers == 4
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class _CrashingWorker(ShardWorker):
    """Dies (listener and connection) on its first RUN_SHARD."""

    def _before_shard(self, header):
        self.stop()
        raise ConnectionResetError("worker killed mid-shard")


class _SlowWorker(ShardWorker):
    """Holds every shard long enough to look like a straggler."""

    delay = 0.6

    def _before_shard(self, header):
        time.sleep(self.delay)


def test_worker_crash_mid_shard_does_not_change_results(workload):
    pairs, ref = workload
    crasher = _CrashingWorker().start()
    healthy = ShardWorker().start()
    hosts = [
        "%s:%d" % crasher.address,
        "%s:%d" % healthy.address,
    ]
    backend = get_backend(
        "cluster",
        hosts=hosts,
        min_pairs=1,
        shard_pairs=8,
        # Long speculation fuse: recovery must come from failure
        # re-dispatch, not from speculation racing ahead of it.
        speculation_delay=5.0,
    )
    try:
        result = backend.compare_pairs(pairs)
        assert np.array_equal(result.intersection, ref.intersection)
        assert np.array_equal(result.union, ref.union)
        assert result.stats.as_dict() == ref.stats.as_dict()
        assert backend.last_report.worker_failures >= 1
        assert healthy.shards_run >= 1
    finally:
        backend.close()
        healthy.stop()
        crasher.stop()


def test_all_workers_dead_falls_back_to_local(workload):
    pairs, ref = workload
    crasher_a = _CrashingWorker().start()
    crasher_b = _CrashingWorker().start()
    hosts = ["%s:%d" % crasher_a.address, "%s:%d" % crasher_b.address]
    backend = get_backend(
        "cluster", hosts=hosts, min_pairs=1, shard_pairs=16
    )
    try:
        result = backend.compare_pairs(pairs)  # must not hang or fail
        assert np.array_equal(result.intersection, ref.intersection)
        assert result.stats.as_dict() == ref.stats.as_dict()
        assert backend.last_report.local_shards >= 1
    finally:
        backend.close()
        crasher_a.stop()
        crasher_b.stop()


def test_slow_worker_triggers_speculative_redispatch(workload):
    pairs, ref = workload
    slow = _SlowWorker().start()
    fast = ShardWorker().start()
    hosts = ["%s:%d" % slow.address, "%s:%d" % fast.address]
    backend = get_backend(
        "cluster",
        hosts=hosts,
        min_pairs=1,
        shard_pairs=len(pairs) // 2,
        speculation_delay=0.05,
    )
    try:
        t0 = time.perf_counter()
        result = backend.compare_pairs(pairs)
        elapsed = time.perf_counter() - t0
        assert np.array_equal(result.intersection, ref.intersection)
        assert result.stats.as_dict() == ref.stats.as_dict()
        assert backend.last_report.speculative >= 1
        # The fast worker's speculative copies finish the request well
        # before the straggler would have served its second shard.
        assert elapsed < 2 * _SlowWorker.delay
    finally:
        backend.close()
        slow.stop()
        fast.stop()


def test_protocol_garbage_is_a_clean_client_error(workload):
    pairs, ref = workload
    with LoopbackCluster(1) as cluster:
        host, port = cluster.workers[0].address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: nope\r\n\r\n")
            msgtype, header, _ = wire.recv_frame(sock)
            assert msgtype == wire.MsgType.ERROR
            assert header["kind"] == "bad-request"
            # The worker dropped this connection (framing lost) ...
            try:
                assert sock.recv(1) == b""
            except ConnectionError:
                pass  # RST instead of FIN: also a drop
        assert cluster.workers[0].protocol_errors == 1
        # ... but keeps serving everyone else, correctly.
        backend = get_backend("cluster", hosts=cluster.hosts, min_pairs=1)
        try:
            result = backend.compare_pairs(pairs)
            assert np.array_equal(result.intersection, ref.intersection)
        finally:
            backend.close()


def test_worker_rejects_run_shard_for_unknown_digest():
    with LoopbackCluster(1) as cluster:
        host, port = cluster.workers[0].address
        with socket.create_connection((host, port), timeout=5) as sock:
            wire.send_frame(
                sock,
                wire.MsgType.RUN_SHARD,
                {"digest": "missing", "lo": 0, "hi": 1},
            )
            msgtype, header, _ = wire.recv_frame(sock)
            assert msgtype == wire.MsgType.ERROR
            assert header["kind"] == "missing-tables"


def test_worker_rejects_a_bundle_with_a_missing_array(workload):
    """PUT_TABLES validates through ``ShardInput.from_arrays``: a typed
    protocol error naming the array, and the worker keeps serving."""
    from repro.pixelbox.kernel import ExecutionPolicy, ShardInput

    pairs, _ = workload
    arrays = ShardInput.build(
        pairs[:4], ExecutionPolicy(), LaunchConfig()
    ).to_arrays()
    del arrays["q.offsets"]
    with LoopbackCluster(1) as cluster:
        worker = cluster.workers[0]
        with pytest.raises(ClusterProtocolError, match="q.offsets"):
            worker._put_tables({"digest": "d"}, arrays)
        with socket.create_connection(worker.address, timeout=5) as sock:
            wire.send_frame(sock, wire.MsgType.PUT_TABLES, {"digest": "d"}, arrays)
            msgtype, header, _ = wire.recv_frame(sock)
            assert msgtype == wire.MsgType.ERROR
            assert header["kind"] == "bad-request"
            assert "q.offsets" in header["error"]
            wire.send_frame(sock, wire.MsgType.HAS_TABLES, {"digest": "d"})
            msgtype, header, _ = wire.recv_frame(sock)
            assert msgtype == wire.MsgType.TABLES_ACK and not header["cached"]


# ----------------------------------------------------------------------
# Scheduler unit behavior (no sockets)
# ----------------------------------------------------------------------
def _outcome(shard: Shard) -> ShardOutcome:
    inter = np.arange(shard.lo, shard.hi, dtype=np.int64)
    return ShardOutcome(inter=inter, stats=KernelStats(pairs=shard.size))


def test_scheduler_with_no_workers_runs_everything_locally():
    shards = [Shard(0, 0, 5), Shard(1, 5, 9)]
    scheduler = ShardScheduler(
        run=lambda worker, shard: (_ for _ in ()).throw(
            ClusterError("unreachable")
        ),
        local_run=_outcome,
    )
    outcomes, report = scheduler.execute(shards, [])
    assert sorted(outcomes) == [0, 1]
    assert report.local_shards == 2
    assert np.array_equal(outcomes[1].inter, np.arange(5, 9))


def test_scheduler_first_result_wins_charges_one_execution():
    """Duplicate executions of one shard must not double work counters."""
    shards = [Shard(i, i * 4, i * 4 + 4) for i in range(3)]
    calls = []
    lock = threading.Lock()

    def run(worker, shard):
        with lock:
            calls.append((worker, shard.index))
        if worker == "slow":
            time.sleep(0.4)
        return _outcome(shard)

    scheduler = ShardScheduler(
        run, _outcome, speculation_delay=0.05, speculation_factor=1.5
    )
    outcomes, report = scheduler.execute(shards, ["slow", "fast"])
    total_pairs = sum(o.stats.pairs for o in outcomes.values())
    assert total_pairs == sum(s.size for s in shards)
    assert report.dispatches >= 3


# ----------------------------------------------------------------------
# Service integration: the queue/coalescer sit above the cluster
# ----------------------------------------------------------------------
def test_service_serves_from_cluster_backend(workload):
    import asyncio

    from repro.service import ComparisonService, ServiceConfig

    pairs, ref = workload

    async def main():
        config = ServiceConfig(
            backend="cluster",
            backend_options={"min_pairs": 1, "loopback_workers": 2},
        )
        async with ComparisonService(config) as service:
            assert service.backend.capabilities().persistent_pooling
            results = await asyncio.gather(
                *(service.submit(pairs[i::4]) for i in range(4))
            )
            return results

    results = asyncio.run(main())
    for i, result in enumerate(results):
        expect = ref.intersection[i::4]
        assert np.array_equal(result.intersection, expect)


def test_service_warm_failure_is_a_service_error():
    import asyncio

    from repro.errors import ServiceError
    from repro.service import ComparisonService, ServiceConfig

    async def main():
        config = ServiceConfig(
            backend="cluster",
            # A port nothing listens on: startup must fail loudly.
            backend_options={"hosts": "127.0.0.1:9", "connect_timeout": 0.2},
        )
        with pytest.raises(ServiceError, match="failed to warm"):
            async with ComparisonService(config):
                pass  # pragma: no cover

    asyncio.run(main())


def test_cluster_warm_reports_reachable_workers():
    with LoopbackCluster(2) as cluster:
        backend = ClusterBackend(hosts=cluster.hosts)
        try:
            assert sorted(backend.warm()) == sorted(cluster.hosts)
        finally:
            backend.close()
    backend = ClusterBackend(hosts="127.0.0.1:9", connect_timeout=0.2)
    try:
        with pytest.raises(ClusterError, match="no cluster workers"):
            backend.warm()
    finally:
        backend.close()
