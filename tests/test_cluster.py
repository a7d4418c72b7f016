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
import struct
import threading
import time

import numpy as np
import pytest

from repro.api import CompareOptions
from repro.backends import get_backend
from repro.cluster import (
    ClusterBackend,
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

from conftest import LoopbackCluster, batched_areas


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
    # 40 pairs: with min_pairs=1, two workers get 8 shards of 5 pairs.
    pairs = _pairs()
    # Cluster shards run the batch policy: the same counters.
    return pairs, batched_areas(pairs)


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
def _frame_bytes(msgtype, header, arrays=None) -> bytes:
    """The bytes ``send_frame`` puts on the wire for one frame."""
    a, b = socket.socketpair()
    with a, b:
        size = wire.send_frame(a, msgtype, header, arrays)
        data = bytearray()
        while len(data) < size:
            data += b.recv(size - len(data))
    return bytes(data)


def _recv_bytes(data: bytes):
    """``recv_frame`` over a peer that wrote ``data`` and hung up."""
    a, b = socket.socketpair()
    with a, b:
        a.sendall(data)
        a.close()
        return wire.recv_frame(b)


def test_wire_roundtrip_arrays():
    arrays = {
        "a": np.arange(12, dtype=np.int64).reshape(3, 4),
        "b": np.zeros(0, dtype=np.int32),
        "c": np.array([True, False]),
        "d": np.arange(5, dtype=np.int32),
    }
    msgtype, header, decoded = _recv_bytes(
        _frame_bytes(wire.MsgType.PUT_TABLES, {"digest": "x"}, arrays)
    )
    assert msgtype == wire.MsgType.PUT_TABLES
    assert header == {"digest": "x"}
    for name, arr in arrays.items():
        assert np.array_equal(decoded[name], arr)
        assert decoded[name].dtype == arr.dtype
        # Views into one receive buffer, each aligned to its item size.
        assert decoded[name].flags.aligned


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
    head = struct.pack(">2sBBI", b"RC", 1, wire.MsgType.PUT_TABLES, len(payload))
    with pytest.raises(ClusterProtocolError):
        _recv_bytes(head + payload)


def test_wire_rejects_lying_manifest():
    frame = _frame_bytes(
        wire.MsgType.PUT_TABLES, {}, {"a": np.arange(4, dtype=np.int64)}
    )
    # Corrupt the declared blob size in the manifest.
    mutated = frame.replace(b"32]", b"31]")
    with pytest.raises(ClusterProtocolError):
        _recv_bytes(mutated)


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
    """Dies (listener and connection) at once on its first RUN_SHARD."""

    def _before_shard(self, header):
        # stop() joins the accept loop (up to one 0.25 s poll); off this
        # thread, the connection drops now, as in a real crash, and not
        # after the speculation floor has let another copy win.
        threading.Thread(target=self.stop, daemon=True).start()
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
    backend = get_backend("cluster", hosts=hosts, min_pairs=1)
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
    backend = get_backend("cluster", hosts=hosts, min_pairs=1)
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
    backend = get_backend("cluster", hosts=hosts, min_pairs=1)
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


def test_a_lost_copy_leaves_every_worker_available(workload):
    """The straggler's copy is cancelled when the fast copy wins: not a
    failure, no backoff, even once the straggler's late reply lands."""
    pairs, ref = workload
    slow = _SlowWorker().start()
    fast = ShardWorker().start()
    hosts = ["%s:%d" % slow.address, "%s:%d" % fast.address]
    backend = get_backend("cluster", hosts=hosts, min_pairs=1)
    try:
        result = backend.compare_pairs(pairs)
        assert np.array_equal(result.intersection, ref.intersection)
        assert result.stats.as_dict() == ref.stats.as_dict()
        report = backend.last_report
        assert report.speculative >= 1
        assert report.worker_failures == 0
        # Wait for the straggler to finish its copy and reply.
        deadline = time.monotonic() + 10
        while slow.shards_run < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)
        assert all(client.available() for client in backend._clients)
        assert report.worker_failures == 0  # the returned report is final
    finally:
        backend.close()
        slow.stop()
        fast.stop()


class _FloatAreasWorker(ShardWorker):
    """Replies with float areas, each half a pixel short."""

    def _execute_shard(self, bundle, lo, hi, cfg):
        inter, stats = super()._execute_shard(bundle, lo, hi, cfg)
        return inter.astype(np.float64) - 0.5, stats


class _UnknownCounterWorker(ShardWorker):
    """Replies with a work counter ``KernelStats`` does not have."""

    def _execute_shard(self, bundle, lo, hi, cfg):
        inter, stats = super()._execute_shard(bundle, lo, hi, cfg)
        return inter, {**stats, "warp_stalls": 1}


@pytest.mark.parametrize("bad_worker", [_FloatAreasWorker, _UnknownCounterWorker])
def test_a_malformed_shard_result_fails_its_worker(workload, bad_worker):
    pairs, ref = workload
    bad = bad_worker().start()
    healthy = ShardWorker().start()
    hosts = ["%s:%d" % bad.address, "%s:%d" % healthy.address]
    backend = get_backend("cluster", hosts=hosts, min_pairs=1)
    try:
        result = backend.compare_pairs(pairs)
        assert np.array_equal(result.intersection, ref.intersection)
        assert np.array_equal(result.union, ref.union)
        assert result.stats.as_dict() == ref.stats.as_dict()
        assert backend.last_report.worker_failures == 1
        assert [c.available() for c in backend._clients] == [False, True]
    finally:
        backend.close()
        healthy.stop()
        bad.stop()


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
            # Nothing was installed: a shard over it is missing-tables.
            wire.send_frame(
                sock, wire.MsgType.RUN_SHARD, {"digest": "d", "lo": 0, "hi": 1}
            )
            msgtype, header, _ = wire.recv_frame(sock)
            assert msgtype == wire.MsgType.ERROR
            assert header["kind"] == "missing-tables"


def _reshape(key, fn):
    """A bundle mutation replacing array ``key`` by ``fn(array)``."""
    return lambda arrays: arrays.update({key: fn(arrays[key])})


def _empty_routed_box(arrays):
    boxes = arrays["boxes"].copy()
    row = int(np.flatnonzero(arrays["has_box"])[0])
    boxes[row, 2] = boxes[row, 0]
    arrays["boxes"] = boxes


_MALFORMED_BUNDLES = {
    "xs-int64": _reshape("p.xs", lambda a: a.astype(np.int64)),
    "xs-2d": _reshape("p.xs", lambda a: a.reshape(1, -1)),
    "lo-short": _reshape("q.lo", lambda a: a[:-1]),
    "xhi-long": _reshape("p.xhi", lambda a: np.append(a, a[:1])),
    "offsets-int32": _reshape("q.offsets", lambda a: a.astype(np.int32)),
    "offsets-not-from-0": _reshape("p.offsets", lambda a: a + 1),
    "offsets-falling": _reshape("p.offsets", lambda a: a[[0, 2, 1, 3, 4]]),
    "offsets-past-the-end": _reshape(
        "q.offsets", lambda a: np.append(a[:-1], a[-1] + 5)
    ),
    "offsets-count": _reshape("p.offsets", lambda a: np.append(a, a[-1])),
    "boxes-int32": _reshape("boxes", lambda a: a.astype(np.int32)),
    "boxes-shape": _reshape("boxes", lambda a: a[:, :3]),
    "has-box-uint8": _reshape("has_box", lambda a: a.astype(np.uint8)),
    "has-box-count": _reshape("has_box", lambda a: a[:-1]),
    "empty-routed-box": _empty_routed_box,
}


@pytest.mark.parametrize("bad", sorted(_MALFORMED_BUNDLES))
def test_worker_rejects_a_malformed_bundle_and_keeps_serving(workload, bad):
    """A PUT_TABLES bundle comes from outside the program and native code
    indexes it: every malformed layout is a typed protocol error, and the
    same worker then answers a valid shard bit for bit."""
    from repro.pixelbox.kernel import BATCH_POLICY, ShardInput

    pairs, ref = workload
    arrays = ShardInput.build(pairs[:4], BATCH_POLICY, LaunchConfig()).to_arrays()
    malformed = dict(arrays)
    _MALFORMED_BUNDLES[bad](malformed)
    with LoopbackCluster(1) as cluster:
        worker = cluster.workers[0]
        with pytest.raises(ClusterProtocolError, match="shard bundle"):
            worker._put_tables({"digest": "bad"}, malformed)
        with socket.create_connection(worker.address, timeout=5) as sock:
            wire.send_frame(sock, wire.MsgType.PUT_TABLES, {"digest": "ok"}, arrays)
            assert wire.recv_frame(sock)[1] == {"cached": True, "digest": "ok"}
            wire.send_frame(
                sock, wire.MsgType.RUN_SHARD, {"digest": "ok", "lo": 0, "hi": 4}
            )
            msgtype, header, result = wire.recv_frame(sock)
    assert msgtype == wire.MsgType.SHARD_RESULT, header
    assert result["inter"].tolist() == ref.intersection[:4].tolist()


# ----------------------------------------------------------------------
# Scheduler unit behavior (no sockets)
# ----------------------------------------------------------------------
def _outcome(shard: Shard) -> ShardOutcome:
    inter = np.arange(shard.lo, shard.hi, dtype=np.int64)
    return ShardOutcome(inter=inter, stats=KernelStats(pairs=shard.size))


def _unreachable(*args):
    raise AssertionError("no worker to call")


def test_scheduler_with_no_workers_runs_everything_locally():
    shards = [Shard(0, 0, 5), Shard(1, 5, 9)]
    scheduler = ShardScheduler(
        run=_unreachable, local_run=_outcome, cancel=_unreachable
    )
    outcomes, report = scheduler.execute(shards, [])
    assert sorted(outcomes) == [0, 1]
    assert report.local_shards == 2
    assert np.array_equal(outcomes[1].inter, np.arange(5, 9))


def test_scheduler_cancels_a_lost_copy_instead_of_failing_its_worker():
    """The straggler's copy is interrupted when the speculative copy wins;
    it then raises, as an aborted socket read does, and is dropped."""
    release = threading.Event()
    cancelled = []

    def run(worker, shard):
        if worker == "slow":
            release.wait(10)
            raise ClusterError("connection shut down")
        return _outcome(shard)

    def cancel(worker):
        cancelled.append(worker)
        release.set()

    outcomes, report = ShardScheduler(run, _outcome, cancel).execute(
        [Shard(0, 0, 4)], ["slow", "fast"]
    )
    assert cancelled == ["slow"]
    assert report.failed == [] and report.worker_failures == 0
    assert (report.dispatches, report.speculative) == (2, 1)
    assert outcomes[0].stats.pairs == 4


# ----------------------------------------------------------------------
# Service integration: the queue/coalescer sit above the cluster
# ----------------------------------------------------------------------
def test_service_serves_from_cluster_backend(workload):
    import asyncio

    from repro.service import ComparisonService, ServiceConfig

    pairs, ref = workload

    async def main():
        config = ServiceConfig(
            CompareOptions(
                backend="cluster",
                backend_options={"min_pairs": 1, "workers": 2},
            )
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
            CompareOptions(
                backend="cluster",
                # A port nothing listens on: startup must fail loudly.
                backend_options={"hosts": "127.0.0.1:9", "connect_timeout": 0.2},
            )
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
