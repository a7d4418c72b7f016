"""The observability layer: tracing, events, metrics, and their seams.

Four families of guarantees:

* the :mod:`repro.obs` primitives themselves (span nesting, the event
  ring, Prometheus text exposition validity);
* cross-process span stitching — one traced cluster request against a
  real loopback worker yields a single tree under one trace id, remote
  worker/kernel spans included;
* the tracing-off hot path — ``ChunkKernel.run_shard`` without an
  active tracer must not allocate a single byte in ``repro/obs``;
* the satellite seams: per-worker counters surfaced through the
  coordinator, the service's kernel/latency/worker metric families.
"""

from __future__ import annotations

import asyncio
import io
import json
import re
import threading
import tracemalloc
import urllib.request

import numpy as np

from repro.api import CompareOptions, CompareRequest
from repro.backends import get_backend
from repro.geometry.polygon import Box, RectilinearPolygon
from repro.obs import (
    EventLog,
    Histogram,
    MetricsServer,
    Tracer,
    activate,
    current_context,
    current_tracer,
    load_trace_file,
    render_snapshot,
    render_spans,
    render_trace_file,
    span,
)
from repro.obs.export import render_families
from repro.pixelbox.common import KernelStats, LaunchConfig
from repro.pixelbox.kernel import ChunkKernel, ExecutionPolicy, ShardInput
from repro.service.core import ComparisonService, ServiceConfig
from repro.session import Session

from conftest import LoopbackCluster


def _pairs(count: int = 12, seed: int = 7):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        x, y = int(rng.integers(0, 200)), int(rng.integers(0, 200))
        out.append(
            (
                RectilinearPolygon.from_box(Box(x, y, x + 16, y + 16)),
                RectilinearPolygon.from_box(Box(x + 4, y + 4, x + 20, y + 20)),
            )
        )
    return out


# ----------------------------------------------------------------------
# Tracer primitives
# ----------------------------------------------------------------------
def test_spans_nest_and_link_parents():
    tracer = Tracer()
    with activate(tracer):
        with tracer.span("root", kind="test"):
            with tracer.span("child"):
                with tracer.span("grandchild") as g:
                    g.set(extra=1)
            with tracer.span("sibling"):
                pass
    records = {r.name: r for r in tracer.records()}
    assert set(records) == {"root", "child", "grandchild", "sibling"}
    assert records["root"].parent_id is None
    assert records["child"].parent_id == records["root"].span_id
    assert records["grandchild"].parent_id == records["child"].span_id
    assert records["sibling"].parent_id == records["root"].span_id
    assert records["grandchild"].attrs["extra"] == 1
    assert all(r.trace_id == tracer.trace_id for r in tracer.records())
    assert all(r.duration >= 0 for r in tracer.records())


def test_context_is_inactive_by_default():
    assert current_tracer() is None
    assert current_context() is None
    # The off path allocates no span: one shared no-op for every call.
    assert span("a", k=1) is span("b")
    with span("a") as off:
        off.set(ignored=True)
    tracer = Tracer()
    with activate(tracer):
        assert current_tracer() is tracer
        with span("on") as active:
            active.set(seen=True)
    assert current_tracer() is None
    assert [(r.name, r.attrs) for r in tracer.records()] == [
        ("on", {"seen": True})
    ]


def test_adopt_merges_foreign_spans():
    tracer = Tracer()
    with activate(tracer):
        with tracer.span("local"):
            pass
    foreign = Tracer(tracer.trace_id)
    with activate(foreign):
        with foreign.span("remote"):
            pass
    tracer.adopt(foreign.as_dicts())
    assert {r.name for r in tracer.records()} == {"local", "remote"}
    assert len({r.trace_id for r in tracer.records()}) == 1


def test_span_records_roundtrip_as_dicts():
    tracer = Tracer()
    with activate(tracer):
        with tracer.span("one", worker="w0"):
            pass
    clone = Tracer(tracer.trace_id)
    clone.adopt(json.loads(json.dumps(tracer.as_dicts())))
    assert clone.as_dicts() == tracer.as_dicts()


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------
def test_event_ring_and_sink():
    log = EventLog(ring_size=4)
    sink = io.StringIO()
    log.add_sink(sink)
    for i in range(6):
        log.record("tick", n=i)
    tail = log.tail(10)
    assert len(tail) == 4  # ring bound
    assert [e["n"] for e in tail] == [2, 3, 4, 5]
    assert all(e["kind"] == "tick" and "ts" in e for e in tail)
    # Sinks see every event, not just the ring's survivors.
    lines = [json.loads(l) for l in sink.getvalue().splitlines()]
    assert [e["n"] for e in lines] == list(range(6))
    log.remove_sink(sink)
    log.record("tick", n=99)
    assert len(sink.getvalue().splitlines()) == 6


def test_event_tail_filters_by_kind():
    log = EventLog(ring_size=16)
    log.record("a", x=1)
    log.record("b", x=2)
    log.record("a", x=3)
    assert [e["x"] for e in log.tail(10, kind="a")] == [1, 3]


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9eE+.\-]+$|'
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \+Inf$'
)


def assert_valid_exposition(text: str) -> None:
    """Every line is a comment or a well-formed sample line."""
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _SAMPLE_LINE.match(line), f"malformed sample line: {line!r}"


def test_render_families_escapes_labels():
    name = "repro_test_labelled_total"
    text = render_families(
        [(name, "counter", "labelled", [(name, {"tier": 'we"ird\\tier\n'}, 1.0)])]
    )
    assert_valid_exposition(text)
    assert f"# TYPE {name} counter" in text
    # Label escaping: quote, backslash, newline all survive.
    assert '\\"' in text and "\\\\" in text and "\\n" in text


def test_histogram_buckets_are_cumulative():
    hist = Histogram("h_seconds", "x", buckets=(0.5, 2.5))
    for v in (0.4, 1.5, 1.7, 9.0):
        hist.observe(v)
    snap = hist.snapshot()
    assert snap["buckets"]["0.5"] == 1
    assert snap["buckets"]["2.5"] == 3
    assert snap["buckets"]["+Inf"] == 4
    assert snap["count"] == 4


def test_render_spans_tree_percentages_and_orphans():
    tracer = Tracer()
    with activate(tracer):
        with tracer.span("root"):
            with tracer.span("inner"):
                pass
    rows = tracer.as_dicts()
    # An orphan (parent id that never arrives) is promoted to a root.
    rows.append(
        dict(rows[0], span_id="ffff", parent_id="missing", name="lost")
    )
    fh = io.StringIO(
        "\n".join(json.dumps(dict(r, kind="span")) for r in rows) + "\n"
        + "not json\n"  # garbage lines are tolerated
        + json.dumps({"kind": "cache.lookup", "tier": "x"}) + "\n"
    )
    records = load_trace_file(fh)
    assert len(records) == 3
    text = render_spans(records)
    assert "root" in text and "inner" in text and "lost" in text
    assert "100.0%" in text


# ----------------------------------------------------------------------
# Cross-process stitching: one tree from a real loopback round-trip
# ----------------------------------------------------------------------
def test_cluster_trace_stitches_into_one_tree():
    pairs = _pairs(24)
    with LoopbackCluster(1) as cluster:
        backend = get_backend("cluster", hosts=cluster.hosts, min_pairs=1)
        try:
            tracer = Tracer()
            with activate(tracer):
                with tracer.span("session.run", kind="pairs"):
                    backend.compare_pairs(pairs)
        finally:
            backend.close()
    records = tracer.records()
    names = {r.name for r in records}
    # The remote hop contributed its spans to the same tree.
    assert {"session.run", "cluster.remote_shard", "worker.run_shard",
            "kernel.run_shard"} <= names
    assert {r.trace_id for r in records} == {tracer.trace_id}
    by_id = {r.span_id: r for r in records}
    orphans = [
        r.name
        for r in records
        if r.parent_id is not None and r.parent_id not in by_id
    ]
    assert orphans == []
    # worker.run_shard hangs off the coordinator's remote-shard span,
    # kernel.run_shard off the worker's: the wire carried the lineage.
    worker = next(r for r in records if r.name == "worker.run_shard")
    assert by_id[worker.parent_id].name == "cluster.remote_shard"
    kernel = next(r for r in records if r.name == "kernel.run_shard")
    assert by_id[kernel.parent_id].name == "worker.run_shard"


def test_session_trace_out_writes_replayable_jsonl(tmp_path):
    out = tmp_path / "trace.jsonl"
    options = CompareOptions(trace_out=str(out))
    assert options.trace  # trace_out implies trace
    with Session(options) as session:
        session.run(CompareRequest.from_pairs(_pairs(6), options))
        trace_id = session.last_trace.trace_id
    with open(out, encoding="utf-8") as fh:
        records = load_trace_file(fh)
    assert {r.trace_id for r in records} == {trace_id}
    assert "session.run" in {r.name for r in records}
    assert "session.run" in render_spans(records)


def test_untraced_sessions_share_no_state():
    with Session() as session:
        session.run(CompareRequest.from_pairs(_pairs(4)))
        assert session.last_trace is None


def test_traced_compare_files_has_stage_spans_matching_the_clock(tmp_path):
    """One instrumentation point per stage: a traced ``compare_files``
    shows every tile's stages under ``pipeline.run``."""
    from repro.data.datasets import DatasetSpec, generate_dataset

    dir_a, dir_b = generate_dataset(
        DatasetSpec(name="traced", tiles=3, nuclei_per_tile=25,
                    tile_width=256, tile_height=256, seed=5),
        tmp_path,
    )

    def stage_spans(records):
        by_id = {r.span_id: r for r in records}
        (run,) = [r for r in records if r.name == "pipeline.run"]

        def under_run(record):
            while record.parent_id in by_id:
                record = by_id[record.parent_id]
                if record is run:
                    return True
            return False

        out = {}
        for stage, at_least in (
            ("parser", 3), ("builder", 3), ("filter", 3), ("aggregator", 1)
        ):
            out[stage] = [r for r in records if r.name == f"pipeline.{stage}"]
            assert len(out[stage]) >= at_least, stage
            assert all(under_run(r) for r in out[stage]), stage
        return out

    out = tmp_path / "trace.jsonl"
    with Session() as session:
        session.compare_files(dir_a, dir_b)
        assert session.last_trace is None  # untraced: no span opened
        session.compare_files(
            dir_a, dir_b, CompareOptions(trace_out=str(out))
        )
        stages = stage_spans(session.last_trace.records())
    with open(out, encoding="utf-8") as fh:
        shown = render_trace_file(fh)
    for stage in stages:
        assert f"pipeline.{stage}" in shown.split("by stage")[1]


class TestStageClock:
    def test_concurrent_adds_sum_exactly(self):
        """Every stage thread charges the one shared clock; a lost update
        would leave the totals short."""
        import sys

        from repro.obs.clock import StageClock

        timers = StageClock()
        threads_n, adds = 8, 5000

        def work():
            for _ in range(adds):
                timers.add("parser", 1.0)
                with timers.measure("builder"):
                    pass
                timers.count("migrated_gpu_tasks")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert timers.seconds("parser") == threads_n * adds
        assert timers.counts["builder"] == threads_n * adds
        assert timers.counts["migrated_gpu_tasks"] == threads_n * adds


# ----------------------------------------------------------------------
# The off path: tracing disabled must cost the kernel loop nothing
# ----------------------------------------------------------------------
def test_tracing_off_adds_zero_obs_allocations_to_run_shard():
    pairs = _pairs(16)
    kernel = ChunkKernel(ExecutionPolicy(), LaunchConfig())
    shard = ShardInput.build(pairs, kernel.policy, kernel.cfg)
    assert current_tracer() is None
    # Warm up lazy imports/caches outside the measurement window.
    kernel.run_shard(shard, 0, 4, KernelStats())

    obs_filter = tracemalloc.Filter(True, "*repro/obs/*")
    tracemalloc.start()
    try:
        kernel.run_shard(shard, 0, len(pairs), KernelStats())
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    obs_stats = snapshot.filter_traces([obs_filter]).statistics("filename")
    allocated = sum(s.size for s in obs_stats)
    assert allocated == 0, (
        f"tracing-off run_shard allocated {allocated} bytes in repro/obs"
    )


# ----------------------------------------------------------------------
# Satellite seams: worker counters + service metric families
# ----------------------------------------------------------------------
def test_worker_counters_reach_coordinator_stats():
    pairs = _pairs(10)
    with LoopbackCluster(1) as cluster:
        backend = get_backend("cluster", hosts=cluster.hosts, min_pairs=1)
        try:
            backend.compare_pairs(pairs)
            once = backend.worker_stats()
            backend.compare_pairs(pairs)  # a worker never memoizes a shard
            twice = backend.worker_stats()
        finally:
            backend.close()
    assert len(once) == len(twice) == 1
    first, counters = next(iter(once.values())), next(iter(twice.values()))
    assert first["shards_run"] >= 1
    assert counters["shards_run"] == 2 * first["shards_run"]
    assert "shard_hits" not in counters
    assert counters["tables_received"] == 1  # the table cache stays


def test_service_snapshot_feeds_prometheus_families():
    pairs = _pairs(8)

    async def main():
        config = ServiceConfig(CompareOptions(backend="batch"))
        async with ComparisonService(config) as service:
            await service.submit(pairs, config.options.launch_config())
            return service.snapshot()

    snap = asyncio.run(main())
    assert snap.kernel.get("pairs", 0) >= len(pairs)
    assert snap.latency_histogram["count"] >= 1
    text = render_snapshot(snap)
    assert_valid_exposition(text)
    for family in (
        "repro_service_requests_total",
        "repro_service_request_latency_seconds_bucket",
        "repro_service_request_latency_seconds_count",
        "repro_kernel_ops_total",
    ):
        assert family in text, f"missing family {family}"


def test_metrics_http_endpoint_serves_exposition():
    server = MetricsServer(lambda: "# HELP x y\n# TYPE x counter\nx 1\n")
    server.start()
    try:
        host, port = server.address
        with urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=5
        ) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            body = resp.read().decode()
    finally:
        server.close()
    assert body == "# HELP x y\n# TYPE x counter\nx 1\n"


def test_stats_op_carries_worker_counters_and_metrics_op_renders():
    pairs = _pairs(8)

    async def main():
        with LoopbackCluster(1) as cluster:
            config = ServiceConfig(
                CompareOptions(
                    backend="cluster",
                    backend_options={"min_pairs": 1, "hosts": cluster.hosts},
                )
            )
            async with ComparisonService(config) as service:
                await service.submit(pairs, config.options.launch_config())
                return service.snapshot()

    snap = asyncio.run(main())
    workers = snap.as_dict()["workers"]
    assert workers, "stats op must surface per-worker counters"
    assert all("shards_run" in c for c in workers.values())
    text = render_snapshot(snap)
    assert_valid_exposition(text)
    assert "repro_worker_shards_run_total" in text
