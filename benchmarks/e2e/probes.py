"""Per-layer probes: time calls into each layer's public functions.

Layers are measured from outside, on the input of the workload being
run, with the benchmark's own spans around each call.  Every probe
imports its layer function when it runs; if the import or the call
signature is gone the probe's metrics read ``None`` with the reason in
``notes`` and the run goes on, so a change that removes a shim cannot
break the benchmark it is judged by.

A layer's time is the self time of its spans (``spans.self_times``).
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np

import host
import spans
from inputs import AREA_FIELDS
from service_load import ServiceLoad
from trial import REP_PITCH

# What a probe raises when the layer function it calls is no longer
# there, takes other arguments or returns another shape of statistics.
GONE = (ImportError, AttributeError, TypeError, KeyError)


def _timed(fn, *args, collect=True):
    """Seconds and result of one call; a full collection first keeps the
    collector out of calls that last tens of milliseconds."""
    if collect:
        gc.collect()
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def _percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Probes:
    """All probes of one traced run; ``run()`` returns metrics and notes."""

    def __init__(self, inp, expected, summary, rec, spec):
        self.inp, self.expected, self.summary = inp, expected, summary
        self.rec, self.spec = rec, spec
        self.base = inp.base_polygons()
        self.metrics: dict[str, float | None] = {}
        self.notes: dict[str, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self._copies = 0
        # Per-tile polygon lists the later stages work on: the parser's
        # output when the io probe ran, else translated base objects.
        self.tiles = None
        self.areas = None
        self.shares = None  # of pipeline.serial_sum_s, per stage, in percent
        # Requests, their encoded lines and some answers of the serving
        # probe, for the codec and key probes that follow it.
        self.requests = None
        self.lines = None
        self.answers = []

    def fresh(self, select=None):
        """Another never-seen copy of the candidate pairs."""
        self._copies += 1
        return self.inp.fresh(self.base, 0, (64 + self._copies) * REP_PITCH, select)

    def stage_s(self, name: str) -> float:
        return spans.self_times(self.rec.records).get(name, 0.0)

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(what)

    def run(self):
        steps = [
            (("io.read_s", "io.bytes", "io.parse_s", "io.polygons", "io.parse_mb_per_s"), self.io),
            (("index.build_s", "index.search_s", "index.candidate_pairs"), self.index),
            (
                ("backends.compare_fresh_s", "backends.compare_repeat_s", "geometry.derive_s")
                + tuple(f"pixelbox.{c}" for c in PIXELBOX_COUNTS)
                + ("pixelbox.decided_ratio",),
                self.compare,
            ),
            (("metrics.aggregate_s",), self.aggregate),
            (("pipeline.serial_sum_s", "pipeline.overlap_gain"), self.pipeline),
            (("session.overhead_s", "obs.trace_on_ratio"), self.session),
            (
                ("backends.mp_spawn_s", "backends.mp_dispatch_floor_s", "backends.mp_speedup",
                 "backends.mp_efficiency", "backends.mp_child_rss_mb"),
                self.multiprocess,
            ),
            (SERVICE_ROUND_METRICS, self.service_rounds),
            (("service.encode_s", "service.request_bytes", "service.response_bytes"), self.service_encode),
            (("service.decode_s",), self.service_decode),
            (("cache.key_s",), self.cache_key),
        ]
        with self.rec.span("bench.probes"):
            for names, probe in steps:
                try:
                    self.metrics.update(probe())
                except GONE as exc:
                    for name in names:
                        self.metrics[name] = None
                        self.notes[name] = f"{type(exc).__name__}: {exc}"
        return self.metrics, self.notes

    # -- the stages of the files -> J' path, run serially ----------------
    def io(self):
        from repro.io import parse_vectorized

        tiles, total_bytes, polygons = [], 0, 0
        names = sorted(p.name for p in self.inp.dir_a.glob("tile_*.txt"))
        for name in names:
            sides = []
            for directory in (self.inp.dir_a, self.inp.dir_b):
                with self.rec.span("io.read"):
                    raw = (directory / name).read_bytes()
                with self.rec.span("io.parse"):
                    sides.append(parse_vectorized(raw))
                total_bytes += len(raw)
                polygons += len(sides[-1])
            tiles.append(tuple(sides))
        self.tiles = tiles
        self.check("io: polygon count differs from the input's", polygons == self.inp.meta["polygons"])
        parse_s = self.stage_s("io.parse")
        return {
            "io.read_s": self.stage_s("io.read"),
            "io.bytes": total_bytes,
            "io.parse_s": parse_s,
            "io.polygons": polygons,
            "io.parse_mb_per_s": total_bytes / 1e6 / parse_s,
        }

    def _tiles(self):
        if self.tiles is None:
            moved = [[p.translate(0, 0) for p in side] for side in self.base]
            self.tiles = self.inp.tiles(moved)
        return self.tiles

    def index(self):
        from repro.index import bulk_load_polygons

        candidates = 0
        for polys_a, polys_b in self._tiles():
            with self.rec.span("index.build"):
                tree = bulk_load_polygons(polys_b)
            with self.rec.span("index.search"):
                for poly in polys_a:  # per polygon, as the filter stage does
                    candidates += len(tree.search(poly.mbr))
        self.check("index: candidate count differs from the brute-force join", candidates == len(self.inp.pair_a))
        return {
            "index.build_s": self.stage_s("index.build"),
            "index.search_s": self.stage_s("index.search"),
            "index.candidate_pairs": candidates,
        }

    def compare(self):
        from repro import CompareOptions
        from repro.backends import get_backend

        tiles = self._tiles()
        side_a = [p for polys_a, _ in tiles for p in polys_a]
        side_b = [q for _, polys_b in tiles for q in polys_b]
        pairs = [
            (side_a[i], side_b[j])
            for i, j in zip(self.inp.pair_a.tolist(), self.inp.pair_b.tolist())
        ]
        config = CompareOptions().launch_config()
        backend = get_backend("batch")
        try:
            gc.collect()
            with self.rec.span("backends.compare_fresh", pairs=len(pairs)):
                self.areas = backend.compare_pairs(pairs, config)
            gc.collect()
            with self.rec.span("backends.compare_repeat", pairs=len(pairs)):
                again = backend.compare_pairs(pairs, config)
        finally:
            backend.close()
        for name in AREA_FIELDS:
            self.check(
                f"compare: {name} differs from the reference",
                np.array_equal(getattr(self.areas, name), self.expected[name])
                and np.array_equal(getattr(again, name), self.expected[name]),
            )
        fresh_s = self.stage_s("backends.compare_fresh")
        repeat_s = self.stage_s("backends.compare_repeat")
        stats = self.areas.stats.as_dict()
        out = {
            "backends.compare_fresh_s": fresh_s,
            "backends.compare_repeat_s": repeat_s,
            # What only the first call on an object pays: per-polygon
            # edge arrays, MBR and area (cached properties).
            "geometry.derive_s": fresh_s - repeat_s,
            "pixelbox.decided_ratio": stats["boxes_decided"] / max(1, stats["boxes_classified"]),
        }
        out.update({f"pixelbox.{c}": stats[c] for c in PIXELBOX_COUNTS})
        return out

    def aggregate(self):
        from repro.metrics import jaccard_from_areas

        if self.areas is None:
            raise TypeError("no areas to aggregate: the compare probe did not run")
        count_a, count_b = len(self.inp.off_a) - 1, len(self.inp.off_b) - 1
        with self.rec.span("metrics.aggregate"):
            pw = jaccard_from_areas(self.areas, self.inp.pair_a, self.inp.pair_b, count_a, count_b)
        want = self.summary["files"]
        self.check(
            "aggregate: J' or counts differ from the reference",
            abs(pw.mean_ratio - want["jaccard_mean"]) <= 1e-9
            and pw.intersecting_pairs == want["intersecting_pairs"]
            and (pw.missing_a, pw.missing_b) == (want["missing_a"], want["missing_b"]),
        )
        return {"metrics.aggregate_s": self.stage_s("metrics.aggregate")}

    def pipeline(self):
        from repro import CompareOptions, Session

        stages = {
            "parse": ("io.read_s", "io.parse_s"),
            "index": ("index.build_s", "index.search_s"),
            "compare": ("backends.compare_fresh_s",),
            "aggregate": ("metrics.aggregate_s",),
        }
        parts = {
            stage: sum(self.metrics[name] for name in names)
            for stage, names in stages.items()
            if all(self.metrics.get(name) is not None for name in names)
        }
        if len(parts) < len(stages):
            raise TypeError(f"stages without a probe: {sorted(set(stages) - set(parts))}")
        serial = sum(parts.values())
        self.shares = {stage: 100.0 * value / serial for stage, value in parts.items()}
        with Session(CompareOptions()) as session:
            session.warm()
            with self.rec.span("session.compare_files"):
                wall, result = _timed(session.compare_files, self.inp.dir_a, self.inp.dir_b)
        self.check(
            "pipeline: candidate pairs differ from the reference",
            result.candidate_pairs == self.summary["files"]["candidate_pairs"],
        )
        # < 1 means the threaded pipeline is slower than its stages in a loop.
        return {"pipeline.serial_sum_s": serial, "pipeline.overlap_gain": serial / wall}

    # -- front door and parallel tier ------------------------------------
    def small_calls(self, *calls):
        """Median seconds of each callable over the same 20 calls of 256
        pairs, every call on a never-seen copy.  A difference of two of
        these medians resolves a per-call cost that one full-size call,
        which spreads by +-20 % on the reference host, cannot."""
        order = np.random.default_rng(self.spec["seed"]).permutation(len(self.inp.pair_a))
        size = min(256, len(order))
        times = [[] for _ in calls]
        for k in range(max(1, min(20, len(order) // size))):
            select = np.sort(order[k * size : (k + 1) * size])
            for call, seconds in zip(calls, times):
                seconds.append(_timed(call, self.fresh(select))[0])
        return [statistics.median(seconds) for seconds in times]

    def session(self):
        from repro import CompareOptions, Session
        from repro.backends import get_backend

        options = CompareOptions(backend="batch")
        backend = get_backend("batch")
        try:
            with Session(options) as session:
                session.warm()
                with self.rec.span("session.small_calls"):
                    direct_s, session_s, traced_s = self.small_calls(
                        lambda pairs: backend.compare_pairs(pairs, options.launch_config()),
                        session.compare,
                        lambda pairs: session.compare(pairs, options.replace(trace=True)),
                    )
        finally:
            backend.close()
        return {
            # Request spec, list copies and locks on top of the backend call.
            "session.overhead_s": session_s - direct_s,
            "obs.trace_on_ratio": traced_s / session_s,
        }

    def multiprocess(self):
        from repro import CompareOptions, Session
        from repro.backends import get_backend

        workers = self.spec["workers"]
        pooled = Session(
            CompareOptions(backend="multiprocess", backend_options={"workers": workers})
        )
        single = Session(CompareOptions(backend="batch"))
        local = get_backend("batch")
        try:
            single.warm()
            with self.rec.span("backends.mp_warm"):
                spawn_s, _ = _timed(pooled.warm)
            with self.rec.span("backends.mp_small_calls"):
                pooled_s, local_s = self.small_calls(
                    pooled.compare,
                    lambda pairs: local.compare_pairs(pairs, pooled.options.launch_config()),
                )
            # Full size, alternating, the faster of two each: the first
            # pooled call still pays lazy set-up in the workers.
            full = {"batch": [], "multiprocess": []}
            with self.rec.span("backends.mp_full_size"):
                for session in (pooled, single, pooled, single):
                    seconds, areas = _timed(session.compare, self.fresh())
                    full[session.options.backend].append(seconds)
                    self.check(
                        f"{session.options.backend}: areas differ from the reference",
                        all(np.array_equal(getattr(areas, n), self.expected[n]) for n in AREA_FIELDS),
                    )
            child_rss = max(map(host.private_mb, host.child_pids()), default=0.0)
        finally:
            pooled.close()
            single.close()
            local.close()
        speedup = min(full["batch"]) / min(full["multiprocess"])
        return {
            "backends.mp_spawn_s": spawn_s,
            "backends.mp_dispatch_floor_s": pooled_s - local_s,
            "backends.mp_speedup": speedup,
            "backends.mp_efficiency": speedup / workers,
            "backends.mp_child_rss_mb": child_rss,
        }

    # -- serving path ------------------------------------------------------
    def service_rounds(self):
        load = ServiceLoad(self.inp, self.base, self.expected, **self.spec["service"])
        try:
            outcomes = load.start()
            client = load.clients[0]
            pings = [_timed(client.ping, collect=False)[0] for _ in range(50)]
            outcomes += load.run_round(load.prepare_round(), spans.Off)  # warm-up
            before = client.stats()
            timed = []
            for _ in range(self.spec["service_probe_rounds"]):
                plan = load.prepare_round()
                with self.rec.span("service.round") as span_id:
                    timed += load.run_round(plan, self.rec, parent=span_id)
            after = client.stats()
            server_rss = load.server_rss_mb()
            self.requests = [miss for turns in plan for miss, _ in turns]
            self.answers = [o.answer for o in timed if o.answer is not None]
        finally:
            load.stop()
        for outcome in outcomes + timed:
            why = load.wrong(outcome)
            self.check(why or "", why is None)
        self.notes.update({f"service.{i}": note for i, note in enumerate(load.notes)})
        latency = {
            kind: [o.seconds for o in timed if o.kind == kind and o.error is None]
            for kind in ("miss", "hit")
        }
        dispatches = after["batches"] - before["batches"]
        merged = (
            after["mean_batch_requests"] * after["batches"]
            - before["mean_batch_requests"] * before["batches"]
        )
        tier = {
            key: after["caches"]["service.request"][key] - before["caches"]["service.request"][key]
            for key in ("hits", "misses", "insertions", "evictions")
        }
        return {
            "service.rtt_floor_s": statistics.median(pings),
            "service.miss_p50_s": statistics.median(latency["miss"]),
            "service.miss_p95_s": _percentile(latency["miss"], 95),
            "service.hit_p50_s": statistics.median(latency["hit"]),
            "service.hit_p95_s": _percentile(latency["hit"], 95),
            "service.batch_occupancy": merged / max(1, dispatches),
            "service.coalesced_dispatches": dispatches,
            "service.server_rss_mb": server_rss,
            "cache.hit_ratio": tier["hits"] / max(1, tier["hits"] + tier["misses"]),
            "cache.insertions": tier["insertions"],
            "cache.evictions": tier["evictions"],
        }

    def _requests(self):
        if self.requests is None:
            load = ServiceLoad(self.inp, self.base, self.expected, **self.spec["service"])
            self.requests = [miss for turns in load.prepare_round() for miss, _ in turns]
        return self.requests

    def service_encode(self):
        from repro.service import protocol

        times, self.lines = [], []
        for i, request in enumerate(self._requests()):
            with self.rec.span("service.encode"):
                seconds, line = _timed(
                    lambda: protocol.encode(
                        {"id": i, "op": "compare", "pairs": protocol.pairs_to_wire(request.pairs)}
                    ),
                    collect=False,
                )
            times.append(seconds)
            self.lines.append(line)
        responses = [
            len(json.dumps({"id": 1, "ok": True, **{k: v.tolist() for k, v in answer.items()}},
                           separators=(",", ":"))) + 1
            for answer in self.answers
        ]
        out = {
            "service.encode_s": statistics.median(times),
            "service.request_bytes": statistics.median(len(line) for line in self.lines),
            "service.response_bytes": None,
        }
        if responses:
            out["service.response_bytes"] = statistics.median(responses)
        else:
            self.notes["service.response_bytes"] = "no answered request to size"
        return out

    def service_decode(self):
        from repro.api.request import request_from_wire
        from repro.service import protocol

        if not self.lines:
            raise TypeError("no encoded request lines: the encode probe did not run")
        times = []
        for line in self.lines:
            with self.rec.span("service.decode"):
                times.append(
                    _timed(lambda: request_from_wire(protocol.decode_request(line)), collect=False)[0]
                )
        return {"service.decode_s": statistics.median(times)}

    def cache_key(self):
        from repro import CompareOptions
        from repro.cache import pairs_key

        config = CompareOptions().launch_config()
        times = []
        for request in self._requests():
            with self.rec.span("cache.key"):
                times.append(_timed(pairs_key, request.pairs, config, collect=False)[0])
        return {"cache.key_s": statistics.median(times)}


PIXELBOX_COUNTS = (
    "pairs", "pops", "partitions", "boxes_classified", "boxes_decided",
    "leaf_boxes", "pixel_tests", "fallback_pairs",
)
SERVICE_ROUND_METRICS = (
    "service.rtt_floor_s", "service.miss_p50_s", "service.miss_p95_s",
    "service.hit_p50_s", "service.hit_p95_s", "service.batch_occupancy",
    "service.coalesced_dispatches", "service.server_rss_mb",
    "cache.hit_ratio", "cache.insertions", "cache.evictions",
)
