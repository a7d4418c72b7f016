"""One renderer: a ``ServiceSnapshot`` as Prometheus families + HTTP.

Nothing here keeps its own state and there is no registry to feed: the
exporter reads a live :class:`~repro.metrics.service.ServiceSnapshot` at
scrape time and translates it — service request counters, the latency
histogram, per-tier cache hit/miss counts (with a ``tier`` label),
kernel work counters (the paper's compute-intensity numbers, with a
``counter`` label), and per-worker cluster shard/table counters
(``worker`` label).

:class:`MetricsServer` is the ``repro serve --metrics`` endpoint: a
stdlib ``http.server`` on its own daemon thread serving ``/metrics``.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping

from repro.obs.metrics import Sample, _fmt_labels, _fmt_value

__all__ = ["snapshot_families", "render_snapshot", "MetricsServer"]

Family = tuple[str, str, str, list[Sample]]

# (snapshot attr, metric name, kind, help)
_SERVICE_COUNTERS = (
    ("requests", "repro_service_requests_total", "Requests past admission control."),
    ("completed", "repro_service_completed_total", "Requests answered."),
    ("rejected", "repro_service_rejected_total", "Requests rejected at admission."),
    ("timeouts", "repro_service_timeouts_total", "Requests that hit their deadline."),
    ("cancelled", "repro_service_cancelled_total", "Requests cancelled by the client."),
    ("failures", "repro_service_failures_total", "Requests that raised."),
    ("batches", "repro_service_batches_total", "Coalesced dispatches."),
    ("pairs", "repro_service_pairs_total", "Polygon pairs dispatched."),
)


def snapshot_families(snap: Any) -> list[Family]:
    """One :class:`ServiceSnapshot` -> Prometheus metric families."""
    families: list[Family] = []
    for attr, name, help_text in _SERVICE_COUNTERS:
        value = float(getattr(snap, attr, 0))
        families.append((name, "counter", help_text, [(name, {}, value)]))
    families.append((
        "repro_service_queue_depth", "gauge", "Current service queue depth.",
        [("repro_service_queue_depth", {}, float(snap.queue_depth))],
    ))
    families.append((
        "repro_service_queue_depth_peak", "gauge", "Peak service queue depth.",
        [("repro_service_queue_depth_peak", {}, float(snap.max_queue_depth))],
    ))

    hist: Mapping[str, Any] = getattr(snap, "latency_histogram", None) or {}
    if hist.get("buckets"):
        name = "repro_service_request_latency_seconds"
        samples: list[Sample] = [
            (f"{name}_bucket", {"le": bound}, float(count))
            for bound, count in hist["buckets"].items()
        ]
        samples.append((f"{name}_sum", {}, float(hist.get("sum", 0.0))))
        samples.append((f"{name}_count", {}, float(hist.get("count", 0))))
        families.append((
            name, "histogram", "End-to-end request latency in seconds.", samples,
        ))

    # The request cache (and any other attached store), all under one
    # family pair with a ``tier`` label.
    hits: list[Sample] = [(
        "repro_cache_hits_total", {"tier": "service.request"},
        float(getattr(snap, "request_cache_hits", 0)),
    )]
    misses: list[Sample] = [(
        "repro_cache_misses_total", {"tier": "service.request"},
        float(getattr(snap, "request_cache_misses", 0)),
    )]
    entries: list[Sample] = []
    sizes: list[Sample] = []
    for tier, counters in sorted((getattr(snap, "caches", None) or {}).items()):
        hits.append(("repro_cache_hits_total", {"tier": tier},
                     float(counters.get("hits", 0))))
        misses.append(("repro_cache_misses_total", {"tier": tier},
                       float(counters.get("misses", 0))))
        if "entries" in counters:
            entries.append(("repro_cache_entries", {"tier": tier},
                            float(counters["entries"])))
        if "current_bytes" in counters:
            sizes.append(("repro_cache_bytes", {"tier": tier},
                          float(counters["current_bytes"])))
    families.append((
        "repro_cache_hits_total", "counter", "Cache hits per tier.", hits,
    ))
    families.append((
        "repro_cache_misses_total", "counter", "Cache misses per tier.", misses,
    ))
    if entries:
        families.append((
            "repro_cache_entries", "gauge", "Entries resident per tier.", entries,
        ))
    if sizes:
        families.append((
            "repro_cache_bytes", "gauge", "Bytes resident per tier.", sizes,
        ))

    kernel: Mapping[str, int] = getattr(snap, "kernel", None) or {}
    if kernel:
        samples = [
            ("repro_kernel_ops_total", {"counter": key}, float(value))
            for key, value in sorted(kernel.items())
        ]
        families.append((
            "repro_kernel_ops_total", "counter",
            "Kernel work counters (pairs, pops, partitions, ...) "
            "accumulated across dispatched batches.",
            samples,
        ))

    workers: Mapping[str, Mapping[str, Any]] = getattr(snap, "workers", None) or {}
    if workers:
        worker_samples: dict[str, list[Sample]] = {}
        for addr, counters in sorted(workers.items()):
            for key in ("shards_run", "tables_received",
                        "tables_evicted", "protocol_errors"):
                if key in counters:
                    name = f"repro_worker_{key}_total"
                    worker_samples.setdefault(name, []).append(
                        (name, {"worker": addr}, float(counters[key]))
                    )
        for name, samples in sorted(worker_samples.items()):
            families.append((
                name, "counter",
                f"Per-worker {name.removeprefix('repro_worker_').removesuffix('_total').replace('_', ' ')}.",
                samples,
            ))
    return families


def render_families(families: list[Family]) -> str:
    """Families -> Prometheus text exposition format 0.0.4."""
    lines: list[str] = []
    for name, kind, help_text, samples in families:
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(
            f"{sample_name}{_fmt_labels(labels)} {_fmt_value(value)}"
            for sample_name, labels, value in samples
        )
    return "\n".join(lines) + "\n"


def render_snapshot(snap: Any) -> str:
    """One :class:`ServiceSnapshot` -> Prometheus text."""
    return render_families(snapshot_families(snap))


class MetricsServer:
    """A daemon ``/metrics`` HTTP endpoint backed by a render callable."""

    def __init__(self, render: Callable[[], str], host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self._render = render

        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                if self.path.rstrip("/") not in ("", "/metrics", "/m"):
                    self.send_error(404)
                    return
                try:
                    body = outer._render().encode()
                except Exception as exc:  # scrape must not kill the server
                    self.send_error(500, str(exc))
                    return
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:  # silence stderr
                pass

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics", daemon=True
        )

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return (str(host), int(port))

    def start(self) -> "MetricsServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
