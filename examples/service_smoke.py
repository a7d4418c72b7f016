"""Service smoke test: start ``repro serve``, drive concurrent traffic,
assert correct answers and a clean shutdown.

Launches the real CLI server as a subprocess on an ephemeral TCP port,
fires a handful of concurrent compare requests from blocking clients
(one connection per thread — the shape that exercises the coalescer),
verifies every response bit-for-bit against a direct backend call,
replays the identical traffic warm (the server runs with ``--cache``,
so the repeat round must be served from the request cache — nonzero
hit counters, bit-for-bit the cold answers), scrapes the ``/metrics``
HTTP endpoint mid-run (valid Prometheus exposition, nonzero request
counters), writes a sample trace JSONL from a traced in-process run,
then shuts the server down and checks it exits cleanly.  CI runs this
as the service smoke job and uploads the trace file as an artifact.

Run:  PYTHONPATH=src python examples/service_smoke.py [TRACE_OUT]
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import urllib.request

import numpy as np

from repro.backends import get_backend
from repro.data.synth import generate_tile_pair
from repro.index.join import mbr_pair_join
from repro.service import ServiceClient

CLIENTS = 6
PAIRS_PER_REQUEST = 20


def start_server() -> tuple[subprocess.Popen, str, int, str, int]:
    """``repro serve --metrics`` on ephemeral ports.

    Returns ``(process, host, port, metrics_host, metrics_port)`` parsed
    from the two announce lines.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--cache", "--metrics",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    ready = proc.stdout.readline().strip()
    tag, state, host, port = ready.split()
    assert (tag, state) == ("repro-serve", "ready"), ready
    announced = proc.stdout.readline().strip()
    tag, state, mhost, mport = announced.split()
    assert (tag, state) == ("repro-serve", "metrics"), announced
    return proc, host, int(port), mhost, int(mport)


def check_metrics_endpoint(host: str, port: int) -> None:
    """Scrape /metrics mid-run: valid exposition, nonzero counters."""
    with urllib.request.urlopen(
        f"http://{host}:{port}/metrics", timeout=10
    ) as resp:
        assert resp.status == 200, resp.status
        content_type = resp.headers["Content-Type"]
        assert content_type.startswith("text/plain; version=0.0.4"), (
            content_type
        )
        text = resp.read().decode()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        assert name and (value == "+Inf" or float(value) is not None), (
            f"malformed sample line: {line!r}"
        )
    requests_total = next(
        float(line.rpartition(" ")[2])
        for line in text.splitlines()
        if line.startswith("repro_service_requests_total")
    )
    assert requests_total >= CLIENTS, (
        f"metrics endpoint reports {requests_total} requests, "
        f"expected >= {CLIENTS}"
    )
    families = {
        line.split()[2] for line in text.splitlines()
        if line.startswith("# TYPE")
    }
    for family in (
        "repro_service_requests_total",
        "repro_service_request_latency_seconds",
        "repro_cache_hits_total",
    ):
        assert family in families, f"missing metric family {family}"
    print(
        f"metrics endpoint ok: {len(families)} families, "
        f"{requests_total:.0f} requests scraped mid-run"
    )


def write_sample_trace(path: str, pairs) -> None:
    """One traced in-process request -> a span-tree JSONL artifact."""
    from repro.api import CompareOptions, CompareRequest
    from repro.obs.render import render_trace_file
    from repro.session import Session

    options = CompareOptions(trace_out=path)
    with Session(options) as session:
        session.run(CompareRequest.from_pairs(pairs, options))
        trace_id = session.last_trace.trace_id
    with open(path, encoding="utf-8") as fh:
        rendered = render_trace_file(fh)
    assert trace_id in rendered, "trace file must render its span tree"
    print(f"sample trace {trace_id} -> {path}")


def main() -> None:
    set_a, set_b = generate_tile_pair(
        seed=9, nuclei=150, width=384, height=384
    )
    pairs = mbr_pair_join(set_a, set_b).pairs(set_a, set_b)
    chunks = [
        pairs[i * PAIRS_PER_REQUEST : (i + 1) * PAIRS_PER_REQUEST]
        for i in range(CLIENTS)
    ]
    assert all(len(c) == PAIRS_PER_REQUEST for c in chunks), "tile too small"

    proc, host, port, mhost, mport = start_server()
    print(
        f"server up on {host}:{port}, metrics on {mhost}:{mport} "
        f"(pid {proc.pid})"
    )
    shutdown_sent = False
    try:
        def drive_round() -> dict[int, dict]:
            results: dict[int, dict] = {}

            def drive(i: int) -> None:
                with ServiceClient(host, port) as client:
                    results[i] = client.compare(chunks[i])

            threads = [
                threading.Thread(target=drive, args=(i,))
                for i in range(CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert len(results) == CLIENTS, "a client did not finish"
            return results

        cold = drive_round()
        reference = get_backend("batch")
        for i, chunk in enumerate(chunks):
            want = reference.compare_pairs(chunk)
            assert np.array_equal(cold[i]["intersection"], want.intersection)
            assert np.array_equal(cold[i]["union"], want.union)
        print(f"{CLIENTS} concurrent requests answered bit-for-bit correctly")

        # The same traffic again: the server runs with --cache, so this
        # round must be served from the request cache — and be
        # indistinguishable from the cold answers.
        warm = drive_round()
        for i in range(CLIENTS):
            for field in ("intersection", "union", "area_p", "area_q"):
                assert np.array_equal(cold[i][field], warm[i][field]), (
                    f"warm request {i} diverged from its cold answer"
                )

        # Mid-run (server still up, counters warm): the Prometheus
        # endpoint must serve valid exposition with nonzero traffic.
        check_metrics_endpoint(mhost, mport)

        with ServiceClient(host, port) as client:
            stats = client.stats()
            print(
                f"service metrics: requests={stats['requests']} "
                f"batches={stats['batches']} "
                f"occupancy={stats['mean_batch_requests']:.1f} req/batch "
                f"p99={stats['p99_ms']:.1f}ms"
            )
            cache = stats["caches"]["service.request"]
            hits = cache["hits"]
            print(
                f"request cache: hits={hits} misses={cache['misses']} "
                f"tiers={sorted(stats['caches'])}"
            )
            assert hits >= CLIENTS, (
                f"warm round expected >= {CLIENTS} request-cache hits, "
                f"got {hits}"
            )
            client.shutdown()
            shutdown_sent = True
    finally:
        if shutdown_sent:
            code = proc.wait(timeout=60)
        else:
            # A failure above never asked the server to stop: kill it so
            # the original assertion error surfaces instead of a hang.
            proc.terminate()
            proc.wait(timeout=10)
    assert code == 0, f"server exited with {code}"
    print("clean shutdown: exit code 0")

    trace_out = sys.argv[1] if len(sys.argv) > 1 else None
    if trace_out:
        write_sample_trace(trace_out, pairs[:PAIRS_PER_REQUEST])


if __name__ == "__main__":
    main()
