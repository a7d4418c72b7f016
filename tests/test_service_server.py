"""End-to-end tests for the ``repro serve`` front-end.

A real asyncio TCP server runs in a background thread; blocking
:class:`~repro.service.client.ServiceClient` connections drive it the
way external callers would.  Covers: wire parity against a direct
backend call, request coalescing across connections, protocol error
classification, graceful shutdown, and the stdio session via an actual
``python -m repro serve --stdio`` subprocess (which also exercises the
CLI path).
"""

from __future__ import annotations

import json
import os
import queue
import socket
import subprocess
import sys
import threading

import asyncio

import numpy as np
import pytest

from repro.api import CompareOptions
from repro.backends import get_backend
from repro.data.synth import generate_tile_pair
from repro.errors import ServiceError
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.wkt import polygon_to_wkt
from repro.index.join import mbr_pair_join
from repro.service import ServiceClient, ServiceConfig, serve


@pytest.fixture(scope="module")
def tile_pairs():
    set_a, set_b = generate_tile_pair(seed=5, nuclei=60, width=256, height=256)
    return mbr_pair_join(set_a, set_b).pairs(set_a, set_b)


@pytest.fixture()
def server():
    """A live TCP server on an ephemeral port; yields (host, port)."""
    announced: queue.Queue[str] = queue.Queue()
    done: queue.Queue[BaseException | None] = queue.Queue()

    def run():
        try:
            asyncio.run(
                serve(
                    ServiceConfig(
                        CompareOptions(backend="batch"), coalesce_window=0.02
                    ),
                    port=0,
                    announce=announced.put,
                )
            )
            done.put(None)
        except BaseException as exc:  # pragma: no cover - surfaced below
            done.put(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    _, _, host, port = announced.get(timeout=20).split()
    yield host, int(port)
    if thread.is_alive():
        with ServiceClient(host, int(port)) as client:
            client.shutdown()
    thread.join(timeout=20)
    assert not thread.is_alive(), "server thread did not exit"
    error = done.get(timeout=5)
    assert error is None, f"server raised: {error!r}"


class TestTcpServer:
    def test_compare_matches_direct_backend(self, server, tile_pairs):
        host, port = server
        pairs = tile_pairs[:30]
        with ServiceClient(host, port) as client:
            assert client.ping()
            got = client.compare(pairs)
        want = get_backend("batch").compare_pairs(pairs)
        assert np.array_equal(got["intersection"], want.intersection)
        assert np.array_equal(got["union"], want.union)
        assert np.array_equal(got["area_p"], want.area_p)
        assert np.array_equal(got["area_q"], want.area_q)
        assert np.allclose(got["jaccard"], want.ratios())

    def test_concurrent_clients_coalesce(self, server, tile_pairs):
        host, port = server
        pairs = tile_pairs[:20]
        results: dict[int, dict] = {}

        def worker(i: int) -> None:
            with ServiceClient(host, port) as client:
                results[i] = client.compare(pairs)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(5)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        want = get_backend("batch").compare_pairs(pairs)
        assert len(results) == 5
        for got in results.values():
            assert np.array_equal(got["intersection"], want.intersection)
        with ServiceClient(host, port) as client:
            stats = client.stats()
        # Wire requests flowed through the coalescer; with 5 concurrent
        # clients at least some dispatches must have merged requests.
        assert stats["requests"] >= 5
        assert stats["batches"] <= stats["requests"]

    def test_compare_with_config_and_per_request_timeout(
        self, server, tile_pairs
    ):
        host, port = server
        pairs = tile_pairs[:10]
        with ServiceClient(host, port) as client:
            got = client.compare(pairs, config={"block_size": 16}, timeout=30)
        from repro.pixelbox.common import LaunchConfig

        want = get_backend("batch").compare_pairs(
            pairs, LaunchConfig(block_size=16)
        )
        assert np.array_equal(got["intersection"], want.intersection)

    def test_protocol_errors_are_classified(self, server):
        host, port = server
        with socket.create_connection((host, port), timeout=10) as sock:
            f = sock.makefile("rwb")

            def roundtrip(raw: bytes) -> dict:
                f.write(raw + b"\n")
                f.flush()
                return json.loads(f.readline())

            bad_json = roundtrip(b"this is not json")
            assert bad_json["ok"] is False
            assert bad_json["kind"] == "bad-request"

            bad_op = roundtrip(json.dumps({"id": 1, "op": "explode"}).encode())
            assert bad_op["ok"] is False and bad_op["id"] == 1
            assert bad_op["kind"] == "bad-request"

            bad_wkt = roundtrip(
                json.dumps(
                    {"id": 2, "op": "compare", "pairs": [["nope", "nope"]]}
                ).encode()
            )
            assert bad_wkt["ok"] is False and bad_wkt["kind"] == "bad-request"

            # A malformed timeout must be rejected before the request is
            # admitted (not surface later as an "internal" failure).
            bad_timeout = roundtrip(
                json.dumps(
                    {
                        "id": 3,
                        "op": "compare",
                        "pairs": [["x", "y"]],
                        "timeout": "5",
                    }
                ).encode()
            )
            assert bad_timeout["ok"] is False
            assert bad_timeout["kind"] == "bad-request"
            assert "timeout" in bad_timeout["error"]

    def test_oversize_request_line_is_rejected_typed(self, server):
        """A line above the stream limit gets one typed error, a clean
        close of that connection, and a server that keeps serving."""
        host, port = server
        with socket.create_connection((host, port), timeout=10) as sock:
            f = sock.makefile("rwb")
            f.write(b'{"op": "ping", "pad": "' + b"x" * 70_000 + b'"}\n')
            f.flush()
            reply = json.loads(f.readline())
            assert reply["ok"] is False and reply["kind"] == "bad-request"
            assert "65536-byte limit" in reply["error"]
            assert f.readline() == b""  # closed cleanly: EOF, no reset
        with ServiceClient(host, port) as client:
            assert client.ping()

    def test_client_rejects_mismatched_response_id(self, server):
        host, port = server
        client = ServiceClient(host, port)
        try:
            client._next_id = 41  # next request goes out as id 42
            # Sneak a raw request in so the server answers an id the
            # client bookkeeping does not expect.
            client._file.write(
                json.dumps({"id": 999, "op": "ping"}).encode() + b"\n"
            )
            client._file.flush()
            with pytest.raises(ServiceError):
                client.ping()
        finally:
            client.close()


@pytest.fixture()
def cached_server():
    """A TCP server with the request cache enabled; yields (host, port)."""
    announced: queue.Queue[str] = queue.Queue()
    done: queue.Queue[BaseException | None] = queue.Queue()

    def run():
        try:
            asyncio.run(
                serve(
                    ServiceConfig(
                        CompareOptions(backend="batch", cache=True),
                        coalesce_window=0.02,
                    ),
                    port=0,
                    announce=announced.put,
                )
            )
            done.put(None)
        except BaseException as exc:  # pragma: no cover - surfaced below
            done.put(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    _, _, host, port = announced.get(timeout=20).split()
    yield host, int(port)
    if thread.is_alive():
        with ServiceClient(host, int(port)) as client:
            client.shutdown()
    thread.join(timeout=20)
    assert not thread.is_alive(), "server thread did not exit"
    error = done.get(timeout=5)
    assert error is None, f"server raised: {error!r}"


class TestCachedServer:
    def test_warm_requests_hit_and_cache_clear_resets(
        self, cached_server, tile_pairs
    ):
        host, port = cached_server
        pairs = tile_pairs[:25]
        with ServiceClient(host, port) as client:
            cold = client.compare(pairs)
            warm = client.compare(pairs)
            for field in ("intersection", "union", "area_p", "area_q"):
                assert np.array_equal(cold[field], warm[field])
            stats = client.stats()
            assert stats["request_cache_hits"] == 1
            assert stats["request_cache_misses"] == 1
            assert stats["caches"]["service.request"]["entries"] == 1
            assert client.cache_clear()
            stats = client.stats()
            assert stats["caches"]["service.request"]["entries"] == 0
            # Recomputed after the clear — and bit-for-bit identical.
            again = client.compare(pairs)
            assert np.array_equal(cold["intersection"], again["intersection"])
            assert client.stats()["request_cache_misses"] == 2


class TestStdioServer:
    def test_stdio_session_over_subprocess(self, tile_pairs):
        """`python -m repro serve --stdio`: serve a session, exit cleanly
        when stdin closes (the CLI path end to end)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        unit = polygon_to_wkt(RectilinearPolygon.from_box(Box(0, 0, 4, 4)))
        half = polygon_to_wkt(RectilinearPolygon.from_box(Box(0, 0, 4, 2)))
        lines = [
            json.dumps({"id": 1, "op": "ping"}),
            json.dumps(
                {"id": 2, "op": "compare", "pairs": [[unit, half]]}
            ),
            json.dumps({"id": 3, "op": "stats"}),
        ]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--stdio"],
            input="\n".join(lines) + "\n",
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        out_lines = [l for l in proc.stdout.splitlines() if l.strip()]
        assert out_lines[0] == "repro-serve ready stdio"
        responses = {r["id"]: r for r in map(json.loads, out_lines[1:])}
        assert responses[1]["ok"] and responses[1]["pong"]
        assert responses[2]["ok"]
        assert responses[2]["intersection"] == [8]
        assert responses[2]["union"] == [16]
        assert responses[3]["ok"]
        # Lines are pipelined, so the stats request may be answered while
        # the compare is still in flight — assert on admission, which is
        # ordered, not on completion.
        assert responses[3]["stats"]["requests"] == 1
