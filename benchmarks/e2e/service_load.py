"""The serving path under a closed-loop load of two clients.

``python -m repro serve --port 0 --cache`` runs as a subprocess; each
client is one ``ServiceClient`` connection on its own thread and sends
its next request only when the previous one is answered (callers that
wait for a reply make a closed loop).  In a round every client
alternates a *miss* (a request of never-seen polygons: decode, key,
coalesce, kernel, insert) with a *hit* (one of the hot requests sent
during start-up: decode, key, lookup).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import spans
from host import REPO, peak_rss_mb
from inputs import AREA_FIELDS

# Requests stay below this, well under asyncio's 64 KiB default stream
# limit: a longer line makes `repro serve` drop the connection with an
# unhandled LimitOverrunError (known defect, see README).
MAX_LINE_BYTES = 48 * 1024


@dataclass
class Request:
    chunk: int  # index of the base chunk whose areas are the answer
    pairs: list
    line_bytes: int | None  # None when the size guard could not run


@dataclass
class Outcome:
    kind: str  # "miss", "hit" or "populate"
    chunk: int
    seconds: float
    answer: dict | None
    error: str | None


class ServiceLoad:
    """One server process, ``clients`` connections, rounds of requests."""

    def __init__(self, inp, base, expected, *, chunk_pairs, hot, per_client, clients):
        self.inp, self.base, self.expected = inp, base, expected
        self.per_client, self.n_clients = per_client, clients
        nuclei = np.flatnonzero(inp.pair_class == 0)
        self.chunks = [
            nuclei[i : i + chunk_pairs]
            for i in range(0, len(nuclei) - chunk_pairs + 1, chunk_pairs)
        ]
        if not self.chunks:
            raise ValueError(f"input has fewer than {chunk_pairs} nuclei pairs")
        self.notes: list[str] = []
        self._sent = 0
        self._rounds = 0
        self.hot = [self.request() for _ in range(hot)]
        self.proc: subprocess.Popen | None = None
        self.clients: list = []
        self.ready_s = 0.0

    # -- requests -------------------------------------------------------
    def request(self) -> Request:
        """The next request: a base chunk at a translation no request of
        this load has used, so the server has never seen its key."""
        n = self._sent
        self._sent += 1
        chunk = n % len(self.chunks)
        pairs = self.inp.fresh(
            self.base, (n % 32) * 2048, (n // 32) * 2048, select=self.chunks[chunk]
        )
        return Request(chunk, pairs, self._line_bytes(pairs))

    def _line_bytes(self, pairs) -> int | None:
        try:
            from repro.service import protocol

            line = protocol.encode(
                {"id": 1, "op": "compare", "pairs": protocol.pairs_to_wire(pairs)}
            )
        except (ImportError, AttributeError, TypeError) as exc:
            if not self.notes:
                self.notes.append(f"request-size guard unavailable: {exc!r}")
            return None
        return len(line)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> list[Outcome]:
        """Server ready, clients connected, hot set populated."""
        from repro.service import ServiceClient

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        begin = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--cache"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        ready = self.proc.stdout.readline().split()
        if ready[:2] != ["repro-serve", "ready"]:
            raise RuntimeError(f"server did not announce itself: {ready!r}")
        host, port = ready[2], int(ready[3])
        self.ready_s = time.perf_counter() - begin
        self.clients = [ServiceClient(host, port) for _ in range(self.n_clients)]
        return [
            self._send(self.clients[i % self.n_clients], "populate", req)
            for i, req in enumerate(self.hot)
        ]

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        try:
            if self.clients and proc is not None and proc.poll() is None:
                try:
                    self.clients[0].shutdown()
                except Exception as exc:  # noqa: BLE001 - teardown must reach kill()
                    self.notes.append(f"shutdown request failed: {exc!r}")
            for client in self.clients:
                client.close()
            self.clients = []
        finally:
            if proc is not None:
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()

    def server_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid) if self.proc is not None else 0.0

    # -- rounds ---------------------------------------------------------
    def prepare_round(self) -> list[list[tuple[Request, Request]]]:
        """Per client, the (miss, hit) requests of the next round."""
        plan = []
        for k in range(self.n_clients):
            turns = []
            for i in range(self.per_client):
                hot = self.hot[(self._rounds + k * self.per_client + i) % len(self.hot)]
                turns.append((self.request(), hot))
            plan.append(turns)
        self._rounds += 1
        return plan

    def run_round(self, plan, rec, parent=None) -> list[Outcome]:
        results: list[list[Outcome]] = [[] for _ in plan]

        def loop(client, turns, out):
            with rec.span("service.client", parent=parent):
                for miss, hot in turns:
                    out.append(self._send(client, "miss", miss, rec))
                    out.append(self._send(client, "hit", hot, rec))

        threads = [
            threading.Thread(target=loop, args=(client, turns, out))
            for client, turns, out in zip(self.clients, plan, results)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [outcome for out in results for outcome in out]

    def _send(self, client, kind: str, req: Request, rec=spans.Off) -> Outcome:
        from repro.errors import ReproError

        if req.line_bytes is not None and req.line_bytes >= MAX_LINE_BYTES:
            return Outcome(
                kind, req.chunk, 0.0, None,
                f"request line of {req.line_bytes} bytes not sent (limit {MAX_LINE_BYTES})",
            )
        start = time.perf_counter()
        try:
            with rec.span("service.request", kind=kind):
                answer = client.compare(req.pairs)
            error = None
        except (OSError, ValueError, ReproError) as exc:
            # A refusal, a timeout or a dropped connection is a failed op.
            answer, error = None, repr(exc)
        return Outcome(kind, req.chunk, time.perf_counter() - start, answer, error)

    def wrong(self, outcome: Outcome) -> str | None:
        """Why this outcome is a failed op, or ``None``."""
        if outcome.error is not None:
            return outcome.error
        rows = self.chunks[outcome.chunk]
        for name in AREA_FIELDS:
            if not np.array_equal(outcome.answer[name], self.expected[name][rows]):
                return f"{outcome.kind} response for chunk {outcome.chunk}: {name} differs"
        return None
