"""Shard scheduling: scatter, straggler speculation, first-result-wins.

Once a request's tables are resident on the workers, what remains is a
classic scatter-gather with two failure modes the transport layer must
own (Teodoro et al. and Leng et al. both report them dominating
multi-node runs):

* **dead workers** — a connection that errors mid-shard returns its
  shard to the pending queue and takes the worker out of this run; the
  remaining workers (or, when none remain, the coordinator itself)
  finish the request, so a kill never changes results or hangs a caller;
* **stragglers** — a worker that has drained the pending queue and finds
  shards still outstanding re-dispatches the longest-running one
  (bounded copies per shard).  Every execution of a shard computes the
  same bits — the kernel is deterministic — so *first result wins* is a
  deterministic merge, and the loser's work counters are discarded so
  the request's :class:`~repro.pixelbox.common.KernelStats` are
  identical to any local backend's.

The scheduler is transport-agnostic: it drives ``run(worker, shard)``
callables and never touches sockets, which is what makes it unit-testable
with plain functions standing in for remote workers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.obs.events import EVENTS
from repro.obs.trace import context_thread
from repro.pixelbox.common import KernelStats

__all__ = ["Shard", "ShardOutcome", "ScheduleReport", "ShardScheduler"]

# A shard may run on at most this many workers at once (the original
# dispatch plus speculative copies).
_MAX_COPIES = 2


@dataclass(frozen=True, slots=True)
class Shard:
    """One contiguous slice of the request's pair indices."""

    index: int
    lo: int
    hi: int

    @property
    def size(self) -> int:
        return self.hi - self.lo


@dataclass(slots=True)
class ShardOutcome:
    """The winning execution of one shard."""

    inter: np.ndarray
    stats: KernelStats


@dataclass(slots=True)
class ScheduleReport:
    """What one scatter-gather run did (surfaced for tests/metrics)."""

    shards: int = 0
    dispatches: int = 0
    speculative: int = 0
    worker_failures: int = 0
    local_shards: int = 0
    workers_used: list[str] = field(default_factory=list)


class _ShardState:
    __slots__ = ("shard", "running", "started", "done")

    def __init__(self, shard: Shard):
        self.shard = shard
        self.running = 0
        self.started: float | None = None
        self.done = False


class ShardScheduler:
    """Scatter ``shards`` across ``workers``; gather exactly one result each.

    Parameters
    ----------
    run:
        ``run(worker, shard) -> ShardOutcome`` — blocking remote call.
        Raising marks the worker failed for this run and requeues the
        shard.
    local_run:
        Fallback ``local_run(shard) -> ShardOutcome`` executed on the
        scheduling thread for shards no live worker can take.
    speculate:
        Enable straggler re-dispatch (on by default; the benchmark can
        disable it to measure pure scatter-gather).
    speculation_delay:
        A shard only becomes a speculation candidate once it has run at
        least this long *and* at least ``speculation_factor`` times the
        median completed-shard duration — an idle worker must not clone
        work that is merely milliseconds from finishing.
    """

    def __init__(
        self,
        run: Callable[[Any, Shard], ShardOutcome],
        local_run: Callable[[Shard], ShardOutcome],
        speculate: bool = True,
        speculation_delay: float = 0.2,
        speculation_factor: float = 2.0,
    ):
        self._run = run
        self._local_run = local_run
        self._speculate = speculate
        self._speculation_delay = speculation_delay
        self._speculation_factor = speculation_factor

    def execute(
        self, shards: list[Shard], workers: list[Any]
    ) -> tuple[dict[int, ShardOutcome], ScheduleReport]:
        """Run every shard to completion; returns outcomes by shard index."""
        report = ScheduleReport(shards=len(shards))
        results: dict[int, ShardOutcome] = {}
        if not shards:
            return results, report
        lock = threading.Condition()
        pending: list[_ShardState] = [_ShardState(s) for s in shards]
        states = list(pending)
        remaining = len(shards)
        durations: list[float] = []  # completed-shard wall times

        def take_next() -> _ShardState | None:
            """Next pending shard, else a speculation candidate, else None."""
            nonlocal remaining
            with lock:
                while True:
                    if remaining == 0:
                        return None
                    if pending:
                        # A state only re-enters pending after every copy
                        # failed (settle resets its clock).
                        state = pending.pop(0)
                        state.running += 1
                        state.started = time.monotonic()
                        report.dispatches += 1
                        EVENTS.record(
                            "shard.dispatch",
                            shard=state.shard.index,
                            lo=state.shard.lo,
                            hi=state.shard.hi,
                            copies=state.running,
                        )
                        return state
                    if self._speculate:
                        now = time.monotonic()
                        bar = self._speculation_delay
                        if durations:
                            median = sorted(durations)[len(durations) // 2]
                            bar = max(bar, self._speculation_factor * median)
                        candidates = [
                            s
                            for s in states
                            if not s.done
                            and 0 < s.running < _MAX_COPIES
                            and now - s.started >= bar
                        ]
                        if candidates:
                            state = min(
                                candidates,
                                key=lambda s: (s.started, s.shard.index),
                            )
                            state.running += 1
                            report.speculative += 1
                            report.dispatches += 1
                            EVENTS.record(
                                "shard.speculate",
                                shard=state.shard.index,
                                copies=state.running,
                            )
                            return state
                    # Nothing to take right now: wait for completions or
                    # failures to change the picture.
                    if not lock.wait(timeout=0.05):
                        continue

        def settle(state: _ShardState, outcome: ShardOutcome | None) -> None:
            """Record one execution's end (win, loss, or failure)."""
            nonlocal remaining
            with lock:
                state.running -= 1
                if outcome is not None and not state.done:
                    state.done = True
                    results[state.shard.index] = outcome
                    if state.started is not None:
                        durations.append(time.monotonic() - state.started)
                    remaining -= 1
                elif outcome is None and not state.done:
                    if state.running == 0:
                        # Every copy failed: back to the queue.
                        state.started = None
                        pending.insert(0, state)
                        EVENTS.record(
                            "shard.redispatch", shard=state.shard.index
                        )
                lock.notify_all()

        def worker_loop(worker: Any) -> None:
            while True:
                state = take_next()
                if state is None:
                    return
                try:
                    outcome = self._run(worker, state.shard)
                except Exception:  # noqa: BLE001 - any escape kills the
                    # worker for this run, never the request: the shard
                    # MUST be settled or the gather loop could wait on a
                    # copy no thread is running.
                    with lock:
                        report.worker_failures += 1
                    EVENTS.record(
                        "worker.failure",
                        worker=str(worker),
                        shard=state.shard.index,
                    )
                    settle(state, None)
                    return  # worker is out of this run
                settle(state, outcome)

        threads = []
        for worker in workers:
            # In the caller's context: shard spans join its trace.
            t = context_thread(worker_loop, worker)
            t.start()
            threads.append(t)
            report.workers_used.append(str(worker))

        # Gather: wake on every completion; when every worker thread has
        # exited with shards still unfinished, finish them locally.
        while True:
            with lock:
                if remaining == 0:
                    break
                alive = any(t.is_alive() for t in threads)
                if not alive:
                    # No thread can still be executing anything, so a
                    # nonzero running count is stale bookkeeping from a
                    # thread that died without settling — include those
                    # shards too; waiting on them would hang forever.
                    leftovers = [s for s in states if not s.done]
                else:
                    lock.wait(timeout=0.05)
                    continue
            for state in leftovers:
                EVENTS.record(
                    "shard.local_fallback", shard=state.shard.index
                )
                outcome = self._local_run(state.shard)
                report.local_shards += 1
                settle(state, outcome)
        for t in threads:
            t.join(timeout=0.05)
        return results, report
