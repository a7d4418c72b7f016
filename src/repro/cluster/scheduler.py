"""Shard scheduling as a pure step function: scatter, speculate, gather.

Once a request's tables are resident on the workers, what remains is a
scatter-gather with two failure modes (Teodoro et al. and Leng et al.
both see them dominate multi-node runs):

* **dead workers** — a failed copy takes its worker out of the run and
  requeues its shard; with every worker dead the caller runs the rest;
* **stragglers** — an idle worker with nothing queued starts a second
  copy of the oldest running shard once it has run long enough.  Every
  copy computes the same bits: the first result wins, the other copy is
  cancelled, never charged, and its worker has not failed.

The policy is :func:`step`, pure over a frozen, hashable :class:`State`,
so ``tests/test_scheduler_model.py`` walks every reachable state of
small configurations.  :class:`ShardScheduler` drives it on the calling
thread; each copy runs on a :func:`~repro.obs.trace.context_thread` that
posts its outcome to one queue, waited on no longer than until the next
copy becomes eligible.  It never touches a socket: ``run``,
``local_run`` and ``cancel`` are the transport.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.obs.events import EVENTS
from repro.obs.trace import context_thread
from repro.pixelbox.common import KernelStats

__all__ = ["Shard", "ShardOutcome", "ScheduleReport", "ShardScheduler", "Event",
           "Action", "Copy", "State", "initial_state", "step", "deadline", "finished"]

#: At most this many copies of one shard run at once, and a running
#: shard gets another only once it has run ``max(SPECULATION_FLOOR,
#: SPECULATION_FACTOR × median winning duration)`` seconds.
MAX_COPIES = 2
SPECULATION_FLOOR = 0.2
SPECULATION_FACTOR = 2.0

#: :class:`Event` kinds and :class:`Action` kinds.
IDLE, RESULT, FAILURE, TICK = "idle", "result", "failure", "tick"
DISPATCH, SPECULATE, CANCEL, LOCAL = "dispatch", "speculate", "cancel", "local"
#: Worker slots holding no :class:`Copy` (beside ``IDLE``).
OFFLINE, DEAD = "offline", "dead"


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
    """What one scatter-gather run did; ``failed`` lists dead workers."""

    shards: int = 0
    dispatches: int = 0
    speculative: int = 0
    local_shards: int = 0
    workers_used: list[str] = field(default_factory=list)
    failed: list[Any] = field(default_factory=list)

    @property
    def worker_failures(self) -> int:
        return len(self.failed)


@dataclass(frozen=True, slots=True)
class Event:
    """At ``now`` (monotonic seconds): ``worker`` became IDLE; its copy
    of ``shard`` returned a RESULT or raised a FAILURE; or a TICK."""

    kind: str
    now: float
    worker: int = -1
    shard: int = -1


@dataclass(frozen=True, slots=True)
class Action:
    """DISPATCH (or SPECULATE, a second copy) ``shard`` to ``worker``;
    CANCEL ``worker``'s copy of a won ``shard``; run ``shard`` LOCAL."""

    kind: str
    shard: int
    worker: int = -1


@dataclass(frozen=True, slots=True)
class Copy:
    """A copy of ``shard`` running since ``started``; ``cancelled`` once
    another copy won (its worker stays busy until the copy ends)."""

    shard: int
    started: float
    cancelled: bool = False


@dataclass(frozen=True, slots=True)
class State:
    """Worker slots, queued shards, merged shards, sorted win durations."""

    workers: tuple[str | Copy, ...]
    pending: tuple[int, ...]
    done: frozenset[int] = frozenset()
    wins: tuple[float, ...] = ()


def initial_state(shards: int, workers: int) -> State:
    return State(workers=(OFFLINE,) * workers, pending=tuple(range(shards)))


def finished(state: State) -> bool:
    """Every shard merged and no copy still running."""
    return not state.pending and not any(isinstance(s, Copy) for s in state.workers)


def deadline(state: State) -> float | None:
    """When a TICK would next dispatch a copy (None: only an outcome can)."""
    singles = _singles(state.workers) if IDLE in state.workers else []
    return singles[0][0] + _bar(state.wins) if singles else None


def step(state: State, event: Event) -> tuple[State, tuple[Action, ...]]:
    """The state after ``event`` and the actions to carry out for it."""
    slots, actions = list(state.workers), []
    pending, done, wins = state.pending, state.done, state.wins
    w, k = event.worker, event.shard
    if event.kind == IDLE and slots[w] == OFFLINE:
        slots[w] = IDLE
    elif event.kind in (RESULT, FAILURE):
        held = slots[w]
        if not isinstance(held, Copy) or held.shard != k:
            return state, ()  # a duplicate of an outcome already taken
        slots[w] = IDLE  # a cancelled copy ending only frees its worker
        if not held.cancelled and event.kind == RESULT:
            rivals = [v for v, slot in enumerate(slots) if _live(slot, k)]
            started = min([held.started] + [slots[v].started for v in rivals])
            done, wins = done | {k}, tuple(sorted(wins + (event.now - started,)))
            for v in rivals:
                slots[v] = replace(slots[v], cancelled=True)
                actions.append(Action(CANCEL, k, v))
        elif not held.cancelled:
            slots[w] = DEAD
            if not any(_live(slot, k) for slot in slots):
                pending = (k,) + pending
    if all(slot == DEAD for slot in slots):
        actions += [Action(LOCAL, k) for k in pending]
        pending, done = (), done | frozenset(pending)
    for v, slot in enumerate(slots):
        if slot != IDLE:
            continue
        if pending:
            kind, k, pending = DISPATCH, pending[0], pending[1:]
        else:
            bar = _bar(wins)
            eligible = [j for t, j in _singles(slots) if t + bar <= event.now]
            if not eligible:
                break
            kind, k = SPECULATE, eligible[0]
        slots[v] = Copy(k, event.now)
        actions.append(Action(kind, k, v))
    return State(tuple(slots), pending, done, wins), tuple(actions)


def _live(slot: str | Copy, shard: int) -> bool:
    return isinstance(slot, Copy) and slot.shard == shard and not slot.cancelled


def _singles(slots) -> list[tuple[float, int]]:
    """``(started, shard)`` of each running shard below ``MAX_COPIES``
    live copies, oldest first."""
    starts: dict[int, list[float]] = {}
    for slot in slots:
        if isinstance(slot, Copy) and not slot.cancelled:
            starts.setdefault(slot.shard, []).append(slot.started)
    return sorted((min(s), k) for k, s in starts.items() if len(s) < MAX_COPIES)


def _bar(wins: tuple[float, ...]) -> float:
    median = wins[len(wins) // 2] if wins else 0.0
    return max(SPECULATION_FLOOR, SPECULATION_FACTOR * median)


@dataclass(frozen=True, slots=True)
class ShardScheduler:
    """Drive :func:`step` over real workers; gather one result per shard.

    ``run(worker, shard)`` is one blocking remote call returning a
    :class:`ShardOutcome`; raising takes the worker out of this run.
    ``local_run(shard)`` runs a shard on the calling thread once every
    worker is dead.  ``cancel(worker)`` interrupts the worker's running
    call, which may then return or raise: either way the copy is dropped.
    """

    run: Callable[[Any, Shard], ShardOutcome]
    local_run: Callable[[Shard], ShardOutcome]
    cancel: Callable[[Any], None]

    def execute(
        self, shards: list[Shard], workers: list[Any]
    ) -> tuple[dict[int, ShardOutcome], ScheduleReport]:
        """Run every shard to completion; returns outcomes by shard index."""
        report = ScheduleReport(len(shards), workers_used=list(map(str, workers)))
        outcomes: dict[int, ShardOutcome] = {}
        inbox: queue.SimpleQueue = queue.SimpleQueue()

        def run_copy(w: int, shard: Shard) -> None:
            try:
                outcome = self.run(workers[w], shard)
            except Exception:  # noqa: BLE001 - any escape fails the copy
                outcome = None
            kind = FAILURE if outcome is None else RESULT
            inbox.put((Event(kind, time.monotonic(), w, shard.index), outcome))

        state, now = initial_state(len(shards), len(workers)), time.monotonic()
        for event in [Event(IDLE, now, w) for w in range(len(workers))]:
            inbox.put((event, None))
        inbox.put((Event(TICK, now), None))  # with no worker, nothing else comes
        while not finished(state):
            due = deadline(state)
            try:
                event, outcome = inbox.get(
                    timeout=None if due is None else max(0.0, due - time.monotonic())
                )
            except queue.Empty:
                event, outcome = Event(TICK, time.monotonic()), None
            before, (state, actions) = state, step(state, event)
            if event.kind == RESULT and event.shard in state.done - before.done:
                outcomes[event.shard] = outcome
            if state.workers.count(DEAD) > before.workers.count(DEAD):
                report.failed.append(worker := workers[event.worker])
                EVENTS.record("worker.failure", worker=str(worker))
            for action in actions:
                EVENTS.record(f"shard.{action.kind}", shard=action.shard)
                shard = shards[action.shard]
                if action.kind == LOCAL:
                    outcomes[shard.index] = self.local_run(shard)
                    report.local_shards += 1
                elif action.kind == CANCEL:
                    self.cancel(workers[action.worker])
                else:
                    report.dispatches += 1
                    report.speculative += action.kind == SPECULATE
                    context_thread(run_copy, action.worker, shard).start()
        return outcomes, report
