"""The shard scheduler's policy, model-checked and stepped by hand.

``repro.cluster.scheduler.step`` is pure over a hashable ``State``, so
every reachable state of a small configuration can be visited.  The
explorer below delivers, from each state, every event ShardScheduler could
see next: a worker coming online, a result or a failure from every
running copy (a cancelled copy's result is the late duplicate), and the
tick at the next speculation deadline.  Results and failures happen at
the current clock; only a tick moves it.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cluster.scheduler import (
    CANCEL,
    DEAD,
    DISPATCH,
    FAILURE,
    IDLE,
    LOCAL,
    MAX_COPIES,
    OFFLINE,
    RESULT,
    SPECULATE,
    SPECULATION_FACTOR,
    SPECULATION_FLOOR,
    TICK,
    Action,
    Copy,
    Event,
    State,
    deadline,
    finished,
    initial_state,
    step,
)

MAX_WORKERS, MAX_SHARDS = 3, 4


def _enabled(state: State, clock: float) -> list[Event]:
    events = []
    for w, slot in enumerate(state.workers):
        if slot == OFFLINE:
            events.append(Event(IDLE, clock, w))
        elif isinstance(slot, Copy):
            events.append(Event(RESULT, clock, w, slot.shard))
            events.append(Event(FAILURE, clock, w, slot.shard))
    if not state.workers:
        events.append(Event(TICK, clock))  # ShardScheduler posts one first
    due = deadline(state)
    if due is not None:
        assert due > clock, "an eligible copy was left waiting"
        events.append(Event(TICK, due))
    return events


def _check_state(state: State, shards: int) -> None:
    copies = [s for s in state.workers if isinstance(s, Copy)]
    for k in range(shards):
        mine = [c for c in copies if c.shard == k]
        live = [c for c in mine if not c.cancelled]
        assert len(mine) <= MAX_COPIES, f"shard {k} has {len(mine)} copies"
        # Every shard is exactly one of: merged, queued, running.
        assert (k in state.done) + (k in state.pending) + bool(live) == 1
        if k not in state.done:
            assert len(live) == len(mine), "a copy of an open shard was cancelled"
    assert len(set(state.pending)) == len(state.pending)
    if finished(state):
        assert state.done == frozenset(range(shards))


def _check_duplicates(state: State, clock: float) -> None:
    """An outcome for a copy the worker no longer holds changes nothing."""
    for w, k in itertools.product(range(len(state.workers)), state.done):
        slot = state.workers[w]
        if not (isinstance(slot, Copy) and slot.shard == k):
            for kind in (RESULT, FAILURE):
                assert step(state, Event(kind, clock, w, k)) == (state, ())


def _check_step(old: State, event: Event, new: State, actions) -> None:
    assert old.done <= new.done, "a merged shard was un-merged"
    local = [a.shard for a in actions if a.kind == LOCAL]
    assert len(set(local)) == len(local)
    merged = new.done - old.done
    by_result = merged - set(local)
    if by_result:
        # Charged once: only a live copy's result merges, and only its shard.
        assert event.kind == RESULT and by_result == {event.shard}
        held = old.workers[event.worker]
        assert isinstance(held, Copy) and not held.cancelled
    assert not (set(local) & old.done)
    held = old.workers[event.worker] if event.kind in (RESULT, FAILURE) else None
    if isinstance(held, Copy) and held.cancelled:
        # A lost copy ending, however it ends, is not a worker failure.
        assert new.workers[event.worker] != DEAD, "a lost copy benched its worker"
    for w, slot in enumerate(old.workers):
        if slot == DEAD:
            assert new.workers[w] == DEAD, "a dead worker came back"
    for action in actions:
        if action.kind in (DISPATCH, SPECULATE):
            assert old.workers[action.worker] != DEAD, "dispatched to a dead worker"
            assert new.workers[action.worker] == Copy(action.shard, event.now)
        elif action.kind == CANCEL:
            assert new.workers[action.worker] == Copy(
                action.shard, new.workers[action.worker].started, True
            )


def _explore(shards: int, workers: int) -> int:
    """Visit every reachable ``(state, clock)``; returns how many."""
    start = (initial_state(shards, workers), 0.0)
    successors: dict = {}
    stack = [start]
    while stack:
        node = stack.pop()
        if node in successors:
            continue
        state, clock = node
        _check_state(state, shards)
        _check_duplicates(state, clock)
        successors[node] = []
        if finished(state):
            continue
        events = _enabled(state, clock)
        assert events, f"deadlock in {state}"
        for event in events:
            new, actions = step(state, event)
            _check_step(state, event, new, actions)
            nxt = (new, max(clock, event.now))
            successors[node].append(nxt)
            stack.append(nxt)
    # Termination: no cycle, so every run ends in a finished state.
    order, mark = [], {}
    for root in successors:
        if root in mark:
            continue
        work = [(root, iter(successors[root]))]
        mark[root] = "open"
        while work:
            node, it = work[-1]
            child = next(it, None)
            if child is None:
                mark[node] = "closed"
                order.append(node)
                work.pop()
            elif child not in mark:
                mark[child] = "open"
                work.append((child, iter(successors[child])))
            else:
                assert mark[child] == "closed", "the scheduler can loop forever"
    return len(successors)


def test_every_interleaving_merges_each_shard_once_and_terminates(capsys):
    total = 0
    for workers, shards in itertools.product(
        range(MAX_WORKERS + 1), range(MAX_SHARDS + 1)
    ):
        total += _explore(shards, workers)
    with capsys.disabled():
        print(f"\nscheduler model: {total} reachable states "
              f"(<= {MAX_WORKERS} workers x <= {MAX_SHARDS} shards)")
    assert total > 1000


# ----------------------------------------------------------------------
# The speculation bar, at exact times
# ----------------------------------------------------------------------
def _run(state: State, *events: Event):
    actions = ()
    for event in events:
        state, actions = step(state, event)
    return state, actions


def _online(shards: int, workers: int) -> State:
    state = initial_state(shards, workers)
    return _run(state, *(Event(IDLE, 0.0, w) for w in range(workers)))[0]


def test_a_second_copy_waits_for_the_floor():
    state = _online(1, 2)
    assert state.workers == (Copy(0, 0.0), IDLE)
    assert deadline(state) == SPECULATION_FLOOR
    before, actions = step(state, Event(TICK, SPECULATION_FLOOR - 1e-9))
    assert actions == () and before == state
    state, actions = step(state, Event(TICK, SPECULATION_FLOOR))
    assert actions == (Action(SPECULATE, 0, 1),)
    assert state.workers == (Copy(0, 0.0), Copy(0, SPECULATION_FLOOR))


def test_the_bar_follows_twice_the_median_winning_duration():
    # Worker 0 wins shard 0 after 0.5 s; shard 1 has run since 0.0.
    state, actions = _run(_online(3, 2), Event(RESULT, 0.5, 0, 0))
    assert state.wins == (0.5,)
    assert actions == (Action(DISPATCH, 2, 0),)
    state, actions = step(state, Event(RESULT, 0.75, 0, 2))
    assert state.wins == (0.25, 0.5)  # median = wins[1] = 0.5
    assert actions == ()
    bar = SPECULATION_FACTOR * 0.5
    assert deadline(state) == 0.0 + bar
    assert step(state, Event(TICK, bar - 1e-9))[1] == ()
    assert step(state, Event(TICK, bar))[1] == (Action(SPECULATE, 1, 0),)


def test_a_shard_never_runs_more_than_two_copies():
    state = _online(1, 3)
    state, actions = step(state, Event(TICK, SPECULATION_FLOOR))
    assert actions == (Action(SPECULATE, 0, 1),)
    assert deadline(state) is None  # worker 2 stays idle for good
    assert step(state, Event(TICK, 100.0))[1] == ()


def test_the_first_result_wins_and_the_loser_is_cancelled_not_failed():
    state, _ = _run(_online(1, 2), Event(TICK, SPECULATION_FLOOR))
    state, actions = step(state, Event(RESULT, 0.25, 1, 0))
    assert actions == (Action(CANCEL, 0, 0),)
    assert state.done == {0} and state.wins == (0.25,)
    assert state.workers == (Copy(0, 0.0, cancelled=True), IDLE)
    assert not finished(state)  # the cancelled copy is still running
    # The aborted copy then fails (or returns late): its worker is free.
    for kind in (FAILURE, RESULT):
        end, actions = step(state, Event(kind, 0.26, 0, 0))
        assert actions == () and end.workers == (IDLE, IDLE)
        assert end.done == {0} and end.wins == (0.25,) and finished(end)


def test_a_failure_requeues_first_and_the_last_death_goes_local():
    state = _online(3, 2)  # shard 0 on worker 0, shard 1 on worker 1
    state, actions = step(state, Event(FAILURE, 0.1, 0, 0))
    assert state.workers[0] == DEAD and state.pending == (0, 2)
    assert actions == ()
    state, actions = step(state, Event(FAILURE, 0.2, 1, 1))
    assert actions == (Action(LOCAL, 1), Action(LOCAL, 0), Action(LOCAL, 2))
    assert finished(state) and state.done == {0, 1, 2}


@pytest.mark.parametrize("shards", [0, 3])
def test_no_workers_means_every_shard_runs_locally(shards):
    state, actions = step(initial_state(shards, 0), Event(TICK, 0.0))
    assert actions == tuple(Action(LOCAL, k) for k in range(shards))
    assert finished(state)
