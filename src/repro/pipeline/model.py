"""The modeled half of the §4 reproduction: one discrete-event step function.

The paper's machine is a :class:`Machine` record — a pool of CPU cores,
bounded inter-stage buffers, exclusive non-preemptive devices — and a
run is a :class:`State` advanced by the pure :func:`step` until
:func:`finished`.  Measured per-tile stage seconds (:class:`TileCost`,
from :func:`repro.pipeline.measure.measure_tiles`) are what the workers
spend; how the spending overlaps, contends for a device and migrates is
the model.  The three execution schemes of Table 1 differ only in the
workers :func:`initial_state` creates:

* ``Pipelined`` — ``parser_workers`` parsers, one builder, one filter
  and one aggregator per device over three bounded queues; an
  aggregator groups everything queued (up to ``batch_pairs`` pairs) into
  one launch on an idle device, so launches are consolidated and never
  contend.
* ``NoPipe-S`` — one stream running each tile's CPU stages and then its
  own launch, strictly in sequence.
* ``NoPipe-M`` — ``streams`` such streams, uncoordinated: each blocks on
  the device its tile maps to, and the wait is the device's lock wait.

CPU work holds a core from the pool until it completes; waiting on a
full buffer or on a device holds none.  A device launch costs
``launch_overhead + seconds / speed``.  With ``migration`` on, §4.2's
two rules are evaluated at every event: aggregator input full -> its
smallest batch runs on a free core at the measured cost; aggregator
input empty once a first batch has flowed, and a device idle -> the next
parse task runs on that device.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from repro.errors import PipelineError
from repro.obs.clock import StageClock

__all__ = [
    "NOPIPE_S",
    "NOPIPE_M",
    "PIPELINED",
    "SCHEMES",
    "TileCost",
    "Device",
    "Machine",
    "DeviceUse",
    "Worker",
    "State",
    "Outcome",
    "initial_state",
    "step",
    "finished",
    "simulate",
]

NOPIPE_S = "NoPipe-S"
NOPIPE_M = "NoPipe-M"
PIPELINED = "Pipelined"
SCHEMES = (NOPIPE_S, NOPIPE_M, PIPELINED)

#: Worker roles.  Tile stage ``i`` of :data:`STAGES` reads queue
#: ``i - 1`` (the parser reads ``State.todo``) and writes queue ``i``.
STAGES = ("parser", "builder", "filter")
AGGREGATOR = "aggregator"
CPU_AGGREGATOR = "cpu-aggregator"  # migration: a batch on a free core
GPU_PARSER = "gpu-parser"  # migration: a parse task on an idle device
STREAM = "stream"  # one NoPipe stream

#: Worker phases: nothing in hand; holding a core until ``until``;
#: occupying ``device`` until ``until``; blocked on ``device`` since
#: ``until``; blocked on a full output queue.
IDLE, CPU, DEVICE, LOCK, PUT = "idle", "cpu", "device", "lock", "put"


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise PipelineError(message)


@dataclass(frozen=True, slots=True)
class TileCost:
    """Measured stage seconds of one tile on the host (the model's input)."""

    tile_id: int
    parser: float
    builder: float
    filter: float
    aggregator: float
    pairs: int
    input_bytes: int = 0


@dataclass(frozen=True, slots=True)
class Device:
    """One exclusive device: seconds per launch, rate vs. the host kernel."""

    launch_overhead: float = 0.002
    speed: float = 1.0

    def __post_init__(self) -> None:
        _require(self.launch_overhead >= 0, "launch overhead cannot be negative")
        _require(self.speed > 0, f"device speed must be > 0, got {self.speed}")


@dataclass(frozen=True, slots=True)
class Machine:
    """The modeled CPU + device machine one simulation runs on."""

    cores: int = 4
    parser_workers: int = 2
    buffer_capacity: int = 8
    batch_pairs: int = 4096
    devices: tuple[Device, ...] = (Device(),)
    migration: bool = False
    #: NoPipe-M's stream count (the other schemes ignore it).
    streams: int = 4

    def __post_init__(self) -> None:
        for name in (
            "cores", "parser_workers", "buffer_capacity", "batch_pairs",
            "streams",
        ):
            _require(getattr(self, name) >= 1, f"{name} must be >= 1")
        _require(len(self.devices) >= 1, "a machine needs at least one device")

    def describe(self) -> str:
        """The machine in one line, for the experiments' renderings."""
        devices = ", ".join(
            f"{n} device(s) at {d.launch_overhead * 1e3:g} ms per launch and "
            f"{d.speed:g}x host kernel speed"
            for d, n in Counter(self.devices).items()
        )
        return (
            f"modeled machine: {self.cores} cores, {self.parser_workers} "
            f"parser worker(s), buffers of {self.buffer_capacity}, {devices}"
        )


@dataclass(frozen=True, slots=True)
class DeviceUse:
    """One device's accounting."""

    busy_seconds: float = 0.0
    lock_wait_seconds: float = 0.0
    launches: int = 0


@dataclass(frozen=True, slots=True)
class Worker:
    """What one worker is doing until when."""

    role: str
    phase: str = IDLE
    #: Tiles in hand (the aggregator's launch group may hold several).
    hold: tuple[TileCost, ...] = ()
    until: float = 0.0
    device: int = -1
    #: A NoPipe stream's own tiles (stage workers share ``State.todo``).
    todo: tuple[TileCost, ...] = ()


@dataclass(frozen=True, slots=True)
class State:
    """Everything a run is at one instant; two equal states behave equally."""

    clock: float = 0.0
    todo: tuple[TileCost, ...] = ()
    #: parser -> builder, builder -> filter, filter -> aggregator.
    queues: tuple[tuple[TileCost, ...], ...] = ((), (), ())
    workers: tuple[Worker, ...] = ()
    devices: tuple[DeviceUse, ...] = ()
    done: tuple[int, ...] = ()
    #: A batch has reached the aggregator's input (rule 2's warm-up gate).
    warm: bool = False
    #: ``(stage, seconds)`` per started task; non-preemptive, so a task's
    #: seconds are committed when it starts.
    charged: tuple[tuple[str, float], ...] = ()
    migrated_cpu_tasks: int = 0
    migrated_gpu_tasks: int = 0


@dataclass(frozen=True, slots=True)
class Outcome:
    """Performance accounting of one simulated run."""

    tiles: int
    wall_seconds: float
    input_bytes: int
    charged: tuple[tuple[str, float], ...]
    devices: tuple[DeviceUse, ...]
    migrated_cpu_tasks: int
    migrated_gpu_tasks: int

    @property
    def throughput(self) -> float:
        """Bytes of raw input per second (the paper's §5.6 metric)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.input_bytes / self.wall_seconds

    @property
    def timers(self) -> StageClock:
        """Busy seconds per stage (stages overlap) over the run's wall time."""
        clock = StageClock("pipeline.")
        for stage, seconds in self.charged:
            clock.add(stage, seconds)
        clock.wall_total = self.wall_seconds
        return clock


def initial_state(
    costs: tuple[TileCost, ...], machine: Machine, scheme: str
) -> State:
    """The state at time zero: ``scheme``'s workers, nothing started."""
    _require(scheme in SCHEMES, f"unknown scheme {scheme!r}; known: {SCHEMES}")
    devices = tuple(DeviceUse() for _ in machine.devices)
    if scheme == PIPELINED:
        # Downstream first: on a tie for a core the pipeline drains.
        roles = [AGGREGATOR] * len(machine.devices) + ["filter", "builder"]
        roles += ["parser"] * machine.parser_workers
        if machine.migration:
            roles += [CPU_AGGREGATOR, GPU_PARSER]
        workers = tuple(Worker(role) for role in roles)
        return State(todo=tuple(costs), workers=workers, devices=devices)
    streams = machine.streams if scheme == NOPIPE_M else 1
    workers = tuple(
        Worker(STREAM, todo=tuple(costs[i::streams])) for i in range(streams)
    )
    return State(workers=workers, devices=devices)


def finished(state: State) -> bool:
    """Nothing queued, nothing in hand."""
    return not (
        state.todo
        or any(state.queues)
        or any(w.phase != IDLE or w.todo for w in state.workers)
    )


def step(state: State, machine: Machine) -> State:
    """The successor of ``state``: start all that can start at
    ``state.clock``, then move to the next completion and retire it."""
    draft = _Draft(state, machine)
    while draft.start_pass():
        pass
    draft.retire_next()
    return State(
        clock=draft.clock,
        todo=tuple(draft.todo),
        queues=tuple(tuple(q) for q in draft.queues),
        workers=tuple(draft.workers),
        devices=tuple(draft.devices),
        done=tuple(draft.done),
        warm=draft.warm,
        charged=tuple(draft.charged),
        migrated_cpu_tasks=draft.moved_cpu,
        migrated_gpu_tasks=draft.moved_gpu,
    )


def simulate(
    costs: tuple[TileCost, ...], machine: Machine, scheme: str = PIPELINED
) -> Outcome:
    """Replay ``costs`` through ``scheme`` on ``machine`` to the end."""
    state = initial_state(costs, machine, scheme)
    while not finished(state):
        state = step(state, machine)
    return Outcome(
        tiles=len(state.done),
        wall_seconds=state.clock,
        input_bytes=sum(tile.input_bytes for tile in costs),
        charged=state.charged,
        devices=state.devices,
        migrated_cpu_tasks=state.migrated_cpu_tasks,
        migrated_gpu_tasks=state.migrated_gpu_tasks,
    )


class _Draft:
    """A mutable copy of one state, private to a single :func:`step`."""

    def __init__(self, state: State, machine: Machine) -> None:
        self.machine = machine
        self.clock = state.clock
        self.todo = list(state.todo)
        self.queues = [list(q) for q in state.queues]
        self.workers = list(state.workers)
        self.devices = list(state.devices)
        self.done = list(state.done)
        self.warm = state.warm
        self.charged = list(state.charged)
        self.moved_cpu = state.migrated_cpu_tasks
        self.moved_gpu = state.migrated_gpu_tasks

    # -- resources -----------------------------------------------------
    def _core_free(self) -> bool:
        return sum(w.phase == CPU for w in self.workers) < self.machine.cores

    def _busy_devices(self) -> set[int]:
        return {w.device for w in self.workers if w.phase == DEVICE}

    def _idle_device(self) -> int | None:
        busy = self._busy_devices()
        return next(
            (d for d in range(len(self.devices)) if d not in busy), None
        )

    def _run_on_core(self, i: int, tile: TileCost, stages) -> None:
        seconds = 0.0
        for stage in stages:
            self.charged.append((stage, getattr(tile, stage)))
            seconds += getattr(tile, stage)
        self.workers[i] = replace(
            self.workers[i], phase=CPU, hold=(tile,), until=self.clock + seconds
        )

    def _launch(
        self, i: int, d: int, stage: str, hold: tuple[TileCost, ...],
        waited: float = 0.0,
    ) -> None:
        device = self.machine.devices[d]
        duration = device.launch_overhead + (
            sum(getattr(tile, stage) for tile in hold) / device.speed
        )
        use = self.devices[d]
        self.devices[d] = DeviceUse(
            use.busy_seconds + duration,
            use.lock_wait_seconds + waited,
            use.launches + 1,
        )
        self.charged.append((stage, duration))
        self.workers[i] = replace(
            self.workers[i], phase=DEVICE, hold=hold,
            until=self.clock + duration, device=d,
        )

    # -- events --------------------------------------------------------
    def start_pass(self) -> bool:
        """Let each worker, in order, start what it can; ``True`` if any did."""
        started = [self._start(i, w) for i, w in enumerate(self.workers)]
        return any(started)

    def _start(self, i: int, w: Worker) -> bool:
        machine, batches = self.machine, self.queues[-1]
        if w.phase == PUT:
            k = 0 if w.role == GPU_PARSER else STAGES.index(w.role)
            if len(self.queues[k]) >= machine.buffer_capacity:
                return False
            self.queues[k].extend(w.hold)
            self.warm = self.warm or self.queues[k] is batches
            self.workers[i] = replace(w, phase=IDLE, hold=())
        elif w.phase == LOCK:
            first = min(
                (x.until, j) for j, x in enumerate(self.workers)
                if x.phase == LOCK and x.device == w.device
            )
            if first[1] != i or w.device in self._busy_devices():
                return False
            self._launch(
                i, w.device, AGGREGATOR, w.hold, waited=self.clock - w.until
            )
        elif w.phase != IDLE:
            return False
        elif w.role in STAGES:
            k = STAGES.index(w.role)
            source = self.queues[k - 1] if k else self.todo
            if not source or not self._core_free():
                return False
            self._run_on_core(i, source.pop(0), (w.role,))
        elif w.role == AGGREGATOR:
            d = self._idle_device()
            if not batches or d is None:
                return False
            group = [batches.pop(0)]
            while batches and sum(t.pairs for t in group) < machine.batch_pairs:
                group.append(batches.pop(0))
            self._launch(i, d, AGGREGATOR, tuple(group))
        elif w.role == CPU_AGGREGATOR:
            if (
                len(batches) < machine.buffer_capacity
                or self._idle_device() is not None  # the aggregator's to take
                or not self._core_free()
            ):
                return False
            smallest = min(batches, key=lambda tile: tile.pairs)
            batches.remove(smallest)
            self._run_on_core(i, smallest, (AGGREGATOR,))
            self.moved_cpu += 1
        elif w.role == GPU_PARSER:
            d = self._idle_device()
            if not self.warm or batches or not self.todo or d is None:
                return False
            self._launch(i, d, "parser", (self.todo.pop(0),))
            self.moved_gpu += 1
        else:  # STREAM
            if not w.todo or not self._core_free():
                return False
            self.workers[i] = replace(w, todo=w.todo[1:])
            self._run_on_core(i, w.todo[0], STAGES)
        return True

    def retire_next(self) -> None:
        """Advance the clock to the earliest completion and retire it."""
        self.clock = min(
            w.until for w in self.workers if w.phase in (CPU, DEVICE)
        )
        for i, w in enumerate(self.workers):
            if w.phase not in (CPU, DEVICE) or w.until != self.clock:
                continue
            if w.role in STAGES or w.role == GPU_PARSER:
                self.workers[i] = replace(w, phase=PUT, device=-1)
            elif w.role == STREAM and w.phase == CPU:
                (tile,) = w.hold
                self.workers[i] = replace(
                    w, phase=LOCK, device=tile.tile_id % len(self.devices)
                )
            else:
                self.done.extend(tile.tile_id for tile in w.hold)
                self.workers[i] = replace(w, phase=IDLE, hold=(), device=-1)
