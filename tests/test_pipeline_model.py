"""The §4 reproduction: measured stage costs, one discrete-event model.

Every expectation below is computed by hand from a fixed cost vector and
asserted with ``==``; nothing here sleeps, polls or reads a clock.
"""

import copy
import dataclasses
import itertools

import pytest

from repro import Session
from repro.api.result import CompareResult
from repro.errors import ParseError, PipelineError
from repro.io.tiles import tile_name
from repro.pipeline import (
    NOPIPE_M,
    NOPIPE_S,
    PIPELINED,
    SCHEMES,
    Device,
    DeviceUse,
    Machine,
    TileCost,
    finished,
    initial_state,
    measure_tiles,
    simulate,
    step,
)
from repro.pipeline.model import CPU, DEVICE


def tiles(*costs, pairs=10):
    """``(parser, builder, filter, aggregator)`` rows -> a cost vector."""
    return tuple(
        TileCost(i, *map(float, row), pairs=pairs, input_bytes=100)
        for i, row in enumerate(costs)
    )


def machine(overhead=1.0, speed=1.0, devices=1, **kw):
    return Machine(devices=(Device(overhead, speed),) * devices, **kw)


def trajectory(costs, mach, scheme):
    """Every state from the initial one to the terminal one."""
    state = initial_state(costs, mach, scheme)
    states = [state]
    while not finished(state):
        assert len(states) <= 50 * (len(costs) + 1), "model does not terminate"
        state = step(state, mach)
        states.append(state)
    return states


class TestHandComputedSchedules:
    """(wall, launches per device, lock wait per device), by hand."""

    @staticmethod
    def summary(out):
        return (
            out.wall_seconds,
            [d.launches for d in out.devices],
            [d.lock_wait_seconds for d in out.devices],
        )

    @pytest.mark.parametrize(
        "costs, mach, expected",
        [
            # cpu 3, launch 1+2 -> 6; cpu 4 -> 10, launch 1+3 -> 14.
            (tiles((1, 1, 1, 2), (2, 1, 1, 3)), machine(), (14.0, [2], [0.0])),
            # Three times cpu 1 + launch 0.5 + 4/2; streams are ignored.
            (
                tiles(*[(1, 0, 0, 4)] * 3),
                machine(overhead=0.5, speed=2.0, streams=3),
                (10.5, [3], [0.0]),
            ),
            # Tiles alternate between two devices; still one at a time.
            (
                tiles(*[(0.5, 0.25, 0.25, 1)] * 2),
                machine(overhead=0.0, devices=2),
                (4.0, [1, 1], [0.0, 0.0]),
            ),
            ((), machine(), (0.0, [0], [0.0])),
        ],
        ids=["two-tiles", "fast-device", "two-devices", "no-tiles"],
    )
    def test_nopipe_single(self, costs, mach, expected):
        assert self.summary(simulate(costs, mach, NOPIPE_S)) == expected

    @pytest.mark.parametrize(
        "costs, mach, expected",
        [
            # Both streams reach the device at t=1; stream 0 launches
            # (1+2) first, stream 1 waits 3; from then on each request
            # finds the other stream's launch in progress and waits 2.
            (
                tiles(*[(1, 0, 0, 2)] * 4),
                machine(streams=2),
                (13.0, [4], [7.0]),
            ),
            # A device per stream: no contention at all.
            (
                tiles(*[(1, 0, 0, 2)] * 4),
                machine(streams=2, devices=2),
                (8.0, [2, 2], [0.0, 0.0]),
            ),
            # One core: stream 1's CPU phase waits for stream 0's, and
            # each launch (0+1) finds the device idle.
            (
                tiles(*[(2, 1, 1, 1)] * 2),
                machine(overhead=0.0, streams=2, cores=1),
                (9.0, [2], [0.0]),
            ),
        ],
        ids=["contended", "device-per-stream", "one-core"],
    )
    def test_nopipe_multi(self, costs, mach, expected):
        assert self.summary(simulate(costs, mach, NOPIPE_M)) == expected

    @pytest.mark.parametrize(
        "costs, mach, expected",
        [
            # T0 parsed 2, built 3, filtered 4, launched 4..7; T1 reaches
            # the aggregator at 6, launches 7..10.
            (
                tiles(*[(2, 1, 1, 2)] * 2),
                machine(parser_workers=1),
                (10.0, [2], [0.0]),
            ),
            # T0 launches alone at 2 (1+4 -> 7); T1..T3 queue up behind
            # it and go out as one launch of 1+12 -> 20.
            (
                tiles(*[(1, 0.5, 0.5, 4)] * 4),
                machine(parser_workers=2, batch_pairs=100),
                (20.0, [2], [0.0]),
            ),
            # Same vector, one tile per launch: 7, 12, 17, 22.
            (
                tiles(*[(1, 0.5, 0.5, 4)] * 4),
                machine(parser_workers=2, batch_pairs=10),
                (22.0, [4], [0.0]),
            ),
            # Capacity 1 and a slow device: the filter blocks on the full
            # buffer at 5 until the launch of T0 (3..13) ends.
            (
                tiles(*[(1, 1, 1, 10)] * 3),
                machine(overhead=0.0, parser_workers=1, buffer_capacity=1,
                        batch_pairs=1),
                (33.0, [3], [0.0]),
            ),
            # An aggregator per device: T0 on device 0 (2..7), T1 on
            # device 1 (2.5..7.5), then T2 (7..12) and T3 (7.5..12.5).
            (
                tiles(*[(1, 0.5, 0.5, 4)] * 4),
                machine(parser_workers=2, batch_pairs=10, devices=2),
                (12.5, [2, 2], [0.0, 0.0]),
            ),
        ],
        ids=["one-parser", "batched", "unbatched", "backpressure",
             "two-devices"],
    )
    def test_pipelined(self, costs, mach, expected):
        assert self.summary(simulate(costs, mach, PIPELINED)) == expected

    def test_outcome_accounting(self):
        out = simulate(
            tiles(*[(1, 0.5, 0.5, 4)] * 4),
            machine(parser_workers=2, batch_pairs=100),
        )
        assert out.tiles == 4 and out.input_bytes == 400
        assert out.throughput == 400 / 20.0
        assert out.devices == (DeviceUse(18.0, 0.0, 2),)
        timers = out.timers
        assert timers.wall_total == 20.0
        assert timers.totals == {
            "parser": 4.0, "builder": 2.0, "filter": 2.0, "aggregator": 18.0,
        }
        assert timers.counts["parser"] == 4 and timers.counts["aggregator"] == 2
        assert "pipeline.aggregator" in timers.report()


KINDS = [(4, 1, 1, 1), (1, 1, 1, 4), (1, 1, 1, 1)]


class TestEveryReachedState:
    """Exhaustive over small configurations: the invariants of the machine
    hold in every state ``step`` reaches, and every run terminates."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("migration", [False, True])
    def test_invariants(self, scheme, migration):
        vectors = [
            tuple(
                TileCost(i, *map(float, row), pairs=1 + sum(row[:i + 1]))
                for i, row in enumerate(rows)
            )
            for n in range(4)
            for rows in itertools.product(KINDS, repeat=n)
        ]
        machines = [
            machine(
                overhead=0.5, speed=speed, devices=devices, cores=cores,
                parser_workers=parsers, buffer_capacity=capacity,
                batch_pairs=batch, streams=2, migration=migration,
            )
            for speed in (0.25, 4.0)
            for devices in (1, 2)
            for cores in (1, 3)
            for parsers in (1, 2)
            for capacity in (1, 2)
            for batch in (1, 4096)
        ]
        for costs, mach in itertools.product(vectors, machines):
            ids = sorted(tile.tile_id for tile in costs)
            states = trajectory(costs, mach, scheme)
            for before, state in zip(states, states[1:]):
                assert state.clock >= before.clock
                assert all(
                    len(q) <= mach.buffer_capacity for q in state.queues
                )
                assert sum(w.phase == CPU for w in state.workers) <= mach.cores
                on_device = [
                    w.device for w in state.workers if w.phase == DEVICE
                ]
                assert len(on_device) == len(set(on_device))
                # Every tile is in exactly one place.
                somewhere = [t.tile_id for t in state.todo]
                somewhere += [t.tile_id for q in state.queues for t in q]
                for w in state.workers:
                    somewhere += [t.tile_id for t in w.hold + w.todo]
                assert sorted(somewhere + list(state.done)) == ids
            assert sorted(states[-1].done) == ids
            if not migration:
                assert states[-1].migrated_cpu_tasks == 0
                assert states[-1].migrated_gpu_tasks == 0

    def test_step_is_pure(self):
        costs = tiles(*KINDS, *KINDS)
        mach = machine(parser_workers=2, buffer_capacity=1, migration=True)
        for state in trajectory(costs, mach, PIPELINED)[:-1]:
            snapshot = copy.deepcopy(state)
            assert step(state, mach) == step(state, mach)
            assert state == snapshot


class TestMigration:
    SLOW = tiles(*[(1, 1, 1, 10)] * 3)
    PARSER_BOUND = tiles(*[(8, 1, 1, 1)] * 4)

    def test_slow_device_moves_batches_to_cpu(self):
        # T1 fills the one-slot buffer at 4 while T0 is on the device
        # (3..13): it runs on a core (4..14) and T2 launches at 13.
        mach = machine(overhead=0.0, parser_workers=1, buffer_capacity=1,
                       batch_pairs=1, migration=True)
        out = simulate(self.SLOW, mach)
        assert out.migrated_cpu_tasks == 1 and out.migrated_gpu_tasks == 0
        assert out.wall_seconds == 23.0
        assert out.devices[0].launches == 2

    def test_fast_idle_device_takes_parse_tasks(self):
        # One parser worker: T0 reaches the aggregator at 10 and launches
        # (0.5 + 1/4); when that ends the input is empty and the device
        # idle, so T2 and then T3 are parsed there (0.5 + 8/4 each)
        # while the worker is still on T1.
        mach = machine(overhead=0.5, speed=4.0, parser_workers=1,
                       migration=True)
        out = simulate(self.PARSER_BOUND, mach)
        assert out.migrated_gpu_tasks == 2 and out.migrated_cpu_tasks == 0
        off = simulate(
            self.PARSER_BOUND, dataclasses.replace(mach, migration=False)
        )
        assert (off.wall_seconds, out.wall_seconds) == (34.75, 19.5)

    def test_migration_off_moves_nothing(self):
        for costs in (self.SLOW, self.PARSER_BOUND):
            out = simulate(costs, machine(parser_workers=1, buffer_capacity=1))
            assert out.migrated_cpu_tasks == out.migrated_gpu_tasks == 0

    def test_warm_up_gate(self):
        """An empty aggregator input that never held a batch is the
        pipeline filling, not a starved device."""
        mach = machine(overhead=0.5, speed=4.0, parser_workers=1,
                       migration=True)
        states = trajectory(self.PARSER_BOUND, mach, PIPELINED)
        cold = [s for s in states if not s.warm]
        assert len(cold) >= 3  # parse, build, filter of T0
        for state in cold:
            assert state.todo  # parse work was there to take ...
            assert state.migrated_gpu_tasks == 0  # ... and stayed
            assert state.devices[0].launches == 0
        assert states[-1].migrated_gpu_tasks > 0


def test_equal_inputs_give_equal_outcomes():
    costs = tiles(*KINDS, *KINDS, *KINDS)
    for scheme in SCHEMES:
        mach = machine(parser_workers=2, buffer_capacity=2, migration=True)
        assert simulate(costs, mach, scheme) == simulate(costs, mach, scheme)
    assert simulate(costs, mach, NOPIPE_S) != simulate(costs, mach, NOPIPE_M)


class TestMachineValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"parser_workers": 0},
            {"batch_pairs": 0},
            {"buffer_capacity": 0},
            {"streams": 0},
            {"cores": 0},
            {"devices": ()},
        ],
        ids=lambda bad: next(iter(bad)),
    )
    def test_bad_machine(self, bad):
        with pytest.raises(PipelineError):
            Machine(**bad)

    def test_bad_device(self):
        with pytest.raises(PipelineError):
            Device(launch_overhead=-0.001)
        with pytest.raises(PipelineError):
            Device(speed=0.0)

    def test_unknown_scheme(self):
        with pytest.raises(PipelineError):
            simulate((), Machine(), "NoPipe-X")


class TestMeasurement:
    def test_measured_similarity_is_the_production_result(self, small_dataset):
        dir_a, dir_b = small_dataset
        costs, measured = measure_tiles(dir_a, dir_b)
        with Session() as session:
            files = session.compare_files(dir_a, dir_b)
        assert CompareResult.from_pairwise(
            measured,
            tiles=len(costs),
            wall_seconds=files.wall_seconds,
            input_bytes=sum(tile.input_bytes for tile in costs),
        ) == files
        assert [tile.tile_id for tile in costs] == [0, 1, 2, 3]
        assert sum(tile.pairs for tile in costs) == files.candidate_pairs
        for tile in costs:
            assert min(tile.parser, tile.builder, tile.filter,
                       tile.aggregator) > 0.0
        # The measured vector drives every scheme to the same tile count.
        for scheme in SCHEMES:
            assert simulate(costs, Machine(), scheme).tiles == 4

    def test_corrupt_tile_raises_the_parsers_error(self, tmp_path):
        for side in ("result_a", "result_b"):
            (tmp_path / side).mkdir()
            for t in range(3):
                (tmp_path / side / tile_name(t)).write_text("0,0 4,0 4,4 0,4\n")
        (tmp_path / "result_a" / tile_name(1)).write_text("0,0 4,0 4\n")
        with pytest.raises(ParseError):
            measure_tiles(tmp_path / "result_a", tmp_path / "result_b")
