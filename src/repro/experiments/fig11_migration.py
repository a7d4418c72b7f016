"""Figure 11: benefit of dynamic task migration in three configurations.

Paper result (throughput with migration, normalized to without):
Config-I (T1500 workstation, one GTX 580) ~1.5x — the aggregator cannot
keep the GPU busy, so parser tasks migrate onto it; Config-II (EC2, two
M2050s) ~1.4x — same direction, weaker because the CPUs are stronger;
Config-III (EC2, one deliberately slowed GPU) ~1.14x — the GPU becomes
the bottleneck and aggregator tasks migrate to the CPUs.

Measured here: each tile's stage seconds, once.  Modeled: the pipelined
scheme on each :data:`CONFIGS` machine with migration off and on
(:mod:`repro.pipeline.model`).
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.common import ExperimentResult, pipeline_dataset
from repro.pipeline import Device, Machine, measure_tiles, simulate

__all__ = ["run", "CONFIGS"]

# Config-I is the 4-core workstation: CPU-side stages are scarce (one
# parser worker), so an under-utilized GPU — several times faster than
# the host at the same kernel — can absorb parse work.  Config-II has
# stronger CPUs (two parser workers) and two devices.  Config-III slows
# the single device down (a GPU shared with other applications, §5.6),
# reversing the migration direction.
_GPU = Device(launch_overhead=0.002, speed=5.0)
CONFIGS = [
    ("Config-I (1 GPU)", Machine(parser_workers=1, devices=(_GPU,))),
    (
        "Config-II (2 GPUs)",
        Machine(cores=8, parser_workers=2, devices=(_GPU, _GPU)),
    ),
    (
        "Config-III (1 slowed GPU)",
        Machine(
            cores=8,
            buffer_capacity=4,
            devices=(Device(launch_overhead=0.004, speed=1 / 8),),
        ),
    ),
]


def run(quick: bool = True) -> ExperimentResult:
    """Throughput with and without migration per configuration."""
    costs, _ = measure_tiles(*pipeline_dataset(quick))
    rows: list[list[object]] = []
    notes: list[str] = []
    for label, machine in CONFIGS:
        off = simulate(costs, machine)
        on = simulate(costs, replace(machine, migration=True))
        rows.append(
            [
                label,
                off.throughput / 1e6,
                on.throughput / 1e6,
                on.throughput / off.throughput,
            ]
        )
        notes.append(
            f"{label}: migrated {on.migrated_gpu_tasks} parser task(s) to "
            f"GPU, {on.migrated_cpu_tasks} aggregator task(s) to CPU — "
            + machine.describe()
        )
    return ExperimentResult(
        name="Figure 11 — dynamic task migration (normalized throughput)",
        headers=[
            "configuration", "off (MB/s)", "on (MB/s)", "on/off",
        ],
        rows=rows,
        paper_expectation=(
            "Config-I ~1.5x, Config-II ~1.4x, Config-III ~1.14x"
        ),
        notes=notes + [
            "per-tile stage seconds are measured once; both columns are "
            "those seconds replayed on the modeled machine of the row",
        ],
    )
