"""Figure 11: benefit of dynamic task migration in three configurations.

Paper result (throughput with migration, normalized to without):
Config-I (T1500 workstation, one GTX 580) ~1.5x — the aggregator cannot
keep the GPU busy, so parser tasks migrate onto it; Config-II (EC2, two
M2050s) ~1.4x — same direction, weaker because the CPUs are stronger;
Config-III (EC2, one deliberately slowed GPU) ~1.14x — the GPU becomes
the bottleneck and aggregator tasks migrate to the CPUs.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, pipeline_dataset
from repro.pipeline.device import GpuDevice
from repro.pipeline.engine import PipelineOptions, run_pipelined
from repro.pipeline.migration import MigrationConfig

__all__ = ["run", "CONFIGS"]

# (label, device factory, pipeline knobs) per platform configuration.
# Config-I models the paper's 4-core workstation: CPU-side stages are
# scarce (one parser worker), so an under-utilized GPU can absorb parse
# work.  Config-II has two devices.  Config-III slows the single device
# down (a GPU shared with other applications, §5.6), reversing the
# migration direction.
CONFIGS = [
    (
        "Config-I (1 GPU)",
        lambda: [GpuDevice("gpu0", launch_overhead=0.002)],
        {"parser_workers": 1},
    ),
    (
        "Config-II (2 GPUs)",
        lambda: [
            GpuDevice("gpu0", launch_overhead=0.002),
            GpuDevice("gpu1", launch_overhead=0.002),
        ],
        {"parser_workers": 1},
    ),
    (
        "Config-III (1 slowed GPU)",
        lambda: [GpuDevice("gpu0", launch_overhead=0.004, slowdown=8.0)],
        {"buffer_capacity": 4},
    ),
]


def run(quick: bool = True) -> ExperimentResult:
    """Measure throughput with and without migration per configuration."""
    dir_a, dir_b = pipeline_dataset(quick)
    rows: list[list[object]] = []
    details: list[str] = []
    for label, device_factory, knobs in CONFIGS:
        off = run_pipelined(
            dir_a, dir_b,
            PipelineOptions(devices=device_factory(), migration=None, **knobs),
        )
        on = run_pipelined(
            dir_a, dir_b,
            PipelineOptions(
                devices=device_factory(),
                migration=MigrationConfig(cpu_workers=2),
                **knobs,
            ),
        )
        gain = on.throughput / off.throughput if off.throughput else 0.0
        rows.append(
            [label, off.throughput / 1e6, on.throughput / 1e6, gain]
        )
        moved = on.timers.counts
        details.append(
            f"{label}: migrated {moved['migrated_gpu_tasks']} parser "
            f"task(s) to GPU, {moved['migrated_cpu_tasks']} aggregator "
            f"task(s) to CPU"
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
        notes=details,
    )
