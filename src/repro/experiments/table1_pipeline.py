"""Table 1: execution schemes vs single-core PostGIS (§5.5).

Paper result (speedups over PostGIS-S): NoPipe-S 37x, NoPipe-M 64x,
Pipelined 76x.  NoPipe-M loses to the pipeline because its uncoordinated
streams serialize on the GPU (CPU cores were only ~50% utilized);
the pipeline's single aggregator batches input and consolidates kernel
launches.
"""

from __future__ import annotations

import time

from repro.experiments.common import (
    ExperimentResult,
    load_result_sets,
    pipeline_dataset,
)
from repro.pipeline.device import GpuDevice
from repro.pipeline.engine import (
    PipelineOptions,
    run_nopipe_multi,
    run_nopipe_single,
    run_pipelined,
)
from repro.sdbms.queries import run_cross_compare

__all__ = ["run"]


def _options() -> PipelineOptions:
    return PipelineOptions(devices=[GpuDevice(launch_overhead=0.002)])


def run(quick: bool = True) -> ExperimentResult:
    """Time the four execution schemes on one dataset."""
    dir_a, dir_b = pipeline_dataset(quick)
    polys_a, polys_b = load_result_sets(dir_a, dir_b)

    start = time.perf_counter()
    postgis = run_cross_compare(polys_a, polys_b, optimized=True)
    t_postgis = time.perf_counter() - start

    out_s = run_nopipe_single(dir_a, dir_b, _options())
    out_m = run_nopipe_multi(dir_a, dir_b, _options(), streams=4)
    out_p = run_pipelined(dir_a, dir_b, _options())

    rows = [
        ["PostGIS-S", t_postgis, 1.0],
        ["NoPipe-S", out_s.wall_seconds, t_postgis / out_s.wall_seconds],
        ["NoPipe-M", out_m.wall_seconds, t_postgis / out_m.wall_seconds],
        ["Pipelined", out_p.wall_seconds, t_postgis / out_p.wall_seconds],
    ]
    return ExperimentResult(
        name="Table 1 — execution schemes (speedup vs PostGIS-S)",
        headers=["scheme", "seconds", "speedup"],
        rows=rows,
        paper_expectation="NoPipe-S 37x, NoPipe-M 64x, Pipelined 76x",
        notes=[
            f"similarity agreement: PostGIS J'={postgis.jaccard_mean:.4f}, "
            f"Pipelined J'={out_p.jaccard_mean:.4f}",
            f"device launches: NoPipe-S {out_s.device_stats[0][3]}, "
            f"NoPipe-M {out_m.device_stats[0][3]}, "
            f"Pipelined {out_p.device_stats[0][3]} "
            "(batching consolidates launches)",
            f"GPU lock wait: NoPipe-M {out_m.device_stats[0][2]:.3f}s vs "
            f"Pipelined {out_p.device_stats[0][2]:.3f}s (contention)",
            "Pipelined stage decomposition (busy seconds; stages overlap) — "
            + out_p.timers.report(),
        ],
    )
