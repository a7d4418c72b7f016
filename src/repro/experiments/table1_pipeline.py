"""Table 1: execution schemes vs single-core PostGIS (§5.5).

Paper result (speedups over PostGIS-S): NoPipe-S 37x, NoPipe-M 64x,
Pipelined 76x.  NoPipe-M loses to the pipeline because its uncoordinated
streams serialize on the GPU (CPU cores were only ~50% utilized);
the pipeline's single aggregator batches input and consolidates kernel
launches.

Measured here: the PostGIS-S wall time, both ``J'`` values and each
tile's stage seconds.  Modeled: how those seconds overlap and contend on
:data:`MACHINE` under each scheme (:mod:`repro.pipeline.model`).
"""

from __future__ import annotations

import time

from repro.experiments.common import (
    ExperimentResult,
    load_result_sets,
    pipeline_dataset,
)
from repro.pipeline import SCHEMES, Device, Machine, measure_tiles, simulate
from repro.sdbms.queries import run_cross_compare

__all__ = ["run", "MACHINE"]

#: The paper's T1500 workstation: a 4-core CPU and one GPU.  Every
#: scheme runs on this one record.  A device at twice the host kernel's
#: rate keeps the run in the regime the paper reports for this table —
#: the GPU is the contended resource (NoPipe-M left the cores ~50% idle)
#: — so the schemes differ by what they do to the device, not by how
#: they happen to spread CPU work.
MACHINE = Machine(
    cores=4,
    parser_workers=2,
    streams=4,
    devices=(Device(launch_overhead=0.002, speed=2.0),),
)


def run(quick: bool = True) -> ExperimentResult:
    """Measure one dataset, then replay it under the three schemes."""
    dir_a, dir_b = pipeline_dataset(quick)
    polys_a, polys_b = load_result_sets(dir_a, dir_b)

    start = time.perf_counter()
    postgis = run_cross_compare(polys_a, polys_b, optimized=True)
    t_postgis = time.perf_counter() - start

    costs, measured = measure_tiles(dir_a, dir_b)
    outs = {scheme: simulate(costs, MACHINE, scheme) for scheme in SCHEMES}

    rows: list[list[object]] = [["PostGIS-S", t_postgis, 1.0]]
    rows += [
        [scheme, out.wall_seconds, t_postgis / out.wall_seconds]
        for scheme, out in outs.items()
    ]
    devices = {scheme: out.devices[0] for scheme, out in outs.items()}
    return ExperimentResult(
        name="Table 1 — execution schemes (speedup vs PostGIS-S)",
        headers=["scheme", "seconds", "speedup"],
        rows=rows,
        paper_expectation="NoPipe-S 37x, NoPipe-M 64x, Pipelined 76x",
        notes=[
            f"similarity agreement: PostGIS J'={postgis.jaccard_mean:.4f}, "
            f"SCCG J'={measured.mean_ratio:.4f} (both measured)",
            "device launches: " + ", ".join(
                f"{scheme} {use.launches}" for scheme, use in devices.items()
            ) + " (batching consolidates launches)",
            f"GPU lock wait: NoPipe-M "
            f"{devices['NoPipe-M'].lock_wait_seconds:.3f}s vs Pipelined "
            f"{devices['Pipelined'].lock_wait_seconds:.3f}s (contention)",
            "PostGIS-S seconds and per-tile stage seconds are measured; "
            "scheme seconds are those stage seconds replayed on the "
            + MACHINE.describe()
            + f" ({MACHINE.streams} NoPipe-M streams)",
            "Pipelined stage decomposition (busy seconds; stages overlap) — "
            + outs["Pipelined"].timers.report(),
        ],
    )
