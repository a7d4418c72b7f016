"""Figure 12: SCCG vs parallelized PostGIS over the 18-dataset suite.

Paper result: SCCG (one GTX 580 + 4-core CPU) against PostGIS-M (two
4-core CPUs, 16 query streams) achieves between 13x and 44x per-dataset
speedup, geometric mean >18x; in absolute terms, 64 s for SCCG vs 1120 s
for PostGIS-M over all 18 datasets.

Measured here: the PostGIS-M wall time, both ``J'`` values and each
tile's stage seconds.  Modeled: the SCCG seconds — those stage seconds
replayed through the pipelined scheme on :data:`MACHINE`
(:mod:`repro.pipeline.model`).
"""

from __future__ import annotations

import time

from repro.data.datasets import generate_dataset, suite_specs
from repro.experiments.common import (
    ExperimentResult,
    data_root,
    geometric_mean,
    load_result_sets,
)
from repro.pipeline import Device, Machine, measure_tiles, simulate
from repro.sdbms.parallel import parallel_cross_compare

__all__ = ["run", "MACHINE"]

#: The paper's SCCG platform: a 4-core CPU and one GPU (Fig. 11's device,
#: five times the host kernel's rate), migration on.
MACHINE = Machine(
    cores=4,
    parser_workers=2,
    devices=(Device(launch_overhead=0.002, speed=5.0),),
    migration=True,
)


def run(quick: bool = True, workers: int = 4) -> ExperimentResult:
    """Cross-compare every suite dataset with both systems."""
    scale = 0.012 if quick else 0.025
    specs = suite_specs(scale=scale, nuclei_per_tile=90)
    if quick:
        specs = specs[::3]  # every third dataset keeps the size spread
    rows: list[list[object]] = []
    speedups: list[float] = []
    total_sccg = 0.0
    total_postgis = 0.0
    for spec in specs:
        dir_a, dir_b = generate_dataset(spec, data_root())
        polys_a, polys_b = load_result_sets(dir_a, dir_b)

        start = time.perf_counter()
        postgis = parallel_cross_compare(
            polys_a, polys_b, workers=workers, streams=16
        )
        t_postgis = time.perf_counter() - start

        costs, measured = measure_tiles(dir_a, dir_b)
        t_sccg = simulate(costs, MACHINE).wall_seconds

        agree = abs(postgis.jaccard_mean - measured.mean_ratio) < 1e-9
        speedup = t_postgis / t_sccg if t_sccg > 0 else 0.0
        speedups.append(speedup)
        total_sccg += t_sccg
        total_postgis += t_postgis
        rows.append(
            [
                spec.name,
                spec.tiles,
                measured.count_a,
                t_postgis,
                t_sccg,
                speedup,
                "yes" if agree else "NO",
            ]
        )
    rows.append(
        [
            "geometric mean",
            "",
            "",
            total_postgis,
            total_sccg,
            geometric_mean(speedups),
            "",
        ]
    )
    return ExperimentResult(
        name="Figure 12 — SCCG vs PostGIS-M over the dataset suite",
        headers=[
            "dataset", "tiles", "polygons", "PostGIS-M (s)", "SCCG (s)",
            "speedup", "J' agree",
        ],
        rows=rows,
        paper_expectation=(
            "per-dataset speedups 13x-44x, geometric mean >18x "
            "(1120 s vs 64 s in total)"
        ),
        notes=[
            f"PostGIS-M: {workers} worker processes, 16 query streams; "
            "SCCG: pipelined, 1 device, migration on",
            "PostGIS-M seconds, J' and per-tile stage seconds are measured; "
            "SCCG seconds are those stage seconds replayed on the "
            + MACHINE.describe()
            + ", migration on",
        ],
    )
