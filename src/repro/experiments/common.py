"""Shared plumbing for the paper-experiment harness.

Every experiment module exposes ``run(quick=...) -> ExperimentResult``;
the result carries the same rows/series the paper's table or figure
reports plus a note comparing against the paper's numbers.  Workloads are
generated once into a cache directory and reused across experiments and
benchmark runs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.data.datasets import DatasetSpec, generate_dataset
from repro.geometry.polygon import RectilinearPolygon
from repro.index.join import mbr_pair_join
from repro.io.polyfile import read_polygons
from repro.io.tiles import list_tile_files

__all__ = [
    "ExperimentResult",
    "data_root",
    "profiling_dataset",
    "pipeline_dataset",
    "load_result_sets",
    "filtered_pairs",
    "representative_pairs",
    "time_call",
    "geometric_mean",
]


@dataclass(slots=True)
class ExperimentResult:
    """Rows of one reproduced table/figure plus presentation helpers."""

    name: str
    headers: list[str]
    rows: list[list[object]]
    paper_expectation: str
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Fixed-width table, ready to print."""
        widths = [
            max(len(str(h)), *(len(_fmt(r[i])) for r in self.rows))
            if self.rows
            else len(str(h))
            for i, h in enumerate(self.headers)
        ]
        lines = [f"== {self.name} =="]
        lines.append(
            "  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths))
            )
        lines.append(f"paper: {self.paper_expectation}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def data_root() -> Path:
    """Workload cache directory (override with ``REPRO_DATA_DIR``)."""
    root = Path(os.environ.get("REPRO_DATA_DIR", Path.cwd() / ".repro-data"))
    root.mkdir(parents=True, exist_ok=True)
    return root


def profiling_dataset(quick: bool = True) -> tuple[Path, Path]:
    """The "oligoastroIII_1" analog used by the single-dataset experiments."""
    tiles = 6 if quick else 16
    spec = DatasetSpec(
        name=f"profiling_{tiles}t",
        tiles=tiles,
        nuclei_per_tile=48,
        tile_width=512,
        tile_height=512,
        seed=42,
    )
    return generate_dataset(spec, data_root())


def pipeline_dataset(quick: bool = True) -> tuple[Path, Path]:
    """Denser multi-tile dataset for the framework experiments.

    Table 1 and Figure 11 need enough tiles for queues to fill and
    launches to batch, and enough per-tile work to dwarf a launch
    overhead; this dataset has more tiles and ~3x the polygon density of
    the profiling dataset.
    """
    tiles = 12 if quick else 28
    spec = DatasetSpec(
        name=f"pipeline_{tiles}t",
        tiles=tiles,
        nuclei_per_tile=140,
        tile_width=640,
        tile_height=640,
        seed=77,
    )
    return generate_dataset(spec, data_root())


def load_result_sets(
    dir_a: Path, dir_b: Path
) -> tuple[list[RectilinearPolygon], list[RectilinearPolygon]]:
    """Flatten both result sets of a dataset into polygon lists."""
    polys_a = [
        p for f in list_tile_files(dir_a).values() for p in read_polygons(f)
    ]
    polys_b = [
        p for f in list_tile_files(dir_b).values() for p in read_polygons(f)
    ]
    return polys_a, polys_b


def filtered_pairs(
    dir_a: Path, dir_b: Path
) -> list[tuple[RectilinearPolygon, RectilinearPolygon]]:
    """All MBR-intersecting pairs of a dataset (the kernel workload)."""
    polys_a, polys_b = load_result_sets(dir_a, dir_b)
    return mbr_pair_join(polys_a, polys_b).pairs(polys_a, polys_b)


def representative_pairs(
    quick: bool = True, limit: int | None = None
) -> list[tuple[RectilinearPolygon, RectilinearPolygon]]:
    """The stress-test pair subset (paper: 15,724 pairs from two files)."""
    dir_a, dir_b = profiling_dataset(quick)
    pairs = filtered_pairs(dir_a, dir_b)
    if limit is not None:
        pairs = pairs[:limit]
    return pairs


def time_call(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn()`` (with one warmup call)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def geometric_mean(values: list[float]) -> float:
    """Geometric mean (the paper's Figure 12 summary statistic)."""
    arr = np.asarray(values, dtype=np.float64)
    if len(arr) == 0 or np.any(arr <= 0):
        return 0.0
    return float(np.exp(np.log(arr).mean()))
