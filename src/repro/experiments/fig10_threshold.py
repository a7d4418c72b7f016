"""Figure 10: sensitivity of the pixelization threshold ``T`` (§5.4).

Paper result (block size 64): performance is sub-optimal when ``T`` is
very small (sampling boxes are over-partitioned) or very large (the
pixelization procedure processes too many pixels); the best ``T`` lies
between n^2/8 = 512 and n^2 = 4096 at every scale factor.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    representative_pairs,
    time_call,
)
from repro.pixelbox.common import LaunchConfig
from repro.pixelbox.kernel import ChunkKernel, ExecutionPolicy

__all__ = ["run", "THRESHOLDS"]

THRESHOLDS = (16, 64, 256, 512, 1024, 2048, 4096, 16384, 65536)


def run(quick: bool = True) -> ExperimentResult:
    """Sweep ``T`` at block size 64 for several scale factors."""
    base_pairs = representative_pairs(quick, limit=200 if quick else 1000)
    scale_factors = (1, 3, 5) if quick else (1, 2, 3, 4, 5)
    rows: list[list[object]] = []
    for sf in scale_factors:
        pairs = [(p.scale(sf), q.scale(sf)) for p, q in base_pairs]
        row: list[object] = [f"SF{sf}"]
        for threshold in THRESHOLDS:
            cfg = LaunchConfig(block_size=64, pixel_threshold=threshold)
            kernel = ChunkKernel(ExecutionPolicy(), cfg)
            row.append(time_call(lambda: kernel.compute(pairs)))
        rows.append(row)
    return ExperimentResult(
        name="Figure 10 — pixelization threshold sensitivity (seconds)",
        headers=["scale"] + [f"T={t}" for t in THRESHOLDS],
        rows=rows,
        paper_expectation=(
            "sub-optimal at the extremes; best T in [n^2/8, n^2] = "
            "[512, 4096] for block size 64"
        ),
        notes=[
            f"workload: {len(base_pairs)} pairs",
        ],
    )
