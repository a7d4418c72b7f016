"""Figure 8: PixelOnly vs PixelBox-NoSep vs PixelBox across scale factors.

Paper result: PixelOnly's time grows rapidly with the polygon scale
factor; the sampling-box variants degrade only slightly.  At SF 1 NoSep
cuts 28% and PixelBox 34% off PixelOnly; by SF 5 NoSep halves PixelOnly
and PixelBox cuts a further 73% off NoSep.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    representative_pairs,
    time_call,
)
from repro.pixelbox.common import LaunchConfig, Method
from repro.pixelbox.kernel import ChunkKernel, ExecutionPolicy

__all__ = ["run", "SCALE_FACTORS"]

SCALE_FACTORS = (1, 2, 3, 4, 5)


def run(quick: bool = True) -> ExperimentResult:
    """Sweep the scale factor over the three algorithm variants."""
    base_pairs = representative_pairs(quick, limit=300 if quick else 1500)
    cfg = LaunchConfig()
    rows: list[list[object]] = []
    for sf in SCALE_FACTORS:
        pairs = [(p.scale(sf), q.scale(sf)) for p, q in base_pairs]
        t_po, t_ns, t_pb = (
            time_call(
                lambda: ChunkKernel(ExecutionPolicy(method=m), cfg).compute(pairs)
            )
            for m in (Method.PIXEL_ONLY, Method.NOSEP, Method.PIXELBOX)
        )
        rows.append([f"SF{sf}", t_po, t_ns, t_pb, t_ns / t_po, t_pb / t_po])
    return ExperimentResult(
        name="Figure 8 — sampling boxes and indirect union vs pixelization",
        headers=[
            "scale", "PixelOnly (s)", "NoSep (s)", "PixelBox (s)",
            "NoSep/PixelOnly", "PixelBox/PixelOnly",
        ],
        rows=rows,
        paper_expectation=(
            "PixelOnly degrades rapidly with SF; NoSep and PixelBox only "
            "slightly; PixelBox < NoSep < PixelOnly (at SF5, NoSep -50% vs "
            "PixelOnly and PixelBox -73% vs NoSep)"
        ),
        notes=[
            f"workload: {len(base_pairs)} pairs, coordinates scaled by SF",
            "on this substrate the sampling-box recursion engages once a "
            "pair MBR exceeds T=n^2/2 (SF>=4 for the calibrated data); the "
            "paper's real datasets contain a large-pair tail that engages "
            "it at SF1 already",
        ],
    )
