"""Scalar backend: the single-core plain-Python engine.

This is the slowest executor and exists as the ground truth for
execution policy: per-pair, no array batching, no processes.  It wraps
:func:`repro.pixelbox.cpu.pair_areas_scalar` (the paper's
PixelBox-CPU-S configuration) and is the baseline the
``benchmarks/test_backend_scaling.py`` speedups are normalized to.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import (
    BackendLifecycle,
    Pairs,
    cover_mbr_config,
    register,
)
from repro.pixelbox.common import KernelStats, LaunchConfig
from repro.pixelbox.cpu import pair_areas_scalar
from repro.pixelbox.kernel import BatchAreas

__all__ = ["ScalarBackend"]


@register("scalar")
class ScalarBackend(BackendLifecycle):
    """Per-pair scalar Python execution (PixelBox-CPU-S)."""

    name = "scalar"
    description = "single-core plain-Python engine (PixelBox-CPU-S)"

    def compare_pairs(
        self, pairs: Pairs, config: LaunchConfig | None = None
    ) -> BatchAreas:
        # The scalar engine always starts from the cover MBR.
        cfg = cover_mbr_config(config)
        n = len(pairs)
        inter = np.zeros(n, dtype=np.int64)
        a_p = np.zeros(n, dtype=np.int64)
        a_q = np.zeros(n, dtype=np.int64)
        stats = KernelStats()
        for i, (p, q) in enumerate(pairs):
            res = pair_areas_scalar(p, q, cfg, stats)
            inter[i] = res.intersection
            a_p[i] = res.area_p
            a_q[i] = res.area_q
        union = a_p + a_q - inter
        return BatchAreas(inter, union, a_p, a_q, stats)
