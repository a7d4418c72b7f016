"""Simulated-GPU backend: Algorithm 1 replayed block by block.

Wraps :func:`repro.gpu.simt_kernel.collect_block_counts` — the SIMT
simulator's faithful replay of the kernel, one thread block per pair.
Orders of magnitude slower than the array engines (plain Python loops
stand in for threads) but it is the executor whose *cost* the Figure 9
experiments price, so keeping it behind the same interface guarantees
the cycle meter stays attached to a correct execution.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import (
    BackendLifecycle,
    Pairs,
    cover_mbr_config,
    register,
)
from repro.gpu.simt_kernel import collect_block_counts
from repro.pixelbox.common import KernelStats, LaunchConfig
from repro.pixelbox.kernel import BatchAreas

__all__ = ["SimtBackend"]


@register("simt")
class SimtBackend(BackendLifecycle):
    """SIMT-simulator replay (one thread block per pair)."""

    name = "simt"
    description = "simulated-GPU replay of Algorithm 1 (slow, cycle-metered)"

    def compare_pairs(
        self, pairs: Pairs, config: LaunchConfig | None = None
    ) -> BatchAreas:
        # The replay always covers both MBRs (Algorithm 1 line 13).
        cfg = cover_mbr_config(config)
        n = len(pairs)
        inter = np.zeros(n, dtype=np.int64)
        uni = np.zeros(n, dtype=np.int64)
        a_p = np.zeros(n, dtype=np.int64)
        a_q = np.zeros(n, dtype=np.int64)
        stats = KernelStats()
        for i, (p, q) in enumerate(pairs):
            counts = collect_block_counts(p, q, cfg)
            inter[i] = counts.intersection_area
            uni[i] = counts.union_area
            a_p[i] = p.area
            a_q[i] = q.area
            stats.pairs += 1
            stats.pops += counts.pops
        return BatchAreas(inter, uni, a_p, a_q, stats)
