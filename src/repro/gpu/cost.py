"""Cycle cost model for the PixelBox SIMT kernel.

The model charges warp-issue cycles for ALU work, memory accesses (global
vs shared, with bank-conflict serialization), loop overhead (removable by
unrolling), and block-wide synchronization.  Absolute cycle counts are
*modeled*, not measured from silicon; the experiments that use them
(Figure 9, §5.4) only interpret normalized ratios, which depend on the
*relative* weights the paper's optimizations change.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceSpec
from repro.gpu.memory import (
    aos_push_addresses,
    conflict_ways,
    SAMPLING_BOX_WORDS,
    soa_push_addresses,
)

__all__ = ["OptimizationFlags", "CostModel", "CycleBreakdown"]

# ALU cycles per edge test in the pixel/box position loops (compare +
# select + accumulate).
_EDGE_TEST_ALU = 4
# Loop bookkeeping cycles per iteration (index increment + branch).
_LOOP_OVERHEAD = 2
# Unroll factor used by the optimized implementation (§3.3).
_UNROLL = 4


@dataclass(frozen=True, slots=True)
class OptimizationFlags:
    """Which of §3.3's implementation optimizations are enabled.

    The four variants of Figure 9 map to::

        PixelBox-NoOpt        OptimizationFlags(False, False, False)
        PixelBox-NBC          OptimizationFlags(True,  False, False)
        PixelBox-NBC-UR       OptimizationFlags(True,  True,  False)
        PixelBox-NBC-UR-SM    OptimizationFlags(True,  True,  True)
    """

    avoid_bank_conflicts: bool = True
    loop_unrolling: bool = True
    shared_mem_vertices: bool = True

    @property
    def label(self) -> str:
        """Figure 9's variant name."""
        if not self.avoid_bank_conflicts:
            return "PixelBox-NoOpt"
        if not self.loop_unrolling:
            return "PixelBox-NBC"
        if not self.shared_mem_vertices:
            return "PixelBox-NBC-UR"
        return "PixelBox-NBC-UR-SM"


@dataclass(slots=True)
class CycleBreakdown:
    """Where a block's cycles went."""

    alu: float = 0.0
    loop_overhead: float = 0.0
    global_mem: float = 0.0
    shared_mem: float = 0.0
    sync: float = 0.0
    stack: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.alu
            + self.loop_overhead
            + self.global_mem
            + self.shared_mem
            + self.sync
            + self.stack
        )

    def add(self, other: "CycleBreakdown") -> None:
        self.alu += other.alu
        self.loop_overhead += other.loop_overhead
        self.global_mem += other.global_mem
        self.shared_mem += other.shared_mem
        self.sync += other.sync
        self.stack += other.stack


class CostModel:
    """Charges cycles for the PixelBox kernel's primitive operations."""

    def __init__(self, device: DeviceSpec, flags: OptimizationFlags) -> None:
        self.device = device
        self.flags = flags
        # Serialization factor of one sampling-box push (per field write).
        if flags.avoid_bank_conflicts:
            addrs = [
                soa_push_addresses(device.warp_size, f)
                for f in range(SAMPLING_BOX_WORDS)
            ]
        else:
            addrs = [
                aos_push_addresses(device.warp_size, f)
                for f in range(SAMPLING_BOX_WORDS)
            ]
        self._push_ways = [
            conflict_ways(a, device.shared_mem_banks) for a in addrs
        ]

    # ------------------------------------------------------------------
    # Primitive charges
    # ------------------------------------------------------------------
    def edge_loop(self, iterations: float, edges: int) -> CycleBreakdown:
        """Cycles for ``iterations`` runs of the edge-test loop.

        Each iteration tests ``edges`` polygon edges: one edge load (from
        shared memory if the vertices were staged there, global
        otherwise), `_EDGE_TEST_ALU` ALU cycles, and per-edge loop
        bookkeeping that unrolling divides by the unroll factor.
        """
        out = CycleBreakdown()
        out.alu = iterations * edges * _EDGE_TEST_ALU
        overhead = _LOOP_OVERHEAD / (_UNROLL if self.flags.loop_unrolling else 1)
        out.loop_overhead = iterations * edges * overhead
        access = iterations * edges
        if self.flags.shared_mem_vertices:
            out.shared_mem = access * self.device.shared_access_cycles
        else:
            out.global_mem = access * self.device.global_access_cycles
        return out

    def vertex_staging(self, edges: int) -> CycleBreakdown:
        """One-time cost of copying the vertex data into shared memory."""
        out = CycleBreakdown()
        if self.flags.shared_mem_vertices:
            out.global_mem = edges * self.device.global_access_cycles
            out.shared_mem = edges * self.device.shared_access_cycles
        return out

    def stack_push(self, count: int = 1) -> CycleBreakdown:
        """``count`` warp-wide sampling-box pushes (5 field writes each)."""
        out = CycleBreakdown()
        per_push = sum(
            ways * self.device.shared_access_cycles for ways in self._push_ways
        )
        out.stack = count * per_push
        return out

    def stack_pop(self, count: int = 1) -> CycleBreakdown:
        """``count`` box pops (broadcast read, conflict-free)."""
        out = CycleBreakdown()
        out.stack = count * SAMPLING_BOX_WORDS * self.device.shared_access_cycles
        return out

    def synchronize(self, count: int = 1) -> CycleBreakdown:
        """``count`` block-wide barriers (line 17 of Algorithm 1)."""
        out = CycleBreakdown()
        out.sync = count * self.device.sync_cycles
        return out
