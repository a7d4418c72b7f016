"""Cycle cost model for the PixelBox SIMT kernel.

The model charges warp-issue cycles for ALU work, memory accesses (global
vs shared, with bank-conflict serialization), loop overhead (removable by
unrolling), and block-wide synchronization.  Absolute cycle counts are
*modeled*, not measured from silicon; the experiments that use them
(Figure 9, §5.4) only interpret normalized ratios, which depend on the
*relative* weights the paper's optimizations change.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from repro.errors import DeviceError
from repro.gpu.device import DeviceSpec
from repro.gpu.memory import (
    aos_push_addresses,
    conflict_ways,
    SAMPLING_BOX_WORDS,
    soa_push_addresses,
)

__all__ = [
    "OptimizationFlags",
    "CostModel",
    "CostCalibration",
    "CycleBreakdown",
    "estimate_comparison_cycles",
    "compiled_substrate_available",
    "recommend_backend",
    "recommend_batch_pairs",
    "recommend_shard_pairs",
    "load_calibration",
    "set_calibration",
    "active_calibration",
    "clear_calibration",
]

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


# ----------------------------------------------------------------------
# Calibration: measured constants override the modeled defaults
# ----------------------------------------------------------------------
# The spin-up and dispatch charges below are *modeled*; on a real host
# ``tools/calibrate_cost.py`` (or ``repro calibrate``) fits them from the
# backend-scaling and service-throughput trajectories and writes a JSON
# profile.  When a profile is active the recommenders use its constants;
# when absent they fall back to the modeled values, so calibration is an
# accuracy upgrade, never a dependency.

# Modeled speedup of the compiled (numba) substrate over the NumPy
# engines: machine code over the same plan trades array-program overhead
# for tight loops across all cores.  Calibration replaces it with the
# measured ratio on hosts that have the extra installed.
_COMPILED_SPEEDUP = 8.0
# First use of the compiled kernel pays JIT compilation (or cache load);
# a workload must dwarf that charge before "numba" is worth recommending.
_COMPILED_WARMUP_CYCLES = 1.0e9
_COMPILED_AMORTIZATION = 2.0


@dataclass(frozen=True, slots=True)
class CostCalibration:
    """Measured cost constants fitted by ``repro calibrate``.

    Attributes
    ----------
    cycles_per_second:
        How many modeled ALU cycles this host retires per wall second on
        the vectorized engine — the bridge between measured seconds and
        every modeled charge in this module.
    process_spinup_cycles:
        Measured worker-process spin-up, in modeled cycles.
    shard_dispatch_cycles:
        Measured per-shard remote dispatch overhead (serialize + RTT +
        scheduling), in modeled cycles.
    compiled_speedup:
        Measured throughput ratio of the compiled (numba) substrate over
        the vectorized engine on this host (modeled default when the
        extra was absent during calibration).
    compiled_warmup_cycles:
        Measured JIT warm-up of the compiled kernel, in modeled cycles.
    source:
        Provenance note (host, date) carried from the profile.
    """

    cycles_per_second: float
    process_spinup_cycles: float
    shard_dispatch_cycles: float
    compiled_speedup: float = _COMPILED_SPEEDUP
    compiled_warmup_cycles: float = _COMPILED_WARMUP_CYCLES
    source: str = "calibrated"

    def as_dict(self) -> dict:
        return {
            "cycles_per_second": self.cycles_per_second,
            "process_spinup_cycles": self.process_spinup_cycles,
            "shard_dispatch_cycles": self.shard_dispatch_cycles,
            "compiled_speedup": self.compiled_speedup,
            "compiled_warmup_cycles": self.compiled_warmup_cycles,
            "source": self.source,
        }


def load_calibration(path: str | Path) -> CostCalibration:
    """Read a calibration profile written by ``tools/calibrate_cost.py``."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DeviceError(f"unreadable cost profile {path}: {exc}") from None
    try:
        cal = CostCalibration(
            cycles_per_second=float(raw["cycles_per_second"]),
            process_spinup_cycles=float(raw["process_spinup_cycles"]),
            shard_dispatch_cycles=float(raw["shard_dispatch_cycles"]),
            compiled_speedup=float(
                raw.get("compiled_speedup", _COMPILED_SPEEDUP)
            ),
            compiled_warmup_cycles=float(
                raw.get("compiled_warmup_cycles", _COMPILED_WARMUP_CYCLES)
            ),
            source=str(raw.get("source", str(path))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DeviceError(f"malformed cost profile {path}: {exc}") from None
    if min(
        cal.cycles_per_second,
        cal.process_spinup_cycles,
        cal.shard_dispatch_cycles,
        cal.compiled_speedup,
        cal.compiled_warmup_cycles,
    ) <= 0:
        raise DeviceError(f"cost profile {path} has non-positive constants")
    return cal


_UNLOADED = object()
_active_calibration: object = _UNLOADED


def active_calibration() -> CostCalibration | None:
    """The process-wide calibration profile, if any.

    Resolved once from the ``REPRO_COST_PROFILE`` environment variable
    (a profile path); ``None`` means the modeled constants apply.
    """
    global _active_calibration
    if _active_calibration is _UNLOADED:
        path = os.environ.get("REPRO_COST_PROFILE")
        _active_calibration = load_calibration(path) if path else None
    return _active_calibration  # type: ignore[return-value]


def set_calibration(calibration: CostCalibration | None) -> None:
    """Install (or with ``None`` disable) the process-wide profile."""
    global _active_calibration
    _active_calibration = calibration


def clear_calibration() -> None:
    """Forget the cached profile; the next use re-reads the environment."""
    global _active_calibration
    _active_calibration = _UNLOADED


# ----------------------------------------------------------------------
# Workload-level cost estimation (execution-backend selection)
# ----------------------------------------------------------------------
# A forked worker process costs roughly this many modeled ALU cycles to
# spin up (interpreter fork + pool plumbing); sharding only pays off once
# each worker amortizes it many times over.
_PROCESS_SPINUP_CYCLES = 2.0e8
# Workers must amortize their spin-up by at least this factor before the
# multiprocess backend is recommended.
_SPINUP_AMORTIZATION = 4.0
# Branching factor of the sampling-box subdivision per level is the block
# size; a level's frontier shrinks roughly by the decided fraction.
_LEVEL_DECIDED_FRACTION = 0.5


def estimate_comparison_cycles(
    n_pairs: int,
    mean_edges: float,
    mean_mbr_pixels: float,
    pixel_threshold: int,
    block_size: int = 64,
) -> float:
    """Modeled ALU cycles for one batched PixelBox comparison.

    The estimate prices the two compute phases of the algorithm with the
    same per-edge-test constant the SIMT model charges:

    * **pixelization** — leaves are smaller than the threshold ``T``;
      subdivision decides large uniform areas without pixel work, so the
      pixelized area per pair is the MBR capped at ``T`` per surviving
      leaf chain, growing with the number of subdivision levels;
    * **classification** — each level classifies ``block_size`` sub-boxes
      against every edge; the level count is logarithmic in the
      MBR-to-threshold ratio.

    Absolute numbers are modeled, not measured — callers compare them
    against each other and against fixed spin-up charges, exactly how
    the rest of this module is used.
    """
    if n_pairs <= 0:
        return 0.0
    pixels = max(mean_mbr_pixels, 1.0)
    threshold = max(pixel_threshold, 1)
    levels = 0.0
    remaining = pixels
    while remaining > threshold and levels < 32:
        levels += 1.0
        remaining /= block_size
    leaf_pixels = min(pixels, threshold * (1.0 + levels * _LEVEL_DECIDED_FRACTION))
    pixelize = leaf_pixels * mean_edges * _EDGE_TEST_ALU
    classify = levels * block_size * mean_edges * _EDGE_TEST_ALU
    return n_pairs * (pixelize + classify)


def compiled_substrate_available() -> bool:
    """Whether the compiled (numba) substrate can run in this process."""
    try:
        from repro.backends.kernel import numba_unavailable_reason
    except ImportError:  # pragma: no cover - defensive
        return False
    return numba_unavailable_reason() is None


def recommend_backend(
    n_pairs: int,
    mean_edges: float,
    mean_mbr_pixels: float,
    pixel_threshold: int,
    block_size: int = 64,
    workers: int = 1,
    calibration: CostCalibration | None = None,
    compiled: bool | None = None,
) -> str:
    """Backend choice for a workload profile (pair count + edge density).

    Policy only — every backend returns bit-identical results, so a
    misprediction costs time, never correctness:

    * workloads that dwarf the JIT warm-up charge, when the compiled
      substrate is usable -> ``"numba"`` (machine code over all cores
      beats forked NumPy workers without any process spin-up);
    * heavy workloads that amortize process spin-up -> ``"multiprocess"``;
    * subdivision-dominated workloads (MBRs far above the pixelization
      threshold, where the batch path's skip-subdivision policy never
      applies) -> ``"vectorized"``;
    * everything else -> ``"batch"``, the production default.

    ``calibration`` (default: :func:`active_calibration`) replaces the
    modeled spin-up/warm-up charges with this host's measured ones.
    ``compiled`` pins the compiled substrate as usable (``True``) or not
    (``False``); ``None`` probes for the installed extra.
    """
    cal = calibration if calibration is not None else active_calibration()
    spinup = cal.process_spinup_cycles if cal else _PROCESS_SPINUP_CYCLES
    warmup = cal.compiled_warmup_cycles if cal else _COMPILED_WARMUP_CYCLES
    cycles = estimate_comparison_cycles(
        n_pairs, mean_edges, mean_mbr_pixels, pixel_threshold, block_size
    )
    if compiled is None:
        compiled = compiled_substrate_available()
    if compiled and cycles > warmup * _COMPILED_AMORTIZATION:
        return "numba"
    if workers > 1 and cycles > spinup * _SPINUP_AMORTIZATION * workers:
        return "multiprocess"
    if mean_mbr_pixels > 4 * pixel_threshold:
        return "vectorized"
    return "batch"


# Modeled cycle budget of one coalesced service dispatch.  The budget
# bounds the latency a small request can inherit from riding in a large
# merged batch: a dispatch stops absorbing requests once its modeled
# compute reaches this many cycles.  Sized to a few times the spin-up
# charge so pooled workers stay well amortized per dispatch.
_DISPATCH_CYCLE_BUDGET = 4.0 * _PROCESS_SPINUP_CYCLES
# Coalesced-dispatch bounds: never merge below the floor (per-dispatch
# bookkeeping would dominate), never above the cap (peak-memory bound of
# the level-synchronous engines' working set).
_MIN_DISPATCH_PAIRS = 64
_MAX_DISPATCH_PAIRS = 65536


def recommend_batch_pairs(
    mean_edges: float,
    mean_mbr_pixels: float,
    pixel_threshold: int,
    block_size: int = 64,
    cycle_budget: float | None = None,
    calibration: CostCalibration | None = None,
) -> int:
    """Pair budget for one coalesced dispatch of the comparison service.

    The service's micro-batching coalescer merges small concurrent
    requests into one backend launch; this policy sizes that launch from
    the same cycle model :func:`recommend_backend` prices executors
    with.  Dense workloads (many edges, large MBRs) get small merged
    batches — each pair is expensive, so latency-bounding the dispatch
    matters; sparse workloads coalesce aggressively.

    The default budget is a few times the worker spin-up charge (the
    calibrated one when a profile is active), keeping pooled workers
    well amortized per dispatch.
    """
    if cycle_budget is None:
        cal = calibration if calibration is not None else active_calibration()
        spinup = cal.process_spinup_cycles if cal else _PROCESS_SPINUP_CYCLES
        cycle_budget = 4.0 * spinup
    per_pair = estimate_comparison_cycles(
        1, mean_edges, mean_mbr_pixels, pixel_threshold, block_size
    )
    if per_pair <= 0:
        return _MAX_DISPATCH_PAIRS
    budget = int(cycle_budget / per_pair)
    return max(_MIN_DISPATCH_PAIRS, min(_MAX_DISPATCH_PAIRS, budget))


# ----------------------------------------------------------------------
# Remote shard sizing (cluster coordinator)
# ----------------------------------------------------------------------
# One remote shard dispatch costs roughly this many modeled cycles
# (RUN_SHARD/SHARD_RESULT round trip + scheduling) once the tables are
# resident on the worker; a shard must amortize it well before remote
# sharding beats keeping the pairs local.
_SHARD_DISPATCH_CYCLES = 2.0e7
_SHARD_AMORTIZATION = 8.0
# The coordinator over-partitions each request so stragglers can be
# speculated and a dead worker's loss stays small — but not so finely
# that dispatch overhead dominates.
_SHARDS_PER_WORKER = 4


def recommend_shard_pairs(
    n_pairs: int,
    mean_edges: float,
    mean_mbr_pixels: float,
    pixel_threshold: int,
    block_size: int = 64,
    workers: int = 1,
    calibration: CostCalibration | None = None,
    substrate: str = "numpy",
) -> int:
    """Pairs per remote shard for one cluster dispatch.

    Balances two pressures: each shard's modeled compute should exceed
    the per-shard dispatch charge by ``_SHARD_AMORTIZATION``x (transport
    must stay a rounding error), while the request should still split
    into about ``_SHARDS_PER_WORKER`` shards per worker so the scheduler
    has slack for speculation and re-dispatch.

    ``substrate="numba"`` prices shard compute at the compiled substrate's
    speed: each pair costs less, so shards must grow to keep dispatch
    overhead amortized.
    """
    if n_pairs <= 0:
        return 1
    cal = calibration if calibration is not None else active_calibration()
    dispatch = cal.shard_dispatch_cycles if cal else _SHARD_DISPATCH_CYCLES
    per_pair = estimate_comparison_cycles(
        1, mean_edges, mean_mbr_pixels, pixel_threshold, block_size
    )
    if substrate == "numba":
        speedup = cal.compiled_speedup if cal else _COMPILED_SPEEDUP
        per_pair /= max(speedup, 1.0)
    if per_pair <= 0:
        floor = n_pairs
    else:
        floor = max(1, math.ceil(dispatch * _SHARD_AMORTIZATION / per_pair))
    target = max(1, math.ceil(n_pairs / (max(1, workers) * _SHARDS_PER_WORKER)))
    return min(n_pairs, max(floor, target))
