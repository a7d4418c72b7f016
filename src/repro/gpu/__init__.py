"""SIMT GPU simulator: device models, bank conflicts, cycle costing.

Used by the architecture-level experiments (Figure 9's implementation
optimizations, the §5.4 block-size observation), which interpret only
normalized cycle ratios.  Nothing that decides how work is run imports
this package: inside ``repro`` only ``repro.experiments`` may (reprolint
RL702); shard sizing lives in :mod:`repro.backends.sizing`.
"""

from repro.gpu.cost import CostModel, CycleBreakdown, OptimizationFlags
from repro.gpu.device import GTX580, TESLA_M2050, DeviceSpec
from repro.gpu.memory import (
    AOS_RECORD_WORDS,
    SAMPLING_BOX_WORDS,
    aos_push_addresses,
    conflict_ways,
    soa_push_addresses,
)
from repro.gpu.simt_kernel import BlockCounts, collect_block_counts
from repro.gpu.simulator import SimtReport, simulate_device

__all__ = [
    "DeviceSpec",
    "GTX580",
    "TESLA_M2050",
    "OptimizationFlags",
    "CostModel",
    "CycleBreakdown",
    "conflict_ways",
    "aos_push_addresses",
    "soa_push_addresses",
    "SAMPLING_BOX_WORDS",
    "AOS_RECORD_WORDS",
    "BlockCounts",
    "collect_block_counts",
    "simulate_device",
]
