"""PixelBox — the paper's core contribution.

Computes exact areas of intersection and union of rectilinear polygon
pairs without constructing overlay geometry, by combining per-pixel
crossing-parity tests (pixelization) with a recursive sampling-box
subdivision whose positions are decided by Lemma 1.

All batched execution flows through one shared chunk kernel
(:class:`~repro.pixelbox.kernel.ChunkKernel`, configured by an explicit
:class:`~repro.pixelbox.kernel.ExecutionPolicy`, fed one
:class:`~repro.pixelbox.kernel.ShardInput`), so execution policy —
chunking, batching, sharding, union mode — can never change results.
Pair lists are compared through a named backend
(:func:`repro.backends.get_backend`) or ``ChunkKernel(policy).compute``.

What lives here:

* ``kernel`` — :class:`ChunkKernel`, :class:`ExecutionPolicy`,
  :class:`ShardInput`, :class:`BatchAreas`;
* ``vectorized`` — the level-synchronous NumPy programs the kernel runs;
* references — :func:`compute_pair` (per-pair NumPy engine, every
  variant), :func:`pair_areas_scalar` (PixelBox-CPU-S) and
  :class:`ReferenceKernel` (a line-by-line transcription of the paper's
  Algorithm 1 including the shared-stack discipline);
* ``operators`` — spatial predicates on top of :func:`compute_pair`.
"""

from repro.pixelbox.common import (
    DEFAULT_BLOCK_SIZE,
    BoxPosition,
    KernelStats,
    LaunchConfig,
    Method,
    PairAreas,
    split_grid,
)
from repro.pixelbox.cpu import pair_areas_scalar
from repro.pixelbox.engine import compute_pair
from repro.pixelbox.kernel import (
    BatchAreas,
    ChunkKernel,
    ExecutionPolicy,
    ShardInput,
)
from repro.pixelbox.operators import (
    contains_pixelbox,
    equals_pixelbox,
    intersects_pixelbox,
    touches_pixelbox,
)
from repro.pixelbox.reference import ReferenceKernel, StackTrace
from repro.pixelbox.sampling import (
    box_contribute,
    box_continue,
    box_position,
    box_positions_vectorized,
    nosep_continue,
    nosep_contribution,
)

__all__ = [
    "compute_pair",
    "ChunkKernel",
    "ExecutionPolicy",
    "ShardInput",
    "BatchAreas",
    "PairAreas",
    "KernelStats",
    "LaunchConfig",
    "Method",
    "BoxPosition",
    "split_grid",
    "DEFAULT_BLOCK_SIZE",
    "pair_areas_scalar",
    "contains_pixelbox",
    "equals_pixelbox",
    "intersects_pixelbox",
    "touches_pixelbox",
    "ReferenceKernel",
    "StackTrace",
    "box_position",
    "box_positions_vectorized",
    "box_continue",
    "box_contribute",
    "nosep_continue",
    "nosep_contribution",
]
