"""Shared types and launch parameters for the PixelBox kernels.

The paper evaluates three algorithm variants (§5.2):

* ``PIXEL_ONLY`` — pixelization over the whole pair MBR (Figure 4(a)).
* ``NOSEP`` — sampling boxes + pixelization, tracking the areas of
  intersection *and* union together (Figure 4(d) without the indirect
  union optimization).
* ``PIXELBOX`` — the full algorithm: sampling boxes + pixelization for the
  area of intersection only; the area of union is derived from
  ``|p u q| = |p| + |q| - |p n q|``.

Every implementation in this package — scalar reference, CPU port, NumPy
device engine, and the SIMT-simulator kernel — accepts the same
:class:`LaunchConfig` and produces the same exact integer areas.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

from repro.errors import KernelError

__all__ = [
    "Method",
    "BoxPosition",
    "LaunchConfig",
    "PairAreas",
    "KernelStats",
    "split_grid",
    "DEFAULT_BLOCK_SIZE",
]

DEFAULT_BLOCK_SIZE = 64


class Method(enum.Enum):
    """PixelBox algorithm variant (paper §5.2 naming)."""

    PIXEL_ONLY = "pixel-only"
    NOSEP = "pixelbox-nosep"
    PIXELBOX = "pixelbox"


class BoxPosition(enum.IntEnum):
    """A sampling box's position relative to one polygon (paper §3.2)."""

    OUTSIDE = 0
    HOVER = 1
    INSIDE = 2


def split_grid(block_size: int) -> tuple[int, int]:
    """Sub-box grid for one partitioning step.

    Algorithm 1 partitions a sampling box into ``blockDim.x`` sub-boxes so
    each thread classifies one.  The grid is the most square ``nx * ny``
    factorization of the block size, e.g. ``64 -> 8x8``, ``32 -> 8x4``.
    """
    if block_size < 4:
        raise KernelError(f"block size must be >= 4, got {block_size}")
    nx = 1 << (int(math.log2(block_size)) // 2 + int(math.log2(block_size)) % 2)
    while block_size % nx != 0:
        nx //= 2
    ny = block_size // nx
    return (max(nx, ny), min(nx, ny))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class LaunchConfig:
    """Kernel launch parameters shared by every PixelBox implementation.

    Attributes
    ----------
    block_size:
        Number of cooperating threads per polygon pair (``n`` in the
        paper); also the number of sub-boxes per partitioning step.
    pixel_threshold:
        The pixelization threshold ``T``: a sampling box with fewer pixels
        than ``T`` is handed to the pixelization procedure.  Defaults to
        the paper's recommended ``n**2 / 2`` (§3.4).
    tight_mbr:
        When ``True`` the first sampling box is the intersection of the
        two polygons' MBRs instead of their cover.  Only legal for the
        ``PIXELBOX`` variant (which never measures union by boxes); used
        by the production aggregator path.
    leaf_mode:
        How leaf boxes are pixelized.  ``"scan"`` (default) uses the
        XOR-scan fill — an O(pixels + edges) optimization this library
        adds beyond the paper — and is what every experiment and the
        production path run; under the production policy
        (``pixelbox.kernel.BATCH_POLICY``) a whole chunk — sampling
        boxes and leaves — runs in the compiled ``leafscan.c`` when a C
        compiler built it, in NumPy otherwise.
        ``"crossing"`` evaluates the paper's per-pixel ray-cast
        (O(pixels x edges), the cost profile of the GPU kernel's
        pixelization procedure), always in NumPy; no experiment selects
        it, only tests and explicit ``CompareOptions(leaf_mode=...)``
        callers.  Both modes count the same pixels.
    """

    block_size: int = DEFAULT_BLOCK_SIZE
    pixel_threshold: int | None = None
    tight_mbr: bool = False
    leaf_mode: str = "scan"

    def __post_init__(self) -> None:
        # Types first: a float block size reaches the kernel's modulo, a
        # float threshold or a truthy string would run a launch no caller
        # asked for, and 64.0 would cache apart from 64.
        if not _is_int(self.block_size):
            raise KernelError(f"block_size must be an int, got {self.block_size!r}")
        if self.pixel_threshold is not None and not _is_int(self.pixel_threshold):
            raise KernelError(
                f"pixel_threshold must be an int or None, got {self.pixel_threshold!r}"
            )
        if not isinstance(self.tight_mbr, bool):
            raise KernelError(f"tight_mbr must be a bool, got {self.tight_mbr!r}")
        if self.block_size < 4:
            raise KernelError(f"block size must be >= 4, got {self.block_size}")
        if self.pixel_threshold is not None and self.pixel_threshold < 1:
            raise KernelError(
                f"pixel threshold must be >= 1, got {self.pixel_threshold}"
            )
        if self.leaf_mode not in ("scan", "crossing"):
            raise KernelError(
                f"leaf_mode must be 'scan' or 'crossing', got {self.leaf_mode!r}"
            )

    @property
    def threshold(self) -> int:
        """Effective ``T`` (defaults to ``block_size**2 // 2``)."""
        if self.pixel_threshold is not None:
            return self.pixel_threshold
        return self.block_size * self.block_size // 2

    @property
    def grid(self) -> tuple[int, int]:
        """Sub-box split grid derived from the block size."""
        return split_grid(self.block_size)


#: ``LaunchConfig``'s field names: what a service ``compare`` line's
#: ``config`` and a worker's RUN_SHARD header may carry.
LAUNCH_FIELDS = tuple(f.name for f in fields(LaunchConfig))


@dataclass(frozen=True, slots=True)
class PairAreas:
    """Exact areas for one polygon pair."""

    intersection: int
    union: int
    area_p: int
    area_q: int

    @property
    def ratio(self) -> float:
        """Jaccard ratio ``|p n q| / |p u q|`` (0 when disjoint)."""
        if self.union == 0:
            return 0.0
        return self.intersection / self.union

    def __post_init__(self) -> None:
        if self.intersection < 0 or self.union < 0:
            raise KernelError("areas cannot be negative")
        if self.union != self.area_p + self.area_q - self.intersection:
            raise KernelError(
                "inconsistent areas: union != area_p + area_q - intersection"
            )


@dataclass(slots=True)
class KernelStats:
    """Work counters accumulated by a kernel run.

    The counters quantify the paper's compute-intensity arguments: Fig. 8
    is explained by ``pixel_tests`` shrinking as sampling boxes take over,
    and the NoSep-vs-PixelBox gap by the extra ``partitions``.
    """

    pairs: int = 0
    pops: int = 0
    partitions: int = 0
    boxes_classified: int = 0
    boxes_decided: int = 0
    leaf_boxes: int = 0
    pixel_tests: int = 0
    batched_pairs: int = 0
    fallback_pairs: int = 0

    def merge(self, other: "KernelStats") -> None:
        """Accumulate counters from another run in place."""
        self.pairs += other.pairs
        self.pops += other.pops
        self.partitions += other.partitions
        self.boxes_classified += other.boxes_classified
        self.boxes_decided += other.boxes_decided
        self.leaf_boxes += other.leaf_boxes
        self.pixel_tests += other.pixel_tests
        self.batched_pairs += other.batched_pairs
        self.fallback_pairs += other.fallback_pairs

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict (for reports and assertions)."""
        return {
            "pairs": self.pairs,
            "pops": self.pops,
            "partitions": self.partitions,
            "boxes_classified": self.boxes_classified,
            "boxes_decided": self.boxes_decided,
            "leaf_boxes": self.leaf_boxes,
            "pixel_tests": self.pixel_tests,
            "batched_pairs": self.batched_pairs,
            "fallback_pairs": self.fallback_pairs,
        }
