"""The shared chunk kernel: one algorithm, explicit execution policies.

The paper's PixelBox kernel is a single algorithm (§3.1-§3.3) whose
executions differ only in *policy* — the algorithm variant, how pairs
are grouped into chunks, and whether small pairs skip the sampling-box
subdivision and pixelize straight over their MBR (the production
batching trick).  Hand-assembled copies of the
plan+stacked-pixelize sequence drift — one once under-counted ``pops``,
ignored ``leaf_mode``, and left a zero union for direct-union pairs
routed to no start box, which the final consistency check reports as a
:class:`~repro.errors.KernelError` on valid disjoint input — so the
sequence lives here exactly once:

* :class:`ExecutionPolicy` — declarative knobs (algorithm variant,
  small-pair skip-subdivision dimension, chunk size), and
  :data:`BATCH_POLICY`, the one production policy;
* :class:`ChunkKernel` — level-synchronous planning, stacked leaf
  pixelization, and per-pair scatter, parameterized by a policy;
* :class:`PairBatch` — what every executor is handed: two
  :class:`~repro.geometry.polyset.PolygonSet` sides and one index array
  per side (a pair list converts once, at the first call);
* :class:`ShardInput` — the data a kernel run consumes (both CSR edge
  tables, start boxes, routing mask, polygon areas): gathered from a
  :class:`PairBatch`'s set arrays, flattened to and rebuilt from the
  named-array bundle that crosses process and socket boundaries, and
  finalized into a :class:`BatchAreas`;
* every executor (in-process, worker process, remote worker) runs
  :data:`BATCH_POLICY` through :meth:`ChunkKernel.compute` or
  :meth:`ChunkKernel.run_shard`, so a result — areas and counters — is a
  function of its pairs and launch config alone.

This module is the **only** caller of
:func:`repro.pixelbox.vectorized.plan_levels`,
:func:`repro.pixelbox.vectorized.stacked_leaf_counts` and
:func:`compiled_chunk`, its typed wrapper of the compiled library's
``pixelbox_chunk`` (reprolint RL701 enforces the seam), so an execution
policy can never change results — only wall-clock.  A
:data:`BATCH_POLICY` chunk in scan mode runs in one call of the compiled
``leafscan.c`` when :mod:`repro.native` loads it — routing, the depth-first
sampling-box walk and the leaves, as the paper's kernel runs one pair
batch per launch; every other chunk runs the level-synchronous NumPy
planner and stacked leaves.  Both visit the same boxes and count the
same pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro import native
from repro.errors import KernelError
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.polyset import PolygonSet
from repro.obs.trace import current_tracer
from repro.pixelbox.common import (
    KernelStats,
    LaunchConfig,
    Method,
    PairAreas,
)
from repro.pixelbox.vectorized import (
    EdgeTable,
    plan_levels,
    stacked_leaf_counts,
)

__all__ = [
    "BATCH_POLICY",
    "BatchAreas",
    "ChunkKernel",
    "ExecutionPolicy",
    "PairBatch",
    "ShardInput",
    "DEFAULT_CHUNK_PAIRS",
    "start_box",
]

# Pairs processed per level-synchronous chunk (bounds peak memory of the
# stacked planning and pixelization tensors); shared by every path.
DEFAULT_CHUNK_PAIRS = 4096


@dataclass(slots=True)
class BatchAreas:
    """Exact areas for a batch of polygon pairs (parallel arrays)."""

    intersection: np.ndarray
    union: np.ndarray
    area_p: np.ndarray
    area_q: np.ndarray
    stats: KernelStats

    def __len__(self) -> int:
        return len(self.intersection)

    def ratios(self) -> np.ndarray:
        """Per-pair Jaccard ratios; 0 for pairs with an empty union."""
        out = np.zeros(len(self.intersection), dtype=np.float64)
        nz = self.union > 0
        out[nz] = self.intersection[nz] / self.union[nz]
        return out

    def pair(self, i: int) -> PairAreas:
        """The ``i``-th result as a :class:`PairAreas` value."""
        return PairAreas(
            int(self.intersection[i]),
            int(self.union[i]),
            int(self.area_p[i]),
            int(self.area_q[i]),
        )


@dataclass(frozen=True, slots=True)
class ExecutionPolicy:
    """How the chunk kernel executes — never what it computes.

    Attributes
    ----------
    method:
        Algorithm variant (paper §5.2): ``PIXEL_ONLY``, ``NOSEP``, or
        ``PIXELBOX``.  ``PIXELBOX`` derives unions from
        ``|p u q| = |p| + |q| - |p n q|`` (§3.2); the other two measure
        them alongside the intersection, as they do on the device.
    skip_subdivision_max_dim:
        When set, pairs whose start-box width *and* height are at most
        this bound skip the sampling-box subdivision and pixelize
        directly over the start box — the production batch policy
        (:data:`BATCH_POLICY`).  ``None`` (default) always subdivides.
    chunk_pairs:
        Pairs per level-synchronous chunk (bounds peak memory).
    """

    method: Method = Method.PIXELBOX
    skip_subdivision_max_dim: int | None = None
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS

    def __post_init__(self) -> None:
        if not isinstance(self.method, Method):
            raise KernelError(f"unknown method {self.method!r}")
        if (
            self.skip_subdivision_max_dim is not None
            and self.skip_subdivision_max_dim < 1
        ):
            raise KernelError(
                "skip_subdivision_max_dim must be >= 1 or None, got "
                f"{self.skip_subdivision_max_dim}"
            )
        if self.chunk_pairs < 1:
            raise KernelError(
                f"chunk_pairs must be >= 1, got {self.chunk_pairs}"
            )

    @property
    def indirect_union(self) -> bool:
        """Whether unions are derived from the inclusion-exclusion identity."""
        return self.method is Method.PIXELBOX

    @property
    def measures_union(self) -> bool:
        """Whether planning/pixelization must track union counts at all."""
        return not self.indirect_union


#: The one production policy, run by every registered executor: pairs
#: whose start box fits a 64x64 thread block pixelize directly.
BATCH_POLICY = ExecutionPolicy(skip_subdivision_max_dim=64)


def _tight(method: Method, cfg: LaunchConfig) -> bool:
    """Whether start boxes are MBR intersections rather than covers."""
    if not isinstance(method, Method):
        raise KernelError(f"unknown method {method!r}")
    if cfg.tight_mbr and method is not Method.PIXELBOX:
        raise KernelError("tight_mbr is only valid for the PIXELBOX variant")
    return cfg.tight_mbr


def start_box(
    p: RectilinearPolygon,
    q: RectilinearPolygon,
    method: Method,
    cfg: LaunchConfig,
) -> Box | None:
    """First sampling box ({m_i} in Algorithm 1), or ``None``.

    ``None`` means the pair provably has an empty intersection before any
    kernel work — today that is the tight-MBR policy meeting disjoint
    MBRs.  Every execution path must then report
    ``union = |p| + |q|`` for direct-union methods instead of leaving the
    slot zero (the latent batched disjoint-pair crash closed by
    :meth:`ShardInput.finalize`).
    """
    if _tight(method, cfg):
        return p.mbr.intersect(q.mbr)
    return p.mbr.cover(q.mbr)


@dataclass(frozen=True, slots=True)
class PairBatch:
    """Candidate pairs as two polygon sets and one index array per side:
    pair ``k`` is ``(left[left_idx[k]], right[right_idx[k]])``, as the
    MBR join emits them.  A slice of a batch shares its sets."""

    left: PolygonSet
    right: PolygonSet
    left_idx: np.ndarray
    right_idx: np.ndarray

    def __len__(self) -> int:
        return len(self.left_idx)

    def __getitem__(self, window: slice) -> "PairBatch":
        return PairBatch(
            self.left, self.right, self.left_idx[window], self.right_idx[window]
        )

    @classmethod
    def from_pairs(cls, pairs: "Pairs") -> "PairBatch":
        """A pair list as a batch (a batch as it is); a polygon object
        shared by several pairs is one ring of its side's set."""
        if isinstance(pairs, PairBatch):
            return pairs
        pairs = list(pairs)
        sides = []
        for polygons in zip(*pairs) if pairs else ((), ()):
            first: dict[int, int] = {}
            idx = [first.setdefault(id(p), len(first)) for p in polygons]
            unique = list({id(p): p for p in polygons}.values())
            sides += [PolygonSet.from_polygons(unique), np.array(idx, dtype=np.int64)]
        return cls(sides[0], sides[2], sides[1], sides[3])

    @classmethod
    def concat(cls, batches: "list[PairBatch]") -> "PairBatch":
        """Every pair of ``batches``, in order, as one batch over one set
        per side (a single batch as it is)."""
        if len(batches) == 1:
            return batches[0]
        sides = []
        for side, idx in (("left", "left_idx"), ("right", "right_idx")):
            sets = [getattr(b, side) for b in batches]
            counts = np.concatenate([np.diff(s.offsets) for s in sets])
            offsets = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            vertices = np.concatenate([s.vertices for s in sets])
            starts = np.cumsum([0] + [len(s) for s in sets[:-1]])
            sides += [
                PolygonSet._trusted(vertices, offsets),
                np.concatenate([getattr(b, idx) + k for b, k in zip(batches, starts)]),
            ]
        return cls(sides[0], sides[2], sides[1], sides[3])


Pairs =list[tuple[RectilinearPolygon, RectilinearPolygon]] | PairBatch

_SIDES = ("p", "q")
_EDGE_FIELDS = tuple(f.name for f in fields(EdgeTable))


def _checked_table(side: str, arrays: dict[str, np.ndarray], n: int) -> EdgeTable:
    """Side ``side``'s :class:`EdgeTable` of a bundle of ``n`` pairs,
    or :class:`~repro.errors.KernelError` naming what is malformed."""
    table = EdgeTable(*(arrays[f"{side}.{name}"] for name in _EDGE_FIELDS))
    columns = [getattr(table, name) for name in _EDGE_FIELDS if name != "offsets"]
    offsets = table.offsets
    size = len(columns[0]) if columns[0].ndim == 1 else -1
    if any(c.dtype != np.int32 or c.shape != (size,) for c in columns):
        raise KernelError(
            f"shard bundle: the {side} edge columns must be int32[m] of one length"
        )
    if offsets.dtype != np.int64 or offsets.shape != (n + 1,):
        raise KernelError(f"shard bundle: {side}.offsets must be int64[{n + 1}]")
    if offsets[0] != 0 or offsets[-1] != size or np.any(np.diff(offsets) < 0):
        raise KernelError(
            f"shard bundle: {side}.offsets must rise from 0 to the edge count {size}"
        )
    return table


@dataclass(slots=True)
class ShardInput:
    """What one kernel run consumes, and the one owner of its layout.

    ``table_p``/``table_q`` hold the CSR edges of every pair's two
    sides, gathered from a :class:`PairBatch`'s set tables, ``boxes[i]``
    pair ``i``'s start box (meaningful only where ``has_box[i]``).
    ``area_p``/``area_q`` are the polygon areas
    :meth:`finalize` needs; they stay with the process that built the
    input and are ``None`` on one rebuilt by :meth:`from_arrays`.

    An empty pair list is a valid input: empty tables, a zero-length
    shard, an empty :class:`BatchAreas` with zero counters.
    """

    table_p: EdgeTable
    table_q: EdgeTable
    boxes: np.ndarray
    has_box: np.ndarray
    area_p: np.ndarray | None = None
    area_q: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.has_box)

    @classmethod
    def build(
        cls, pairs: Pairs, policy: ExecutionPolicy, cfg: LaunchConfig
    ) -> "ShardInput":
        """Route every pair to its start box and gather both edge tables:
        :func:`start_box` of every pair at once, from the MBR arrays."""
        batch = PairBatch.from_pairs(pairs)
        left, right = batch.left, batch.right
        mp, mq = left.mbrs[batch.left_idx], right.mbrs[batch.right_idx]
        tight = _tight(policy.method, cfg)
        lo, hi = (np.maximum, np.minimum) if tight else (np.minimum, np.maximum)
        boxes = np.hstack([lo(mp[:, :2], mq[:, :2]), hi(mp[:, 2:], mq[:, 2:])])
        has_box = (boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3])
        boxes[~has_box] = 0
        return cls(
            left.edges.take(batch.left_idx),
            right.edges.take(batch.right_idx),
            boxes,
            has_box,
            left.areas[batch.left_idx],
            right.areas[batch.right_idx],
        )

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The named-array bundle shipped to worker processes and hosts.

        ``p.<field>``/``q.<field>`` for every :class:`EdgeTable` field,
        plus ``boxes`` and ``has_box``; areas never leave the builder.
        """
        arrays = {
            f"{side}.{name}": getattr(table, name)
            for side, table in zip(_SIDES, (self.table_p, self.table_q))
            for name in _EDGE_FIELDS
        }
        arrays["boxes"] = self.boxes
        arrays["has_box"] = self.has_box
        return arrays

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "ShardInput":
        """Rebuild a (zero-copy) input from a :meth:`to_arrays` bundle.

        A bundle may come from another host, and native code indexes it,
        so its layout is checked in full: a malformed one raises
        :class:`~repro.errors.KernelError` naming the first fault.
        """
        required = [
            f"{side}.{name}" for side in _SIDES for name in _EDGE_FIELDS
        ] + ["boxes", "has_box"]
        missing = sorted(set(required) - set(arrays))
        if missing:
            raise KernelError(f"shard bundle missing arrays: {missing}")
        boxes, has_box = arrays["boxes"], arrays["has_box"]
        if has_box.dtype != np.bool_ or has_box.ndim != 1:
            raise KernelError("shard bundle: has_box must be bool[n]")
        n = len(has_box)
        if boxes.dtype != np.int64 or boxes.shape != (n, 4):
            raise KernelError(f"shard bundle: boxes must be int64[{n}, 4]")
        routed = boxes[has_box]
        if np.any(routed[:, 0] >= routed[:, 2]) or np.any(
            routed[:, 1] >= routed[:, 3]
        ):
            raise KernelError("shard bundle: an empty box is marked has_box")
        tables = [_checked_table(side, arrays, n) for side in _SIDES]
        return cls(*tables, boxes, has_box)

    def finalize(
        self,
        policy: ExecutionPolicy,
        inter: np.ndarray,
        uni: np.ndarray | None,
        stats: KernelStats,
    ) -> BatchAreas:
        """Measured counts -> consistency-checked :class:`BatchAreas`.

        Direct-union methods only measure what the kernel visited: a pair
        routed to no start box (disjoint MBRs under a pre-filtering
        policy) was never planned or pixelized, so its union is completed
        here as ``|p| + |q|`` — exactly what the per-pair engine returns
        for a ``None`` start box.  ``uni`` may be ``None`` under an
        indirect-union policy (nothing was measured).
        """
        a_p, a_q = self.area_p, self.area_q
        if a_p is None or a_q is None:
            raise KernelError(
                "a shard input rebuilt from arrays carries no polygon "
                "areas; finalize on the input that was built from pairs"
            )
        if policy.indirect_union:
            uni = a_p + a_q - inter
        else:
            if uni is None:
                raise KernelError(
                    "direct-union policy requires measured union counts"
                )
            uni = uni.copy()
            no_box = ~self.has_box
            uni[no_box] = a_p[no_box] + a_q[no_box]
        if np.any(uni < inter) or np.any(uni != a_p + a_q - inter):
            raise KernelError("inconsistent areas in batch result")
        return BatchAreas(inter, uni, a_p, a_q, stats)


# ``leafscan.c``'s return codes.
_CHUNK_ERRORS = {
    1: "a start box with a non-positive or oversized extent, or an unusable grid",
    2: "the chunk scratch could not be allocated",
    3: "an owner row or edge span out of range",
    4: "a sampling-box subdivision deeper than the stack bound",
}


def _chunk_side(table: EdgeTable) -> list:
    """One side's arguments; the C side bounds every offset by ``len(xs)``."""
    columns = [
        np.ascontiguousarray(getattr(table, name), dtype=np.int32)
        for name in ("xs", "lo", "hi", "ys", "xlo", "xhi")
    ]
    offsets = np.ascontiguousarray(table.offsets, dtype=np.int64)
    if offsets.ndim != 1 or columns[0].ndim != 1 or any(
        c.shape != columns[0].shape for c in columns
    ):
        raise KernelError("edge columns must be 1-D and of one length")
    return [*columns, offsets, len(offsets) - 1, len(columns[0])]


def compiled_chunk(
    table_p: EdgeTable,
    table_q: EdgeTable,
    boxes: np.ndarray,
    has_box: np.ndarray,
    row_base: int,
    cfg: LaunchConfig,
    skip_dim: int | None,
    stats: KernelStats,
) -> np.ndarray:
    """Intersection areas of one chunk of the PIXELBOX variant, in C.

    Pair ``i`` of ``boxes``/``has_box`` owns row ``row_base + i`` of the
    edge tables; start boxes of at most ``skip_dim`` pixels a side
    pixelize whole (``None``: every start box subdivides).  Charges
    ``stats`` exactly as :meth:`ChunkKernel.run_chunk` charges the NumPy
    programs.  Raises :class:`~repro.errors.KernelError` when the library
    is not loaded or rejects its input.
    """
    lib = native.load()
    if lib is None:
        raise KernelError(f"compiled chunk unavailable: {native.status()}")
    boxes = np.ascontiguousarray(boxes, dtype=np.int64)
    routed = np.ascontiguousarray(has_box, dtype=np.bool_)
    m = len(routed)
    if boxes.shape != (m, 4) or routed.ndim != 1:
        raise KernelError(
            f"boxes must be int64[n, 4] with n routing flags, got {boxes.shape} "
            f"and {routed.shape}"
        )
    nx, ny = cfg.grid
    inter = np.zeros(m, dtype=np.int64)
    counters = np.zeros(len(fields(KernelStats)), dtype=np.int64)
    args = [
        m, boxes, routed, int(row_base), cfg.threshold, nx, ny,
        -1 if skip_dim is None else int(skip_dim),
        *_chunk_side(table_p), *_chunk_side(table_q), inter, counters,
    ]
    code = lib.pixelbox_chunk(
        *(a.ctypes.data if isinstance(a, np.ndarray) else a for a in args)
    )
    if code:
        raise KernelError(
            f"compiled chunk rejected its input: {_CHUNK_ERRORS.get(code, code)}"
        )
    stats.merge(KernelStats(*counters.tolist()))
    return inter


class ChunkKernel:
    """The plan + stacked-pixelize sequence, parameterized by a policy.

    One instance is cheap (two dataclass references); executors construct
    it per call with their policy and launch config.  The kernel exposes
    three altitudes:

    * :meth:`compute` — the full pipeline for a pair batch (routing,
      chunking, edge tables, finalization): what in-process executors
      call.
    * :meth:`run_shard` — the chunk loop over a contiguous index range of
      one prebuilt :class:`ShardInput`: what a worker process or remote
      worker calls after attaching the shared bundle.
    * :meth:`run_chunk` — one chunk of the sequence: the only code in the
      repository invoking ``plan_levels``, the leaf pixelizer and the
      compiled chunk.

    Work counters are charged identically on every altitude, so service
    metrics and the Figure 2/9 experiments see the same numbers for the
    same input and policy regardless of executor.
    """

    def __init__(
        self, policy: ExecutionPolicy, config: LaunchConfig | None = None
    ):
        self.policy = policy
        self.cfg = config or LaunchConfig()

    # ------------------------------------------------------------------
    # The shared sequence
    # ------------------------------------------------------------------
    def _compiled_chunk(self) -> bool:
        """Whether the chunk runs in ``leafscan.c`` rather than NumPy.

        Only the production policy's scan-mode chunks do: it measures no
        union, and the other policies are the references the experiments
        time, so they keep the NumPy programs whose costs they study.
        """
        return (
            self.policy == BATCH_POLICY
            and self.cfg.leaf_mode == "scan"
            and native.load() is not None
        )

    def run_chunk(
        self,
        table_p: EdgeTable,
        table_q: EdgeTable,
        boxes: np.ndarray,
        has_box: np.ndarray,
        row_base: int,
        stats: KernelStats,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Intersection (and direct-union) areas for one chunk of pairs.

        ``boxes``/``has_box`` hold the chunk's ``m`` pairs; pair ``i`` of
        the chunk owns row ``row_base + i`` of the edge tables (0 when
        the tables were built for this chunk alone, the global pair index
        when a shard walks prebuilt global tables).

        Returns ``(inter, uni)`` of length ``m``; ``uni`` is all-zero
        under an indirect-union policy.
        """
        policy = self.policy
        cfg = self.cfg
        m = len(boxes)
        if self._compiled_chunk():
            inter = compiled_chunk(
                table_p, table_q, boxes, has_box, row_base, cfg,
                policy.skip_subdivision_max_dim, stats,
            )
            return inter, np.zeros(m, dtype=np.int64)
        stats.pairs += m
        inter = np.zeros(m, dtype=np.int64)
        uni = np.zeros(m, dtype=np.int64)
        rows = row_base + np.arange(m, dtype=np.int64)

        # Start-box routing: every routable pair goes to the planner,
        # unless the policy pixelizes small pairs directly.
        if policy.skip_subdivision_max_dim is not None:
            dim = policy.skip_subdivision_max_dim
            widths = boxes[:, 2] - boxes[:, 0]
            heights = boxes[:, 3] - boxes[:, 1]
            small = has_box & (widths <= dim) & (heights <= dim)
            large = has_box & ~small
            stats.batched_pairs += int(np.count_nonzero(small))
            stats.fallback_pairs += int(np.count_nonzero(large))
        else:
            small = np.zeros(m, dtype=bool)
            large = has_box

        # A skip-routed start box is still one sampling box taken off the
        # stack (Algorithm 1 pops it, decides nothing, pixelizes); charge
        # it like the planner charges its frontier so `pops` agrees
        # across policies whenever the plans agree.
        stats.pops += int(np.count_nonzero(small))

        # Level-synchronous planning for the subdividing pairs.
        large_rows = rows[large]
        if len(large_rows):
            dec_i, dec_u, plan_leaves, plan_rows = plan_levels(
                table_p,
                table_q,
                boxes[large],
                large_rows,
                cfg,
                policy.method,
                stats,
                row_base + m,
            )
            inter += dec_i[row_base:]
            if policy.measures_union:
                uni += dec_u[row_base:]
        else:
            plan_leaves = np.zeros((0, 4), dtype=np.int64)
            plan_rows = np.zeros(0, dtype=np.int64)

        # Stacked pixelization of every leaf: skip-routed start boxes and
        # the planner's undecided sub-threshold boxes, one launch.
        leaves = np.concatenate([boxes[small], plan_leaves], axis=0)
        leaf_rows = np.concatenate([rows[small], plan_rows])
        stats.leaf_boxes += len(leaves)
        if len(leaves):
            sizes = (leaves[:, 2] - leaves[:, 0]) * (
                leaves[:, 3] - leaves[:, 1]
            )
            stats.pixel_tests += 2 * int(sizes.sum())
            leaf_i, leaf_u = stacked_leaf_counts(
                table_p,
                table_q,
                leaves,
                leaf_rows,
                want_union=policy.measures_union,
                leaf_mode=cfg.leaf_mode,
            )
            np.add.at(inter, leaf_rows - row_base, leaf_i)
            if policy.measures_union:
                np.add.at(uni, leaf_rows - row_base, leaf_u)
        return inter, uni

    def run_shard(
        self, shard: ShardInput, lo: int, hi: int, stats: KernelStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """Chunked kernel over pair indices ``[lo, hi)`` of ``shard``.

        The edge tables cover *all* pairs (one serialization, many
        shards); the plan and the stacked pixelization never mix pairs,
        so sharding at any boundary preserves bit-for-bit results.
        Returns ``(inter, uni)`` slices of length ``hi - lo``.
        """
        # Tracing guard: one ContextVar read.  When no tracer is active
        # (the default) the shard runs the plain path — zero allocations
        # added to the hot loop (the overhead-guard test pins this).
        tracer = current_tracer()
        if tracer is not None:
            with tracer.span("kernel.run_shard", lo=lo, hi=hi):
                return self._run_shard(shard, lo, hi, stats)
        return self._run_shard(shard, lo, hi, stats)

    def _run_shard(
        self, shard: ShardInput, lo: int, hi: int, stats: KernelStats
    ) -> tuple[np.ndarray, np.ndarray]:
        inter = np.zeros(hi - lo, dtype=np.int64)
        uni = np.zeros(hi - lo, dtype=np.int64)
        for c_lo in range(lo, hi, self.policy.chunk_pairs):
            c_hi = min(c_lo + self.policy.chunk_pairs, hi)
            c_inter, c_uni = self.run_chunk(
                shard.table_p,
                shard.table_q,
                shard.boxes[c_lo:c_hi],
                shard.has_box[c_lo:c_hi],
                c_lo,
                stats,
            )
            inter[c_lo - lo : c_hi - lo] = c_inter
            uni[c_lo - lo : c_hi - lo] = c_uni
        return inter, uni

    # ------------------------------------------------------------------
    # Full pipeline
    # ------------------------------------------------------------------
    def compute(
        self, pairs: Pairs, stats: KernelStats | None = None
    ) -> BatchAreas:
        """Exact areas for a pair list under this kernel's policy.

        Each chunk builds its own :class:`ShardInput`, so peak memory is
        bounded by ``chunk_pairs`` however long the pair list is.
        """
        st = stats if stats is not None else KernelStats()
        batch = PairBatch.from_pairs(pairs)
        step = self.policy.chunk_pairs
        # An empty pair list still runs one (empty) chunk.
        chunks = [
            batch[lo : lo + step] for lo in range(0, len(batch), step)
        ] or [batch]
        parts = []
        for chunk in chunks:
            part = ShardInput.build(chunk, self.policy, self.cfg)
            inter, uni = self.run_chunk(
                part.table_p, part.table_q, part.boxes, part.has_box, 0, st
            )
            parts.append(part.finalize(self.policy, inter, uni, st))
        if len(parts) == 1:
            return parts[0]
        return BatchAreas(
            *(
                np.concatenate([getattr(part, name) for part in parts])
                for name in ("intersection", "union", "area_p", "area_q")
            ),
            st,
        )
