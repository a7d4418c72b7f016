"""Front-door result types: one comparison, one record.

:class:`CompareResult` is what :class:`repro.Session` returns for set-
and file-level comparisons — the similarity fields plus the performance
accounting (wall seconds, input bytes) the session measures.
:class:`PairOutcome` is the per-pair record :meth:`repro.Session.stream`
yields incrementally as shards complete.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from repro.metrics.jaccard import PairwiseJaccard

__all__ = ["CompareResult", "PairOutcome"]


@dataclass(frozen=True, slots=True)
class CompareResult:
    """Outcome of one set- or file-level cross-comparison."""

    jaccard_mean: float
    intersecting_pairs: int
    candidate_pairs: int
    missing_a: int
    missing_b: int
    count_a: int
    count_b: int
    tiles: int = 1
    wall_seconds: float = 0.0
    input_bytes: int = 0
    # Trace id of the request-scoped span tree, when tracing was on
    # (``CompareOptions(trace=True)``); ``Session.last_trace`` holds the
    # records, ``trace_out`` the JSONL file.
    trace_id: str | None = None

    @property
    def throughput(self) -> float:
        """Bytes of raw input per second (0 when unmeasured)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.input_bytes / self.wall_seconds

    @classmethod
    def from_pairwise(
        cls,
        pw: PairwiseJaccard,
        tiles: int = 1,
        wall_seconds: float = 0.0,
        input_bytes: int = 0,
    ) -> "CompareResult":
        """Wrap a metrics-layer result (one tile, or the sum of several)."""
        return cls(
            jaccard_mean=pw.mean_ratio,
            intersecting_pairs=pw.intersecting_pairs,
            candidate_pairs=pw.candidate_pairs,
            missing_a=pw.missing_a,
            missing_b=pw.missing_b,
            count_a=pw.count_a,
            count_b=pw.count_b,
            tiles=tiles,
            wall_seconds=wall_seconds,
            input_bytes=input_bytes,
        )

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict rendering (reports, JSON)."""
        out = asdict(self)
        out["throughput"] = self.throughput
        return out

    def __str__(self) -> str:
        return (
            f"J'={self.jaccard_mean:.4f} ({self.intersecting_pairs} pairs, "
            f"{self.tiles} tile(s); {self.count_a} vs {self.count_b} "
            f"polygons; missing {self.missing_a}/{self.missing_b})"
        )


@dataclass(frozen=True, slots=True)
class PairOutcome:
    """One pair's exact areas, yielded incrementally by ``stream()``."""

    index: int
    intersection: int
    union: int
    area_p: int
    area_q: int

    @property
    def jaccard(self) -> float:
        """``|p n q| / |p u q|`` (0 when the union is empty)."""
        if self.union == 0:
            return 0.0
        return self.intersection / self.union
