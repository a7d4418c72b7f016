"""The cross-comparing queries of Figure 1, as executable plans.

:func:`build_unoptimized_plan` is Figure 1(a): join on ``ST_Intersects``,
compute both ``ST_Area(ST_Intersection)`` and ``ST_Area(ST_Union)`` per
pair.  :func:`build_optimized_plan` is Figure 1(b): join on the MBR ``&&``
operator only, compute the intersection area once, and derive the union
through ``|p u q| = |p| + |q| - |p n q|``.

:func:`build_backend_plan` is the accelerated plan this reproduction
adds: the same MBR join feeding a single batched launch through an
execution backend (:class:`~repro.sdbms.plan.BackendAreaProject`) — the
paper's "replace the GIS library call with the kernel" rewiring expressed
inside the query engine.

:func:`run_cross_compare` executes any of the plans under a fresh
profiler and returns the similarity plus the Figure-2-style
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.polygon import RectilinearPolygon
from repro.obs.clock import StageClock
from repro.sdbms.plan import (
    AvgAggregate,
    BackendAreaProject,
    BinOp,
    Col,
    Const,
    Filter,
    Func,
    IndexNestLoopJoin,
    PlanNode,
    Project,
)
from repro.sdbms.profiler import Bucket
from repro.sdbms.table import PolygonTable

__all__ = [
    "QueryResult",
    "build_unoptimized_plan",
    "build_optimized_plan",
    "build_backend_plan",
    "run_cross_compare",
]


@dataclass(frozen=True, slots=True)
class QueryResult:
    """Similarity output of one cross-comparing query."""

    jaccard_mean: float
    pair_count: int
    ratio_sum: float
    profiler: StageClock


def build_unoptimized_plan(
    table_a: PolygonTable, table_b: PolygonTable
) -> PlanNode:
    """Figure 1(a): ST_Intersects join + direct intersection/union areas."""
    join = IndexNestLoopJoin(table_a, table_b)
    intersecting = Filter(
        join,
        Func("ST_Intersects", [Col("a"), Col("b")], bucket=Bucket.ST_INTERSECTS),
    )
    ratio = Project(
        intersecting,
        {
            "ai": Func(
                "ST_Area",
                [Func("ST_Intersection", [Col("a"), Col("b")])],
                bucket=Bucket.AREA_OF_INTERSECTION,
            ),
            "au": Func(
                "ST_Area",
                [Func("ST_Union", [Col("a"), Col("b")])],
                bucket=Bucket.AREA_OF_UNION,
            ),
        },
    )
    with_ratio = Project(
        ratio, {"ratio": BinOp("/", Col("ai"), Col("au"))}
    )
    # Pairs that only touch have ratio 0 and are excluded from J'
    # (Formula 1 requires a non-empty intersection).
    return AvgAggregate(
        with_ratio, "ratio", where=BinOp(">", Col("ai"), Const(0))
    )


def build_optimized_plan(
    table_a: PolygonTable, table_b: PolygonTable
) -> PlanNode:
    """Figure 1(b): MBR-only join + indirect union areas."""
    join = IndexNestLoopJoin(table_a, table_b)
    areas = Project(
        join,
        {
            "ai": Func(
                "ST_Area",
                [Func("ST_Intersection", [Col("a"), Col("b")])],
                bucket=Bucket.AREA_OF_INTERSECTION,
            ),
            "ap": Func("ST_Area", [Col("a")], bucket=Bucket.ST_AREA),
            "aq": Func("ST_Area", [Col("b")], bucket=Bucket.ST_AREA),
        },
    )
    with_ratio = Project(
        areas,
        {
            "ratio": BinOp(
                "/",
                Col("ai"),
                BinOp("-", BinOp("+", Col("ap"), Col("aq")), Col("ai")),
            )
        },
    )
    return AvgAggregate(
        with_ratio, "ratio", where=BinOp(">", Col("ai"), Const(0))
    )


def build_backend_plan(
    table_a: PolygonTable,
    table_b: PolygonTable,
    backend: str = "batch",
) -> PlanNode:
    """MBR-only join + one batched launch on an execution backend.

    Same shape as the optimized plan, but the per-pair exact overlay is
    replaced by a single :class:`BackendAreaProject` launch — identical
    similarity output (the backends are bit-for-bit exact), different
    executor.
    """
    join = IndexNestLoopJoin(table_a, table_b)
    areas = BackendAreaProject(join, backend=backend)
    with_ratio = Project(
        areas,
        {
            "ratio": BinOp(
                "/",
                Col("ai"),
                BinOp("-", BinOp("+", Col("ap"), Col("aq")), Col("ai")),
            )
        },
    )
    return AvgAggregate(
        with_ratio, "ratio", where=BinOp(">", Col("ai"), Const(0))
    )


def run_cross_compare(
    polygons_a: list[RectilinearPolygon],
    polygons_b: list[RectilinearPolygon],
    optimized: bool = True,
    profiler: StageClock | None = None,
    backend: str | None = None,
) -> QueryResult:
    """Execute a cross-comparing query over two polygon sets.

    ``backend=None`` runs the row-at-a-time plans (the SDBMS baselines);
    naming a backend runs the batched plan through that executor.
    """
    table_a = PolygonTable("set_a", polygons_a)
    table_b = PolygonTable("set_b", polygons_b)
    if backend is not None:
        plan = build_backend_plan(table_a, table_b, backend)
    else:
        build = build_optimized_plan if optimized else build_unoptimized_plan
        plan = build(table_a, table_b)
    prof = profiler or StageClock()
    with prof.run():
        rows = list(plan.rows(prof))
    result = rows[0]
    return QueryResult(
        jaccard_mean=result["avg"],
        pair_count=result["count"],
        ratio_sum=result["sum"],
        profiler=prof,
    )
