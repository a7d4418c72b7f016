"""Mini spatial DBMS — the PostGIS baseline stand-in.

Polygon tables with Hilbert R-tree indexes, a Volcano-style executor,
``ST_*`` spatial functions backed by exact overlay geometry, per-component
profiling (Figure 2: the :class:`Bucket` names, charged to a
:class:`repro.obs.clock.StageClock`), and chunked parallel execution
(PostGIS-M).
"""

from repro.sdbms.functions import FUNCTIONS, get_function, st_area
from repro.sdbms.parallel import ParallelQueryResult, parallel_cross_compare
from repro.sdbms.plan import (
    AvgAggregate,
    BinOp,
    Col,
    Const,
    Expr,
    Filter,
    Func,
    IndexNestLoopJoin,
    PlanNode,
    Project,
)
from repro.sdbms.profiler import Bucket
from repro.sdbms.queries import (
    QueryResult,
    build_optimized_plan,
    build_unoptimized_plan,
    run_cross_compare,
)
from repro.sdbms.table import Catalog, PolygonTable

__all__ = [
    "PolygonTable",
    "Catalog",
    "Bucket",
    "FUNCTIONS",
    "get_function",
    "st_area",
    "Expr",
    "Col",
    "Const",
    "Func",
    "BinOp",
    "PlanNode",
    "IndexNestLoopJoin",
    "Filter",
    "Project",
    "AvgAggregate",
    "QueryResult",
    "build_unoptimized_plan",
    "build_optimized_plan",
    "run_cross_compare",
    "ParallelQueryResult",
    "parallel_cross_compare",
]
