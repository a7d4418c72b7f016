"""Query plans: expressions and iterator-model operators.

The mini engine executes trees of pull-based operators (Volcano style)
over polygon tables.  Expressions may be annotated with a profiler
*bucket*; an annotated expression charges its entire evaluation — including
nested spatial function calls — to that bucket, which is how the paper
attributes ``ST_Area(ST_Intersection(...))`` to a single
``Area_Of_Intersection`` component in Figure 2.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.errors import QueryError
from repro.geometry.polyset import PolygonSet
from repro.obs.clock import StageClock
from repro.pixelbox.common import LaunchConfig
from repro.sdbms.functions import get_function
from repro.sdbms.profiler import Bucket
from repro.sdbms.table import PolygonTable

__all__ = [
    "Expr",
    "Col",
    "Const",
    "Func",
    "BinOp",
    "PlanNode",
    "IndexNestLoopJoin",
    "Filter",
    "Project",
    "BackendAreaProject",
    "AvgAggregate",
]

Row = dict[str, Any]


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
class Expr:
    """Base expression; subclasses implement :meth:`_compute`."""

    bucket: str | None = None

    def evaluate(self, row: Row, profiler: StageClock) -> Any:
        """Evaluate against ``row``, charging ``bucket`` when annotated."""
        if self.bucket is None:
            return self._compute(row, profiler)
        with profiler.measure(self.bucket):
            return self._compute(row, profiler)

    def _compute(self, row: Row, profiler: StageClock) -> Any:
        raise NotImplementedError


class Col(Expr):
    """Column reference."""

    def __init__(self, name: str) -> None:
        self.name = name

    def _compute(self, row: Row, profiler: StageClock) -> Any:
        if self.name not in row:
            raise QueryError(f"unknown column {self.name!r}")
        return row[self.name]

    def __repr__(self) -> str:
        return f"Col({self.name})"


class Const(Expr):
    """Literal value."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def _compute(self, row: Row, profiler: StageClock) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Func(Expr):
    """Spatial function call, e.g. ``ST_Area(ST_Intersection(a, b))``."""

    def __init__(self, name: str, args: list[Expr], bucket: str | None = None):
        self.name = name
        self.args = args
        self.fn = get_function(name)
        self.bucket = bucket

    def _compute(self, row: Row, profiler: StageClock) -> Any:
        values = [arg.evaluate(row, profiler) for arg in self.args]
        return self.fn(*values)

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({inner})"


class BinOp(Expr):
    """Arithmetic/comparison operator."""

    _OPS: dict[str, Callable[[Any, Any], Any]] = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "=": lambda a, b: a == b,
    }

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in self._OPS:
            raise QueryError(f"unknown operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def _compute(self, row: Row, profiler: StageClock) -> Any:
        return self._OPS[self.op](
            self.left.evaluate(row, profiler),
            self.right.evaluate(row, profiler),
        )

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


# ----------------------------------------------------------------------
# Plan operators
# ----------------------------------------------------------------------
class PlanNode:
    """Base iterator-model operator."""

    def rows(self, profiler: StageClock) -> Iterator[Row]:
        """Yield result rows."""
        raise NotImplementedError

    def explain(self, depth: int = 0) -> str:
        """Indented plan-tree description."""
        raise NotImplementedError


class IndexNestLoopJoin(PlanNode):
    """MBR-overlap join: probe the inner index with every outer MBR at once.

    This is the ``a.geom && b.geom`` join of the optimized query (Figure
    1(b)); probes are charged to ``Index_Search``, index construction to
    ``Index_Build``.
    """

    def __init__(self, outer: PolygonTable, inner: PolygonTable) -> None:
        self.outer = outer
        self.inner = inner

    def rows(self, profiler: StageClock) -> Iterator[Row]:
        self.inner.build_index(profiler)
        outer, inner = self.outer.polygons, self.inner.polygons
        with profiler.measure(Bucket.INDEX_SEARCH):
            probes = PolygonSet.from_polygons(outer).mbrs
            left, right = self.inner.index.search_many(probes)
        for i, j in zip(left.tolist(), right.tolist()):
            yield {"a_id": i, "b_id": j, "a": outer[i], "b": inner[j]}

    def explain(self, depth: int = 0) -> str:
        pad = "  " * depth
        return (
            f"{pad}IndexNestLoopJoin ({self.outer.name} && {self.inner.name})"
        )


class Filter(PlanNode):
    """Keep rows whose predicate evaluates truthy."""

    def __init__(self, child: PlanNode, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate

    def rows(self, profiler: StageClock) -> Iterator[Row]:
        for row in self.child.rows(profiler):
            if self.predicate.evaluate(row, profiler):
                yield row

    def explain(self, depth: int = 0) -> str:
        pad = "  " * depth
        return (
            f"{pad}Filter ({self.predicate!r})\n"
            + self.child.explain(depth + 1)
        )


class Project(PlanNode):
    """Extend each row with computed columns."""

    def __init__(self, child: PlanNode, columns: dict[str, Expr]) -> None:
        self.child = child
        self.columns = columns

    def rows(self, profiler: StageClock) -> Iterator[Row]:
        for row in self.child.rows(profiler):
            for name, expr in self.columns.items():
                row[name] = expr.evaluate(row, profiler)
            yield row

    def explain(self, depth: int = 0) -> str:
        pad = "  " * depth
        cols = ", ".join(f"{k}={v!r}" for k, v in self.columns.items())
        return f"{pad}Project ({cols})\n" + self.child.explain(depth + 1)


class BackendAreaProject(PlanNode):
    """Vectorized area columns through an execution backend.

    The row-at-a-time plans compute ``ST_Area(ST_Intersection(a, b))``
    with the exact overlay per pair — faithful to how an SDBMS calls out
    to its geometry library, and exactly the bottleneck the paper
    removes.  This operator is the accelerated counterpart: it
    materializes the child's rows, ships **all** pairs in a single
    launch through a registered execution backend
    (:mod:`repro.backends`), and extends each row with the ``ai`` /
    ``ap`` / ``aq`` columns the similarity projection consumes.  The
    launch is charged to ``Area_Of_Intersection``, keeping Figure-2
    style decompositions comparable across executors.
    """

    def __init__(
        self,
        child: PlanNode,
        backend: str = "batch",
        config: LaunchConfig | None = None,
    ) -> None:
        self.child = child
        self.backend = backend
        self.config = config

    def rows(self, profiler: StageClock) -> Iterator[Row]:
        from repro.backends import get_backend

        materialized = list(self.child.rows(profiler))
        pairs = [(row["a"], row["b"]) for row in materialized]
        with get_backend(self.backend) as executor:
            with profiler.measure(Bucket.AREA_OF_INTERSECTION):
                areas = executor.compare_pairs(pairs, self.config)
        for i, row in enumerate(materialized):
            row["ai"] = int(areas.intersection[i])
            row["ap"] = int(areas.area_p[i])
            row["aq"] = int(areas.area_q[i])
            yield row

    def explain(self, depth: int = 0) -> str:
        pad = "  " * depth
        return (
            f"{pad}BackendAreaProject (backend={self.backend})\n"
            + self.child.explain(depth + 1)
        )


class AvgAggregate(PlanNode):
    """``AVG(column)`` over rows passing an optional qualifier.

    Yields a single row ``{"avg": float, "count": int, "sum": float}`` —
    the similarity score of the whole comparison.
    """

    def __init__(
        self,
        child: PlanNode,
        column: str,
        where: Expr | None = None,
    ) -> None:
        self.child = child
        self.column = column
        self.where = where

    def rows(self, profiler: StageClock) -> Iterator[Row]:
        total = 0.0
        count = 0
        for row in self.child.rows(profiler):
            if self.where is not None and not self.where.evaluate(row, profiler):
                continue
            total += row[self.column]
            count += 1
        yield {
            "avg": total / count if count else 0.0,
            "count": count,
            "sum": total,
        }

    def explain(self, depth: int = 0) -> str:
        pad = "  " * depth
        qual = f" where {self.where!r}" if self.where is not None else ""
        return (
            f"{pad}AvgAggregate ({self.column}{qual})\n"
            + self.child.explain(depth + 1)
        )
