"""Unit tests for the mini SDBMS: tables, plans, queries, parallelism."""

import pytest

from repro.errors import CatalogError, QueryError
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.metrics.jaccard import jaccard_pairwise
from repro.obs.clock import StageClock
from repro.sdbms.functions import get_function, st_area
from repro.sdbms.parallel import parallel_cross_compare
from repro.sdbms.plan import (
    AvgAggregate,
    BinOp,
    Col,
    Const,
    Filter,
    Func,
    IndexNestLoopJoin,
    Project,
)
from repro.sdbms.profiler import Bucket
from repro.sdbms.queries import (
    build_optimized_plan,
    build_unoptimized_plan,
    run_cross_compare,
)
from repro.sdbms.table import Catalog, PolygonTable


def square(x0, y0, x1, y1):
    return RectilinearPolygon.from_box(Box(x0, y0, x1, y1))


class TestCatalogAndTables:
    def test_register_and_get(self):
        catalog = Catalog()
        table = PolygonTable("cells", [square(0, 0, 2, 2)])
        catalog.register(table)
        assert catalog.get("cells") is table
        assert "cells" in catalog and catalog.names() == ["cells"]

    def test_duplicate_registration(self):
        catalog = Catalog()
        catalog.register(PolygonTable("t", []))
        with pytest.raises(CatalogError):
            catalog.register(PolygonTable("t", []))

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Catalog().get("nope")

    def test_invalid_name(self):
        with pytest.raises(CatalogError):
            PolygonTable("not a name", [])

    def test_index_requires_build(self):
        table = PolygonTable("t", [square(0, 0, 2, 2)])
        with pytest.raises(CatalogError):
            _ = table.index
        table.build_index()
        assert table.index.search(Box(0, 0, 1, 1)) == [0]

    def test_from_files(self, small_dataset):
        dir_a, _ = small_dataset
        table = PolygonTable.from_files("a", sorted(dir_a.iterdir()))
        assert len(table) > 0

    def test_chunk(self):
        table = PolygonTable("t", [square(i, 0, i + 1, 1) for i in range(10)])
        parts = table.chunk(3)
        assert sum(len(p) for p in parts) == 10
        with pytest.raises(CatalogError):
            table.chunk(0)


class TestExpressions:
    def test_col_and_const(self):
        prof = StageClock()
        assert Col("x").evaluate({"x": 5}, prof) == 5
        assert Const(7).evaluate({}, prof) == 7

    def test_unknown_column(self):
        with pytest.raises(QueryError):
            Col("missing").evaluate({}, StageClock())

    def test_binop(self):
        prof = StageClock()
        expr = BinOp("/", Const(6), Const(4))
        assert expr.evaluate({}, prof) == 1.5
        with pytest.raises(QueryError):
            BinOp("%", Const(1), Const(2))

    def test_func_with_bucket_charges_profiler(self):
        prof = StageClock()
        expr = Func("ST_Area", [Col("g")], bucket=Bucket.ST_AREA)
        assert expr.evaluate({"g": square(0, 0, 3, 3)}, prof) == 9
        assert prof.counts[Bucket.ST_AREA] == 1

    def test_unknown_function(self):
        with pytest.raises(QueryError):
            get_function("ST_Bogus")

    def test_st_area_rejects_non_geometry(self):
        with pytest.raises(QueryError):
            st_area(42)


class TestPlans:
    def test_join_emits_mbr_pairs(self):
        a = PolygonTable("a", [square(0, 0, 4, 4)])
        b = PolygonTable("b", [square(2, 2, 6, 6), square(50, 50, 51, 51)])
        rows = list(IndexNestLoopJoin(a, b).rows(StageClock()))
        assert len(rows) == 1 and rows[0]["b_id"] == 0

    def test_filter_and_project(self):
        a = PolygonTable("a", [square(0, 0, 4, 4)])
        b = PolygonTable("b", [square(2, 2, 6, 6)])
        plan = Project(
            Filter(
                IndexNestLoopJoin(a, b),
                Func("ST_Intersects", [Col("a"), Col("b")]),
            ),
            {"ai": Func("ST_Area", [Func("ST_Intersection", [Col("a"), Col("b")])])},
        )
        rows = list(plan.rows(StageClock()))
        assert rows[0]["ai"] == 4

    def test_aggregate(self):
        a = PolygonTable("a", [square(0, 0, 2, 2)])
        b = PolygonTable("b", [square(0, 0, 2, 2)])
        plan = AvgAggregate(
            Project(
                IndexNestLoopJoin(a, b),
                {"ratio": Const(0.5)},
            ),
            "ratio",
        )
        out = list(plan.rows(StageClock()))
        assert out == [{"avg": 0.5, "count": 1, "sum": 0.5}]

    def test_explain_renders_tree(self):
        a = PolygonTable("a", [])
        b = PolygonTable("b", [])
        text = build_optimized_plan(a, b).explain()
        assert "IndexNestLoopJoin" in text and "AvgAggregate" in text


class TestCrossCompareQueries:
    def test_queries_agree_with_pixelbox(self, tile_pair):
        a, b = tile_pair
        pw = jaccard_pairwise(a, b)
        unopt = run_cross_compare(a, b, optimized=False)
        opt = run_cross_compare(a, b, optimized=True)
        assert unopt.jaccard_mean == pytest.approx(pw.mean_ratio, abs=1e-12)
        assert opt.jaccard_mean == pytest.approx(pw.mean_ratio, abs=1e-12)
        assert unopt.pair_count == opt.pair_count == pw.intersecting_pairs

    def test_profile_decomposition_shape(self, tile_pair):
        a, b = tile_pair
        opt = run_cross_compare(a, b, optimized=True)
        dec = opt.profiler.decomposition()
        # The optimized query's bottleneck is the area of intersection
        # (Figure 2: ~90%); union never appears.
        assert dec[Bucket.AREA_OF_INTERSECTION] > 0.4
        assert Bucket.AREA_OF_UNION not in dec
        assert dec.get(Bucket.INDEX_BUILD, 0) < 0.25

    def test_unoptimized_profile_has_union(self, tile_pair):
        a, b = tile_pair
        unopt = run_cross_compare(a, b, optimized=False)
        dec = unopt.profiler.decomposition()
        assert Bucket.AREA_OF_UNION in dec
        assert Bucket.ST_INTERSECTS in dec

    def test_report_renders(self, tile_pair):
        a, b = tile_pair
        res = run_cross_compare(a[:10], b[:10], optimized=True)
        assert "total wall time" in res.profiler.report()

    def test_empty_tables(self):
        res = run_cross_compare([], [], optimized=True)
        assert res.jaccard_mean == 0.0 and res.pair_count == 0


class TestParallel:
    def test_parallel_matches_serial(self, tile_pair):
        a, b = tile_pair
        serial = run_cross_compare(a, b, optimized=True)
        par = parallel_cross_compare(a, b, workers=2, streams=4)
        assert par.jaccard_mean == pytest.approx(serial.jaccard_mean, abs=1e-12)
        assert par.pair_count == serial.pair_count

    def test_single_worker_shortcut(self, tile_pair):
        a, b = tile_pair
        par = parallel_cross_compare(a, b, workers=1)
        assert par.streams == 1

    def test_tiny_input_shortcut(self):
        a = [square(0, 0, 2, 2)]
        par = parallel_cross_compare(a, a, workers=4, streams=16)
        assert par.streams == 1 and par.jaccard_mean == 1.0

    def test_validation(self, tile_pair):
        a, b = tile_pair
        with pytest.raises(QueryError):
            parallel_cross_compare(a, b, workers=0)
        with pytest.raises(QueryError):
            parallel_cross_compare(a, b, streams=0)
