"""Tests for the session-centric front door.

Covers the three contract families of :class:`repro.Session`:

* **lifecycle** — lazy backend resolution, ``warm()``, idempotent
  ``close()``, a clear error on reuse-after-close, and no leaked worker
  processes once a session is closed;
* **parity** — session results are bit-for-bit equal to the legacy
  metrics-layer path on *every* registry backend (cluster included),
  and the incremental/async entry points equal the synchronous one.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.api import (
    CompareOptions,
    CompareRequest,
    CompareResult,
    Session,
    explain,
)
from repro.backends import available_backends
from repro.errors import RequestError, SessionClosedError
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.metrics.jaccard import jaccard_pairwise


def _square(x: int, y: int, side: int = 6) -> RectilinearPolygon:
    return RectilinearPolygon.from_box(Box(x, y, x + side, y + side))


PAIRS = [
    (_square(0, 0), _square(3, 3)),
    (_square(0, 0), _square(100, 100)),
    (_square(0, 0, 12), _square(2, 2, 3)),
    (_square(5, 5), _square(5, 5)),
]


def _assert_no_worker_processes(timeout: float = 5.0) -> None:
    """Every pooled worker process has exited (post-close invariant)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.05)
    raise AssertionError(
        f"leaked worker processes: {multiprocessing.active_children()}"
    )


class TestLifecycle:
    def test_backend_resolved_lazily(self):
        session = Session(CompareOptions(backend="batch"))
        assert session._backend is None
        _ = session.backend
        assert session._backend is not None
        session.close()

    def test_context_manager_closes(self):
        with Session() as session:
            session.compare(PAIRS)
            assert not session.closed
        assert session.closed

    def test_double_close_is_safe(self):
        session = Session()
        session.compare(PAIRS)
        session.close()
        session.close()  # idempotent

    def test_reuse_after_close_raises_clearly(self):
        session = Session()
        session.close()
        with pytest.raises(SessionClosedError, match="closed"):
            session.compare(PAIRS)
        with pytest.raises(SessionClosedError):
            session.compare_files("a", "b")
        with pytest.raises(SessionClosedError):
            _ = session.backend

    def test_close_releases_multiprocess_pool(self):
        options = CompareOptions(
            backend="multiprocess", backend_options={"min_pairs": 1}
        )
        with Session(options) as session:
            areas = session.compare(PAIRS)
            assert len(areas) == len(PAIRS)
        _assert_no_worker_processes()

    def test_warm_prespawns_and_close_reaps(self):
        options = CompareOptions(
            backend="multiprocess", backend_options={"workers": 2, "min_pairs": 1}
        )
        session = Session(options).warm()
        assert multiprocessing.active_children()  # pool is up
        session.close()
        _assert_no_worker_processes()

    def test_session_overrides_shorthand(self):
        session = Session(backend="multiprocess")
        assert session.options.backend == "multiprocess"
        session.close()

    def test_invalid_backend_fails_on_first_use(self):
        session = Session(backend="not-a-backend")
        from repro.errors import KernelError

        with pytest.raises(KernelError, match="unknown backend"):
            session.compare(PAIRS)
        session.close()


class TestParity:
    """Session results == legacy metrics path, on every backend."""

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_compare_sets_matches_legacy_path(self, backend, tile_pair):
        set_a, set_b = tile_pair
        legacy = jaccard_pairwise(set_a, set_b, backend=backend)
        with Session(backend=backend) as session:
            result = session.compare_sets(set_a, set_b)
        assert result.jaccard_mean == legacy.mean_ratio  # bit-for-bit
        assert result.intersecting_pairs == legacy.intersecting_pairs
        assert result.candidate_pairs == legacy.candidate_pairs
        assert result.missing_a == legacy.missing_a
        assert result.missing_b == legacy.missing_b

    def test_stream_equals_compare(self):
        with Session() as session:
            whole = session.compare(PAIRS)
            streamed = list(session.stream(PAIRS, shard_pairs=2))
        assert [o.index for o in streamed] == list(range(len(PAIRS)))
        np.testing.assert_array_equal(
            [o.intersection for o in streamed], whole.intersection
        )
        np.testing.assert_array_equal(
            [o.union for o in streamed], whole.union
        )
        np.testing.assert_array_equal(
            [o.area_p for o in streamed], whole.area_p
        )
        np.testing.assert_array_equal(
            [o.area_q for o in streamed], whole.area_q
        )

    def test_stream_sizes_shards_from_cost_model(self):
        with Session() as session:
            streamed = list(session.stream(PAIRS))
        assert len(streamed) == len(PAIRS)
        with Session() as session:
            assert list(session.stream([])) == []
        with Session() as session:
            with pytest.raises(RequestError):
                list(session.stream(PAIRS, shard_pairs=0))

    @pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cache"])
    def test_stream_converts_the_pair_list_once(self, cache, monkeypatch):
        """Both stream variants turn the list into one ``PairBatch``:
        the shard sizing profiles it and every shard is a slice of it."""
        from repro.pixelbox import kernel

        lists = []
        from_pairs = kernel.PairBatch.from_pairs.__func__

        def spy(cls, pairs):
            if isinstance(pairs, list):
                lists.append(len(pairs))
            return from_pairs(cls, pairs)

        monkeypatch.setattr(kernel.PairBatch, "from_pairs", classmethod(spy))

        async def drain(session):
            return [o async for o in session.stream_async(PAIRS, shard_pairs=3)]

        with Session(cache=cache) as session:
            assert len(list(session.stream(PAIRS))) == len(PAIRS)
            assert len(list(session.stream(PAIRS, shard_pairs=1))) == len(PAIRS)
            assert len(asyncio.run(drain(session))) == len(PAIRS)
        assert lists == [len(PAIRS)] * 3

    def test_a_stream_of_invalid_pairs_is_refused_before_any_shard_runs(self):
        with Session() as session:
            with pytest.raises(RequestError, match="RectilinearPolygon"):
                list(session.stream([PAIRS[0], ("not", "polygons")]))

    @pytest.mark.parametrize("bad", [0, -5])
    def test_stream_async_validates_shard_pairs(self, bad):
        async def go():
            with Session() as session:
                async for _ in session.stream_async(PAIRS, shard_pairs=bad):
                    pass

        with pytest.raises(RequestError):
            asyncio.run(go())

    def test_submit_async_equals_compare(self):
        async def go():
            with Session() as session:
                return await session.submit(PAIRS)

        areas = asyncio.run(go())
        with Session() as session:
            expected = session.compare(PAIRS)
        np.testing.assert_array_equal(areas.intersection, expected.intersection)
        np.testing.assert_array_equal(areas.union, expected.union)

    def test_stream_async_equals_compare(self):
        async def go():
            out = []
            with Session() as session:
                async for outcome in session.stream_async(
                    PAIRS, shard_pairs=3
                ):
                    out.append(outcome)
            return out

        streamed = asyncio.run(go())
        with Session() as session:
            whole = session.compare(PAIRS)
        np.testing.assert_array_equal(
            [o.intersection for o in streamed], whole.intersection
        )

    def test_run_dispatches_on_kind(self, tile_pair):
        set_a, set_b = tile_pair
        with Session() as session:
            by_run = session.run(CompareRequest.from_sets(set_a, set_b))
            direct = session.compare_sets(set_a, set_b)
        assert by_run.jaccard_mean == direct.jaccard_mean
        assert by_run.intersecting_pairs == direct.intersecting_pairs

    def test_per_call_options_override_session(self):
        with Session(backend="batch") as session:
            a = session.compare(PAIRS, CompareOptions(backend="multiprocess"))
            b = session.compare(PAIRS)
        np.testing.assert_array_equal(a.intersection, b.intersection)
        np.testing.assert_array_equal(a.union, b.union)


class TestCompareFiles:
    def test_session_files_reports_performance_accounting(self, small_dataset):
        dir_a, dir_b = small_dataset
        with Session() as session:
            result = session.compare_files(dir_a, dir_b)
        assert 0.3 < result.jaccard_mean < 1.0
        assert result.tiles == 4
        assert result.wall_seconds > 0
        assert result.input_bytes > 0
        assert result.throughput > 0

    def test_files_result_is_the_exact_sum_of_its_tiles(self, small_dataset):
        """Tiles are summed in tile order, so repeated calls agree to the
        last bit (the threaded pipeline summed in arrival order and did
        not), and the sum is of the very partials ``compare_sets`` makes."""
        from repro.io import pair_result_sets, parse_vectorized
        from repro.metrics.jaccard import PairwiseJaccard

        def similarity(result):  # every field but the measured ones
            return dataclasses.replace(
                result, wall_seconds=0.0, input_bytes=0
            )

        dir_a, dir_b = small_dataset
        total = PairwiseJaccard()
        with Session() as session:
            first, second = (
                session.compare_files(dir_a, dir_b) for _ in range(2)
            )
            for tile in pair_result_sets(dir_a, dir_b):
                sets = [
                    parse_vectorized(path.read_bytes())
                    for path in (tile.file_a, tile.file_b)
                ]
                partial = jaccard_pairwise(*sets)
                assert similarity(session.compare_sets(*sets)) == (
                    CompareResult.from_pairwise(partial)
                )
                total += partial
        assert similarity(first) == similarity(second)
        assert similarity(first) == CompareResult.from_pairwise(total, tiles=4)

    def test_files_path_runs_no_pipeline_and_no_threads(self, small_dataset):
        """No simulated hardware on the production path: neither the
        library call nor the CLI imports the §4 model or the Fig. 9 cycle
        simulator, or leaves a thread behind."""
        dir_a, dir_b = (str(d) for d in small_dataset)
        check = (
            "import sys, threading\n"
            "from repro import Session\n"
            "from repro.cli import main\n"
            "for run in (lambda: Session().compare_files(*sys.argv[1:]),\n"
            "            lambda: main(['compare', *sys.argv[1:]])):\n"
            "    run()\n"
            "    assert 'repro.pipeline' not in sys.modules\n"
            "    assert 'repro.gpu' not in sys.modules\n"
            "    assert threading.active_count() == 1\n"
        )
        subprocess.run(
            [sys.executable, "-c", check, dir_a, dir_b],
            check=True, timeout=120,
        )


class TestTopLevelExports:
    def test_lazy_top_level_exports(self):
        import repro

        assert repro.Session is Session
        assert not hasattr(repro, "cross_compare")
        assert repro.CompareOptions is CompareOptions
        with pytest.raises(AttributeError):
            _ = repro.not_a_symbol


class TestExplain:
    def test_explain_does_not_execute(self):
        request = CompareRequest.from_pairs(
            PAIRS,
            CompareOptions(
                backend="multiprocess", backend_options={"min_pairs": 1}
            ),
        )
        session = Session()
        plan = session.explain(request)
        # Planning must not spawn workers or resolve the session backend.
        assert session._backend is None
        assert not multiprocessing.active_children()
        session.close()
        assert plan.kind == "pairs"
        assert plan.backend == "multiprocess"
        assert plan.n_pairs == len(PAIRS)
        assert plan.shard_pairs is not None
        assert plan.capabilities["configurable_workers"] is True
        assert plan.launch["tight_mbr"] is True
        # The plan's shard size is the one compare_pairs would cut: the
        # sizing policy keeps 600 tiny pairs in one shard (a dispatch
        # would cost more than their compute), and the cluster's
        # configured 50.
        for backend, backend_options, shard_pairs in (
            ("multiprocess", {"workers": 2}, 600),
            ("cluster", {"shard_pairs": 50}, 50),
        ):
            options = CompareOptions(
                backend=backend, backend_options=backend_options
            )
            plan = explain(CompareRequest.from_pairs(PAIRS * 150, options))
            assert (plan.n_pairs, plan.shard_pairs) == (600, shard_pairs)
        assert not multiprocessing.active_children()

    def test_explain_cluster_reports_hosts(self):
        plan = explain(
            CompareRequest.from_pairs(
                PAIRS,
                CompareOptions(backend="cluster", hosts="h1:9001,h2:9002"),
            )
        )
        assert plan.hosts == ("h1:9001", "h2:9002")
        assert not multiprocessing.active_children()

    def test_explain_cluster_loopback_note(self, monkeypatch):
        monkeypatch.delenv("REPRO_CLUSTER_HOSTS", raising=False)
        plan = explain(
            CompareRequest.from_pairs(PAIRS, CompareOptions(backend="cluster"))
        )
        assert plan.hosts == ("loopback",)
        assert any("loopback" in note for note in plan.notes)

    def test_explain_files_counts_tiles(self, small_dataset):
        dir_a, dir_b = small_dataset
        plan = explain(CompareRequest.from_files(dir_a, dir_b))
        assert plan.kind == "files"
        assert plan.tiles == 4
        assert plan.n_pairs is None

    def test_explain_sets_profiles_workload(self, tile_pair):
        set_a, set_b = tile_pair
        plan = explain(CompareRequest.from_sets(set_a, set_b))
        assert plan.kind == "sets"
        assert plan.n_pairs > 0
        assert plan.mean_edges > 0

    def test_explain_rejects_bad_spec(self):
        from repro.errors import KernelError

        with pytest.raises(KernelError):
            explain(
                CompareRequest.from_pairs(
                    PAIRS, CompareOptions(backend="no-such-backend")
                )
            )
        with pytest.raises(KernelError):
            # batch takes no worker option; explain surfaces the named
            # registry error instead of executing and failing later.
            explain(
                CompareRequest.from_pairs(
                    PAIRS,
                    CompareOptions(
                        backend="batch", backend_options={"workers": 4}
                    ),
                )
            )
