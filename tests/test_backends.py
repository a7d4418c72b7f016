"""Unit tests for the execution-backend layer: registry, selection, wiring."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.api.plan import _profile_pairs
from repro.backends import (
    Backend,
    available_backends,
    get_backend,
    register,
)
from repro.backends.base import backend_registry
from repro.cluster.coordinator import default_workers
from repro.errors import ClusterConfigError, KernelError
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.pixelbox.kernel import PairBatch


def _pairs(n: int = 8):
    out = []
    for i in range(n):
        p = RectilinearPolygon.from_box(Box(i, 0, i + 6, 6))
        q = RectilinearPolygon.from_box(Box(i + 2, 2, i + 8, 8))
        out.append((p, q))
    return out


class TestRegistry:
    def test_known_backends_registered(self):
        assert {"batch", "multiprocess", "cluster"} <= set(
            available_backends()
        )

    def test_unknown_backend_raises(self):
        for name in ("cuda", "numba"):
            with pytest.raises(
                KernelError,
                match=rf"unknown backend '{name}' \(registered: "
                r"batch, cluster, multiprocess\)",
            ):
                get_backend(name)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(KernelError, match="twice"):
            register("batch")(lambda: None)

    def test_instances_satisfy_protocol(self):
        for name in available_backends():
            instance = get_backend(name)
            assert isinstance(instance, Backend)
            assert instance.name == name
            assert instance.description

    def test_registry_copy_is_isolated(self):
        snapshot = backend_registry()
        snapshot["bogus"] = lambda: None
        assert "bogus" not in available_backends()

    def test_factory_kwargs_forwarded(self):
        backend = get_backend("multiprocess", workers=2, min_pairs=5)
        assert backend.workers == 2 and backend.min_pairs == 5


class TestMultiprocessBackend:
    def test_invalid_workers(self):
        # A float, a bool or a string count fails at construction, not
        # later inside worker start-up or a shard cut.
        for option in ("workers", "min_pairs"):
            for bad in (0, 1.5, True, "2"):
                with pytest.raises(ClusterConfigError, match=option):
                    get_backend("multiprocess", **{option: bad})

    def test_never_reads_hosts(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTER_HOSTS", "127.0.0.1:9")
        backend = get_backend("multiprocess", workers=2)
        assert not backend.capabilities().remote
        with pytest.raises(KernelError, match="rejected options"):
            get_backend("multiprocess", hosts="127.0.0.1:9")

    def test_warm_starts_workers_that_answer_like_batch(self):
        pairs = _pairs(40)
        want = get_backend("batch").compare_pairs(pairs)
        with get_backend("multiprocess", workers=2, min_pairs=1) as backend:
            pids = backend.warm()
            assert len(pids) == 2
            assert set(pids) <= {p.pid for p in multiprocessing.active_children()}
            got = backend.compare_pairs(pairs)
        for field in ("intersection", "union", "area_p", "area_q"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert got.stats.as_dict() == want.stats.as_dict()

    def test_a_killed_worker_process_is_redispatched_around(self):
        pairs = _pairs(40)
        want = get_backend("batch").compare_pairs(pairs)
        with get_backend("multiprocess", workers=2, min_pairs=1) as backend:
            pids = backend.warm()
            backend.compare_pairs(pairs)  # tables resident on both
            os.kill(pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 10
            while pids[0] in [p.pid for p in multiprocessing.active_children()]:
                assert time.monotonic() < deadline, "killed worker still running"
                time.sleep(0.01)
            got = backend.compare_pairs(pairs)
            report = backend.last_report
        assert np.array_equal(got.intersection, want.intersection)
        assert np.array_equal(got.union, want.union)
        assert got.stats.as_dict() == want.stats.as_dict()
        # The dead worker's open socket reads EOF before dispatch: the
        # request is cut for the one live worker and sends nothing twice.
        assert len(report.workers_used) == 1
        assert report.worker_failures == 0
        assert report.dispatches == report.shards

    def test_close_leaves_no_worker_process(self):
        backend = get_backend("multiprocess", workers=2, min_pairs=1)
        backend.warm()
        backend.compare_pairs(_pairs(12))
        backend.close()
        assert not multiprocessing.active_children()

    def test_empty_pairs(self):
        result = get_backend("multiprocess").compare_pairs([])
        assert len(result) == 0

    def test_default_workers_bounds(self):
        assert 1 <= default_workers() <= 4

    def test_uneven_shards_match_in_process(self):
        pairs = _pairs(11)  # 11 pairs over 3 workers: shards of 4/4/3
        with get_backend("multiprocess", workers=3, min_pairs=1) as backend:
            pooled = backend.compare_pairs(pairs)
        serial = get_backend("batch").compare_pairs(pairs)
        assert np.array_equal(pooled.intersection, serial.intersection)
        assert np.array_equal(pooled.union, serial.union)
        assert pooled.stats.pairs == 11

    def test_small_input_skips_pool(self):
        backend = get_backend("multiprocess", workers=4, min_pairs=256)
        result = backend.compare_pairs(_pairs(4))
        assert result.stats.pairs == 4

    def test_pool_from_worker_thread(self):
        """Launching from a thread (the pipeline's shape) must not fork
        a multi-threaded process — the context falls back to spawn."""
        import threading

        pairs = _pairs(10)
        ref = get_backend("batch").compare_pairs(pairs)
        out: dict = {}

        def body():
            with get_backend(
                "multiprocess", workers=2, min_pairs=1
            ) as backend:
                out["result"] = backend.compare_pairs(pairs)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert np.array_equal(out["result"].intersection, ref.intersection)


class TestWorkloadProfile:
    def test_profile_pairs(self):
        mean_edges, mean_pixels = _profile_pairs(PairBatch.from_pairs(_pairs(3)))
        assert mean_edges == 4.0  # two boxes, two vertical edges each
        assert mean_pixels == 64.0  # 8x8 cover MBR
        assert _profile_pairs(PairBatch.from_pairs([])) == (0.0, 0.0)


class TestWiring:
    def test_backend_options_reach_the_factory(self):
        with get_backend("multiprocess", workers=2) as sharded:
            assert sharded.workers == 2
            via_options = sharded.compare_pairs(_pairs(5))
        ref = get_backend("batch").compare_pairs(_pairs(5))
        assert np.array_equal(via_options.intersection, ref.intersection)

    def test_sdbms_backend_plan_matches_row_plans(self, tile_pair):
        from repro.sdbms.queries import run_cross_compare

        set_a, set_b = tile_pair
        row_at_a_time = run_cross_compare(set_a, set_b, optimized=True)
        batched = run_cross_compare(set_a, set_b, backend="batch")
        assert batched.jaccard_mean == pytest.approx(
            row_at_a_time.jaccard_mean
        )
        assert batched.pair_count == row_at_a_time.pair_count

    @pytest.mark.parametrize("site", ["jaccard_pairwise", "sdbms-plan"])
    def test_by_name_call_sites_close_their_backend(self, site):
        """Regression: both sites resolved a backend by name and never
        closed it, so every call on ``cluster`` left its local workers
        running."""
        import threading
        import time

        from repro.metrics.jaccard import jaccard_pairwise
        from repro.sdbms.queries import run_cross_compare

        # 400 one-to-one overlapping squares: above the cluster's
        # min_pairs, so the local worker processes really start.
        grid = [(10 * i, 10 * j) for i in range(20) for j in range(20)]
        set_a = [RectilinearPolygon.from_box(Box(x, y, x + 6, y + 6))
                 for x, y in grid]
        set_b = [RectilinearPolygon.from_box(Box(x + 2, y + 2, x + 8, y + 8))
                 for x, y in grid]
        before = threading.active_count()
        for _ in range(3):
            if site == "jaccard_pairwise":
                res = jaccard_pairwise(set_a, set_b, backend="cluster")
                assert res.candidate_pairs == 400
            else:
                res = run_cross_compare(set_a, set_b, backend="cluster")
                assert res.pair_count == 400
        deadline = time.monotonic() + 5
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.05)  # connection threads notice the close
        assert threading.active_count() == before
        assert not multiprocessing.active_children()

    def test_sdbms_backend_plan_explain(self):
        from repro.sdbms.queries import build_backend_plan
        from repro.sdbms.table import PolygonTable

        plan = build_backend_plan(
            PolygonTable("a", []), PolygonTable("b", []), backend="batch"
        )
        assert "BackendAreaProject" in plan.explain()

    def test_cli_backends_command(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("batch", "multiprocess", "cluster"):
            assert name in out
        assert "native library: " in out and "pixelbox_chunk, polyscan" in out

    def test_cli_compare_with_backend(self, small_dataset, capsys):
        from repro.cli import main

        dir_a, dir_b = small_dataset
        code = main([
            "compare", str(dir_a), str(dir_b),
            "--backend", "batch",
        ])
        assert code == 0
        assert "J' =" in capsys.readouterr().out
