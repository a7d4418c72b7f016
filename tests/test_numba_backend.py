"""The compiled (numba) substrate: availability gating and parity.

Two test families:

* **Absence path** — in a container without the ``repro[numba]`` extra
  (or with availability monkeypatched away), the registry must stay
  honest: ``get_backend("numba")`` raises a :class:`BackendError` naming
  the missing extra, and ``repro backends`` reports it unavailable
  instead of crashing.

* **Algorithm parity** — the compiled kernel degrades to a pure-Python
  stub when numba is absent (``allow_fallback=True``), so the *algorithm*
  is testable everywhere: the per-pair depth-first walk must reproduce
  the level-synchronous NumPy substrate bit-for-bit — areas *and* every
  work counter — across policies and launch configs.  Where numba is
  installed (the CI leg), the same comparisons run through the real
  backend end-to-end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import backend_availability, get_backend
from repro.backends.kernel import numba_unavailable_reason
from repro.backends.sizing import recommend_shard_pairs
from repro.errors import BackendError, KernelError, ReproError
from repro.pixelbox.common import KernelStats, LaunchConfig, Method
from repro.pixelbox.kernel import (
    DEFAULT_SKIP_SUBDIVISION_DIM,
    ChunkKernel,
    ExecutionPolicy,
    ShardInput,
)
from repro.pixelbox.numba_kernel import NUMBA_AVAILABLE, run_chunk_compiled
from repro.pixelbox.vectorized import EdgeTable

from conftest import random_pair, vectorized_areas

HEAVY = dict(
    n_pairs=2_000_000, mean_edges=40.0, mean_mbr_pixels=900.0,
    pixel_threshold=2048,
)


@pytest.fixture
def numba_absent(monkeypatch):
    """Force the availability probe to report numba as missing."""
    from repro.backends import kernel

    monkeypatch.setattr(
        kernel,
        "numba_unavailable_reason",
        lambda: "numba is not installed (forced by test)",
    )


# ----------------------------------------------------------------------
# Absence path: the registry stays loud and honest without the extra
# ----------------------------------------------------------------------
class TestAbsencePath:
    def test_get_backend_raises_named_error(self, numba_absent):
        with pytest.raises(BackendError, match="numba"):
            get_backend("numba")

    def test_availability_reports_the_reason(self, numba_absent):
        reason = backend_availability("numba")
        assert reason is not None and "numba" in reason

    def test_cli_backends_reports_unavailable_without_crashing(
        self, numba_absent, capsys
    ):
        import json

        from repro.cli import main

        assert main(["backends", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in listing}
        assert "numba" in by_name
        entry = by_name["numba"]
        assert entry["available"] is False
        assert "numba" in entry["reason"]
        for name in ("batch", "multiprocess"):
            assert by_name[name]["available"] is True

    def test_cli_backends_text_marks_unavailable(self, numba_absent, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if ln.startswith("numba"))
        assert "unavailable" in line

    def test_require_numba_names_the_extra(self, monkeypatch):
        from repro.pixelbox import numba_kernel

        monkeypatch.setattr(numba_kernel, "NUMBA_AVAILABLE", False)
        with pytest.raises(BackendError, match=r"repro\[numba\]"):
            numba_kernel.require_numba()

    def test_multiprocess_substrate_requires_the_extra(self, monkeypatch):
        from repro.pixelbox import numba_kernel

        monkeypatch.setattr(numba_kernel, "NUMBA_AVAILABLE", False)
        with pytest.raises(BackendError, match="numba"):
            get_backend("multiprocess", substrate="numba")

    def test_shard_worker_auto_resolves_to_numpy(self, numba_absent):
        from repro.cluster import ShardWorker

        worker = ShardWorker(substrate="auto")
        assert worker.substrate == (
            "numpy" if numba_unavailable_reason() is not None else "numba"
        )

    def test_shard_worker_rejects_numba_without_the_extra(self, monkeypatch):
        from repro.cluster import ShardWorker
        from repro.pixelbox import numba_kernel

        monkeypatch.setattr(numba_kernel, "NUMBA_AVAILABLE", False)
        with pytest.raises(BackendError, match="numba"):
            ShardWorker(substrate="numba")


# ----------------------------------------------------------------------
# Validation: substrates are named, not guessed
# ----------------------------------------------------------------------
class TestSubstrateValidation:
    def test_policy_rejects_unknown_substrate(self):
        with pytest.raises(KernelError, match="substrate"):
            ExecutionPolicy(substrate="fortran")

    def test_compiled_substrate_is_pixelbox_only(self):
        with pytest.raises(KernelError, match="PIXELBOX"):
            ExecutionPolicy(method=Method.NOSEP, substrate="numba")

    def test_multiprocess_rejects_unknown_substrate(self):
        with pytest.raises(KernelError, match="substrate"):
            get_backend("multiprocess", substrate="fortran")

    def test_shard_worker_rejects_unknown_substrate(self):
        from repro.cluster import ShardWorker

        with pytest.raises(ReproError, match="substrate"):
            ShardWorker(substrate="fortran")


# ----------------------------------------------------------------------
# Cost model: shard sizing prices the compiled substrate
# ----------------------------------------------------------------------
class TestCostModel:
    def test_shard_sizing_scales_with_the_compiled_speedup(self):
        # Small enough that the dispatch-amortization floor binds: the
        # compiled substrate retires each pair faster, so shards must
        # grow to keep the per-shard round trip a rounding error.
        workload = dict(HEAVY, n_pairs=100_000)
        base = recommend_shard_pairs(**workload, workers=4)
        compiled = recommend_shard_pairs(
            **workload, workers=4, substrate="numba"
        )
        assert compiled > base


# ----------------------------------------------------------------------
# Algorithm parity: the DFS walk is bit-for-bit the BFS array program
# ----------------------------------------------------------------------
BATCH_POLICY = ExecutionPolicy(
    skip_subdivision_max_dim=DEFAULT_SKIP_SUBDIVISION_DIM
)


def _chunk_inputs(pairs, policy, cfg):
    shard = ShardInput.build(pairs, policy, cfg)
    return (
        ChunkKernel(policy, cfg), shard.table_p, shard.table_q,
        shard.boxes, shard.has_box,
    )


def _parity_pairs(seed=20260807, n=40, h=90, w=110):
    rng = np.random.default_rng(seed)
    return [random_pair(rng, h=h, w=w) for _ in range(n)]


@pytest.mark.parametrize(
    "policy",
    [
        ExecutionPolicy(),
        BATCH_POLICY,
        ExecutionPolicy(skip_subdivision_max_dim=8),
        ExecutionPolicy(skip_subdivision_max_dim=4096),
    ],
    ids=["subdivide-all", "batch-64", "batch-8", "skip-all"],
)
@pytest.mark.parametrize(
    "cfg",
    [LaunchConfig(), LaunchConfig(block_size=16, pixel_threshold=64)],
    ids=["default", "fine-grid"],
)
def test_compiled_chunk_matches_numpy_bit_for_bit(policy, cfg):
    """Areas AND every work counter agree across the two substrates."""
    pairs = _parity_pairs()
    kernel, table_p, table_q, boxes, has_box = _chunk_inputs(
        pairs, policy, cfg
    )
    ref_stats = KernelStats()
    ref_inter, _ = kernel.run_chunk(
        table_p, table_q, boxes, has_box, 0, ref_stats
    )
    got_stats = KernelStats()
    got_inter, got_uni = run_chunk_compiled(
        table_p, table_q, boxes, has_box, 0, got_stats, policy, cfg,
        allow_fallback=True,
    )
    assert np.array_equal(got_inter, ref_inter)
    assert not got_uni.any()  # indirect union: nothing measured directly
    assert got_stats.as_dict() == ref_stats.as_dict()


def test_compiled_chunk_matches_on_degenerate_pairs():
    """Disjoint, identical, touching, sliver pairs — including no-box rows."""
    from repro.geometry.box import Box
    from repro.geometry.polygon import RectilinearPolygon

    unit = RectilinearPolygon.from_box(Box(0, 0, 1, 1))
    square = RectilinearPolygon.from_box(Box(0, 0, 8, 8))
    far = RectilinearPolygon.from_box(Box(100, 100, 108, 108))
    tall = RectilinearPolygon.from_box(Box(0, 0, 1, 200))
    wide = RectilinearPolygon.from_box(Box(0, 0, 200, 1))
    pairs = [
        (unit, unit), (square, square), (square, far), (tall, wide),
        (unit, square),
    ]
    cfg = LaunchConfig(tight_mbr=True)  # routes disjoint MBRs to no box
    policy = BATCH_POLICY
    kernel, table_p, table_q, boxes, has_box = _chunk_inputs(
        pairs, policy, cfg
    )
    assert not has_box.all()  # the no-start-box branch is exercised
    ref_stats = KernelStats()
    ref_inter, _ = kernel.run_chunk(
        table_p, table_q, boxes, has_box, 0, ref_stats
    )
    got_stats = KernelStats()
    got_inter, _ = run_chunk_compiled(
        table_p, table_q, boxes, has_box, 0, got_stats, policy, cfg,
        allow_fallback=True,
    )
    assert np.array_equal(got_inter, ref_inter)
    assert got_stats.as_dict() == ref_stats.as_dict()


def test_compiled_chunk_respects_row_base():
    """A shard walking global tables addresses edge rows by row_base."""
    pairs = _parity_pairs(seed=99, n=12, h=40, w=40)
    policy = ExecutionPolicy()
    cfg = LaunchConfig()
    kernel, table_p, table_q, boxes, has_box = _chunk_inputs(
        pairs, policy, cfg
    )
    lo, hi = 5, 11
    ref_stats = KernelStats()
    ref_inter, _ = kernel.run_chunk(
        table_p, table_q, boxes[lo:hi], has_box[lo:hi], lo, ref_stats
    )
    got_stats = KernelStats()
    got_inter, _ = run_chunk_compiled(
        table_p, table_q, boxes[lo:hi], has_box[lo:hi], lo, got_stats,
        policy, cfg, allow_fallback=True,
    )
    assert np.array_equal(got_inter, ref_inter)
    assert got_stats.as_dict() == ref_stats.as_dict()


def test_compiled_chunk_handles_empty_chunk():
    policy = ExecutionPolicy(
        skip_subdivision_max_dim=DEFAULT_SKIP_SUBDIVISION_DIM, substrate="numba"
    )
    cfg = LaunchConfig()
    stats = KernelStats()
    inter, uni = run_chunk_compiled(
        EdgeTable.build([]), EdgeTable.build([]),
        np.zeros((0, 4), dtype=np.int64), np.zeros(0, dtype=bool),
        0, stats, policy, cfg, allow_fallback=True,
    )
    assert len(inter) == 0 and len(uni) == 0
    assert stats.pairs == 0


# ----------------------------------------------------------------------
# End-to-end (runs only where the extra is installed: the CI numba leg)
# ----------------------------------------------------------------------
needs_numba = pytest.mark.skipif(
    not NUMBA_AVAILABLE, reason="requires the repro[numba] extra"
)


@needs_numba
class TestCompiledBackendEndToEnd:
    def test_backend_matches_vectorized(self):
        pairs = _parity_pairs(seed=7, n=60, h=60, w=70)
        with get_backend("numba") as compiled:
            got = compiled.compare_pairs(pairs)
        ref = vectorized_areas(pairs)
        assert np.array_equal(got.intersection, ref.intersection)
        assert np.array_equal(got.union, ref.union)

    def test_capabilities_report_compiled(self):
        with get_backend("numba") as backend:
            caps = backend.capabilities()
        assert caps.compiled
        assert "compiled" in caps.summary()

    def test_warm_compiles_before_the_first_batch(self):
        with get_backend("numba") as backend:
            assert backend.warm() == []
            result = backend.compare_pairs(_parity_pairs(seed=3, n=4))
        assert result.stats.pairs == 4

    def test_multiprocess_numba_substrate_matches_numpy(self):
        pairs = _parity_pairs(seed=11, n=30, h=50, w=50)
        with get_backend(
            "multiprocess", workers=2, min_pairs=1, substrate="numba"
        ) as compiled, get_backend("batch") as reference:
            got = compiled.compare_pairs(pairs)
            ref = reference.compare_pairs(pairs)
        assert np.array_equal(got.intersection, ref.intersection)
        assert np.array_equal(got.union, ref.union)
