"""Shared-memory multiprocess backend: pair shards across worker processes.

The NumPy engines are single-process; on a multi-core host the GIL-free
way to scale them is process sharding.  The expensive state — the CSR
edge tables of both pair sides plus the per-pair start boxes — is
serialized **once** into a single :mod:`multiprocessing.shared_memory`
segment; each worker attaches zero-copy NumPy views over it, runs the
level-synchronous planner and the stacked leaf pixelization on its
contiguous shard of pair indices, and ships back only its slice of the
intersection-area vector.  The parent scatter-gathers the slices and
derives unions indirectly (``|p u q| = |p| + |q| - |p n q|``).

Each worker drives the shared chunk kernel
(:meth:`repro.pixelbox.kernel.ChunkKernel.run_shard` under
:data:`~repro.pixelbox.kernel.BATCH_POLICY`, the policy every executor
runs), so every pair's result is an exact integer computed independently
of its shard and the output is bit-for-bit what the ``batch`` backend
returns in one process, work counters included, for any worker count;
the parity harness checks this.

Small inputs (fewer than ``min_pairs`` candidates) skip the pool and run
in-process: forking workers for a handful of pairs would cost more than
the comparison itself.

The pool has one lifetime: it is created on the first pooled call (or
by :meth:`warm`), serves every later call — process forking happens once
per backend, and only the input-dependent shared-memory packing remains
per dispatch — and is shut down by ``close()``, which whoever resolved
the backend calls (directly or as a context manager via
:class:`repro.backends.base.BackendLifecycle`).  The backend stays
usable after ``close()`` and re-creates the pool on the next pooled
call.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory

import numpy as np

from repro.backends.base import (
    BackendCapabilities,
    BackendLifecycle,
    Pairs,
    register,
)
from repro.errors import KernelError
from repro.pixelbox.common import KernelStats, LaunchConfig
from repro.pixelbox.kernel import (
    BATCH_POLICY,
    BatchAreas,
    ChunkKernel,
    ShardInput,
)

__all__ = ["MultiprocessBackend", "default_workers"]


def default_workers() -> int:
    """Worker-count default: the host's cores, capped at 4.

    The ``REPRO_WORKERS`` environment variable overrides the default —
    CI uses it to run the parity suite at several pool widths.  A value
    that does not parse is an error, not a silent fallback: the parity
    matrix must never report green for a width it did not test.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise KernelError(
                f"REPRO_WORKERS must be a positive integer, got {env!r}"
            )
        return workers
    return max(1, min(4, os.cpu_count() or 1))


def _mp_context():
    """Fork when safe (fast, POSIX, single-threaded), spawn otherwise.

    Forking a multi-threaded process can deadlock the children on locks
    held by other threads at fork time — and the pipeline calls this
    backend from its aggregator *thread* — so fork is only used when no
    other threads are running.  macOS always spawns: system frameworks
    (Accelerate/objc) are fork-unsafe there even single-threaded, which
    is why CPython made spawn the macOS default.
    """
    if threading.active_count() == 1 and sys.platform != "darwin":
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            pass
    return multiprocessing.get_context("spawn")


# ----------------------------------------------------------------------
# Shared-memory packing
# ----------------------------------------------------------------------
def _pack_arrays(
    arrays: dict[str, np.ndarray],
) -> tuple[shared_memory.SharedMemory, dict[str, tuple[int, tuple, str]]]:
    """Copy ``arrays`` into one shared segment; return it + a manifest.

    The manifest maps array name to ``(byte offset, shape, dtype str)``
    and is small enough to pickle per task.
    """
    manifest: dict[str, tuple[int, tuple, str]] = {}
    offset = 0
    for name, arr in arrays.items():
        offset = -(-offset // arr.itemsize) * arr.itemsize  # align
        manifest[name] = (offset, arr.shape, arr.dtype.str)
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for name, arr in arrays.items():
        off, shape, dtype = manifest[name]
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
        view[...] = arr
    return shm, manifest


def _attach(name: str, unregister: bool) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker double-accounting.

    Python < 3.13 registers *attachments* with the resource tracker as if
    the attaching process owned the segment.  Under ``spawn`` each worker
    runs its own tracker, which would unlink the segment at worker exit
    while the parent still uses it — so spawn workers unregister their
    attachment.  Under ``fork`` the tracker is shared with the parent and
    its cache is a set, so a child-side unregister would instead erase
    the parent's own registration; fork workers leave it alone.
    """
    shm = shared_memory.SharedMemory(name=name)
    if unregister:
        try:  # pragma: no cover - depends on interpreter internals
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
        except Exception:
            pass
    return shm


def _views(
    buf, manifest: dict[str, tuple[int, tuple, str]]
) -> dict[str, np.ndarray]:
    """Zero-copy NumPy views over a packed segment."""
    return {
        name: np.ndarray(shape, dtype=dtype, buffer=buf, offset=off)
        for name, (off, shape, dtype) in manifest.items()
    }


# ----------------------------------------------------------------------
# Worker body
# ----------------------------------------------------------------------
def _worker(
    shm_name: str,
    manifest: dict[str, tuple[int, tuple, str]],
    lo: int,
    hi: int,
    kernel: ChunkKernel,
    unregister: bool,
) -> tuple[int, np.ndarray, dict[str, int]]:
    """Pool task: attach, compute one shard, detach."""
    shm = _attach(shm_name, unregister)
    try:
        shard = ShardInput.from_arrays(_views(shm.buf, manifest))
        stats = KernelStats()
        inter, _ = kernel.run_shard(shard, lo, hi, stats)
        # Copy out: the view's backing segment dies with this task.
        return lo, np.array(inter, copy=True), stats.as_dict()
    finally:
        shm.close()


# ----------------------------------------------------------------------
# Backend
# ----------------------------------------------------------------------
def _warm_probe(hold_seconds: float) -> int:
    """Pool task used to pre-spawn workers (returns the worker pid).

    Holding the worker briefly keeps an already-finished worker from
    stealing the next probe, so one probe lands on each worker and the
    whole pool is forced into existence.
    """
    import time

    time.sleep(hold_seconds)
    return os.getpid()


@register("multiprocess")
class MultiprocessBackend(BackendLifecycle):
    """Shared-memory pair sharding across worker processes.

    Parameters
    ----------
    workers:
        Process count; defaults to :func:`default_workers`.
    min_pairs:
        Below this many pairs the pool is skipped and the shard runs
        in-process (identical results, no fork overhead).
    """

    name = "multiprocess"
    description = "pair shards across processes over shared-memory CSR tables"

    def __init__(
        self,
        workers: int | None = None,
        min_pairs: int = 256,
    ):
        resolved = default_workers() if workers is None else workers
        if resolved < 1:
            raise KernelError(f"workers must be >= 1, got {resolved}")
        self.workers = resolved
        self.min_pairs = min_pairs
        self._pool: ProcessPoolExecutor | None = None
        self._pool_unregister = False
        self._pool_lock = threading.Lock()

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            persistent_pooling=True,
            stateful_lifecycle=True,
            configurable_workers=True,
            max_workers=self.workers,
            notes="shared-memory pair shards; REPRO_WORKERS sets the default",
        )

    # ------------------------------------------------------------------
    # Warm-pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> tuple[ProcessPoolExecutor, bool]:
        """The warm pool (created lazily) and its attach-unregister flag."""
        with self._pool_lock:
            if self._pool is None:
                ctx = _mp_context()
                self._pool_unregister = ctx.get_start_method() != "fork"
                if not self._pool_unregister:
                    # Fork workers must inherit a *running* resource
                    # tracker: a warm pool forks before any segment
                    # exists, and a worker that lazily starts its own
                    # tracker would double-account every attachment.
                    try:  # pragma: no cover - interpreter internals
                        from multiprocessing import resource_tracker

                        resource_tracker.ensure_running()
                    except Exception:
                        pass
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=ctx
                )
            return self._pool, self._pool_unregister

    def warm(self, hold_seconds: float = 0.05) -> list[int]:
        """Pre-spawn every worker in the pool; returns pids.

        The session and the service call this at startup so the first
        request does not pay the fork/spawn cost.
        """
        pool, _ = self._ensure_pool()
        # One probe per worker: the executor spawns a process per pending
        # submission until max_workers exist, so this forces a full pool.
        futures = [
            pool.submit(_warm_probe, hold_seconds)
            for _ in range(self.workers)
        ]
        return sorted({f.result() for f in futures})

    def close(self) -> None:
        """Shut the warm pool down and join its workers (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def compare_pairs(
        self, pairs: Pairs, config: LaunchConfig | None = None
    ) -> BatchAreas:
        kernel = ChunkKernel(BATCH_POLICY, config)
        shard = ShardInput.build(pairs, BATCH_POLICY, kernel.cfg)
        n = len(shard)
        stats = KernelStats()
        step = self._shard_size(pairs, kernel.cfg)
        if step < n:
            inter = self._run_pool(kernel, shard, step, stats)
        else:
            inter, _ = kernel.run_shard(shard, 0, n, stats)
        return shard.finalize(BATCH_POLICY, inter, None, stats)

    def _shard_size(self, pairs: Pairs, cfg: LaunchConfig) -> int:
        """Pairs per shard: all of them when the pool is skipped, else an
        even split over the workers (``explain`` reports this too)."""
        n = len(pairs)
        if self.workers == 1 or n < max(self.min_pairs, 2 * self.workers):
            return n
        return -(-n // self.workers)

    # ------------------------------------------------------------------
    def _run_pool(
        self,
        kernel: ChunkKernel,
        shard: ShardInput,
        step: int,
        stats: KernelStats,
    ) -> np.ndarray:
        n = len(shard)
        inter = np.zeros(n, dtype=np.int64)
        shards = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
        try:
            shm, manifest = _pack_arrays(shard.to_arrays())
        except OSError:  # pragma: no cover - hosts without shm support
            return kernel.run_shard(shard, 0, n, stats)[0]
        try:
            pool, unregister = self._ensure_pool()
            self._collect(
                pool, shm, manifest, shards, kernel, unregister, inter, stats
            )
        finally:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        return inter

    def _collect(
        self,
        pool: ProcessPoolExecutor,
        shm: shared_memory.SharedMemory,
        manifest: dict[str, tuple[int, tuple, str]],
        shards: list[tuple[int, int]],
        kernel: ChunkKernel,
        unregister: bool,
        inter: np.ndarray,
        stats: KernelStats,
    ) -> None:
        """Submit every shard to ``pool`` and gather slices into ``inter``."""
        futures = [
            pool.submit(_worker, shm.name, manifest, lo, hi, kernel, unregister)
            for lo, hi in shards
        ]
        for future in futures:
            lo, shard_inter, shard_stats = future.result()
            inter[lo : lo + len(shard_inter)] = shard_inter
            stats.merge(KernelStats(**shard_stats))
