"""Execution backends: one algorithm, many executors.

Architecture note
-----------------
The paper's core claim is that the exact same PixelBox algorithm runs on
heterogeneous executors with identical results.  This package is the
seam that makes the claim structural instead of incidental:

* :mod:`repro.backends.base` defines the :class:`Backend` protocol
  (``compare_pairs(pairs, config) -> BatchAreas``) and a name-keyed
  registry of backend factories;
* executors self-register on import, one module each
  (:mod:`repro.backends.kernel` holds the in-process ``batch``):

  ===============  ====================================================
  ``batch``        production batched kernel (the aggregator's path)
  ``multiprocess`` pair shards on local worker processes the backend
                   owns, through the cluster coordinator
  ``cluster``      shards on remote ``repro worker`` processes over the
                   binary wire protocol (local worker processes when no
                   hosts are configured)
  ===============  ====================================================

  ``multiprocess`` and ``cluster`` are one executor,
  :class:`repro.cluster.coordinator.ClusterBackend`: one scheduler, one
  wire and one worker loop serve every multi-process request, cut by
  pair count into about four shards per worker, none smaller than
  ``min_pairs``.

* consumers — the session (:class:`repro.Session`), the §4 experiment's
  stage-cost measurement (:func:`repro.pipeline.measure.measure_tiles`),
  the SDBMS batch operator (:class:`repro.sdbms.plan.BackendAreaProject`),
  the metrics layer, and the CLI — resolve executors by name through
  :func:`get_backend` and never import an engine directly.

Every registered executor runs the one production policy,
:data:`repro.pixelbox.kernel.BATCH_POLICY`: a backend decides only
*where* the chunk loop runs, so its results — areas and work counters —
depend on the pairs and the launch config alone, and a cached result
answers the same pairs on any backend.

The registry lists what a request may run on.  The implementations the
paper's §5 *measures* — PixelBox-CPU-S
(:func:`repro.pixelbox.cpu.pair_areas_scalar`), the SIMT replay
(:func:`repro.gpu.simt_kernel.collect_block_counts`) and the
always-subdivide chunk kernel (``ChunkKernel(ExecutionPolicy())``, the
``vectorized`` reference of Figs. 8 and 10) — are plain callables the
experiments reach directly.

Every registered backend, and each of those measured implementations, is
covered by the cross-backend parity harness
(``tests/test_backend_parity.py``), which asserts bit-for-bit equality
against the exact overlay reference; a new backend gets that coverage
by the act of registering.
"""

from __future__ import annotations

from repro.backends.base import (
    Backend,
    BackendCapabilities,
    BackendLifecycle,
    available_backends,
    backend_registry,
    get_backend,
    register,
)

# Import for registration side effects (each module self-registers; the
# cluster coordinator registers through lazy shims).
from repro.backends import cluster as _cluster  # noqa: E402,F401
from repro.backends import kernel as _kernel  # noqa: E402,F401

__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendLifecycle",
    "register",
    "get_backend",
    "available_backends",
    "backend_registry",
]
