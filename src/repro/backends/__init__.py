"""Execution backends: one algorithm, many executors.

Architecture note
-----------------
The paper's core claim is that the exact same PixelBox algorithm runs on
heterogeneous executors with identical results.  This package is the
seam that makes the claim structural instead of incidental:

* :mod:`repro.backends.base` defines the :class:`Backend` protocol
  (``compare_pairs(pairs, config) -> BatchAreas``) and a name-keyed
  registry of backend factories;
* executors self-register on import — :mod:`repro.backends.kernel`
  registers the three in-process kernel backends (``vectorized``,
  ``batch``, ``numba``: one :class:`KernelBackend`, three
  ``ExecutionPolicy`` rows), every other executor has its own module:

  ===============  ====================================================
  ``scalar``       single-core plain-Python engine (PixelBox-CPU-S)
  ``vectorized``   level-synchronous NumPy engine, one process
  ``batch``        production batched kernel (the aggregator's path)
  ``simt``         simulated-GPU replay of Algorithm 1 (cycle-metered)
  ``multiprocess`` pair shards across worker processes over
                   shared-memory CSR edge tables
  ``auto``         sizing-policy dispatch
                   (:func:`repro.backends.sizing.recommend_backend`)
  ``cluster``      shards on remote ``repro worker`` processes over the
                   binary wire protocol (loopback workers when no hosts
                   are configured)
  ``numba``        compiled chunk kernel (``@njit(parallel=True)``),
                   available when the ``repro[numba]`` extra is
                   installed
  ===============  ====================================================

* consumers — the session (:class:`repro.Session`), the §4 experiment's
  stage-cost measurement (:func:`repro.pipeline.measure.measure_tiles`),
  the SDBMS batch operator (:class:`repro.sdbms.plan.BackendAreaProject`),
  the metrics layer, and the CLI — resolve executors by name through
  :func:`get_backend` and never import an engine directly.

Every registered backend is covered by the cross-backend parity harness
(``tests/test_backend_parity.py``), which introspects the registry and
asserts bit-for-bit equality against the exact overlay reference; a new
backend gets that coverage by the act of registering.  Future executors
(a real CUDA kernel, a distributed sharding tier, an async service
worker) plug in the same way.
"""

from __future__ import annotations

from repro.backends.base import (
    Backend,
    BackendCapabilities,
    BackendLifecycle,
    available_backends,
    backend_availability,
    backend_registry,
    get_backend,
    register,
)

# Import for registration side effects (each module self-registers; the
# cluster coordinator registers through a lazy shim and ``numba`` behind
# an availability probe, so the registry lists both even when their
# dependency is absent).
from repro.backends import auto as _auto  # noqa: E402,F401
from repro.backends import cluster as _cluster  # noqa: E402,F401
from repro.backends import kernel as _kernel  # noqa: E402,F401
from repro.backends import multiprocess as _multiprocess  # noqa: E402,F401
from repro.backends import scalar as _scalar  # noqa: E402,F401
from repro.backends import simt as _simt  # noqa: E402,F401
from repro.backends.auto import AutoBackend
from repro.backends.multiprocess import MultiprocessBackend, default_workers
from repro.backends.sizing import profile_pairs

__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendLifecycle",
    "register",
    "get_backend",
    "available_backends",
    "backend_availability",
    "backend_registry",
    "AutoBackend",
    "MultiprocessBackend",
    "default_workers",
    "profile_pairs",
]
