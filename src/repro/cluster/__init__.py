"""Shard cluster: ``ChunkKernel.run_shard`` on worker processes.

The one multi-process executor.  Pair shards run on shard workers
behind sockets — remote ``repro worker`` hosts, or local worker
processes on 127.0.0.1 that the backend owns — so the ``cluster`` and
``multiprocess`` backends share one scheduler, one wire and one worker
loop, and the comparison service scales past a single host without new
kernel code.  Layering, beneath :mod:`repro.service`:

    service (queue + coalescer)  ->  ClusterBackend (coordinator)
        ->  wire protocol (binary frames, content-addressed tables)
            ->  repro worker (TCP)  ->  ChunkKernel.run_shard

* :mod:`repro.cluster.wire` — length-prefixed binary frames; CSR edge
  tables travel once per worker per table version;
* :mod:`repro.cluster.worker` — the ``repro worker`` server: table
  cache + the one shared kernel entry point;
* :mod:`repro.cluster.scheduler` — scatter/gather as a pure ``step``
  over an explicit ``State`` (model-checked over every interleaving of
  small configurations), driven on the caller's thread: straggler
  speculation, failure re-dispatch, first-result-wins merge, and the
  losing copy cancelled rather than failed;
* :mod:`repro.cluster.coordinator` — :class:`ClusterBackend`, the
  ``cluster`` and ``multiprocess`` registry entries (bit-for-bit parity
  enforced by the same harness as every executor);
* :mod:`repro.cluster.local` — the local worker processes a backend
  without hosts starts, owns and stops.
"""

from __future__ import annotations

from repro.cluster.coordinator import ClusterBackend, WorkerClient, parse_hosts
from repro.cluster.scheduler import (
    Action,
    Event,
    ScheduleReport,
    Shard,
    ShardScheduler,
    State,
    finished,
    initial_state,
    step,
)
from repro.cluster.worker import ShardWorker

__all__ = [
    "Action",
    "ClusterBackend",
    "Event",
    "ScheduleReport",
    "Shard",
    "ShardScheduler",
    "ShardWorker",
    "State",
    "WorkerClient",
    "finished",
    "initial_state",
    "parse_hosts",
    "step",
]
