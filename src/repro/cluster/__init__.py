"""Distributed shard cluster: ``ChunkKernel.run_shard`` across hosts.

The multiprocess backend proved the workload shards cleanly on one
machine; this package lifts the same scatter-gather onto sockets so the
comparison service can scale past a single host without new kernel
code.  Layering, beneath :mod:`repro.service`:

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
* :mod:`repro.cluster.coordinator` — :class:`ClusterBackend`, one more
  entry in the backend registry (bit-for-bit parity enforced by the
  same harness as every local executor);
* :mod:`repro.cluster.loopback` — N workers behind real 127.0.0.1
  sockets for CI and the parity suite.
"""

from __future__ import annotations

from repro.cluster.coordinator import ClusterBackend, WorkerClient, parse_hosts
from repro.cluster.loopback import LoopbackCluster
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
    "LoopbackCluster",
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
