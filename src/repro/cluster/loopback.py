"""Loopback transport: a real TCP cluster inside one process.

CI (and the parity harness) cannot assume multi-host infrastructure, but
the cluster subsystem must still be exercised end to end — framing,
content-addressed caching, scheduling, failure paths.  A
:class:`LoopbackCluster` starts N :class:`~repro.cluster.worker.ShardWorker`
instances on ephemeral 127.0.0.1 ports, each serving in a daemon thread
behind a *real* socket, so every byte crosses the same code path a
multi-host deployment uses; only the network distance is fake.

Worker threads share the GIL, so loopback is a correctness transport,
not a performance one: ``examples/cluster_smoke.py`` drives real
``repro worker`` processes.
"""

from __future__ import annotations

from repro.cluster.worker import ShardWorker

__all__ = ["LoopbackCluster"]


class LoopbackCluster:
    """N in-process shard workers behind real loopback sockets."""

    def __init__(self, workers: int = 2, max_tables: int = 8):
        self.workers: list[ShardWorker] = []
        try:
            for _ in range(workers):
                self.workers.append(
                    ShardWorker(max_tables=max_tables).start()
                )
        except Exception:
            self.close()
            raise

    @property
    def hosts(self) -> list[str]:
        """``host:port`` strings for :class:`ClusterBackend`'s ``hosts``."""
        return [f"{h}:{p}" for h, p in (w.address for w in self.workers)]

    def close(self) -> None:
        for worker in self.workers:
            worker.stop()
        self.workers = []

    def __enter__(self) -> "LoopbackCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
