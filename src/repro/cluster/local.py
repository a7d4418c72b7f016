"""Local worker processes: the shard workers a backend without hosts owns.

Each process serves one :class:`~repro.cluster.worker.ShardWorker` on
127.0.0.1, reports its address over a pipe once it listens, and serves
until its owner stops it (SIGTERM from :func:`stop`) or exits without
stopping it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time

from repro.cluster.worker import ShardWorker
from repro.errors import ClusterError

# How often a worker checks that the process that started it still runs.
_ORPHAN_POLL_S = 1.0


def mp_context():
    """Fork when safe (POSIX, single-threaded, not macOS), spawn otherwise.

    Forking a multi-threaded process can deadlock the children on locks
    other threads held at fork time (the pipeline calls its backend from
    a thread); macOS system frameworks are fork-unsafe even
    single-threaded, which is why CPython made spawn the default there.
    """
    fork = hasattr(os, "fork") and sys.platform != "darwin"
    fork = fork and threading.active_count() == 1
    return multiprocessing.get_context("fork" if fork else "spawn")


def _serve(conn) -> None:
    """Body of one worker process: report the address, then serve."""
    # The owner ends its workers: Ctrl-C reaches the owner, and SIGTERM
    # ends a worker even if a forked owner had installed a handler.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    worker = ShardWorker(max_tables=1).start()
    conn.send(worker.address)
    conn.close()
    owner = os.getppid()
    while os.getppid() == owner:
        time.sleep(_ORPHAN_POLL_S)
    worker.stop()


def start(count: int, timeout: float) -> tuple[list, list[tuple[str, int]]]:
    """Start ``count`` worker processes; returns ``(processes, addresses)``.

    A worker that exits, or stays silent for ``timeout`` seconds, before
    it listens is a :class:`~repro.errors.ClusterError`, and every
    process started so far is stopped again.
    """
    ctx = mp_context()
    processes, pipes, addresses = [], [], []
    try:
        for _ in range(count):
            receive, send = ctx.Pipe(duplex=False)
            pipes.append(receive)
            process = ctx.Process(target=_serve, args=(send,), daemon=True)
            process.start()
            processes.append(process)
            send.close()
        deadline = time.monotonic() + timeout
        for process, receive in zip(processes, pipes):
            if not receive.poll(max(0.0, deadline - time.monotonic())):
                raise ClusterError(f"local worker {process.pid} did not listen")
            try:
                addresses.append(receive.recv())
            except EOFError:
                raise ClusterError(
                    f"local worker {process.pid} exited before listening"
                ) from None
    except BaseException:
        stop(processes)
        raise
    finally:
        for receive in pipes:
            receive.close()
    return processes, addresses


def stop(processes) -> None:
    """Stop every worker process and wait until each has exited."""
    for process in processes:
        process.terminate()
    for process in processes:
        process.join()
