"""Cluster smoke test: real ``repro worker`` processes behind a
coordinator, parity vs the in-process kernel, clean failure handling.

Spawns two genuine ``repro worker`` subprocesses on ephemeral TCP ports
(separate interpreters — unlike the loopback transport the test suite
uses, these shards run with real process parallelism), drives a
pathology-scale comparison through the ``cluster`` backend, verifies
every area and work counter bit-for-bit against the ``batch`` backend
in this process, asserts tables traveled once per worker, then kills
one worker mid-service and checks a second request still completes
exactly.  CI runs this as the cluster smoke job.

Run:  PYTHONPATH=src python examples/cluster_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

from repro.backends import get_backend
from repro.data.synth import generate_tile_pair
from repro.index.join import mbr_pair_join

WORKERS = 2


def start_worker() -> tuple[subprocess.Popen, str]:
    """One ``repro worker`` on an ephemeral port; returns (proc, host:port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    ready = proc.stdout.readline().strip()
    tag, state, host, port = ready.split()
    assert (tag, state) == ("repro-worker", "ready"), ready
    return proc, f"{host}:{port}"


def main() -> None:
    set_a, set_b = generate_tile_pair(
        seed=4242, nuclei=400, width=512, height=512
    )
    pairs = mbr_pair_join(set_a, set_b).pairs(set_a, set_b)
    # Cluster shards run the batch policy: batch's areas and counters
    # are the reference for the checks below.
    with get_backend("batch") as batch:
        reference = batch.compare_pairs(pairs)

    workers = [start_worker() for _ in range(WORKERS)]
    hosts = ",".join(addr for _, addr in workers)
    print(f"workers: {hosts}")
    backend = get_backend(
        "cluster", hosts=hosts, min_pairs=1, shard_pairs=64
    )
    try:
        result = backend.compare_pairs(pairs)
        assert np.array_equal(result.intersection, reference.intersection)
        assert np.array_equal(result.union, reference.union)
        assert result.stats.as_dict() == reference.stats.as_dict()
        assert backend.table_transfers == WORKERS, backend.table_transfers
        print(
            f"parity ok: {len(pairs)} pairs, "
            f"{backend.last_report.shards} shards, "
            f"{backend.table_transfers} table transfers, "
            f"report={backend.last_report}"
        )

        # Kill one worker; the next request must re-dispatch its shards
        # and still answer bit-for-bit.
        victim_proc, victim_addr = workers[0]
        victim_proc.kill()
        victim_proc.wait(timeout=10)
        print(f"killed worker {victim_addr}")
        result = backend.compare_pairs(pairs)
        assert np.array_equal(result.intersection, reference.intersection)
        assert np.array_equal(result.union, reference.union)
        print(f"post-kill parity ok, report={backend.last_report}")
    finally:
        backend.close()
        for proc, _ in workers:
            proc.kill()
            proc.wait(timeout=10)
    print("cluster smoke ok")


if __name__ == "__main__":
    main()
