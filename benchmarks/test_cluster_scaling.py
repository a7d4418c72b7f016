"""Cluster-scaling benchmark: throughput at 1/2/4 remote workers.

Spawns real ``repro worker`` subprocesses (separate interpreters, so
shards run with genuine process parallelism — the loopback threads the
test suite uses share one GIL and cannot scale) and times the same
pathology-scale pair list through the ``cluster`` backend at 1, 2, and
4 workers, against the single-process vectorized baseline.  Each timed
run reuses resident tables, so the trajectory isolates what the
subsystem adds at steady state: dispatch, scheduling, and result
gathering.  Results land in ``benchmarks/reports/cluster_scaling.txt``;
parity is asserted on every configuration (the numbers are meaningless
if the bits drift).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

from repro.backends import get_backend
from repro.data.synth import generate_tile_pair
from repro.index.join import mbr_pair_join

_PAIRS_TARGET = 3000


def _workload():
    pairs = []
    seed = 90
    while len(pairs) < _PAIRS_TARGET:
        set_a, set_b = generate_tile_pair(
            seed=seed, nuclei=400, width=512, height=512
        )
        join = mbr_pair_join(set_a, set_b)
        pairs.extend(join.pairs(set_a, set_b))
        seed += 1
    return pairs[:_PAIRS_TARGET]


def _spawn_worker() -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    tag, state, host, port = proc.stdout.readline().split()
    assert (tag, state) == ("repro-worker", "ready")
    return proc, f"{host}:{port}"


def _time_cluster(hosts: list[str], pairs, ref, repeats: int = 3) -> float:
    backend = get_backend(
        "cluster", hosts=",".join(hosts), min_pairs=1
    )
    try:
        best = float("inf")
        backend.compare_pairs(pairs)  # warm: connections + table push
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = backend.compare_pairs(pairs)
            best = min(best, time.perf_counter() - t0)
            assert np.array_equal(result.intersection, ref.intersection)
            assert np.array_equal(result.union, ref.union)
    finally:
        backend.close()
    return best


def test_cluster_scaling(benchmark, save_report, save_json):
    pairs = _workload()
    ref = get_backend("vectorized").compare_pairs(pairs)

    workers = [_spawn_worker() for _ in range(4)]
    try:
        def run():
            rows = []
            t0 = time.perf_counter()
            get_backend("vectorized").compare_pairs(pairs)
            base_s = time.perf_counter() - t0
            rows.append(("vectorized (local)", 1, base_s, 1.0))
            addresses = [addr for _, addr in workers]
            for count in (1, 2, 4):
                cl_s = _time_cluster(addresses[:count], pairs, ref)
                rows.append(("cluster", count, cl_s, base_s / cl_s))
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        for proc, _ in workers:
            proc.kill()
            proc.wait(timeout=10)

    lines = [
        f"cluster scaling — {len(pairs)} pathology-scale pairs "
        f"(warm tables, best of 3)",
        f"{'executor':>20s} {'workers':>8s} {'seconds':>9s} {'speedup':>8s} "
        f"{'pairs/s':>10s}",
    ]
    for name, count, seconds, speedup in rows:
        lines.append(
            f"{name:>20s} {count:>8d} {seconds:>9.3f} {speedup:>7.2f}x "
            f"{len(pairs) / seconds:>10.0f}"
        )
    save_report("cluster_scaling", "\n".join(lines))
    save_json(
        "BENCH_cluster_scaling",
        {
            "benchmark": "cluster_scaling",
            "pairs": len(pairs),
            "rows": [
                {
                    "executor": name,
                    "workers": count,
                    "seconds": seconds,
                    "speedup": speedup,
                    "pairs_per_second": len(pairs) / seconds,
                }
                for name, count, seconds, speedup in rows
            ],
        },
    )

    by_count = {count: s for name, count, s, _ in rows if name == "cluster"}
    # Scaling bar kept deliberately loose for CI noise: more workers must
    # never make the same warm workload dramatically slower.
    assert by_count[4] < 2.0 * by_count[1], (
        f"4-worker cluster regressed vs 1 worker: {by_count}"
    )
