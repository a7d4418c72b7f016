"""Cost-model calibration: fit measured constants for this host.

The recommenders in :mod:`repro.gpu.cost` price executors in *modeled*
ALU cycles; the spin-up and dispatch charges they weigh those cycles
against are educated guesses.  This module measures the real quantities
the backend-scaling and service-throughput benchmarks track —

* how many modeled cycles the vectorized engine retires per wall second
  (the seconds-to-cycles bridge),
* what one worker-process spin-up actually costs,
* what one remote shard dispatch round trip actually costs —

and writes them to a JSON profile.  Point ``REPRO_COST_PROFILE`` at the
file (or call :func:`repro.gpu.cost.set_calibration`) and
``recommend_backend`` / ``recommend_batch_pairs`` /
``recommend_shard_pairs`` use the measured constants.  With the
variable unset they keep the modeled defaults — calibration never
becomes a runtime dependency — while a variable naming a missing or
malformed profile raises :class:`~repro.errors.DeviceError` loudly
(a configured profile that silently degraded to modeled policy would
be worse than none).
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from repro.backends import get_backend, profile_pairs
from repro.gpu.cost import (
    CostCalibration,
    estimate_comparison_cycles,
)
from repro.pixelbox.common import LaunchConfig

__all__ = ["run_calibration", "write_profile"]


def _calibration_workload(pairs_target: int):
    """Pathology-scale pairs (the backend-scaling benchmark's shape)."""
    from repro.data.synth import generate_tile_pair
    from repro.index.join import mbr_pair_join

    pairs = []
    seed = 7100
    while len(pairs) < pairs_target:
        set_a, set_b = generate_tile_pair(
            seed=seed, nuclei=200, width=384, height=384
        )
        join = mbr_pair_join(set_a, set_b)
        pairs.extend(join.pairs(set_a, set_b))
        seed += 1
    return pairs[:pairs_target]


def _measure_cycles_per_second(pairs, repeats: int) -> float:
    """Modeled cycles the vectorized engine retires per wall second."""
    backend = get_backend("vectorized")
    cfg = LaunchConfig()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        backend.compare_pairs(pairs, cfg)
        best = min(best, time.perf_counter() - t0)
    mean_edges, mean_pixels = profile_pairs(pairs)
    modeled = estimate_comparison_cycles(
        len(pairs), mean_edges, mean_pixels, cfg.threshold, cfg.block_size
    )
    return modeled / max(best, 1e-9)


def _measure_spinup_seconds(workers: int) -> float:
    """Wall seconds to fork/spawn one pooled worker process."""
    with get_backend(
        "multiprocess", workers=workers, persistent=True
    ) as backend:
        t0 = time.perf_counter()
        pids = backend.warm()
        elapsed = time.perf_counter() - t0
    return elapsed / max(len(pids), 1)


def _measure_dispatch_seconds(pairs, rounds: int) -> float:
    """Wall seconds of one warm remote shard dispatch (tables resident).

    Runs a tiny shard through a loopback worker repeatedly; with the
    tables cached after the first round, what remains is exactly the
    per-shard overhead the coordinator pays: RUN_SHARD framing, the
    round trip, scheduling — plus a few pairs of compute, subtracted
    out via the cycle model below.
    """
    from repro.cluster import ClusterBackend

    probe = pairs[:8]
    with ClusterBackend(
        loopback_workers=1, min_pairs=1, shard_pairs=len(probe)
    ) as backend:
        backend.compare_pairs(probe)  # pay the table transfer once
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            backend.compare_pairs(probe)
            best = min(best, time.perf_counter() - t0)
    return best


def _measure_compiled(pairs, repeats: int, cycles_per_second: float):
    """``(speedup, warmup_cycles)`` of the compiled substrate, if present.

    Returns ``None`` when the ``repro[numba]`` extra is not installed;
    the profile then keeps the modeled defaults.  The first compiled
    call pays JIT compilation — that wall time, bridged through the
    cycles-per-second constant, is exactly the warm-up charge
    ``recommend_backend`` amortizes against.
    """
    from repro.backends.kernel import numba_unavailable_reason

    if numba_unavailable_reason() is not None:
        return None
    cfg = LaunchConfig()
    with get_backend("numba") as compiled:
        t0 = time.perf_counter()
        compiled.compare_pairs(pairs[:2], cfg)  # JIT compilation happens here
        warmup_seconds = time.perf_counter() - t0
        best_compiled = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            compiled.compare_pairs(pairs, cfg)
            best_compiled = min(best_compiled, time.perf_counter() - t0)
    backend = get_backend("vectorized")
    best_numpy = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        backend.compare_pairs(pairs, cfg)
        best_numpy = min(best_numpy, time.perf_counter() - t0)
    speedup = max(1.0, best_numpy / max(best_compiled, 1e-9))
    warmup_cycles = max(1.0, warmup_seconds * cycles_per_second)
    return speedup, warmup_cycles


def run_calibration(quick: bool = False) -> CostCalibration:
    """Measure this host's constants; returns the fitted profile."""
    pairs = _calibration_workload(200 if quick else 1500)
    repeats = 1 if quick else 3
    cycles_per_second = _measure_cycles_per_second(pairs, repeats)
    spinup_seconds = _measure_spinup_seconds(workers=1 if quick else 2)
    dispatch_seconds = _measure_dispatch_seconds(pairs, rounds=2 if quick else 5)

    mean_edges, mean_pixels = profile_pairs(pairs[:8])
    cfg = LaunchConfig()
    probe_cycles = estimate_comparison_cycles(
        8, mean_edges, mean_pixels, cfg.threshold, cfg.block_size
    )
    dispatch_cycles = max(
        1.0, dispatch_seconds * cycles_per_second - probe_cycles
    )
    compiled = _measure_compiled(pairs, repeats, cycles_per_second)
    extra = {}
    if compiled is not None:
        extra = {
            "compiled_speedup": compiled[0],
            "compiled_warmup_cycles": compiled[1],
        }
    return CostCalibration(
        cycles_per_second=cycles_per_second,
        process_spinup_cycles=max(1.0, spinup_seconds * cycles_per_second),
        shard_dispatch_cycles=dispatch_cycles,
        source=f"{platform.node()} {time.strftime('%Y-%m-%d')} "
        f"({'quick' if quick else 'full'})",
        **extra,
    )


def write_profile(profile: CostCalibration, path: str | Path) -> Path:
    """Persist ``profile`` as the JSON file the cost model loads."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(profile.as_dict(), indent=2) + "\n")
    return out
