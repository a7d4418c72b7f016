"""The exclusive GPU device wrapper.

The GPU "is an exclusive, non-preemptive compute device" (paper §4):
uncontrolled concurrent kernel invocations serialize and waste CPU time
in the driver.  :class:`GpuDevice` models that contract for the simulated
device: a lock serializes launches, every launch pays a fixed overhead
(host-device transfer + driver), and an optional slowdown factor emulates
a device shared with other applications (the paper's Config-III, §5.6).

Lock-wait time is recorded so the NoPipe-M experiment can show the
contention that motivates the single-aggregator design (Table 1).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.backends import get_backend
from repro.errors import DeviceError
from repro.geometry.polygon import RectilinearPolygon
from repro.io.parser_cpu import parse_vectorized
from repro.pixelbox.common import LaunchConfig
from repro.pixelbox.kernel import BatchAreas

__all__ = ["GpuDevice", "DeviceStats"]


@dataclass(slots=True)
class DeviceStats:
    """Per-device accounting."""

    launches: int = 0
    parse_launches: int = 0
    busy_seconds: float = 0.0
    overhead_seconds: float = 0.0
    lock_wait_seconds: float = 0.0
    pairs_processed: int = 0


class GpuDevice:
    """One simulated GPU: serialized, launch-overhead-charged kernels."""

    def __init__(
        self,
        name: str = "gpu0",
        launch_overhead: float = 0.002,
        slowdown: float = 1.0,
        backend: str = "batch",
        backend_options: dict | None = None,
    ) -> None:
        if launch_overhead < 0:
            raise DeviceError("launch overhead cannot be negative")
        if slowdown < 1.0:
            raise DeviceError(f"slowdown must be >= 1.0, got {slowdown}")
        self.name = name
        self.launch_overhead = launch_overhead
        self.slowdown = slowdown
        self.backend_name = backend
        # Resolve through the registry up front so a typo fails at
        # device construction, not mid-pipeline in a worker thread.
        self._backend = get_backend(backend, **(backend_options or {}))
        self.stats = DeviceStats()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def run_aggregate(
        self,
        pairs: list[tuple[RectilinearPolygon, RectilinearPolygon]],
        config: LaunchConfig | None = None,
    ) -> BatchAreas:
        """Launch the configured execution backend (exclusive access)."""
        wait_start = time.perf_counter()
        with self._lock:
            acquired = time.perf_counter()
            self.stats.lock_wait_seconds += acquired - wait_start
            self._charge_overhead()
            t0 = time.perf_counter()
            result = self._backend.compare_pairs(pairs, config)
            kernel = time.perf_counter() - t0
            self._charge_slowdown(kernel)
            self.stats.launches += 1
            self.stats.pairs_processed += len(pairs)
            self.stats.busy_seconds += time.perf_counter() - acquired
        return result

    def run_parse(self, raw: bytes | str | Path) -> list[RectilinearPolygon]:
        """Launch the GPU-Parser kernel (exclusive access).

        The paper ports text parsing to the GPU so the migrator can move
        parser tasks onto an idle device, and notes that the GPU parser
        "is only comparable to its CPU counterpart since text parsing
        requires implementing a finite state machine" (§4.2).  The
        modeled device matches: its parsing kernel is the CPU's
        vectorized tokenizer plus the per-launch overhead, so migrating
        parser work pays off only when the device would otherwise sit
        idle — exactly the condition the migrator checks.
        """
        wait_start = time.perf_counter()
        with self._lock:
            acquired = time.perf_counter()
            self.stats.lock_wait_seconds += acquired - wait_start
            self._charge_overhead()
            t0 = time.perf_counter()
            result = parse_vectorized(raw)
            kernel = time.perf_counter() - t0
            self._charge_slowdown(kernel)
            self.stats.parse_launches += 1
            self.stats.busy_seconds += time.perf_counter() - acquired
        return result

    def try_acquire_idle(self) -> bool:
        """Non-blocking idleness probe (used by the parser migrator)."""
        if self._lock.acquire(blocking=False):
            self._lock.release()
            return True
        return False

    # ------------------------------------------------------------------
    def _charge_overhead(self) -> None:
        if self.launch_overhead > 0:
            time.sleep(self.launch_overhead)
            self.stats.overhead_seconds += self.launch_overhead

    def _charge_slowdown(self, kernel_seconds: float) -> None:
        extra = kernel_seconds * (self.slowdown - 1.0)
        if extra > 0:
            time.sleep(extra)

    def __repr__(self) -> str:
        return (
            f"GpuDevice({self.name!r}, backend={self.backend_name!r}, "
            f"overhead={self.launch_overhead * 1e3:.1f}ms, "
            f"slowdown={self.slowdown:g}, launches={self.stats.launches})"
        )
