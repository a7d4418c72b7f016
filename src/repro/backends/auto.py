"""Auto backend: cost-model-driven dispatch to a concrete executor.

Profiles the workload (pair count, edge density, MBR extent), asks the
cycle cost model in :mod:`repro.gpu.cost` which executor amortizes best,
and delegates.  Selection is pure policy — all backends are bit-for-bit
identical — so the worst misprediction costs wall-clock, never results.
"""

from __future__ import annotations

from repro.backends.base import (
    BackendCapabilities,
    BackendLifecycle,
    Pairs,
    get_backend,
    register,
)
from repro.gpu.cost import recommend_backend
from repro.pixelbox.common import LaunchConfig
from repro.pixelbox.kernel import BatchAreas

__all__ = ["AutoBackend", "profile_pairs"]


def profile_pairs(pairs: Pairs) -> tuple[float, float]:
    """``(mean edges per pair, mean MBR pixels per pair)`` of a workload.

    Edge density counts both polygons' vertical-edge families (the edge
    list every inner loop walks); the MBR extent is the pair cover box —
    the first sampling box of Algorithm 1.
    """
    if not pairs:
        return 0.0, 0.0
    edges = 0
    pixels = 0
    for p, q in pairs:
        edges += len(p.vertical_edges) + len(q.vertical_edges)
        pixels += p.mbr.cover(q.mbr).size
    return edges / len(pairs), pixels / len(pairs)


@register("auto")
class AutoBackend(BackendLifecycle):
    """Cost-model dispatch between batch, vectorized, multiprocess, numba.

    Delegate executors are instantiated once and cached, so a long-lived
    ``auto`` backend (the comparison service's warm pool) reuses them
    across calls; with ``persistent=True`` the multiprocess delegate
    keeps its worker pool warm too.  :meth:`close` releases every cached
    delegate.

    ``calibration`` carries a per-owner cost profile into every
    selection; ``None`` falls back to the process environment's profile
    (``REPRO_COST_PROFILE``), resolved inside the recommender.  A
    :class:`~repro.Session` with a ``cost_profile`` option passes its own
    resolved profile here, so two sessions with different profiles make
    different choices without touching any process-global state.
    """

    name = "auto"
    description = "cost-model dispatch (pair count + edge density -> backend)"

    def __init__(
        self,
        workers: int | None = None,
        persistent: bool = False,
        calibration=None,
    ):
        from repro.backends.multiprocess import default_workers

        self.workers = workers if workers is not None else default_workers()
        self.persistent = persistent
        self.calibration = calibration
        self._delegates: dict[str, object] = {}
        #: Name chosen by the most recent :meth:`compare_pairs` call.
        self.last_choice: str | None = None

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            persistent_pooling=True,
            stateful_lifecycle=True,
            configurable_workers=True,
            max_workers=self.workers,
            notes="delegates via the cycle cost model (calibratable)",
        )

    def select(self, pairs: Pairs, config: LaunchConfig | None = None) -> str:
        """The concrete backend the cost model picks for ``pairs``."""
        cfg = config or LaunchConfig()
        mean_edges, mean_pixels = profile_pairs(pairs)
        return recommend_backend(
            len(pairs),
            mean_edges,
            mean_pixels,
            cfg.threshold,
            cfg.block_size,
            workers=self.workers,
            calibration=self.calibration,
        )

    def _delegate(self, choice: str):
        if choice not in self._delegates:
            kwargs = {}
            if choice == "multiprocess":
                kwargs = {
                    "workers": self.workers, "persistent": self.persistent
                }
            self._delegates[choice] = get_backend(choice, **kwargs)
        return self._delegates[choice]

    def compare_pairs(
        self, pairs: Pairs, config: LaunchConfig | None = None
    ) -> BatchAreas:
        choice = self.select(pairs, config)
        self.last_choice = choice
        return self._delegate(choice).compare_pairs(pairs, config)

    def close(self) -> None:
        delegates, self._delegates = self._delegates, {}
        for backend in delegates.values():
            backend.close()
